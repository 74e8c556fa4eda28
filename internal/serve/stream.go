package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
)

// This file is the sweep event stream: GET /v1/sweeps/{id}/events emits
// server-sent events as the grid's points start, progress, retry, and
// finish. Progress events are driven off the epoch-boundary hook of the
// harness run, so streaming observes the simulation without perturbing it. Publishing never blocks a worker: each subscriber has a
// bounded channel, and a subscriber that cannot keep up has events dropped
// and coalesced — every event carries the full aggregate counts, so any
// single delivered event is a complete picture, and a `dropped` field tells
// the consumer how many updates it missed since the last delivery.

// Event stream types.
const (
	// evSnapshot opens every subscription with the sweep's current aggregate
	// counts, so a late subscriber needs no other source to catch up.
	evSnapshot = "snapshot"
	// evPointStarted: a worker began an attempt of the point, from cycle 0.
	evPointStarted = "point_started"
	// evPointProgress: the attempt reached an epoch boundary; Cycle is the
	// simulated time of the boundary.
	evPointProgress = "point_progress"
	// evPointRetried: the attempt died retryably; the point is backing off
	// and will rerun from cycle 0.
	evPointRetried = "point_retried"
	// evPointDone: the point completed; its canonical result bytes are
	// durable in the result store.
	evPointDone = "point_done"
	// evPointFailed: the point exhausted its budget (or failed terminally);
	// Error carries the message. The rest of the sweep keeps going.
	evPointFailed = "point_failed"
	// evSweepDone: every point is terminal; the stream ends after this.
	evSweepDone = "sweep_done"
)

// Event is one SSE payload. Point fields are empty on snapshot/sweep_done.
type Event struct {
	Type             string      `json:"type"`
	Sweep            string      `json:"sweep"`
	JobID            string      `json:"job_id,omitempty"`
	Benchmark        string      `json:"benchmark,omitempty"`
	Setup            string      `json:"setup,omitempty"`
	Oversubscription int         `json:"oversubscription,omitempty"`
	Cycle            uint64      `json:"cycle,omitempty"`
	Attempts         int         `json:"attempts,omitempty"`
	Error            string      `json:"error,omitempty"`
	Counts           SweepCounts `json:"counts"`
	// Dropped counts events this subscriber missed since its previous
	// delivery (slow-consumer coalescing); Counts is cumulative, so nothing
	// aggregate is lost with them.
	Dropped uint64 `json:"dropped,omitempty"`
}

// subscriber is one /events connection: a bounded mailbox plus a count of
// publishes that found it full.
type subscriber struct {
	ch      chan Event
	dropped atomic.Uint64
}

// hub fans events out to a sweep's subscribers. Its mutex is a leaf — no
// store, registry, or job lock is ever taken under it — and publish is
// non-blocking, so it is safe to call from any worker path.
type hub struct {
	mu   sync.Mutex
	subs map[*subscriber]bool
}

func newHub() *hub { return &hub{subs: make(map[*subscriber]bool)} }

// subscribe registers a mailbox sized for a burst of per-point updates.
func (h *hub) subscribe() *subscriber {
	sub := &subscriber{ch: make(chan Event, 32)}
	h.mu.Lock()
	h.subs[sub] = true
	h.mu.Unlock()
	return sub
}

func (h *hub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	delete(h.subs, sub)
	h.mu.Unlock()
}

// publish offers ev to every subscriber without blocking: a full mailbox
// drops the event and bumps the subscriber's dropped count, delivered
// piggybacked on its next successful event.
func (h *hub) publish(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for sub := range h.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
		}
	}
}

// writeSSE renders one event in text/event-stream framing.
func writeSSE(w http.ResponseWriter, ev Event) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
	return err
}

// handleSweepEvents streams a sweep's events until the sweep finishes or the
// client goes away. The first event is always a snapshot of the aggregate
// counts; if the sweep is already done, the stream is just snapshot +
// sweep_done and then closes.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sw := s.sweeps[id]
	if sw == nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown sweep"})
		return
	}
	// Subscribe under s.mu so no terminal transition can slip between the
	// snapshot below and the subscription (at worst an event duplicates what
	// the snapshot already said — counts are cumulative, so that is benign).
	sub := sw.hub.subscribe()
	first := Event{Type: evSnapshot, Sweep: id, Counts: s.sweepCountsLocked(sw)}
	done := sw.done
	s.mu.Unlock()
	defer sw.hub.unsubscribe(sub)

	fl, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	if writeSSE(w, first) != nil {
		return
	}
	if done {
		writeSSE(w, Event{Type: evSweepDone, Sweep: id, Counts: first.Counts})
		flush()
		return
	}
	flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.stop:
			return
		case ev := <-sub.ch:
			ev.Dropped = sub.dropped.Swap(0)
			if writeSSE(w, ev) != nil {
				return
			}
			flush()
			if ev.Type == evSweepDone {
				return
			}
		}
	}
}
