package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
)

// This file is the fault-isolated sweep job layer: one POST /v1/sweeps
// accepts a fig8-style grid (benchmarks × setups × oversubscription rates),
// fans it out through the existing job machinery as per-point content-
// addressed jobs, and journals a durable manifest so a kill -9 mid-sweep
// resumes only the unfinished points. Each point keeps the single-job
// guarantees — independent bounded retry from retained checkpoints, dedup
// through the result cache — and a point that exhausts its budget is marked
// failed in the sweep while every other point completes. Fan-out is windowed
// (Config.SweepWorkers points of one sweep in flight at a time), so a huge
// grid cannot flood the admission queue and starve direct jobs.

// SweepRequest is the wire shape of POST /v1/sweeps: the cross product of
// the three axes is the grid. Axis order is preserved, so the point order of
// the manifest — and of every status, result, and event document — is
// deterministic: benchmarks outermost, then setups, then rates.
type SweepRequest struct {
	Benchmarks        []string `json:"benchmarks"`
	Setups            []string `json:"setups"`
	Oversubscriptions []int    `json:"oversubscriptions"`
	// DeadlineMS optionally bounds each point's attempt wall clock, like the
	// per-job deadline_ms knob (0 = server default). An execution knob, not
	// part of the sweep's identity.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// maxSweepPoints bounds one grid; a request expanding past it is rejected
// with 400 rather than admitted as a multi-day denial of service.
const maxSweepPoints = 4096

// PointRecord is one grid cell of a durable sweep manifest.
type PointRecord struct {
	Benchmark        string `json:"benchmark"`
	Setup            string `json:"setup"`
	Oversubscription int    `json:"oversubscription"`
	JobID            string `json:"job_id"`
}

// SweepRecord is the journaled sweep manifest: the request plus the ordered,
// content-addressed point list. It is written once at accept (tmp+rename)
// and never replaced — per-point state lives in the job journal and the
// result store, so replaying manifest + journal reconstructs the sweep
// exactly.
type SweepRecord struct {
	ID      string        `json:"id"`
	Request SweepRequest  `json:"request"`
	Points  []PointRecord `json:"points"`
}

// SweepPoint is the in-memory form of one grid cell.
type SweepPoint struct {
	Req   Request
	JobID string
}

// Sweep is the in-memory state of one accepted grid. All mutable fields are
// guarded by the Server's registry mutex; the hub has its own lock and its
// publish path never blocks, so event fan-out cannot backpressure workers.
type Sweep struct {
	ID     string
	Req    SweepRequest
	Points []*SweepPoint
	hub    *hub

	// admitted marks points already handed to the job machinery (guarded by
	// Server.mu); unadmitted points are "pending" and enter through the
	// fan-out window as earlier points finish.
	admitted []bool
	// done latches the all-points-terminal edge so sweep_done publishes once.
	done bool
}

// Sweep-view pseudo-states. Grid points borrow the job State vocabulary and
// add two states jobs themselves never report:
const (
	// StatePending (sweep views only): the point has not yet been admitted
	// through the sweep's fan-out window.
	StatePending State = "pending"
	// StateEvicted (sweep views only): the point completed but its result
	// bytes were evicted by store GC after the sweep finished. Re-POSTing
	// the sweep (or the point) recomputes it.
	StateEvicted State = "evicted"
)

// terminalPointState reports whether a sweep point needs no further work.
func terminalPointState(st State) bool {
	return st == StateCached || st == StateFailed || st == StateEvicted
}

// SweepCounts aggregates per-point states (plus total retries) for status
// documents and SSE events.
type SweepCounts struct {
	Points   int `json:"points"`
	Pending  int `json:"pending"`
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Retrying int `json:"retrying"`
	Cached   int `json:"cached"`
	Failed   int `json:"failed"`
	Evicted  int `json:"evicted"`
	// Retries sums failed attempts across all points.
	Retries int `json:"retries"`
}

// SweepSubmitResponse is the body of POST /v1/sweeps.
type SweepSubmitResponse struct {
	ID     string `json:"id"`
	State  string `json:"state"` // "running" or "done"
	Points int    `json:"points"`
	// Cached is true when every point was already terminal with durable
	// results at accept time — the sweep analogue of a job cache hit.
	Cached bool `json:"cached,omitempty"`
	// Deduped is true when the grid matched an already-registered sweep.
	Deduped bool `json:"deduped,omitempty"`
}

// SweepPointStatus is one grid cell in a status document.
type SweepPointStatus struct {
	Benchmark        string `json:"benchmark"`
	Setup            string `json:"setup"`
	Oversubscription int    `json:"oversubscription"`
	JobID            string `json:"job_id"`
	State            State  `json:"state"`
	Attempts         int    `json:"attempts,omitempty"`
	Error            string `json:"error,omitempty"`
}

// SweepStatusResponse is the body of GET /v1/sweeps/{id}.
type SweepStatusResponse struct {
	ID     string             `json:"id"`
	State  string             `json:"state"`
	Counts SweepCounts        `json:"counts"`
	Points []SweepPointStatus `json:"points"`
}

// SweepPointResult is one grid cell of a result document: the point status
// plus, for cached points, the stored canonical result bytes.
type SweepPointResult struct {
	SweepPointStatus
	Result json.RawMessage `json:"result,omitempty"`
}

// SweepResultResponse is the body of GET /v1/sweeps/{id}/result: the partial
// (or, once done, complete) grid with per-point state.
type SweepResultResponse struct {
	ID     string             `json:"id"`
	Done   bool               `json:"done"`
	Counts SweepCounts        `json:"counts"`
	Points []SweepPointResult `json:"points"`
}

// buildSweepPoints expands and validates a grid: every axis non-empty, every
// point resolvable to a content-addressed job ID, duplicates (from repeated
// axis values) collapsed onto their first occurrence.
func (s *Server) buildSweepPoints(req SweepRequest) ([]*SweepPoint, error) {
	if len(req.Benchmarks) == 0 || len(req.Setups) == 0 || len(req.Oversubscriptions) == 0 {
		return nil, fmt.Errorf("empty grid: benchmarks, setups, and oversubscriptions must each list at least one value")
	}
	n := len(req.Benchmarks) * len(req.Setups) * len(req.Oversubscriptions)
	if n > maxSweepPoints {
		return nil, fmt.Errorf("grid expands to %d points, over the %d-point limit", n, maxSweepPoints)
	}
	seen := make(map[string]bool, n)
	points := make([]*SweepPoint, 0, n)
	for _, b := range req.Benchmarks {
		for _, su := range req.Setups {
			for _, pct := range req.Oversubscriptions {
				preq := Request{Benchmark: b, Setup: su, Oversubscription: pct, DeadlineMS: req.DeadlineMS}
				id, err := s.cfg.Runner.JobID(preq)
				if err != nil {
					return nil, fmt.Errorf("point %s/%s/%d: %s", b, su, pct, err)
				}
				if seen[id] {
					continue
				}
				seen[id] = true
				points = append(points, &SweepPoint{Req: preq, JobID: id})
			}
		}
	}
	return points, nil
}

// sweepID content-addresses a grid: FNV-1a over the ordered point job IDs.
// Two requests expanding to the same points are the same sweep, and resubmit
// dedupes onto it.
func sweepID(points []*SweepPoint) string {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(str string) {
		for i := 0; i < len(str); i++ {
			h ^= uint64(str[i])
			h *= prime64
		}
	}
	mix("sweep:")
	for _, p := range points {
		mix(p.JobID)
		mix("|")
	}
	return fmt.Sprintf("%016x", h)
}

// point returns the sweep's point for jobID, or nil.
func (sw *Sweep) point(jobID string) *SweepPoint {
	for _, p := range sw.Points {
		if p.JobID == jobID {
			return p
		}
	}
	return nil
}

// record renders the sweep's durable manifest.
func (sw *Sweep) record() SweepRecord {
	rec := SweepRecord{ID: sw.ID, Request: sw.Req, Points: make([]PointRecord, len(sw.Points))}
	for i, p := range sw.Points {
		rec.Points[i] = PointRecord{
			Benchmark: p.Req.Benchmark, Setup: p.Req.Setup,
			Oversubscription: p.Req.Oversubscription, JobID: p.JobID,
		}
	}
	return rec
}

// sweepFromRecord rebuilds a sweep from its manifest (used by replay).
func sweepFromRecord(rec SweepRecord) *Sweep {
	sw := &Sweep{
		ID:       rec.ID,
		Req:      rec.Request,
		Points:   make([]*SweepPoint, len(rec.Points)),
		admitted: make([]bool, len(rec.Points)),
		hub:      newHub(),
	}
	for i, p := range rec.Points {
		sw.Points[i] = &SweepPoint{
			Req: Request{
				Benchmark: p.Benchmark, Setup: p.Setup,
				Oversubscription: p.Oversubscription, DeadlineMS: rec.Request.DeadlineMS,
			},
			JobID: p.JobID,
		}
	}
	return sw
}

// pointViewLocked derives one point's state from the job registry and the
// result store (s.mu held). The job journal is authoritative while a job
// object exists; a point with durable result bytes but no registry entry was
// compacted in an earlier process life and is simply cached.
func (s *Server) pointViewLocked(jobID string) (State, int, string) {
	if j := s.jobs[jobID]; j != nil {
		rec := j.Record()
		if rec.State == StateCached && !s.store.HasResult(jobID) {
			return StateEvicted, rec.Attempts, ""
		}
		return rec.State, rec.Attempts, rec.Error
	}
	if s.store.HasResult(jobID) {
		return StateCached, 0, ""
	}
	return StatePending, 0, ""
}

// sweepCountsLocked aggregates the grid's per-point states (s.mu held).
func (s *Server) sweepCountsLocked(sw *Sweep) SweepCounts {
	c := SweepCounts{Points: len(sw.Points)}
	for _, p := range sw.Points {
		st, attempts, _ := s.pointViewLocked(p.JobID)
		c.Retries += attempts
		switch st {
		case StatePending:
			c.Pending++
		case StateAccepted, StateQueued:
			c.Queued++
		case StateRunning:
			c.Running++
		case StateRetrying:
			c.Retrying++
		case StateCached:
			c.Cached++
		case StateFailed:
			c.Failed++
		case StateEvicted:
			c.Evicted++
		}
	}
	return c
}

// sweepDoneLocked reports whether every point is terminal (s.mu held). A
// point that was re-armed but not yet re-admitted through the window still
// *looks* terminal (failed/evicted) — the admitted flag distinguishes it,
// so a sweep with pending re-admissions never reads as done.
func (s *Server) sweepDoneLocked(sw *Sweep) bool {
	for i, p := range sw.Points {
		if !sw.admitted[i] {
			return false
		}
		st, _, _ := s.pointViewLocked(p.JobID)
		if !terminalPointState(st) {
			return false
		}
	}
	return true
}

// sweepInflightLocked counts admitted, not-yet-terminal points — the fan-out
// window's occupancy (s.mu held).
func (s *Server) sweepInflightLocked(sw *Sweep) int {
	n := 0
	for i, p := range sw.Points {
		if !sw.admitted[i] {
			continue
		}
		st, _, _ := s.pointViewLocked(p.JobID)
		if !terminalPointState(st) {
			n++
		}
	}
	return n
}

// errQueueFull defers fan-out: the point stays pending and the window
// retries on the next job transition.
var errQueueFull = fmt.Errorf("serve: admission queue full")

// admitPointLocked hands one grid point to the job machinery (s.mu held).
// An existing terminal job with durable bytes needs nothing; a failed or
// evicted one is re-armed with a fresh attempt budget; an in-flight one is
// joined; otherwise a fresh job is journaled and queued. The sweep is wired
// as a watcher of the point's job either way.
func (s *Server) admitPointLocked(sw *Sweep, p *SweepPoint) error {
	s.watchLocked(p.JobID, sw)
	j := s.jobs[p.JobID]
	if j != nil {
		rec := j.Record()
		switch {
		case rec.State == StateCached && s.store.HasResult(p.JobID):
			return nil // already done; result is durable
		case !rec.State.Terminal():
			return nil // in flight (possibly from a direct POST); just watch
		}
		// Failed, or cached with evicted bytes: re-arm and requeue.
		j.rearm()
		j.setState(StateQueued)
		if err := j.journal(s.store.PutJob); err != nil {
			j.restore(rec)
			s.degradeOnDiskPressure(err)
			return err
		}
		if !s.queue.TryPush(j) {
			j.restore(rec)
			j.journal(s.store.PutJob)
			return errQueueFull
		}
		return nil
	}
	if s.store.HasResult(p.JobID) {
		return nil // completed in a previous life; the result file carries it
	}
	j = NewJob(p.JobID, p.Req)
	j.setState(StateQueued)
	if err := j.journal(s.store.PutJob); err != nil {
		s.degradeOnDiskPressure(err)
		return err
	}
	if !s.queue.TryPush(j) {
		s.store.DeleteJob(p.JobID)
		return errQueueFull
	}
	s.jobs[p.JobID] = j
	return nil
}

// watchLocked registers sw as a watcher of jobID (s.mu held; idempotent).
func (s *Server) watchLocked(jobID string, sw *Sweep) {
	for _, w := range s.watch[jobID] {
		if w == sw {
			return
		}
	}
	s.watch[jobID] = append(s.watch[jobID], sw)
}

// advanceSweepLocked admits pending points up to the fan-out window and
// latches the done edge (s.mu held). Fan-out pauses while the server drains,
// stops, or is degraded — pending points stay durable in the manifest and
// resume in the next process life.
func (s *Server) advanceSweepLocked(sw *Sweep) {
	if !s.stopping() && !s.isDraining() && !s.degradedMode() {
		inflight := s.sweepInflightLocked(sw)
		for i, p := range sw.Points {
			if inflight >= s.cfg.SweepWorkers {
				break
			}
			if sw.admitted[i] {
				continue
			}
			if err := s.admitPointLocked(sw, p); err != nil {
				break // queue full or disk pressure: retry on the next transition
			}
			sw.admitted[i] = true
			if st, _, _ := s.pointViewLocked(p.JobID); !terminalPointState(st) {
				inflight++
			}
		}
	}
	if !sw.done && s.sweepDoneLocked(sw) {
		sw.done = true
		sw.hub.publish(Event{Type: evSweepDone, Sweep: sw.ID, Counts: s.sweepCountsLocked(sw)})
	}
}

// advanceAllLocked advances every sweep's window (s.mu held); called on each
// terminal job transition, in sorted order so fan-out is stable.
func (s *Server) advanceAllLocked() {
	ids := make([]string, 0, len(s.sweeps))
	for id := range s.sweeps {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		s.advanceSweepLocked(s.sweeps[id])
	}
}

// rearmSweepLocked marks failed and evicted points pending again (s.mu
// held), returning how many; a later advance re-admits them with fresh
// budgets. The sweep analogue of re-POSTing a failed job.
func (s *Server) rearmSweepLocked(sw *Sweep) int {
	n := 0
	for i, p := range sw.Points {
		st, _, _ := s.pointViewLocked(p.JobID)
		if st == StateFailed || st == StateEvicted {
			sw.admitted[i] = false
			sw.done = false
			n++
		}
	}
	return n
}

// ---- HTTP surface ----

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	points, err := s.buildSweepPoints(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	id := sweepID(points)

	s.mu.Lock()
	if sw := s.sweeps[id]; sw != nil {
		// Same grid again: re-arm any failed/evicted points (fresh budgets,
		// like a job re-POST) and report the existing sweep. Advance even
		// when nothing was re-armed — the last point may have gone terminal
		// without the done edge latched yet.
		rearmed := s.rearmSweepLocked(sw)
		s.advanceSweepLocked(sw)
		done := sw.done && rearmed == 0
		n := len(sw.Points)
		s.mu.Unlock()
		if done {
			writeJSON(w, http.StatusOK, SweepSubmitResponse{ID: id, State: "done", Points: n, Cached: true})
			return
		}
		writeJSON(w, http.StatusAccepted, SweepSubmitResponse{ID: id, State: "running", Points: n, Deduped: true})
		return
	}
	if s.isDraining() || s.degradedMode() {
		s.mu.Unlock()
		s.counters.Rejected.Add(1)
		s.writeUnavailable(w, s.unavailableReason())
		return
	}

	sw := &Sweep{ID: id, Req: req, Points: points, admitted: make([]bool, len(points)), hub: newHub()}
	// Durability point: the manifest is journaled before the POST is
	// answered; a kill -9 any time after this resumes the sweep.
	if err := s.store.PutSweep(sw.record()); err != nil {
		s.mu.Unlock()
		if s.degradeOnDiskPressure(err) {
			s.counters.Rejected.Add(1)
			s.writeUnavailable(w, s.unavailableReason())
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.sweeps[id] = sw
	s.counters.SweepsAccepted.Add(1)
	s.counters.SweepPoints.Add(uint64(len(points)))
	s.advanceSweepLocked(sw)
	done := sw.done
	s.mu.Unlock()

	s.cfg.Logf("serve: sweep %s accepted (%d points)", id, len(points))
	if done {
		writeJSON(w, http.StatusOK, SweepSubmitResponse{ID: id, State: "done", Points: len(points), Cached: true})
		return
	}
	writeJSON(w, http.StatusAccepted, SweepSubmitResponse{ID: id, State: "running", Points: len(points)})
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sw := s.sweeps[id]
	if sw == nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown sweep"})
		return
	}
	out := SweepStatusResponse{ID: id, State: "running", Counts: s.sweepCountsLocked(sw)}
	if s.sweepDoneLocked(sw) {
		out.State = "done"
	}
	for _, p := range sw.Points {
		st, attempts, errMsg := s.pointViewLocked(p.JobID)
		out.Points = append(out.Points, SweepPointStatus{
			Benchmark: p.Req.Benchmark, Setup: p.Req.Setup,
			Oversubscription: p.Req.Oversubscription, JobID: p.JobID,
			State: st, Attempts: attempts, Error: errMsg,
		})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// handleSweepResult serves the grid: per-point state plus, for cached
// points, the stored canonical result bytes. The grid is served partial
// while points are still running — per-point state says which cells are
// trustworthy — and is byte-deterministic once the sweep is done. Each
// point's bytes are pinned while read, so GC can never race an in-flight
// grid assembly.
func (s *Server) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sw := s.sweeps[id]
	if sw == nil {
		s.mu.Unlock()
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown sweep"})
		return
	}
	out := SweepResultResponse{ID: id, Done: s.sweepDoneLocked(sw), Counts: s.sweepCountsLocked(sw)}
	type pending struct {
		idx   int
		jobID string
	}
	var reads []pending
	for _, p := range sw.Points {
		st, attempts, errMsg := s.pointViewLocked(p.JobID)
		pr := SweepPointResult{SweepPointStatus: SweepPointStatus{
			Benchmark: p.Req.Benchmark, Setup: p.Req.Setup,
			Oversubscription: p.Req.Oversubscription, JobID: p.JobID,
			State: st, Attempts: attempts, Error: errMsg,
		}}
		if st == StateCached {
			// Pin now, under the registry lock, so GC cannot evict between
			// the state snapshot and the read below.
			s.store.Pin(p.JobID)
			reads = append(reads, pending{idx: len(out.Points), jobID: p.JobID})
		}
		out.Points = append(out.Points, pr)
	}
	s.mu.Unlock()

	for _, rd := range reads {
		data, err := s.store.Result(rd.jobID)
		s.store.Unpin(rd.jobID)
		if err != nil {
			// Evicted or lost between snapshot and read: report the state
			// honestly rather than serving a hole.
			out.Points[rd.idx].State = StateEvicted
			continue
		}
		out.Points[rd.idx].Result = json.RawMessage(data)
	}
	writeJSON(w, http.StatusOK, out)
}
