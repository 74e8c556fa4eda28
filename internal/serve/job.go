// Package serve is the crash-safe sweep service behind cmd/cppe-serve: an
// HTTP/JSON API that accepts simulation requests, schedules them on a bounded
// worker pool over one shared cppe.Session, and caches completed Results
// content-addressed by the checkpoint-envelope fingerprint, so identical
// requests are served from cache without running anything.
//
// Robustness is the design center:
//
//   - durability: every job-state transition is an atomic write into a
//     journal under the state directory, replayed on startup. A job is
//     journaled queued before its POST is answered, so a kill -9 loses no
//     answered job, and a job killed mid-run resumes from its periodic
//     checkpoint (harness.RunResumable);
//   - dedup: job identity IS the content fingerprint, so identical in-flight
//     requests collapse onto one job, and a single-flight guard around the
//     executor keeps even pathological duplicates down to one simulation;
//   - backpressure: a bounded admission queue turns overload into HTTP 429 +
//     Retry-After instead of unbounded memory growth. POSTed jobs and sweep
//     points enter it through one admission path (Server.admitLocked);
//   - bounded retry: runs that die with a retryable error (recovered panic,
//     watchdog livelock) back off exponentially and resume from their last
//     checkpoint, with a capped attempt budget and a terminal failed state
//     carrying the failure (stack included) past the cap;
//   - graceful shutdown: draining parks running jobs at their next checkpoint
//     boundary, requeues them durably, and leaves a journal a restart replays.
//
// Everything concurrent or clock-bound lives here, in the service layer; the
// simulation core underneath stays single-goroutine and deterministic, which
// is what makes served results byte-identical to `cppe-sim -json` output.
package serve

import (
	"sync"
)

// State is one phase of the job lifecycle:
//
//	queued -> running -> cached
//	           |  ^        (terminal, result on disk)
//	           v  |
//	         retrying -> failed (terminal, error attached)
//
// A job is born queued: admission journals it in that state before pushing
// it to the run queue, and before its POST is answered. A graceful shutdown
// moves running jobs back to queued (checkpointed and requeued); the journal
// is written at every transition, so the state machine survives kill -9 at
// any point.
type State string

const (
	// StateQueued: journaled and waiting for a worker (or requeued by a
	// drain/restart). The first durability point.
	StateQueued State = "queued"
	// StateRunning: a worker is advancing the simulation, checkpointing
	// periodically.
	StateRunning State = "running"
	// StateRetrying: the last attempt died with a retryable error; the job
	// is backing off before resuming from its checkpoint.
	StateRetrying State = "retrying"
	// StateCached: terminal success — the canonical result bytes are in the
	// result store, and every future identical request is a cache hit.
	StateCached State = "cached"
	// StateFailed: terminal failure — the attempt budget is exhausted or the
	// error was not retryable; the error (with stack, for panics) is
	// attached. A re-POST of the same request re-arms the job.
	StateFailed State = "failed"
)

// Terminal reports whether s is an end state.
func (s State) Terminal() bool { return s == StateCached || s == StateFailed }

// Request is the wire shape of one simulation request. Benchmark, Setup and
// Oversubscription are the job's identity (together with the server session's
// options); DeadlineMS is an execution knob and deliberately not part of it.
type Request struct {
	Benchmark        string `json:"benchmark"`
	Setup            string `json:"setup"`
	Oversubscription int    `json:"oversubscription"`
	// DeadlineMS optionally overrides the server's per-attempt deadline for
	// this job, in milliseconds (0 = server default). Deadlines are enforced
	// at checkpoint boundaries.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Record is the journaled form of a job: everything a restart needs to
// continue. One record per job; each state transition atomically replaces it.
type Record struct {
	ID       string  `json:"id"`
	Request  Request `json:"request"`
	State    State   `json:"state"`
	Attempts int     `json:"attempts"`
	Error    string  `json:"error,omitempty"`
}

// Job is the in-memory state of one accepted request.
type Job struct {
	ID  string
	Req Request

	mu       sync.Mutex
	state    State
	attempts int
	errMsg   string
	done     chan struct{}

	// journalMu serializes the job's journal writes (see journal).
	journalMu sync.Mutex
}

// NewJob returns a queued job.
func NewJob(id string, req Request) *Job {
	return &Job{ID: id, Req: req, state: StateQueued, done: make(chan struct{})}
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Attempts returns the number of failed attempts so far.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// Err returns the terminal error message ("" while not failed).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// setState moves the job to a non-terminal state.
func (j *Job) setState(s State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = s
}

// bumpAttempts records one more failed attempt and returns the new count.
func (j *Job) bumpAttempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attempts++
	return j.attempts
}

// finish moves the job to a terminal state, runs persist (when non-nil) to
// make that state durable, and only then wakes the waiters, so a waiter never
// sees the job finished before its terminal record is journaled. The channel
// woken is the one current at the transition: a rearm while persist runs
// gives the job a fresh channel for new waiters, which stays open.
func (j *Job) finish(s State, errMsg string, persist func(*Job)) {
	j.mu.Lock()
	j.state = s
	j.errMsg = errMsg
	done := j.done
	j.mu.Unlock()
	if persist != nil {
		persist(j)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	select {
	case <-done:
	default:
		close(done)
	}
}

// rearm resets a terminal job for re-submission: state queued, attempt
// budget restored, a fresh done channel for the new waiters.
func (j *Job) rearm() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateQueued
	j.attempts = 0
	j.errMsg = ""
	j.done = make(chan struct{})
}

// restore rolls the job back to a previously snapshotted record — the undo
// for a rearm whose journal write or queue push then failed. The done
// channel is re-closed when the restored state is terminal, so waiters from
// before the rearm and after it both see the job finished.
func (j *Job) restore(rec Record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = rec.State
	j.attempts = rec.Attempts
	j.errMsg = rec.Error
	if rec.State.Terminal() {
		select {
		case <-j.done:
		default:
			close(j.done)
		}
	}
}

// Record snapshots the job's journal record.
func (j *Job) Record() Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Record{ID: j.ID, Request: j.Req, State: j.state, Attempts: j.attempts, Error: j.errMsg}
}

// journal writes the job's current record through put. Writes are
// serialized per job and the record is read under the same lock, so the last
// write always carries the newest state: a writer that snapshotted an older
// state can no longer land after one that snapshotted a newer state.
func (j *Job) journal(put func(Record) error) error {
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	return put(j.Record())
}

// jobFromRecord rebuilds a job from its journal record (used by replay).
func jobFromRecord(rec Record) *Job {
	j := NewJob(rec.ID, rec.Request)
	j.state = rec.State
	j.attempts = rec.Attempts
	j.errMsg = rec.Error
	if rec.State.Terminal() {
		close(j.done)
	}
	return j
}
