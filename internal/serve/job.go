// Package serve is the crash-safe sweep service behind cmd/cppe-serve: an
// HTTP/JSON API that accepts simulation requests, schedules them on a bounded
// worker pool over one shared cppe.Session, and caches completed Results
// content-addressed by the job fingerprint (cppe.Session.JobID), so identical
// requests are served from cache without running anything.
//
// Robustness is the design center:
//
//   - durability: a journal under the state directory holds what replay
//     reads of each unfinished or failed job; a finished job's only record
//     is its result file. A job is journaled queued before its POST is
//     answered, so a kill -9 loses no answered job, and a job killed mid-run
//     keeps its queued record and reruns from cycle 0 (no run writes a
//     checkpoint: rerunning the few interrupted runs costs less than
//     checkpointing every run);
//   - dedup: job identity IS the content fingerprint, so identical in-flight
//     requests collapse onto one job, and the registry admits a job to the
//     queue only when it is fresh or terminal, so no job has two runners;
//   - backpressure: a bounded admission queue turns overload into HTTP 429 +
//     Retry-After instead of unbounded memory growth. POSTed jobs and sweep
//     points enter it through one admission path (Server.admitLocked);
//   - bounded retry: runs that die with a retryable error (recovered panic,
//     watchdog livelock) back off exponentially and rerun from cycle 0, with
//     a capped attempt budget and a terminal failed state carrying the
//     failure (stack included) past the cap;
//   - graceful shutdown: draining stops running jobs at their next epoch
//     boundary of the simulation; their queued records carry them to the
//     next life, which reruns them.
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
// moves running jobs back to queued; they rerun from cycle 0. The journal holds only what replay
// reads (retrying writes the attempts, failed the error; cached removes the
// record), so the state machine survives kill -9 at any point.
type State string

const (
	// StateQueued: journaled and waiting for a worker (or requeued by a
	// drain/restart). The first durability point.
	StateQueued State = "queued"
	// StateRunning: a worker is advancing the simulation; nothing is written
	// until it ends.
	StateRunning State = "running"
	// StateRetrying: the last attempt died with a retryable error; the job
	// is backing off before rerunning from cycle 0.
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
	// at epoch boundaries of the simulation.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Record is the journaled form of an unfinished or failed job: everything a
// restart needs to continue. It is removed once the job is cached.
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
// sees the job finished before its terminal state is journaled. The channel
// woken is the one current at the transition: a rearm while persist runs
// gives the job a fresh channel for new waiters, which stays open. finish
// returns the terminal record, which a later Record call may no longer
// show once a re-POST has re-armed the job.
func (j *Job) finish(s State, errMsg string, persist func(*Job)) Record {
	j.mu.Lock()
	j.state = s
	j.errMsg = errMsg
	rec := j.recordLocked()
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
	return rec
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
	return j.recordLocked()
}

// recordLocked is Record with j.mu held.
func (j *Job) recordLocked() Record {
	return Record{ID: j.ID, Request: j.Req, State: j.state, Attempts: j.attempts, Error: j.errMsg}
}

// journal hands the job's current record to put, which writes or removes it.
// Calls are serialized per job and read the record under the same lock, so
// the last one acts on the newest state: a writer that snapshotted an older
// state can no longer land after one that snapshotted a newer state.
func (j *Job) journal(put func(Record) error) error {
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	return put(j.Record())
}

// jobFromRecord rebuilds a job from its journal record (used by replay).
func jobFromRecord(rec Record) *Job {
	j := NewJob(rec.ID, rec.Request)
	j.restore(rec)
	return j
}
