package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	cppe "github.com/reproductions/cppe"
	"github.com/reproductions/cppe/internal/serve/fsfault"
	"github.com/reproductions/cppe/internal/stats"
)

// Runner abstracts the simulation session behind the service so the HTTP and
// lifecycle machinery is testable with stub runners (instant, blocking,
// failing) without spending real simulation time.
type Runner interface {
	// JobID returns the stable content fingerprint of req, or an error for a
	// malformed request (surfaced as HTTP 400).
	JobID(req Request) (string, error)
	// Run executes the simulation, checkpointing to ckptPath every
	// everyCycles simulated cycles and consulting stop at each boundary;
	// stop()==true parks the run with cppe.ErrParked, leaving the checkpoint
	// for a later Run to resume. After each durable checkpoint write the
	// progress hook (nil = none) receives the checkpoint's simulated cycle —
	// the tap sweep streaming runs off.
	Run(req Request, ckptPath string, everyCycles uint64, stop func() bool, progress func(cycle uint64)) (cppe.Result, error)
}

// sessionRunner is the production Runner: one shared *cppe.Session. The
// session serializes runs internally per call; concurrency across workers is
// safe because the facade locks the underlying harness per run.
type sessionRunner struct{ s *cppe.Session }

// SessionRunner wraps a cppe.Session as the service's Runner.
func SessionRunner(s *cppe.Session) Runner { return sessionRunner{s: s} }

func toCppe(r Request) cppe.Request {
	return cppe.Request{Benchmark: r.Benchmark, Setup: r.Setup, Oversubscription: r.Oversubscription}
}

func (r sessionRunner) JobID(req Request) (string, error) {
	return r.s.JobID(toCppe(req))
}

func (r sessionRunner) Run(req Request, ckptPath string, everyCycles uint64, stop func() bool, progress func(cycle uint64)) (cppe.Result, error) {
	return r.s.RunResumableProgress(toCppe(req), ckptPath, everyCycles, stop, progress)
}

// Config parameterizes a Server. Zero values get sensible defaults from New.
type Config struct {
	// StateDir is the durable state directory (journal, results, checkpoints,
	// sweep manifests).
	StateDir string
	// Workers is the size of the simulation worker pool (default 2).
	Workers int
	// QueueDepth bounds the admission queue; a full queue sheds new
	// submissions with 429 (default 64).
	QueueDepth int
	// CheckpointEvery is the checkpoint cadence in simulated cycles; it also
	// bounds how long a graceful drain or deadline waits for a park point
	// (default 1<<21).
	CheckpointEvery uint64
	// MaxAttempts caps run attempts per job before terminal failure
	// (default 3).
	MaxAttempts int
	// RetryBase and RetryCap shape the bounded exponential backoff between
	// retryable failures (defaults 500ms base, 8s cap).
	RetryBase time.Duration
	RetryCap  time.Duration
	// Deadline is the per-attempt wall-clock budget, enforced at checkpoint
	// boundaries; 0 means no deadline. A request's deadline_ms overrides it.
	Deadline time.Duration
	// SweepWorkers caps how many points of one sweep are in flight at a time
	// (the fan-out window); a huge grid trickles through it instead of
	// flooding the queue (default: Workers).
	SweepWorkers int
	// StoreMaxBytes and StoreMaxAge bound the result store; zero disables the
	// corresponding bound (and with both zero, GC entirely). Eviction is LRU
	// by last-served and never touches pinned results, results of
	// non-terminal jobs, or points of active sweeps.
	StoreMaxBytes int64
	StoreMaxAge   time.Duration
	// FS optionally overrides the store's filesystem (chaos tests inject
	// seeded faults through it; nil = the real filesystem).
	FS fsfault.FS
	// Runner executes simulations; required (use SessionRunner in production).
	Runner Runner
	// Logf sinks operational log lines (default log.Printf).
	Logf func(format string, args ...any)
}

// Server is the sweep service: HTTP handlers, job registry, durable store,
// bounded queue, and worker pool. Create with New, then Start; stop with
// Drain + Shutdown.
type Server struct {
	cfg      Config
	store    *Store
	queue    *queue
	flight   group
	counters stats.ServeCounters

	mu     sync.Mutex
	jobs   map[string]*Job
	sweeps map[string]*Sweep
	// watch maps a job ID to the sweeps containing it as a point, for event
	// fan-out and window advancement on its transitions.
	watch map[string][]*Sweep

	// degraded latches sticky disk-pressure degradation: new work is shed
	// with 503 and running jobs park at their next checkpoint boundary. Only
	// a restart — presumably with the disk condition fixed — clears it.
	degraded       atomic.Bool
	degradedMu     sync.Mutex
	degradedReason string

	draining chan struct{} // closed by Drain: shed new work
	stop     chan struct{} // closed by Shutdown: park running jobs
	drainOnce,
	stopOnce sync.Once
	wg  sync.WaitGroup
	mux *http.ServeMux
}

// New builds a Server over cfg, opening the state directory and replaying the
// journal: terminal jobs with results become cache entries (their journal
// records compacted away — the result file alone carries them), everything
// else is requeued (a job that was running when the last process died resumes
// from its checkpoint). Sweep manifests are replayed the same way: finished
// points are recognized by their durable results, unfinished ones resume
// through the fan-out window. Workers do not start until Start.
func New(cfg Config) (*Server, error) {
	if cfg.Runner == nil {
		return nil, errors.New("serve: Config.Runner is required")
	}
	if cfg.StateDir == "" {
		return nil, errors.New("serve: Config.StateDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1 << 21
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 500 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 8 * time.Second
	}
	if cfg.SweepWorkers <= 0 {
		cfg.SweepWorkers = cfg.Workers
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}

	store, err := OpenStoreFS(cfg.StateDir, cfg.FS)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		store:    store,
		jobs:     make(map[string]*Job),
		sweeps:   make(map[string]*Sweep),
		watch:    make(map[string][]*Sweep),
		draining: make(chan struct{}),
		stop:     make(chan struct{}),
	}

	recs, err := store.Jobs()
	if err != nil {
		return nil, err
	}
	// Requeued replay jobs must all fit regardless of the configured depth:
	// admission control sheds *new* work, never work already accepted.
	pending := 0
	for _, rec := range recs {
		// Cached jobs whose result bytes are gone rerun, so they count.
		if !rec.State.Terminal() || (rec.State == StateCached && !store.HasResult(rec.ID)) {
			pending++
		}
	}
	depth := cfg.QueueDepth
	if pending > depth {
		depth = pending
	}
	s.queue = newQueue(depth)

	for _, rec := range recs {
		s.counters.Replayed.Add(1)
		switch {
		case rec.State == StateCached && !store.HasResult(rec.ID):
			// Journal says done but the result bytes are gone (crash between
			// the two writes, or GC under a pruned results dir): run it again.
			rec.State = StateQueued
			rec.Error = ""
			fallthrough
		case !rec.State.Terminal():
			rec.State = StateQueued
			j := jobFromRecord(rec)
			if err := j.journal(store.PutJob); err != nil {
				return nil, err
			}
			s.jobs[j.ID] = j
			s.queue.TryPush(j) // sized above; cannot fail
			cfg.Logf("serve: replayed job %s -> queued (attempts=%d)", j.ID, j.Attempts())
		case rec.State == StateCached:
			// Compaction: the durable result bytes alone carry a finished job
			// across restarts, so the journal record is redundant — register
			// the job in memory and drop the record, keeping the journal
			// proportional to unfinished + failed work instead of all-time
			// throughput.
			j := jobFromRecord(rec)
			s.jobs[j.ID] = j
			store.DeleteJob(rec.ID)
			s.counters.Compacted.Add(1)
		default: // failed: keep the record — it carries the error across restarts
			j := jobFromRecord(rec)
			s.jobs[j.ID] = j
		}
	}

	// Checkpoints whose job appears nowhere (its torn journal record was
	// dropped by replay) would otherwise leak forever.
	known := make(map[string]bool, len(s.jobs))
	for id := range s.jobs {
		known[id] = true
	}
	if n := store.SweepOrphanCheckpoints(known); n > 0 {
		cfg.Logf("serve: removed %d orphan checkpoints", n)
	}

	// Replay sweep manifests: a point with any trace of prior admission — a
	// registered job or a durable result — was admitted in an earlier life;
	// the rest stay pending and re-enter through the fan-out window.
	srecs, err := store.Sweeps()
	if err != nil {
		return nil, err
	}
	for _, rec := range srecs {
		sw := sweepFromRecord(rec)
		s.sweeps[sw.ID] = sw
		for i, p := range sw.Points {
			if s.jobs[p.JobID] != nil {
				sw.admitted[i] = true
				s.watchLocked(p.JobID, sw)
			} else if store.HasResult(p.JobID) {
				sw.admitted[i] = true
			}
		}
		sw.done = s.sweepDoneLocked(sw)
		cfg.Logf("serve: replayed sweep %s (%d points, done=%v)", sw.ID, len(sw.Points), sw.done)
	}
	s.advanceAllLocked() // admit pending replay points up to each window
	s.maybeGC()          // age bounds apply from the first breath, not the first completion

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepStatus)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleSweepResult)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	return s, nil
}

// Start launches the worker pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Handler returns the service's HTTP handler (mountable under httptest too).
func (s *Server) Handler() http.Handler { return s.mux }

// Counters exposes the live service counters (shared with /statsz).
func (s *Server) Counters() *stats.ServeCounters { return &s.counters }

// Store exposes the durable store (tests and the smoke job peek at it).
func (s *Server) Store() *Store { return s.store }

// Job returns the registered job for id, or nil.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// Sweep returns the registered sweep for id, or nil (tests peek at it).
func (s *Server) Sweep(id string) *Sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sweeps[id]
}

// Drain flips the server into draining mode: /healthz turns 503 and new
// submissions are shed (cache hits still answer). Idempotent.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Shutdown gracefully stops the worker pool: Drain, then ask running jobs to
// park at their next checkpoint boundary (requeued durably in the journal),
// then wait for the workers — up to timeout, after which it returns an error
// with the jobs still running. A zero timeout waits forever.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.Drain()
	s.stopOnce.Do(func() { close(s.stop) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return nil
	}
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("serve: shutdown timed out after %v with workers still running", timeout)
	}
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

func (s *Server) stopping() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// sleep waits d, returning false early if the server is shutting down.
func (s *Server) sleep(d time.Duration) bool {
	if d <= 0 {
		return !s.stopping()
	}
	select {
	case <-time.After(d):
		return true
	case <-s.stop:
		return false
	}
}

// ---- degraded mode ----

// diskPressure classifies errors that mean the state directory can no longer
// absorb writes: out of space, over quota, or a short write (the injector's
// torn-write signature; a real one means the same thing).
func diskPressure(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT) || errors.Is(err, io.ErrShortWrite)
}

// degradeOnDiskPressure flips the sticky degraded flag if err is disk
// pressure, reporting whether it was. Degraded mode is fail-stop for
// durability: rather than keep accepting jobs whose journal records and
// results cannot be persisted, the service sheds new work with 503 +
// Retry-After and parks running jobs at their next checkpoint boundary; the
// journal replays everything once the operator restarts with space.
func (s *Server) degradeOnDiskPressure(err error) bool {
	if !diskPressure(err) {
		return false
	}
	if s.degraded.CompareAndSwap(false, true) {
		s.counters.DegradedEvents.Add(1)
		s.degradedMu.Lock()
		s.degradedReason = err.Error()
		s.degradedMu.Unlock()
		s.cfg.Logf("serve: entering degraded mode (disk pressure): %v", err)
	}
	return true
}

// degradedMode reports whether the sticky degraded flag is set.
func (s *Server) degradedMode() bool { return s.degraded.Load() }

// degradedReasonMsg returns the error that flipped degraded mode ("" if not
// degraded).
func (s *Server) degradedReasonMsg() string {
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return s.degradedReason
}

// unavailableReason names why new work is being shed with 503.
func (s *Server) unavailableReason() string {
	if s.degradedMode() {
		return "degraded (disk pressure): " + s.degradedReasonMsg()
	}
	return "server is draining"
}

// RetryAfter converts the current queue depth into a deterministic
// Retry-After hint in seconds: one second base plus one per queued job,
// capped at a minute. Deeper backlog ⇒ longer hint, so shed clients
// naturally spread their retries by observed load instead of thundering
// back in lockstep.
func RetryAfter(depth int) int {
	if depth < 0 {
		depth = 0
	}
	ra := 1 + depth
	if ra > 60 {
		ra = 60
	}
	return ra
}

func (s *Server) retryAfterHeader(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(RetryAfter(s.queue.Depth())))
}

// writeUnavailable sheds a request with 503 + deterministic Retry-After.
func (s *Server) writeUnavailable(w http.ResponseWriter, reason string) {
	s.retryAfterHeader(w)
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: reason})
}

// ---- HTTP surface ----

// SubmitResponse is the body of POST /v1/jobs.
type SubmitResponse struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Cached is true when the result already exists and GET .../result will
	// answer immediately — the defining assertion of the dedup smoke test.
	Cached bool `json:"cached"`
	// Deduped is true when the submission joined an identical in-flight job.
	Deduped bool `json:"deduped,omitempty"`
}

// StatusResponse is the body of GET /v1/jobs/{id}.
type StatusResponse struct {
	ID       string  `json:"id"`
	State    State   `json:"state"`
	Attempts int     `json:"attempts"`
	Error    string  `json:"error,omitempty"`
	Request  Request `json:"request"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return
	}
	w.Write(append(enc, '\n'))
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	id, err := s.cfg.Runner.JobID(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}

	s.mu.Lock()
	j := s.jobs[id]
	if j != nil {
		switch st := j.State(); {
		case st == StateCached && s.store.HasResult(id):
			s.mu.Unlock()
			s.counters.CacheHits.Add(1)
			writeJSON(w, http.StatusOK, SubmitResponse{ID: id, State: StateCached, Cached: true})
			return
		case st.Terminal():
			// Failed, or cached with its result bytes since evicted by GC:
			// re-arm with a fresh attempt budget and go back through
			// admission control below like a new job.
		default:
			s.mu.Unlock()
			s.counters.Deduped.Add(1)
			writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id, State: st, Deduped: true})
			return
		}
	} else if s.store.HasResult(id) {
		// Completed in a previous process life; startup compaction dropped
		// the journal record, so the result file alone carries the job.
		j = NewJob(id, req)
		j.finish(StateCached, "")
		s.jobs[id] = j
		s.mu.Unlock()
		s.counters.CacheHits.Add(1)
		writeJSON(w, http.StatusOK, SubmitResponse{ID: id, State: StateCached, Cached: true})
		return
	}

	if s.isDraining() || s.degradedMode() {
		s.mu.Unlock()
		s.counters.Rejected.Add(1)
		s.writeUnavailable(w, s.unavailableReason())
		return
	}

	fresh := j == nil
	if fresh {
		j = NewJob(id, req)
	} else {
		j.rearm()
	}
	// Durability point: the job is journaled as accepted before we answer.
	if err := j.journal(s.store.PutJob); err != nil {
		if fresh {
			delete(s.jobs, id)
		}
		s.mu.Unlock()
		if s.degradeOnDiskPressure(err) {
			s.counters.Rejected.Add(1)
			s.writeUnavailable(w, s.unavailableReason())
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.jobs[id] = j

	if !s.queue.TryPush(j) {
		// Admission control: roll the accept back and shed with 429 so the
		// client backs off instead of the server queueing without bound.
		if fresh {
			delete(s.jobs, id)
			s.store.DeleteJob(id)
		} else {
			j.finish(StateFailed, "requeue rejected: admission queue full")
			j.journal(s.store.PutJob)
			s.advanceAllLocked() // a watched point just went terminal
		}
		s.mu.Unlock()
		s.counters.Rejected.Add(1)
		s.retryAfterHeader(w)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "admission queue full"})
		return
	}
	j.setState(StateQueued)
	s.mu.Unlock()

	s.persist(j)
	s.counters.Accepted.Add(1)
	writeJSON(w, http.StatusAccepted, SubmitResponse{ID: id, State: StateQueued})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.Job(id)
	if j == nil {
		if s.store.HasResult(id) {
			// Compacted away in a previous life: still a perfectly good job.
			writeJSON(w, http.StatusOK, StatusResponse{ID: id, State: StateCached})
			return
		}
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
		return
	}
	rec := j.Record()
	writeJSON(w, http.StatusOK, StatusResponse{
		ID: rec.ID, State: rec.State, Attempts: rec.Attempts, Error: rec.Error, Request: rec.Request,
	})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	writeBytes := func(data []byte) {
		// The stored bytes ARE the response: canonical ResultJSON, identical
		// to `cppe-sim -json` for the same configuration.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(data)
	}
	j := s.Job(id)
	if j == nil {
		// Compacted in a previous life (or never ours): the result file is
		// the only trace, served pinned so GC cannot race the read.
		s.store.Pin(id)
		data, err := s.store.Result(id)
		s.store.Unpin(id)
		if err != nil {
			writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job"})
			return
		}
		writeBytes(data)
		return
	}
	switch st := j.State(); st {
	case StateCached:
		s.store.Pin(id)
		data, err := s.store.Result(id)
		s.store.Unpin(id)
		if err != nil {
			// The bytes were evicted by store GC after the job finished.
			writeJSON(w, http.StatusNotFound, errorResponse{
				Error: "result evicted by store GC; re-POST the job to recompute it",
			})
			return
		}
		writeBytes(data)
	case StateFailed:
		writeJSON(w, http.StatusInternalServerError, StatusResponse{
			ID: id, State: st, Attempts: j.Attempts(), Error: j.Err(), Request: j.Req,
		})
	default:
		s.retryAfterHeader(w)
		writeJSON(w, http.StatusAccepted, StatusResponse{
			ID: id, State: st, Attempts: j.Attempts(), Request: j.Req,
		})
	}
}

// healthzResponse is the body of GET /healthz: liveness plus the disk
// headroom and degradation signals an operator watches under oversubscribed
// storage.
type healthzResponse struct {
	Status         string `json:"status"` // ok | draining | degraded
	DegradedReason string `json:"degraded_reason,omitempty"`
	// DiskFreeBytes is the free space on the state directory's filesystem
	// (-1 when the platform cannot report it).
	DiskFreeBytes int64 `json:"disk_free_bytes"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	out := healthzResponse{Status: "ok", DiskFreeBytes: diskFreeBytes(s.store.Dir())}
	switch {
	case s.degradedMode():
		out.Status = "degraded"
		out.DegradedReason = s.degradedReasonMsg()
	case s.isDraining():
		out.Status = "draining"
	}
	if out.Status != "ok" {
		s.retryAfterHeader(w)
		writeJSON(w, http.StatusServiceUnavailable, out)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// statszResponse is the body of GET /statsz.
type statszResponse struct {
	Counters stats.ServeSnapshot `json:"counters"`
	Queue    struct {
		Depth    int `json:"depth"`
		Capacity int `json:"capacity"`
	} `json:"queue"`
	Workers  int            `json:"workers"`
	Jobs     map[string]int `json:"jobs"`
	Draining bool           `json:"draining"`
	Degraded bool           `json:"degraded"`
	// RetryAfterSeconds is the deterministic backpressure hint shed requests
	// are currently told (derived from queue depth).
	RetryAfterSeconds int `json:"retry_after_seconds"`
	Disk              struct {
		FreeBytes int64 `json:"free_bytes"`
	} `json:"disk"`
	Store struct {
		Results       int   `json:"results"`
		ResultBytes   int64 `json:"result_bytes"`
		MaxBytes      int64 `json:"max_bytes,omitempty"`
		MaxAgeSeconds int64 `json:"max_age_seconds,omitempty"`
	} `json:"store"`
	Sweeps struct {
		Active int `json:"active"`
		Done   int `json:"done"`
	} `json:"sweeps"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	out := statszResponse{
		Counters: s.counters.Snapshot(),
		Workers:  s.cfg.Workers,
		Jobs:     make(map[string]int),
		Draining: s.isDraining(),
		Degraded: s.degradedMode(),
	}
	out.Queue.Depth = s.queue.Depth()
	out.Queue.Capacity = s.queue.Capacity()
	out.RetryAfterSeconds = RetryAfter(out.Queue.Depth)
	out.Disk.FreeBytes = diskFreeBytes(s.store.Dir())
	out.Store.Results, out.Store.ResultBytes = s.store.ResultUsage()
	out.Store.MaxBytes = s.cfg.StoreMaxBytes
	out.Store.MaxAgeSeconds = int64(s.cfg.StoreMaxAge / time.Second)
	s.mu.Lock()
	for _, j := range s.jobs {
		out.Jobs[string(j.State())]++
	}
	for _, sw := range s.sweeps {
		if sw.done {
			out.Sweeps.Done++
		} else {
			out.Sweeps.Active++
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// ---- worker pool ----

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stop:
			return
		case j := <-s.queue.ch:
			if s.stopping() || s.degradedMode() {
				// Shutdown (or disk-pressure degradation) won the race for
				// this dequeue: don't start a simulation we'd immediately
				// park — journal it as queued for the next process life.
				s.park(j)
				continue
			}
			// Single-flight across workers: if a concurrent execution of the
			// same fingerprint is somehow in flight, wait it out instead of
			// running the simulation twice.
			s.flight.Do(j.ID, func() { s.execute(j) })
		}
	}
}

// persist journals j's current state; journal write failures degrade
// durability, not availability, so they log (and, under disk pressure, flip
// degraded mode) instead of failing the job.
func (s *Server) persist(j *Job) {
	if err := j.journal(s.store.PutJob); err != nil {
		s.degradeOnDiskPressure(err)
		s.cfg.Logf("serve: journal write failed for %s: %v", j.ID, err)
	}
}

// park journals j back to queued. Parking happens on the shutdown and
// degraded paths, where the journal — not the in-memory queue — is what
// carries the job to the next process life, so there is deliberately no
// re-enqueue here.
func (s *Server) park(j *Job) {
	s.counters.Parked.Add(1)
	j.setState(StateQueued)
	s.persist(j)
}

func (s *Server) fail(j *Job, msg string) {
	s.counters.Failed.Add(1)
	j.finish(StateFailed, msg)
	s.persist(j)
	s.cfg.Logf("serve: job %s failed: %s", j.ID, msg)
	s.onJobEvent(j, evPointFailed, 0)
}

// onJobEvent publishes one lifecycle event to every sweep watching j and, on
// terminal transitions, advances the fan-out windows so a finished point
// immediately admits the next pending one.
func (s *Server) onJobEvent(j *Job, typ string, cycle uint64) {
	rec := j.Record()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sw := range s.watch[j.ID] {
		p := sw.point(j.ID)
		if p == nil {
			continue
		}
		sw.hub.publish(Event{
			Type: typ, Sweep: sw.ID, JobID: j.ID,
			Benchmark: p.Req.Benchmark, Setup: p.Req.Setup,
			Oversubscription: p.Req.Oversubscription,
			Cycle:            cycle, Attempts: rec.Attempts, Error: rec.Error,
			Counts: s.sweepCountsLocked(sw),
		})
	}
	if rec.State.Terminal() {
		s.advanceAllLocked()
	}
}

// ---- result-store GC ----

// maybeGC runs one collection if any bound is configured: snapshot the
// protected set (results of non-terminal jobs and of every point of an
// active sweep) under the registry lock, expire manifests of long-done
// sweeps, then let the store evict the LRU tail. Runs at startup and after
// each completed job — the only times the store grows.
func (s *Server) maybeGC() {
	cfg := GCConfig{MaxBytes: s.cfg.StoreMaxBytes, MaxAge: s.cfg.StoreMaxAge}
	if !cfg.Enabled() {
		return
	}
	now := time.Now()
	keep := make(map[string]bool)
	s.mu.Lock()
	for id, j := range s.jobs {
		if !j.State().Terminal() {
			keep[id] = true
		}
	}
	for id, sw := range s.sweeps {
		if !sw.done {
			for _, p := range sw.Points {
				keep[p.JobID] = true
			}
			continue
		}
		if cfg.MaxAge > 0 && s.store.SweepAge(id, now) > cfg.MaxAge {
			// The sweep finished long ago; its manifest has nothing left to
			// resume. (Its results remain ordinary GC candidates.)
			s.store.DeleteSweep(id)
			delete(s.sweeps, id)
		}
	}
	s.mu.Unlock()

	gst := s.store.GC(cfg, now, func(id string) bool { return keep[id] })
	if gst.EvictedResults > 0 || gst.PinsHonored > 0 {
		s.counters.GCEvicted.Add(uint64(gst.EvictedResults))
		s.counters.GCReclaimedBytes.Add(uint64(gst.ReclaimedBytes))
		s.counters.GCPinsHonored.Add(uint64(gst.PinsHonored))
		s.cfg.Logf("serve: gc evicted %d results (%d bytes reclaimed, %d pins honored)",
			gst.EvictedResults, gst.ReclaimedBytes, gst.PinsHonored)
	}
}

// execute drives one job to a terminal state (or parks it for shutdown or
// disk pressure): run -> retry with bounded exponential backoff on retryable
// errors, resuming from the retained checkpoint -> cached or failed.
func (s *Server) execute(j *Job) {
	if j.State().Terminal() {
		return // replay raced a duplicate; nothing to do
	}
	ckpt := s.store.CheckpointPath(j.ID)
	deadline := s.cfg.Deadline
	if j.Req.DeadlineMS > 0 {
		deadline = time.Duration(j.Req.DeadlineMS) * time.Millisecond
	}
	for {
		if s.degradedMode() {
			s.park(j)
			return
		}
		j.setState(StateRunning)
		s.persist(j)
		s.onJobEvent(j, evPointStarted, 0)

		var deadlineAt time.Time
		if deadline > 0 {
			deadlineAt = time.Now().Add(deadline)
		}
		deadlineHit := false
		stopFn := func() bool {
			if s.stopping() || s.degradedMode() {
				return true
			}
			if !deadlineAt.IsZero() && time.Now().After(deadlineAt) {
				deadlineHit = true
				return true
			}
			return false
		}
		progressFn := func(cycle uint64) { s.onJobEvent(j, evPointCheckpoint, cycle) }

		s.counters.SimsStarted.Add(1)
		if _, err := os.Stat(ckpt); err == nil {
			s.counters.Resumed.Add(1)
		}
		res, err := s.cfg.Runner.Run(j.Req, ckpt, s.cfg.CheckpointEvery, stopFn, progressFn)

		if errors.Is(err, cppe.ErrParked) {
			if deadlineHit && !s.stopping() && !s.degradedMode() {
				// Deadline, not drain. Terminal: the checkpoint stays behind,
				// so a re-POST continues from here instead of starting over.
				s.fail(j, fmt.Sprintf("deadline exceeded after %v (attempt %d)", deadline, j.Attempts()+1))
				return
			}
			s.cfg.Logf("serve: job %s parked at checkpoint for shutdown", j.ID)
			s.park(j)
			return
		}
		if err != nil {
			// Pre-run failure (bad request slipped past JobID, unwritable
			// checkpoint path): nothing to retry.
			s.fail(j, err.Error())
			return
		}

		s.counters.SimsCompleted.Add(1)
		if res.Err == nil {
			// Clean or modeled-crash completion: render canonically, store,
			// and flip to cached only after the result bytes are durable.
			data, jerr := cppe.ResultJSON(res)
			if jerr == nil {
				jerr = s.store.PutResult(j.ID, data)
			}
			if jerr != nil {
				if s.degradeOnDiskPressure(jerr) {
					// The run finished but its result can't be persisted;
					// park rather than fail — the journal requeues it and
					// the next process life (with space) reruns it.
					s.park(j)
					return
				}
				s.fail(j, jerr.Error())
				return
			}
			j.finish(StateCached, "")
			s.persist(j)
			s.onJobEvent(j, evPointDone, 0)
			s.maybeGC()
			return
		}

		attempt := j.bumpAttempts()
		if !Retryable(res.Err) || attempt >= s.cfg.MaxAttempts {
			s.fail(j, res.Err.Error())
			return
		}
		s.counters.Retries.Add(1)
		j.setState(StateRetrying)
		s.persist(j)
		s.onJobEvent(j, evPointRetried, 0)
		delay := Backoff(s.cfg.RetryBase, s.cfg.RetryCap, attempt)
		s.cfg.Logf("serve: job %s attempt %d failed (%v); retrying in %v", j.ID, attempt, res.Err, delay)
		if !s.sleep(delay) {
			s.park(j) // shutdown during backoff: requeue durably
			return
		}
	}
}
