package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	cppe "github.com/reproductions/cppe"
	"github.com/reproductions/cppe/internal/harness"
)

// stubRunner is a deterministic Runner for exercising the service machinery
// without spending simulation time. IDs are readable ("SRD-cppe-50"), runs
// can block until released (polling stop like the real runner does at
// epoch boundaries), and per-job failure budgets simulate retryable
// crashes.
type stubRunner struct {
	block   bool
	release chan struct{} // closed to let blocked runs complete
	started chan string   // receives the job ID as each run begins

	mu       sync.Mutex
	failures map[string]int // remaining retryable failures per job ID

	runs atomic.Int64
}

func newStubRunner() *stubRunner {
	return &stubRunner{
		release:  make(chan struct{}),
		started:  make(chan string, 64),
		failures: make(map[string]int),
	}
}

func (r *stubRunner) JobID(req Request) (string, error) {
	if req.Benchmark == "" {
		return "", errors.New("stub: benchmark required")
	}
	return fmt.Sprintf("%s-%s-%d", req.Benchmark, req.Setup, req.Oversubscription), nil
}

func (r *stubRunner) Run(req Request, stop func() bool, progress func(uint64)) (cppe.Result, error) {
	id, _ := r.JobID(req)
	r.runs.Add(1)
	r.started <- id
	if r.block {
		cycle := uint64(0)
		for blocked := true; blocked; {
			select {
			case <-r.release:
				blocked = false
			default:
				// Emulate the real runner at an epoch boundary of 100
				// cycles: the progress hook fires, then stop is consulted,
				// and true parks the run.
				cycle += 100
				if progress != nil {
					progress(cycle)
				}
				if stop != nil && stop() {
					return cppe.Result{}, cppe.ErrParked
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	r.mu.Lock()
	n := r.failures[id]
	if n > 0 {
		r.failures[id] = n - 1
	}
	r.mu.Unlock()
	if n > 0 {
		return cppe.Result{Crashed: true, Err: fmt.Errorf("%w: stub crash", harness.ErrPanic)}, nil
	}
	return cppe.Result{Cycles: 123, Accesses: 7}, nil
}

func discardLogf(string, ...any) {}

func testConfig(dir string, r Runner) Config {
	return Config{
		StateDir:    dir,
		Workers:     1,
		QueueDepth:  8,
		MaxAttempts: 3,
		RetryBase:   time.Millisecond,
		RetryCap:    4 * time.Millisecond,
		Runner:      r,
		Logf:        discardLogf,
	}
}

func post(t *testing.T, h http.Handler, body string) (int, SubmitResponse, http.Header) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var sr SubmitResponse
	json.Unmarshal(w.Body.Bytes(), &sr)
	return w.Code, sr, w.Result().Header
}

func get(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes()
}

func waitDone(t *testing.T, srv *Server, id string) *Job {
	t.Helper()
	j := srv.Job(id)
	if j == nil {
		t.Fatalf("job %s not registered", id)
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not reach a terminal state (state=%s)", id, j.State())
	}
	return j
}

const srdBody = `{"benchmark":"SRD","setup":"cppe","oversubscription":50}`

// TestDuplicateSubmitSingleFlight pins the dedup contract: two identical
// POSTs while the job is in flight share one job and one underlying
// simulation, and both read the same result afterwards.
func TestDuplicateSubmitSingleFlight(t *testing.T) {
	stub := newStubRunner()
	stub.block = true
	srv, err := New(testConfig(t.TempDir(), stub))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)

	code, sr, _ := post(t, srv.Handler(), srdBody)
	if code != http.StatusAccepted || sr.State != StateQueued || sr.Cached || sr.Deduped {
		t.Fatalf("first POST: %d %+v", code, sr)
	}
	id := sr.ID
	<-stub.started // the worker owns the job now

	code, sr, _ = post(t, srv.Handler(), srdBody)
	if code != http.StatusAccepted || !sr.Deduped || sr.Cached {
		t.Fatalf("duplicate POST: %d %+v, want 202 deduped", code, sr)
	}

	close(stub.release)
	j := waitDone(t, srv, id)
	if j.State() != StateCached {
		t.Fatalf("job state = %s, want cached", j.State())
	}
	if got := stub.runs.Load(); got != 1 {
		t.Errorf("underlying runs = %d, want exactly 1", got)
	}
	if c := srv.Counters().Snapshot(); c.SimsStarted != 1 || c.Deduped != 1 {
		t.Errorf("counters = %+v, want sims_started=1 deduped=1", c)
	}

	// Both clients (and any later one) read the identical stored bytes.
	code, body1 := get(t, srv.Handler(), "/v1/jobs/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET result: %d %s", code, body1)
	}
	_, body2 := get(t, srv.Handler(), "/v1/jobs/"+id+"/result")
	if string(body1) != string(body2) {
		t.Error("two result reads differ")
	}

	// A third POST after completion is a cache hit, not a new job.
	code, sr, _ = post(t, srv.Handler(), srdBody)
	if code != http.StatusOK || !sr.Cached {
		t.Errorf("post-completion POST: %d %+v, want 200 cached", code, sr)
	}
}

// TestBackpressure pins admission control: with one worker busy and the
// queue full, a new submission is shed with 429 + Retry-After instead of
// growing the queue without bound.
func TestBackpressure(t *testing.T) {
	stub := newStubRunner()
	stub.block = true
	cfg := testConfig(t.TempDir(), stub)
	cfg.QueueDepth = 1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)

	post(t, srv.Handler(), srdBody) // worker picks this up
	<-stub.started                  // ...and is now blocked inside it
	code, _, _ := post(t, srv.Handler(), `{"benchmark":"NW","setup":"cppe","oversubscription":50}`)
	if code != http.StatusAccepted {
		t.Fatalf("second POST should queue: %d", code)
	}
	code, _, hdr := post(t, srv.Handler(), `{"benchmark":"HSD","setup":"cppe","oversubscription":50}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("third POST: %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if c := srv.Counters().Snapshot(); c.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", c.Rejected)
	}
	// The shed job left no trace: not registered, not journaled.
	if srv.Job("HSD-cppe-50") != nil {
		t.Error("shed job leaked into the registry")
	}
	if recs, _ := srv.Store().Jobs(); len(recs) != 2 {
		t.Errorf("journal has %d records, want 2", len(recs))
	}
	close(stub.release)
}

// TestRetryThenSuccess: a run that dies with a retryable error (recovered
// panic) is retried with backoff and succeeds within the attempt budget.
func TestRetryThenSuccess(t *testing.T) {
	stub := newStubRunner()
	stub.failures["SRD-cppe-50"] = 2
	srv, err := New(testConfig(t.TempDir(), stub))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)

	_, sr, _ := post(t, srv.Handler(), srdBody)
	j := waitDone(t, srv, sr.ID)
	if j.State() != StateCached {
		t.Fatalf("state = %s (err=%q), want cached after retries", j.State(), j.Err())
	}
	if j.Attempts() != 2 {
		t.Errorf("attempts = %d, want 2", j.Attempts())
	}
	if c := srv.Counters().Snapshot(); c.Retries != 2 || c.SimsStarted != 3 {
		t.Errorf("counters = %+v, want retries=2 sims_started=3", c)
	}
}

// TestRetryBudgetExhausted: when every attempt dies, the job goes terminal
// failed with the error attached, and a re-POST re-arms it for another try.
func TestRetryBudgetExhausted(t *testing.T) {
	stub := newStubRunner()
	stub.failures["SRD-cppe-50"] = 100
	srv, err := New(testConfig(t.TempDir(), stub))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)

	_, sr, _ := post(t, srv.Handler(), srdBody)
	j := waitDone(t, srv, sr.ID)
	if j.State() != StateFailed {
		t.Fatalf("state = %s, want failed", j.State())
	}
	if !strings.Contains(j.Err(), "panic in simulation run") {
		t.Errorf("terminal error %q does not carry the run failure", j.Err())
	}
	code, body := get(t, srv.Handler(), "/v1/jobs/"+sr.ID+"/result")
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "failed") {
		t.Errorf("GET result of failed job: %d %s", code, body)
	}

	// Re-POST re-arms the failed job with a fresh attempt budget; the stub
	// has one failure left in the budget window, so this time it completes.
	stub.mu.Lock()
	stub.failures["SRD-cppe-50"] = 1
	stub.mu.Unlock()
	code, sr2, _ := post(t, srv.Handler(), srdBody)
	if code != http.StatusAccepted || sr2.Cached || sr2.Deduped {
		t.Fatalf("re-POST of failed job: %d %+v, want fresh 202", code, sr2)
	}
	j = waitDone(t, srv, sr2.ID)
	if j.State() != StateCached {
		t.Errorf("re-armed job state = %s (err=%q), want cached", j.State(), j.Err())
	}
}

// TestDeadline: a job whose per-request deadline expires is terminal failed,
// enforced at the stop-hook (epoch) boundary.
func TestDeadline(t *testing.T) {
	stub := newStubRunner()
	stub.block = true // never released: only the deadline can end the run
	srv, err := New(testConfig(t.TempDir(), stub))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)
	defer close(stub.release)

	_, sr, _ := post(t, srv.Handler(), `{"benchmark":"SRD","setup":"cppe","oversubscription":50,"deadline_ms":10}`)
	j := waitDone(t, srv, sr.ID)
	if j.State() != StateFailed || !strings.Contains(j.Err(), "deadline exceeded") {
		t.Errorf("state = %s err = %q, want failed with deadline exceeded", j.State(), j.Err())
	}
}

// TestDrainShutdown pins graceful degradation: draining sheds new work with
// 503, running jobs park at their next stop-hook boundary, and what remains
// is zero running jobs plus a journal a fresh server replays to completion.
func TestDrainShutdown(t *testing.T) {
	dir := t.TempDir()
	stub := newStubRunner()
	stub.block = true
	srv, err := New(testConfig(dir, stub))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	_, srA, _ := post(t, srv.Handler(), srdBody)
	<-stub.started // A is running
	_, srB, _ := post(t, srv.Handler(), `{"benchmark":"NW","setup":"cppe","oversubscription":75}`)

	if code, _ := get(t, srv.Handler(), "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d", code)
	}
	srv.Drain()
	if code, _ := get(t, srv.Handler(), "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", code)
	}
	if code, _, _ := post(t, srv.Handler(), `{"benchmark":"HSD","setup":"cppe","oversubscription":50}`); code != http.StatusServiceUnavailable {
		t.Errorf("POST while draining: %d, want 503", code)
	}

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	// Zero running jobs, and every accepted job journaled as queued.
	for _, id := range []string{srA.ID, srB.ID} {
		if st := srv.Job(id).State(); st != StateQueued {
			t.Errorf("job %s state after drain = %s, want queued", id, st)
		}
	}
	recs, err := srv.Store().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("journal has %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		if rec.State != StateQueued {
			t.Errorf("journaled %s state = %s, want queued", rec.ID, rec.State)
		}
	}

	// A fresh server (new process life) replays the journal and finishes
	// both jobs without any client re-submitting them.
	stub2 := newStubRunner()
	srv2, err := New(testConfig(dir, stub2))
	if err != nil {
		t.Fatal(err)
	}
	if c := srv2.Counters().Snapshot(); c.Replayed != 2 {
		t.Errorf("replayed = %d, want 2", c.Replayed)
	}
	srv2.Start()
	defer srv2.Shutdown(0)
	for _, id := range []string{srA.ID, srB.ID} {
		if j := waitDone(t, srv2, id); j.State() != StateCached {
			t.Errorf("replayed job %s = %s (err=%q), want cached", id, j.State(), j.Err())
		}
	}
}

// TestJournalReplayAfterCrash simulates a kill -9 by handing a fresh server a
// journal written by a previous life that died mid-flight in every possible
// state: running, queued, retrying, and cached-with-lost-result all rerun to
// completion; terminal records are preserved as-is. An "accepted" record, a
// state older servers journaled before queueing a POSTed job, replays as
// queued and runs too.
func TestJournalReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Benchmark: "SRD", Setup: "cppe", Oversubscription: 50}
	for _, rec := range []Record{
		{ID: "was-running", Request: req, State: StateRunning, Attempts: 1},
		{ID: "was-queued", Request: req, State: StateQueued},
		{ID: "was-retrying", Request: req, State: StateRetrying, Attempts: 2},
		{ID: "lost-result", Request: req, State: StateCached}, // no result bytes on disk
		{ID: "was-failed", Request: req, State: StateFailed, Error: "boom"},
		{ID: "was-accepted", Request: req, State: "accepted"},
	} {
		if err := st.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutResult("done-before", []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	st.PutJob(Record{ID: "done-before", Request: req, State: StateCached})

	stub := newStubRunner()
	cfg := testConfig(dir, stub)
	cfg.Workers = 2
	// The admission queue must absorb all replayed work even when the
	// configured depth is smaller than the backlog.
	cfg.QueueDepth = 1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := srv.Counters().Snapshot(); c.Replayed != 7 {
		t.Errorf("replayed = %d, want 7", c.Replayed)
	}
	if j := srv.Job("was-accepted"); j.State() != StateQueued {
		t.Errorf("legacy accepted record replayed as %s, want queued", j.State())
	}
	srv.Start()
	defer srv.Shutdown(0)

	for _, id := range []string{"was-running", "was-queued", "was-retrying", "lost-result", "was-accepted"} {
		if j := waitDone(t, srv, id); j.State() != StateCached {
			t.Errorf("replayed %s = %s (err=%q), want cached", id, j.State(), j.Err())
		}
		if !srv.Store().HasResult(id) {
			t.Errorf("replayed %s has no stored result", id)
		}
	}
	if j := srv.Job("was-failed"); j.State() != StateFailed || j.Err() != "boom" {
		t.Errorf("terminal failed record not preserved: %s %q", j.State(), j.Err())
	}
	if j := srv.Job("done-before"); j.State() != StateCached {
		t.Errorf("terminal cached record not preserved: %s", j.State())
	}
	if got := stub.runs.Load(); got != 5 {
		t.Errorf("underlying runs = %d, want 5 (terminal records must not rerun)", got)
	}
}

// TestStatusAndStatsz covers the read-only endpoints.
func TestStatusAndStatsz(t *testing.T) {
	stub := newStubRunner()
	srv, err := New(testConfig(t.TempDir(), stub))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)

	if code, _ := get(t, srv.Handler(), "/v1/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", code)
	}
	if code, body := get(t, srv.Handler(), "/v1/jobs/nope/result"); code != http.StatusNotFound || !strings.Contains(string(body), "unknown job") {
		t.Errorf("unknown job result: %d %s, want 404 unknown job", code, body)
	}
	code, _, _ := post(t, srv.Handler(), `{"benchmark":"","setup":"x","oversubscription":50}`)
	if code != http.StatusBadRequest {
		t.Errorf("invalid request: %d, want 400", code)
	}

	_, sr, _ := post(t, srv.Handler(), srdBody)
	waitDone(t, srv, sr.ID)
	code, body := get(t, srv.Handler(), "/v1/jobs/"+sr.ID)
	if code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	var status StatusResponse
	if err := json.Unmarshal(body, &status); err != nil {
		t.Fatal(err)
	}
	if status.ID != sr.ID || status.State != StateCached || status.Request.Benchmark != "SRD" {
		t.Errorf("status = %+v", status)
	}

	code, body = get(t, srv.Handler(), "/statsz")
	if code != http.StatusOK {
		t.Fatalf("statsz: %d", code)
	}
	var stz statszResponse
	if err := json.Unmarshal(body, &stz); err != nil {
		t.Fatal(err)
	}
	if stz.Counters.Accepted != 1 || stz.Counters.SimsCompleted != 1 || stz.Jobs["cached"] != 1 {
		t.Errorf("statsz = %+v", stz)
	}
	if stz.Workers != 1 || stz.Queue.Capacity != 8 {
		t.Errorf("statsz shape = %+v", stz)
	}
}

// TestJournalCompactionOnReplay pins the startup-compaction contract: cached
// records whose result bytes are durable are dropped from the journal (the
// result file alone carries them), failed and unfinished records are kept,
// and compacted jobs remain fully addressable through the API.
func TestJournalCompactionOnReplay(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Benchmark: "SRD", Setup: "cppe", Oversubscription: 50}
	for _, id := range []string{"done-1", "done-2"} {
		if err := st.PutResult(id, []byte("{}\n")); err != nil {
			t.Fatal(err)
		}
		if err := st.PutJob(Record{ID: id, Request: req, State: StateCached}); err != nil {
			t.Fatal(err)
		}
	}
	st.PutJob(Record{ID: "broken", Request: req, State: StateFailed, Error: "boom"})
	st.PutJob(Record{ID: "unfinished", Request: req, State: StateQueued})

	stub := newStubRunner()
	stub.block = true
	srv, err := New(testConfig(dir, stub))
	if err != nil {
		t.Fatal(err)
	}
	defer close(stub.release)
	if c := srv.Counters().Snapshot(); c.Compacted != 2 {
		t.Errorf("compacted = %d, want 2", c.Compacted)
	}
	recs, err := srv.Store().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	left := make(map[string]State, len(recs))
	for _, rec := range recs {
		left[rec.ID] = rec.State
	}
	if len(left) != 2 || left["broken"] != StateFailed || left["unfinished"] != StateQueued {
		t.Errorf("journal after compaction = %v, want only broken(failed) + unfinished(queued)", left)
	}

	// Compacted jobs still answer: in-memory this life, from the result file
	// in the next one.
	for _, id := range []string{"done-1", "done-2"} {
		if code, _ := get(t, srv.Handler(), "/v1/jobs/"+id+"/result"); code != http.StatusOK {
			t.Errorf("compacted job %s result: %d, want 200", id, code)
		}
	}
	srv2, err := New(testConfig(t.TempDir(), newStubRunner())) // unrelated dir: no registry entry at all
	if err != nil {
		t.Fatal(err)
	}
	_ = srv2
	srv3, err := New(testConfig(dir, newStubRunner()))
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := get(t, srv3.Handler(), "/v1/jobs/done-1/result"); code != http.StatusOK {
		t.Error("result of a compacted job unreachable after a second restart")
	}
	if code, _ := get(t, srv3.Handler(), "/v1/jobs/done-1"); code != http.StatusOK {
		t.Error("status of a compacted job unreachable after a second restart")
	}
}
