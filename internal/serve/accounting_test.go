package serve

import (
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	cppe "github.com/reproductions/cppe"
	"github.com/reproductions/cppe/internal/serve/fsfault"
)

// checkSweepAccounting checks every registered sweep's counts for
// conservation, recomputed from pointViewLocked: each point counted in
// exactly one state and the retries the sum of the points' attempts. It also
// checks that the done latch has not missed its edge: a sweep whose points
// are all admitted and terminal has published sweep_done. Call it only when
// no job transition is half done: a worker changes a job's state before it
// takes s.mu to advance the sweeps.
func checkSweepAccounting(t testing.TB, s *Server) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, sw := range s.sweeps {
		c := s.sweepCountsLocked(sw)
		attempts := 0
		for _, p := range sw.Points {
			attempts += s.pointViewLocked(p).Attempts
		}
		counted := c.Pending + c.Queued + c.Running + c.Retrying + c.Cached + c.Failed + c.Evicted
		if c.Points != len(sw.Points) || counted != c.Points || c.Retries != attempts {
			t.Errorf("sweep %s counts %+v: %d points counted in a state, %d attempts; want %d and %d",
				id, c, counted, c.Retries, len(sw.Points), attempts)
		}
		if s.sweepDoneLocked(sw) && !sw.done {
			t.Errorf("sweep %s has every point admitted and terminal but never latched done", id)
		}
	}
}

// checkedRunner checks the server's sweep accounting each time its single
// worker starts a run and after each progress event. Those are the moments
// no transition is half done: the worker has advanced the sweeps after
// everything it changed, and every other change happens under s.mu.
type checkedRunner struct {
	Runner
	t   testing.TB
	srv *Server // set before the workers start
}

func (r *checkedRunner) Run(req Request, ckpt string, every uint64, stop func() bool, progress func(uint64)) (cppe.Result, error) {
	checkSweepAccounting(r.t, r.srv)
	return r.Runner.Run(req, ckpt, every, stop, func(cycle uint64) {
		progress(cycle)
		checkSweepAccounting(r.t, r.srv)
	})
}

// newCheckedServer is New over cfg with the sweep accounting checked after
// replay, at every run boundary of its single worker, and once more when the
// test ends (after its deferred Shutdown).
func newCheckedServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Workers != 1 {
		t.Fatalf("run-boundary accounting checks need one worker, have %d", cfg.Workers)
	}
	cr := &checkedRunner{Runner: cfg.Runner, t: t}
	cfg.Runner = cr
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cr.srv = srv
	checkSweepAccounting(t, srv)
	t.Cleanup(func() { checkSweepAccounting(t, srv) })
	return srv
}

// TestChaosSweepAccountingUnderFaults runs a grid through a retry, a point
// that exhausts its budget and seeded EIO faults on journal and result
// writes, with the accounting checked at every run boundary; then a re-POST
// over a healthy disk re-arms the failed points and the grid completes.
func TestChaosSweepAccountingUnderFaults(t *testing.T) {
	stub := newStubRunner()
	stub.block = true
	stub.failures["SRD-cppe-50"] = 1      // one retry, then success
	stub.failures["NW-baseline-75"] = 100 // beyond any budget
	inj := fsfault.NewInjector(fsfault.OS, 6)
	cfg := testConfig(t.TempDir(), stub)
	cfg.FS = inj
	cfg.SweepWorkers = 8 // every point admitted at the POST, before the faults
	srv := newCheckedServer(t, cfg)
	srv.Start()
	defer srv.Shutdown(0)

	code, sr := postSweep(t, srv.Handler(), gridBody)
	if code != http.StatusAccepted || sr.Points != 8 {
		t.Fatalf("POST sweep: %d %+v", code, sr)
	}
	<-stub.started
	// EIO is not disk pressure: a failed journal write is logged and a
	// failed result commit fails its point, but nothing degrades.
	inj.SetError(syscall.EIO)
	inj.FailRenames(4)
	inj.FailWrites(4)
	inj.Arm()
	close(stub.release)
	st := waitSweepDone(t, srv.Handler(), sr.ID)
	inj.Disarm()
	if srv.degradedMode() {
		t.Fatal("EIO degraded the server")
	}
	if inj.Injected() == 0 || st.Counts.Failed < 1 || st.Counts.Cached+st.Counts.Failed != 8 {
		t.Fatalf("counts under faults = %+v with %d faults injected, want every point terminal and one failed at least", st.Counts, inj.Injected())
	}

	stub.mu.Lock()
	stub.failures["NW-baseline-75"] = 0
	stub.mu.Unlock()
	if code, sr2 := postSweep(t, srv.Handler(), gridBody); code != http.StatusAccepted || !sr2.Deduped {
		t.Fatalf("re-POST: %d %+v, want 202 deduped", code, sr2)
	}
	if st := waitSweepDone(t, srv.Handler(), sr.ID); st.Counts.Cached != 8 {
		t.Fatalf("counts after re-arm = %+v, want 8 cached", st.Counts)
	}
}

// gcGateFS holds the first result-directory Glob made while armed, which is
// the one a collection makes after snapshotting its keep set, until release
// is closed.
type gcGateFS struct {
	fsfault.FS
	armed   atomic.Bool
	reached chan struct{}
	release chan struct{}
}

func (f *gcGateFS) Glob(pattern string) ([]string, error) {
	if filepath.Base(filepath.Dir(pattern)) == "results" && f.armed.CompareAndSwap(true, false) {
		close(f.reached)
		<-f.release
	}
	return f.FS.Glob(pattern)
}

// TestGCEvictionRacingNewSweep registers a sweep between a collection's keep
// snapshot and its evictions. Every point of the new sweep must end terminal
// with its accounting conserved, and a re-POST must rerun exactly the points
// that lost their results and finish the grid cached. (Today the collection
// takes the two aged results the new sweep found cached, which DESIGN §15
// forbids for an active sweep; the test does not pin that count.)
func TestGCEvictionRacingNewSweep(t *testing.T) {
	gfs := &gcGateFS{FS: fsfault.OS, reached: make(chan struct{}), release: make(chan struct{})}
	stub := newStubRunner()
	cfg := testConfig(t.TempDir(), stub)
	cfg.FS = gfs
	cfg.StoreMaxAge = time.Hour
	srv := newCheckedServer(t, cfg)
	srv.Start()
	defer srv.Shutdown(0)
	release := sync.OnceFunc(func() { close(gfs.release) })
	defer release() // before Shutdown, which waits for the gated worker

	code, a := postSweep(t, srv.Handler(), `{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[75,50]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST sweep A: %d", code)
	}
	waitSweepDone(t, srv.Handler(), a.ID)

	// The next collection (the one after sweep A's last job, if the worker
	// has not run it yet, or else the one after the NW job) stops before
	// listing the results. Only while it waits are sweep A's results aged,
	// so no other collection can take them, and sweep B arrives.
	gfs.armed.Store(true)
	post(t, srv.Handler(), `{"benchmark":"NW","setup":"cppe","oversubscription":50}`)
	<-gfs.reached
	old := time.Now().Add(-2 * time.Hour)
	for _, id := range []string{"SRD-cppe-75", "SRD-cppe-50"} {
		if err := os.Chtimes(srv.store.resultPath(id), old, old); err != nil {
			t.Fatal(err)
		}
	}
	b := `{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[75,50,25]}`
	code, sb := postSweep(t, srv.Handler(), b)
	if code != http.StatusAccepted {
		t.Fatalf("POST sweep B: %d", code)
	}
	if st := sweepStatus(t, srv.Handler(), sb.ID); st.Counts.Cached != 2 || st.Counts.Queued != 1 {
		t.Fatalf("sweep B before the evictions = %+v, want 2 cached + 1 queued", st.Counts)
	}
	checkSweepAccounting(t, srv)
	release()

	st := waitSweepDone(t, srv.Handler(), sb.ID)
	if st.Counts.Evicted+st.Counts.Cached != 3 {
		t.Fatalf("sweep B = %+v, want every point cached or evicted", st.Counts)
	}
	evicted := st.Counts.Evicted
	waitLatched(t, srv, sb.ID) // the worker has advanced the sweep
	checkSweepAccounting(t, srv)
	// Sweep A's points are jobs of sweep B, so they share their views.
	if st := sweepStatus(t, srv.Handler(), a.ID); st.Counts.Evicted != evicted {
		t.Errorf("sweep A = %+v, want the %d evicted of sweep B", st.Counts, evicted)
	}
	before := stub.runs.Load()
	want := http.StatusAccepted // re-armed points run again
	if evicted == 0 {
		want = http.StatusOK
	}
	if code, _ := postSweep(t, srv.Handler(), b); code != want {
		t.Fatalf("re-POST sweep B: %d, want %d", code, want)
	}
	if st := waitSweepDone(t, srv.Handler(), sb.ID); st.Counts.Cached != 3 {
		t.Fatalf("sweep B after re-arm = %+v, want 3 cached", st.Counts)
	}
	if ran := stub.runs.Load() - before; ran != int64(evicted) {
		t.Errorf("re-arm ran %d points, want the %d evicted ones", ran, evicted)
	}
}

// TestSweepPointAdmittedByJobPost POSTs the job of a sweep point the window
// has not reached yet. The point is still pending in the sweep's window, but
// its view follows the job the POST queued, and the counts follow the view.
func TestSweepPointAdmittedByJobPost(t *testing.T) {
	stub := newStubRunner()
	stub.block = true
	srv := newCheckedServer(t, testConfig(t.TempDir(), stub))
	srv.Start()
	defer srv.Shutdown(0)

	code, sr := postSweep(t, srv.Handler(), `{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[75,50,25]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST sweep: %d", code)
	}
	<-stub.started // the window's one point is running
	if code, _, _ := post(t, srv.Handler(), `{"benchmark":"SRD","setup":"cppe","oversubscription":25}`); code != http.StatusAccepted {
		t.Fatalf("POST job: %d", code)
	}
	if st := sweepStatus(t, srv.Handler(), sr.ID); st.Counts.Running != 1 || st.Counts.Queued != 1 || st.Counts.Pending != 1 {
		t.Fatalf("counts = %+v, want 1 running + 1 queued + 1 pending", st.Counts)
	}
	checkSweepAccounting(t, srv)
	close(stub.release)
	if st := waitSweepDone(t, srv.Handler(), sr.ID); st.Counts.Cached != 3 {
		t.Fatalf("final counts = %+v, want 3 cached", st.Counts)
	}
}
