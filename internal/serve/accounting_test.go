package serve

import (
	"errors"
	"io/fs"
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

func (r *checkedRunner) Run(req Request, stop func() bool, progress func(uint64)) (cppe.Result, error) {
	checkSweepAccounting(r.t, r.srv)
	return r.Runner.Run(req, stop, func(cycle uint64) {
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

// TestSweepPointAdmissionIOError fails a point's admission with an error that
// is neither backpressure nor disk pressure. In a 2-point sweep with a window
// of one, the first point's result write and the second point's queued write
// hit EIO. The second point must not wait pending with nothing in flight for
// a transition that never comes: it fails, the sweep finishes, and a re-POST
// over a healthy disk re-arms both points and completes the grid.
func TestSweepPointAdmissionIOError(t *testing.T) {
	stub := newStubRunner()
	stub.block = true
	inj := fsfault.NewInjector(fsfault.OS, 1)
	cfg := testConfig(t.TempDir(), stub)
	cfg.FS = inj
	cfg.SweepWorkers = 1
	srv := newCheckedServer(t, cfg)
	srv.Start()
	defer srv.Shutdown(0)

	body := `{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[75,50]}`
	code, sr := postSweep(t, srv.Handler(), body)
	if code != http.StatusAccepted {
		t.Fatalf("POST sweep: %d", code)
	}
	<-stub.started // the window's one point is running
	inj.SetError(syscall.EIO)
	inj.FailWrites(1) // every write fails
	inj.Arm()
	close(stub.release)
	st := waitSweepDone(t, srv.Handler(), sr.ID)
	inj.Disarm()
	if srv.degradedMode() {
		t.Fatal("EIO degraded the server")
	}
	if st.Counts.Failed != 2 {
		t.Fatalf("counts under EIO = %+v, want both points failed", st.Counts)
	}

	if code, sr2 := postSweep(t, srv.Handler(), body); code != http.StatusAccepted || !sr2.Deduped {
		t.Fatalf("re-POST: %d %+v, want 202 deduped", code, sr2)
	}
	if st := waitSweepDone(t, srv.Handler(), sr.ID); st.Counts.Cached != 2 {
		t.Fatalf("counts after re-arm = %+v, want 2 cached", st.Counts)
	}
}

// gcGateFS holds the first result-directory Glob made while armed, which is
// the listing a collection makes before it takes its protected set and
// evicts, until release is closed.
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

// holdRunner holds the run of job id at its start until release is closed,
// signalling reached first.
type holdRunner struct {
	Runner
	id      string
	reached chan struct{}
	release chan struct{}
}

func (r holdRunner) Run(req Request, stop func() bool, progress func(uint64)) (cppe.Result, error) {
	if id, _ := r.JobID(req); id == r.id {
		close(r.reached)
		<-r.release
	}
	return r.Runner.Run(req, stop, progress)
}

// TestGCEvictionRacingNewSweep registers a sweep between a collection's
// listing of the results and its evictions. The collection must not take the
// aged results the new sweep found cached (DESIGN §15: never any point of an
// active sweep): the sweep ends with every point cached and none evicted, its
// accounting conserved, and a re-POST is a cache hit that runs nothing.
func TestGCEvictionRacingNewSweep(t *testing.T) {
	gfs := &gcGateFS{FS: fsfault.OS, reached: make(chan struct{}), release: make(chan struct{})}
	stub := newStubRunner()
	hold := holdRunner{Runner: stub, id: "SRD-cppe-25", reached: make(chan struct{}), release: make(chan struct{})}
	cfg := testConfig(t.TempDir(), hold)
	cfg.FS = gfs
	cfg.StoreMaxAge = time.Hour
	srv := newCheckedServer(t, cfg)
	srv.Start()
	defer srv.Shutdown(0)
	release := sync.OnceFunc(func() { close(gfs.release) })
	defer release() // before Shutdown, which waits for the gated worker
	releaseRun := sync.OnceFunc(func() { close(hold.release) })
	defer releaseRun()

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
	age := func(at time.Time) { // a result already evicted is left alone
		for _, id := range []string{"SRD-cppe-75", "SRD-cppe-50"} {
			if err := os.Chtimes(srv.store.resultPath(id), at, at); err != nil && !errors.Is(err, fs.ErrNotExist) {
				t.Fatal(err)
			}
		}
	}
	age(time.Now().Add(-2 * time.Hour))
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

	// Every collection before sweep B's last run has finished once that run
	// starts (one worker). Un-age the results before it completes: the
	// collection after it sees sweep B done, and aged results of a done
	// sweep are ordinary candidates.
	<-hold.reached
	age(time.Now())
	releaseRun()
	st := waitSweepDone(t, srv.Handler(), sb.ID)
	if st.Counts.Cached != 3 || st.Counts.Evicted != 0 {
		t.Fatalf("sweep B = %+v, want 3 cached and none evicted", st.Counts)
	}
	waitLatched(t, srv, sb.ID) // the worker has advanced the sweep
	checkSweepAccounting(t, srv)
	if st := sweepStatus(t, srv.Handler(), a.ID); st.Counts.Cached != 2 {
		t.Errorf("sweep A = %+v, want its 2 points cached", st.Counts)
	}
	before := stub.runs.Load()
	if code, sr := postSweep(t, srv.Handler(), b); code != http.StatusOK || !sr.Cached {
		t.Fatalf("re-POST sweep B: %d %+v, want 200 cached", code, sr)
	}
	if ran := stub.runs.Load() - before; ran != 0 {
		t.Errorf("re-POST ran %d points, want none", ran)
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
