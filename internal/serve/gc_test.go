package serve

import (
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// putResult stores n bytes of filler under id and pins its mtime to at.
func putResult(t *testing.T, st *Store, id string, n int, at time.Time) {
	t.Helper()
	if err := st.PutResult(id, []byte(strings.Repeat("x", n))); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(st.resultPath(id), at, at); err != nil {
		t.Fatal(err)
	}
}

// TestGCSizeBoundLRU pins the eviction order: least-recently-served first
// (never-served results go before any served one, oldest mtime first), and
// collection stops as soon as the size budget is met.
func TestGCSizeBoundLRU(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	putResult(t, st, "a", 100, base)
	putResult(t, st, "b", 100, base.Add(time.Minute))
	putResult(t, st, "c", 100, base.Add(2*time.Minute))
	// Serve c then a: LRU order becomes b (never served), c, a.
	if _, err := st.Result("c"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Result("a"); err != nil {
		t.Fatal(err)
	}

	got := st.GC(GCConfig{MaxBytes: 250}, time.Now(), nil)
	if got.EvictedResults != 1 || got.ReclaimedBytes != 100 {
		t.Fatalf("stats = %+v, want exactly one 100-byte eviction", got)
	}
	if st.HasResult("b") {
		t.Error("LRU victim b survived")
	}
	if !st.HasResult("a") || !st.HasResult("c") {
		t.Error("recently served results were evicted")
	}

	// A second pass under the same budget is a no-op: already within bounds.
	if got := st.GC(GCConfig{MaxBytes: 250}, time.Now(), nil); got.EvictedResults != 0 {
		t.Errorf("steady-state GC evicted %d results", got.EvictedResults)
	}
}

// TestGCAgeBound evicts anything written before the window regardless of the
// size budget.
func TestGCAgeBound(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	putResult(t, st, "old", 10, now.Add(-2*time.Hour))
	putResult(t, st, "fresh", 10, now.Add(-time.Minute))

	got := st.GC(GCConfig{MaxAge: time.Hour}, now, nil)
	if got.EvictedResults != 1 || st.HasResult("old") || !st.HasResult("fresh") {
		t.Errorf("stats = %+v, old present=%v fresh present=%v", got, st.HasResult("old"), st.HasResult("fresh"))
	}
}

// TestGCPinsAndKeepsBlockEviction pins the safety property: a pinned result
// (in-flight read) or a kept one (non-terminal job, active sweep point) is
// spared even when selected, counted in PinsHonored — and collected normally
// once released.
func TestGCPinsAndKeepsBlockEviction(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	putResult(t, st, "pinned", 10, now.Add(-2*time.Hour))
	putResult(t, st, "kept", 10, now.Add(-2*time.Hour))
	putResult(t, st, "doomed", 10, now.Add(-2*time.Hour))
	st.Pin("pinned")
	keep := func(id string) bool { return id == "kept" }

	got := st.GC(GCConfig{MaxAge: time.Hour}, now, keep)
	if got.EvictedResults != 1 || got.PinsHonored != 2 {
		t.Fatalf("stats = %+v, want 1 evicted + 2 pins honored", got)
	}
	if !st.HasResult("pinned") || !st.HasResult("kept") || st.HasResult("doomed") {
		t.Errorf("survivors: pinned=%v kept=%v doomed=%v", st.HasResult("pinned"), st.HasResult("kept"), st.HasResult("doomed"))
	}

	st.Unpin("pinned")
	got = st.GC(GCConfig{MaxAge: time.Hour}, now, nil)
	if got.EvictedResults != 2 || st.HasResult("pinned") || st.HasResult("kept") {
		t.Errorf("after release: stats = %+v", got)
	}
}

// TestServerGCProtectsActiveSweep drives GC through the server under an
// impossible 1-byte budget: while the sweep is active none of its points are
// evicted (the keep set covers the whole grid); once the sweep finishes its
// results become ordinary LRU candidates and the budget takes them, after
// which the grid honestly reports its points evicted and a re-POST
// recomputes them.
func TestServerGCProtectsActiveSweep(t *testing.T) {
	stub := newStubRunner()
	cfg := testConfig(t.TempDir(), stub)
	cfg.StoreMaxBytes = 1
	srv := newCheckedServer(t, cfg)
	srv.Start()
	defer srv.Shutdown(0)

	code, sr := postSweep(t, srv.Handler(),
		`{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[75,50]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST sweep: %d", code)
	}
	waitSweepDone(t, srv.Handler(), sr.ID)

	// The post-done GC pass runs on the worker goroutine after the done
	// edge latches; wait for the budget to take both points.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Counters().Snapshot().GCEvicted != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("post-sweep GC evicted %d results, want both points",
				srv.Counters().Snapshot().GCEvicted)
		}
		time.Sleep(time.Millisecond)
	}
	if c := srv.Counters().Snapshot(); c.GCPinsHonored == 0 {
		t.Error("mid-sweep GC never spared an active point (keep set not honored)")
	}
	rr := sweepResult(t, srv.Handler(), sr.ID)
	for _, p := range rr.Points {
		if p.State != StateEvicted {
			t.Errorf("point %s = %s, want evicted under the 1-byte budget", p.JobID, p.State)
		}
	}

	// Re-POST re-arms the evicted points: the grid recomputes rather than
	// serving holes.
	before := stub.runs.Load()
	code, sr2 := postSweep(t, srv.Handler(),
		`{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[75,50]}`)
	if code != http.StatusAccepted || sr2.ID != sr.ID {
		t.Fatalf("re-POST of evicted sweep: %d %+v", code, sr2)
	}
	waitSweepDone(t, srv.Handler(), sr.ID)
	if ran := stub.runs.Load() - before; ran != 2 {
		t.Errorf("re-arm ran %d points, want 2", ran)
	}
}

// TestResultEvictedJobRearm covers the single-job eviction surface: a cached
// job whose result bytes were collected answers GET .../result with 404 and
// an explanation, and a re-POST recomputes instead of lying about a cache
// hit.
func TestResultEvictedJobRearm(t *testing.T) {
	stub := newStubRunner()
	srv, err := New(testConfig(t.TempDir(), stub))
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)

	_, sr, _ := post(t, srv.Handler(), srdBody)
	waitDone(t, srv, sr.ID)
	if err := srv.Store().DeleteResult(sr.ID); err != nil { // stand-in for a GC eviction
		t.Fatal(err)
	}

	code, body := get(t, srv.Handler(), "/v1/jobs/"+sr.ID+"/result")
	if code != http.StatusNotFound || !strings.Contains(string(body), "evicted") {
		t.Errorf("GET evicted result: %d %s, want 404 naming the eviction", code, body)
	}
	code, sr2, _ := post(t, srv.Handler(), srdBody)
	if code != http.StatusAccepted || sr2.Cached {
		t.Fatalf("re-POST after eviction: %d %+v, want a fresh 202", code, sr2)
	}
	j := waitDone(t, srv, sr.ID)
	if j.State() != StateCached || !srv.Store().HasResult(sr.ID) {
		t.Errorf("recompute: state=%s hasResult=%v", j.State(), srv.Store().HasResult(sr.ID))
	}
	if got := stub.runs.Load(); got != 2 {
		t.Errorf("runs = %d, want 2 (original + recompute)", got)
	}
}
