package serve

import (
	"net/http"
	"testing"
	"time"

	cppe "github.com/reproductions/cppe"
)

// TestServeRealSession runs the service over a real simulation session and
// pins the headline guarantees end to end:
//
//   - the served result bytes are identical to cppe.ResultJSON of a direct
//     run with the same options (i.e. to `cppe-sim -json` output);
//   - a duplicate POST after completion is a cache hit that starts nothing;
//   - a fresh server over the same state directory serves the result from
//     disk without running any simulation at all.
func TestServeRealSession(t *testing.T) {
	opt := cppe.Options{Scale: 0.05, Parallelism: 2}
	req := cppe.Request{Benchmark: "SRD", Setup: "cppe", Oversubscription: 50}
	ref, err := cppe.NewSession(opt).Run(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cppe.ResultJSON(ref)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := Config{
		StateDir: dir,
		Workers:  1,
		// Several checkpoint boundaries per run, so the park/stop plumbing is
		// genuinely exercised by the real runner even on the happy path.
		CheckpointEvery: ref.Cycles / 5,
		Runner:          SessionRunner(cppe.NewSession(opt)),
		Logf:            discardLogf,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)

	code, sr, _ := post(t, srv.Handler(), srdBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %+v", code, sr)
	}
	j := waitDone(t, srv, sr.ID)
	if j.State() != StateCached {
		t.Fatalf("job = %s (err=%q), want cached", j.State(), j.Err())
	}
	code, body := get(t, srv.Handler(), "/v1/jobs/"+sr.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET result: %d", code)
	}
	if string(body) != string(want) {
		t.Errorf("served result differs from direct cppe-sim rendering:\n got: %s\nwant: %s", body, want)
	}

	code, sr2, _ := post(t, srv.Handler(), srdBody)
	if code != http.StatusOK || !sr2.Cached || sr2.ID != sr.ID {
		t.Fatalf("duplicate POST: %d %+v, want 200 cached with same ID", code, sr2)
	}
	if c := srv.Counters().Snapshot(); c.SimsStarted != 1 || c.CacheHits != 1 {
		t.Errorf("counters = %+v, want exactly one underlying sim and one cache hit", c)
	}

	// New process life over the same state dir: the cache survives, and the
	// duplicate is answered from disk without starting a worker or a sim.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	code, sr3, _ := post(t, srv2.Handler(), srdBody)
	if code != http.StatusOK || !sr3.Cached {
		t.Fatalf("POST after restart: %d %+v, want 200 cached", code, sr3)
	}
	_, body = get(t, srv2.Handler(), "/v1/jobs/"+sr.ID+"/result")
	if string(body) != string(want) {
		t.Error("restarted server serves different bytes")
	}
	if c := srv2.Counters().Snapshot(); c.SimsStarted != 0 {
		t.Errorf("restarted server ran %d sims for a cached request, want 0", c.SimsStarted)
	}
}

// TestServeRealSessionRegistryPair: a registry-pair setup ("evict+prefetch",
// which Run resolves dynamically) is a servable job, and its served bytes are
// identical to the direct rendering of the same request.
func TestServeRealSessionRegistryPair(t *testing.T) {
	opt := cppe.Options{Scale: 0.05, Parallelism: 2}
	req := cppe.Request{Benchmark: "NW", Setup: "mhpe+locality", Oversubscription: 50}
	ref, err := cppe.NewSession(opt).Run(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cppe.ResultJSON(ref)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		StateDir:        t.TempDir(),
		Workers:         1,
		CheckpointEvery: ref.Cycles / 5,
		Runner:          SessionRunner(cppe.NewSession(opt)),
		Logf:            discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)

	code, sr, _ := post(t, srv.Handler(), `{"benchmark":"NW","setup":"mhpe+locality","oversubscription":50}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %+v", code, sr)
	}
	if j := waitDone(t, srv, sr.ID); j.State() != StateCached {
		t.Fatalf("job = %s (err=%q), want cached", j.State(), j.Err())
	}
	_, body := get(t, srv.Handler(), "/v1/jobs/"+sr.ID+"/result")
	if string(body) != string(want) {
		t.Errorf("served pair result differs from direct rendering:\n got: %s\nwant: %s", body, want)
	}
}

// TestServeRealSessionParkResume interrupts a real run mid-flight with a
// graceful shutdown, then finishes it in a second server life from the
// retained checkpoint; the final bytes still match the uninterrupted run.
func TestServeRealSessionParkResume(t *testing.T) {
	opt := cppe.Options{Scale: 0.05, Parallelism: 2}
	req := cppe.Request{Benchmark: "SRD", Setup: "cppe", Oversubscription: 50}
	ref, err := cppe.NewSession(opt).Run(req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cppe.ResultJSON(ref)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := Config{
		StateDir:        dir,
		Workers:         1,
		CheckpointEvery: ref.Cycles / 50, // many park opportunities
		Runner:          SessionRunner(cppe.NewSession(opt)),
		Logf:            discardLogf,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	_, sr, _ := post(t, srv.Handler(), srdBody)
	// Shut down immediately: if the run is still in flight it parks at its
	// next checkpoint boundary; if it already finished, it is cached. Both
	// are legal outcomes of a drain — the byte-identity assertion below is
	// what must hold regardless.
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := srv.Job(sr.ID).State(); st == StateRunning || st == StateFailed {
		t.Fatalf("state after drain = %s, want queued or cached", st)
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	defer srv2.Shutdown(0)
	// Either replay finishes the parked job, or the cache answers instantly.
	code, sr2, _ := post(t, srv2.Handler(), srdBody)
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("POST after restart: %d %+v", code, sr2)
	}
	j := waitDone(t, srv2, sr.ID)
	if j.State() != StateCached {
		t.Fatalf("job after restart = %s (err=%q), want cached", j.State(), j.Err())
	}
	_, body := get(t, srv2.Handler(), "/v1/jobs/"+sr.ID+"/result")
	if string(body) != string(want) {
		t.Errorf("interrupted-and-resumed result differs from uninterrupted run:\n got: %s\nwant: %s", body, want)
	}
}

// TestServeRealSessionSweepKillResume is the end-to-end tentpole assertion:
// a real-session sweep interrupted by a mid-flight shutdown (the graceful
// stand-in for kill -9, which the CI sweep-smoke job does literally) resumes
// in a second process life with only its unfinished points, and the finished
// grid's per-point bytes are identical to direct uninterrupted runs of the
// same configurations.
func TestServeRealSessionSweepKillResume(t *testing.T) {
	opt := cppe.Options{Scale: 0.05, Parallelism: 2}
	want := make(map[string][]byte)
	ref := cppe.NewSession(opt)
	var refCycles uint64
	for _, pct := range []int{75, 50} {
		res, err := ref.Run(cppe.Request{Benchmark: "SRD", Setup: "cppe", Oversubscription: pct})
		if err != nil {
			t.Fatal(err)
		}
		data, err := cppe.ResultJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		id, err := ref.JobID(cppe.Request{Benchmark: "SRD", Setup: "cppe", Oversubscription: pct})
		if err != nil {
			t.Fatal(err)
		}
		want[id] = data
		refCycles = res.Cycles
	}

	dir := t.TempDir()
	cfg := Config{
		StateDir:        dir,
		Workers:         1,
		SweepWorkers:    1, // serialize the points: the shutdown lands mid-grid
		CheckpointEvery: refCycles / 50,
		Runner:          SessionRunner(cppe.NewSession(opt)),
		Logf:            discardLogf,
	}
	srv := newCheckedServer(t, cfg)
	srv.Start()
	body := `{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[75,50]}`
	code, sr := postSweep(t, srv.Handler(), body)
	if code != http.StatusAccepted || sr.Points != 2 {
		t.Fatalf("POST sweep: %d %+v", code, sr)
	}
	// Interrupt while the first point is (very likely) mid-run; whatever
	// landed, the manifest + journal must carry the rest to the next life.
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	srv2 := newCheckedServer(t, cfg)
	srv2.Start()
	defer srv2.Shutdown(0)
	st := waitSweepDone(t, srv2.Handler(), sr.ID)
	if st.Counts.Cached != 2 || st.Counts.Failed != 0 {
		t.Fatalf("resumed sweep counts = %+v, want 2 cached", st.Counts)
	}
	for id, wantBytes := range want {
		code, body := get(t, srv2.Handler(), "/v1/jobs/"+id+"/result")
		if code != http.StatusOK {
			t.Fatalf("GET point %s: %d", id, code)
		}
		if string(body) != string(wantBytes) {
			t.Errorf("point %s: interrupted-sweep bytes differ from direct run", id)
		}
	}
}
