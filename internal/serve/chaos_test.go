package serve

import (
	"encoding/json"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/reproductions/cppe/internal/serve/fsfault"
)

// Serve-layer chaos: every test here drives the real server through a seeded
// fsfault.Injector and asserts the fail-stop contract — disk pressure flips
// sticky degraded mode (503 + Retry-After, running work parked at checkpoint
// boundaries), torn artifacts never survive, and a restart over the same
// state directory with a healthy disk replays everything to completion.

// chaosServer builds a server whose store writes go through a seeded
// injector (created disarmed, so setup writes succeed) and whose sweep
// accounting is checked at every run boundary.
func chaosServer(t *testing.T, dir string, stub *stubRunner, seed uint64) (*Server, *fsfault.Injector) {
	t.Helper()
	inj := fsfault.NewInjector(fsfault.OS, seed)
	cfg := testConfig(dir, stub)
	cfg.FS = inj
	return newCheckedServer(t, cfg), inj
}

func waitDegraded(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !srv.degradedMode() {
		if time.Now().After(deadline) {
			t.Fatal("server never entered degraded mode")
		}
		time.Sleep(time.Millisecond)
	}
}

func noTornTemps(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*", "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("torn temp files left behind: %v", tmps)
	}
}

// TestChaosENOSPCOnJobCommit: the journal write of a fresh submission hits
// ENOSPC. The submission is shed with 503 + Retry-After, the server latches
// degraded mode (visible on /healthz and /statsz), no torn record or temp
// file survives, and the degraded flag is sticky for subsequent submissions.
func TestChaosENOSPCOnJobCommit(t *testing.T) {
	dir := t.TempDir()
	stub := newStubRunner()
	srv, inj := chaosServer(t, dir, stub, 1)
	srv.Start()
	defer srv.Shutdown(0)

	inj.FailWrites(1) // every write fails with ENOSPC
	inj.Arm()

	code, _, hdr := post(t, srv.Handler(), srdBody)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("POST under ENOSPC: %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	if srv.Job("SRD-cppe-50") != nil {
		t.Error("failed accept leaked into the registry")
	}

	code, body := get(t, srv.Handler(), "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "degraded") {
		t.Errorf("healthz = %d %s, want 503 degraded", code, body)
	}
	var hz healthzResponse
	json.Unmarshal(body, &hz)
	if hz.Status != "degraded" || !strings.Contains(hz.DegradedReason, "no space") {
		t.Errorf("healthz body = %+v", hz)
	}

	// Sticky: still shedding, but only one degradation event.
	if code, _, _ := post(t, srv.Handler(), srdBody); code != http.StatusServiceUnavailable {
		t.Error("second POST not shed while degraded")
	}
	if c := srv.Counters().Snapshot(); c.DegradedEvents != 1 || c.Rejected != 2 {
		t.Errorf("counters = degraded_events=%d rejected=%d, want 1/2", c.DegradedEvents, c.Rejected)
	}

	inj.Disarm()
	if recs, _ := srv.Store().Jobs(); len(recs) != 0 {
		t.Errorf("journal has %d records after a failed accept, want 0", len(recs))
	}
	noTornTemps(t, dir)
}

// TestChaosRenameFailureOnSweepCommit: the manifest rename of POST /v1/sweeps
// fails with EDQUOT. Quota exhaustion is disk pressure like ENOSPC: 503,
// degraded, no half-registered sweep, no torn manifest — and a restart
// accepts the same grid cleanly.
func TestChaosRenameFailureOnSweepCommit(t *testing.T) {
	dir := t.TempDir()
	stub := newStubRunner()
	srv, inj := chaosServer(t, dir, stub, 2)
	srv.Start()

	inj.FailRenames(1)
	inj.SetError(syscall.EDQUOT)
	inj.Arm()

	body := `{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[50]}`
	if code, _ := postSweep(t, srv.Handler(), body); code != http.StatusServiceUnavailable {
		t.Fatalf("POST sweep under EDQUOT: want 503")
	}
	waitDegraded(t, srv)
	if srv.Sweep(sweepIDForTest(t, srv, body)) != nil {
		t.Error("failed sweep accept leaked into the registry")
	}
	if srecs, _ := srv.Store().Sweeps(); len(srecs) != 0 {
		t.Errorf("%d manifests journaled by a failed accept", len(srecs))
	}
	noTornTemps(t, dir)
	srv.Shutdown(0)

	// Restart with a healthy disk: the same grid is accepted and completes.
	stub2 := newStubRunner()
	srv2 := newCheckedServer(t, testConfig(dir, stub2))
	srv2.Start()
	defer srv2.Shutdown(0)
	code, sr := postSweep(t, srv2.Handler(), body)
	if code != http.StatusAccepted {
		t.Fatalf("POST after restart: %d", code)
	}
	if st := waitSweepDone(t, srv2.Handler(), sr.ID); st.Counts.Cached != 1 {
		t.Errorf("counts = %+v", st.Counts)
	}
}

// sweepIDForTest recomputes the content address the server would assign to
// a grid body.
func sweepIDForTest(t *testing.T, srv *Server, body string) string {
	t.Helper()
	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	points, err := srv.buildSweepPoints(req)
	if err != nil {
		t.Fatal(err)
	}
	return sweepID(points)
}

// TestChaosShortWriteOnResultCommit: the run finishes but committing its
// result bytes tears (short write). The job is parked, not failed — the
// journal still owns it — the torn temp never becomes a result, and the next
// process life over a healthy disk reruns it to a clean cached result.
func TestChaosShortWriteOnResultCommit(t *testing.T) {
	dir := t.TempDir()
	stub := newStubRunner()
	stub.block = true
	srv, inj := chaosServer(t, dir, stub, 3)
	srv.Start()

	_, sr, _ := post(t, srv.Handler(), srdBody)
	<-stub.started // accepted and journaled with a healthy disk

	inj.FailWrites(1)
	inj.ShortWrites(true)
	inj.Arm()
	close(stub.release) // run completes; PutResult tears

	waitDegraded(t, srv)
	if c := srv.Counters().Snapshot(); c.Failed != 0 {
		t.Error("torn result commit failed the job; it must park for retry")
	}
	if srv.Store().HasResult(sr.ID) {
		t.Error("torn result committed")
	}
	srv.Shutdown(10 * time.Second)
	inj.Disarm()
	noTornTemps(t, dir)

	stub2 := newStubRunner()
	srv2 := newCheckedServer(t, testConfig(dir, stub2))
	srv2.Start()
	defer srv2.Shutdown(0)
	j := waitDone(t, srv2, sr.ID)
	if j.State() != StateCached {
		t.Fatalf("replayed job = %s (err=%q), want cached", j.State(), j.Err())
	}
	code, body := get(t, srv2.Handler(), "/v1/jobs/"+sr.ID+"/result")
	if code != http.StatusOK || !json.Valid(body) {
		t.Errorf("recovered result: %d, valid JSON=%v", code, json.Valid(body))
	}
}

// TestChaosDegradedParksQueuedWork: with work queued behind a blocked run,
// degradation makes workers park dequeued jobs instead of starting
// simulations whose results cannot be persisted.
func TestChaosDegradedParksQueuedWork(t *testing.T) {
	dir := t.TempDir()
	stub := newStubRunner()
	stub.block = true
	srv, inj := chaosServer(t, dir, stub, 4)
	srv.Start()

	_, srA, _ := post(t, srv.Handler(), srdBody)
	<-stub.started // A running
	_, srB, _ := post(t, srv.Handler(), `{"benchmark":"NW","setup":"cppe","oversubscription":50}`)

	inj.FailWrites(1)
	inj.Arm()
	close(stub.release) // A completes -> torn commit -> degraded

	waitDegraded(t, srv)
	// B is dequeued by the now-degraded worker and parked, never started.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Job(srB.ID).State() != StateQueued || srv.queue.Depth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queued job not parked under degradation: %s", srv.Job(srB.ID).State())
		}
		time.Sleep(time.Millisecond)
	}
	if got := stub.runs.Load(); got != 1 {
		t.Errorf("degraded worker started %d runs, want 1 (only the pre-degradation one)", got)
	}
	if st := srv.Job(srA.ID).State(); st != StateQueued {
		t.Errorf("job A after torn commit = %s, want queued (parked)", st)
	}
	srv.Shutdown(10 * time.Second)
}

// TestChaosGCRacingInFlightReads hammers Result reads (pinned, as the
// handlers do) against concurrent GC under an always-evict budget: a read
// that started while the result existed must never observe a torn or missing
// file, because the pin blocks eviction for its duration. Run with -race.
func TestChaosGCRacingInFlightReads(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const id = "contested"
	payload := []byte(strings.Repeat("r", 256))
	if err := st.PutResult(id, payload); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the GC side: evict whenever allowed, then restore
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st.GC(GCConfig{MaxBytes: 1}, time.Now(), nil)
			if !st.HasResult(id) {
				if err := st.PutResult(id, payload); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	for i := 0; i < 300; i++ {
		st.Pin(id)
		if st.HasResult(id) {
			// The result existed after we pinned: GC must not take it out
			// from under the read.
			data, err := st.Result(id)
			if err != nil {
				t.Fatalf("iteration %d: pinned read failed: %v", i, err)
			}
			if string(data) != string(payload) {
				t.Fatalf("iteration %d: pinned read returned torn bytes", i)
			}
		}
		st.Unpin(id)
	}
	close(stop)
	wg.Wait()
}
