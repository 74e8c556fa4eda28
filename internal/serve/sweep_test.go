package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func postSweep(t *testing.T, h http.Handler, body string) (int, SweepSubmitResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var sr SweepSubmitResponse
	json.Unmarshal(w.Body.Bytes(), &sr)
	return w.Code, sr
}

func newHTTPServer(t *testing.T, h http.Handler) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return hs
}

func compactJSON(t *testing.T, data []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		t.Fatalf("compact %q: %v", data, err)
	}
	return buf.String()
}

// sseDecoder parses a text/event-stream into Events.
type sseDecoder struct{ sc *bufio.Scanner }

func newSSEDecoder(r io.Reader) *sseDecoder { return &sseDecoder{sc: bufio.NewScanner(r)} }

func (d *sseDecoder) next() (Event, error) {
	var ev Event
	for d.sc.Scan() {
		line := d.sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return ev, fmt.Errorf("bad SSE data %q: %w", data, err)
			}
			return ev, nil
		}
	}
	if err := d.sc.Err(); err != nil {
		return ev, err
	}
	return ev, io.EOF
}

func sweepStatus(t *testing.T, h http.Handler, id string) SweepStatusResponse {
	t.Helper()
	code, raw := get(t, h, "/v1/sweeps/"+id)
	if code != http.StatusOK {
		t.Fatalf("GET sweep %s: %d %s", id, code, raw)
	}
	var st SweepStatusResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func sweepResult(t *testing.T, h http.Handler, id string) SweepResultResponse {
	t.Helper()
	code, raw := get(t, h, "/v1/sweeps/"+id+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET sweep result %s: %d %s", id, code, raw)
	}
	var rr SweepResultResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	return rr
}

// waitSweepDone polls the status endpoint until the sweep reports done —
// exactly what an HTTP client would do.
func waitSweepDone(t *testing.T, h http.Handler, id string) SweepStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := sweepStatus(t, h, id)
		if st.State == "done" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s never finished: %+v", id, st.Counts)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const gridBody = `{"benchmarks":["SRD","NW"],"setups":["cppe","baseline"],"oversubscriptions":[75,50]}`

// TestSweepFanOutToGrid pins the happy path: one POST fans a 2×2×2 grid out
// as 8 content-addressed jobs, the result document carries all 8 point
// results, every point is individually addressable through the jobs API, and
// a resubmission of the same grid is a pure cache hit that runs nothing.
func TestSweepFanOutToGrid(t *testing.T) {
	stub := newStubRunner()
	cfg := testConfig(t.TempDir(), stub)
	cfg.Workers = 2
	cfg.SweepWorkers = 8
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)

	code, sr := postSweep(t, srv.Handler(), gridBody)
	if code != http.StatusAccepted || sr.Points != 8 || sr.State != "running" {
		t.Fatalf("POST sweep: %d %+v, want 202 running with 8 points", code, sr)
	}
	st := waitSweepDone(t, srv.Handler(), sr.ID)
	if st.Counts.Cached != 8 || st.Counts.Failed != 0 {
		t.Fatalf("final counts = %+v, want 8 cached", st.Counts)
	}
	waitLatched(t, srv, sr.ID) // the last worker has advanced the sweep
	checkSweepAccounting(t, srv)
	if c := srv.Counters().Snapshot(); c.SweepsAccepted != 1 || c.SweepPoints != 8 {
		t.Errorf("counters = sweeps_accepted=%d sweep_points=%d, want 1/8", c.SweepsAccepted, c.SweepPoints)
	}

	rr := sweepResult(t, srv.Handler(), sr.ID)
	if !rr.Done || len(rr.Points) != 8 {
		t.Fatalf("result: done=%v points=%d", rr.Done, len(rr.Points))
	}
	// Point order is deterministic: benchmarks outermost, then setups, then
	// rates — the manifest order, stable across every view.
	if p := rr.Points[0]; p.Benchmark != "SRD" || p.Setup != "cppe" || p.Oversubscription != 75 {
		t.Errorf("point[0] = %+v, want SRD/cppe/75", p.SweepPointStatus)
	}
	if p := rr.Points[7]; p.Benchmark != "NW" || p.Setup != "baseline" || p.Oversubscription != 50 {
		t.Errorf("point[7] = %+v, want NW/baseline/50", p.SweepPointStatus)
	}
	for i, p := range rr.Points {
		if p.State != StateCached || len(p.Result) == 0 {
			t.Fatalf("point[%d] = %s with %d result bytes, want cached with bytes", i, p.State, len(p.Result))
		}
		// Each grid cell carries its job's stored result (the jobs API serves
		// the exact bytes; embedding in the grid document re-indents, so the
		// comparison is whitespace-insensitive).
		code, body := get(t, srv.Handler(), "/v1/jobs/"+p.JobID+"/result")
		if code != http.StatusOK || compactJSON(t, body) != compactJSON(t, p.Result) {
			t.Errorf("point[%d] grid result differs from the job's own result", i)
		}
	}

	// Identical grid again: same sweep ID, nothing reruns.
	before := stub.runs.Load()
	code, sr2 := postSweep(t, srv.Handler(), gridBody)
	if code != http.StatusOK || sr2.ID != sr.ID || !sr2.Cached {
		t.Fatalf("re-POST: %d %+v, want 200 cached with same ID", code, sr2)
	}
	if got := stub.runs.Load(); got != before {
		t.Errorf("re-POST ran %d extra simulations", got-before)
	}
	checkSweepAccounting(t, srv)
}

// TestSweepPointFailureIsolation pins the fault-isolation contract: one point
// exhausting its retry budget is marked failed while every other point
// completes, the grid serves the partial result with the failure attached,
// and re-POSTing the grid re-arms only the failed point.
func TestSweepPointFailureIsolation(t *testing.T) {
	stub := newStubRunner()
	stub.failures["SRD-cppe-50"] = 100 // beyond any budget
	cfg := testConfig(t.TempDir(), stub)
	cfg.SweepWorkers = 4
	srv := newCheckedServer(t, cfg)
	srv.Start()
	defer srv.Shutdown(0)

	code, sr := postSweep(t, srv.Handler(),
		`{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[75,50,25]}`)
	if code != http.StatusAccepted || sr.Points != 3 {
		t.Fatalf("POST sweep: %d %+v", code, sr)
	}
	st := waitSweepDone(t, srv.Handler(), sr.ID)
	if st.Counts.Cached != 2 || st.Counts.Failed != 1 {
		t.Fatalf("counts = %+v, want 2 cached + 1 failed", st.Counts)
	}
	if st.Counts.Retries == 0 {
		t.Error("failed point should have recorded retries")
	}

	rr := sweepResult(t, srv.Handler(), sr.ID)
	for _, p := range rr.Points {
		if p.JobID == "SRD-cppe-50" {
			if p.State != StateFailed || !strings.Contains(p.Error, "panic") || len(p.Result) != 0 {
				t.Errorf("failed point = %+v", p.SweepPointStatus)
			}
		} else if p.State != StateCached || len(p.Result) == 0 {
			t.Errorf("healthy point %s = %s, want cached with bytes", p.JobID, p.State)
		}
	}

	// Re-POST re-arms only the failed point; with the failure budget drained
	// to one more crash, it retries through and the sweep completes whole.
	stub.mu.Lock()
	stub.failures["SRD-cppe-50"] = 1
	stub.mu.Unlock()
	before := stub.runs.Load()
	code, sr2 := postSweep(t, srv.Handler(), `{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[75,50,25]}`)
	if code != http.StatusAccepted || sr2.ID != sr.ID || !sr2.Deduped {
		t.Fatalf("re-POST: %d %+v, want 202 deduped", code, sr2)
	}
	st = waitSweepDone(t, srv.Handler(), sr.ID)
	if st.Counts.Cached != 3 {
		t.Fatalf("counts after re-arm = %+v, want 3 cached", st.Counts)
	}
	if ran := stub.runs.Load() - before; ran != 2 { // one crash + one success
		t.Errorf("re-arm ran %d attempts, want 2 (cached points must not rerun)", ran)
	}
}

// TestSweepWindowBoundsFanOut pins the windowing contract: with SweepWorkers
// = 1, at most one point of the sweep is past pending at a time, and the
// window only advances as points finish.
func TestSweepWindowBoundsFanOut(t *testing.T) {
	stub := newStubRunner()
	stub.block = true
	cfg := testConfig(t.TempDir(), stub)
	cfg.SweepWorkers = 1
	srv := newCheckedServer(t, cfg)
	srv.Start()
	defer srv.Shutdown(0)

	code, sr := postSweep(t, srv.Handler(),
		`{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[75,50,25]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST sweep: %d", code)
	}
	<-stub.started // first point is on the worker, blocked
	st := sweepStatus(t, srv.Handler(), sr.ID)
	if inFlight := st.Counts.Queued + st.Counts.Running + st.Counts.Retrying; inFlight != 1 || st.Counts.Pending != 2 {
		t.Fatalf("window=1 counts = %+v, want 1 in flight + 2 pending", st.Counts)
	}

	close(stub.release) // finishing points pulls the rest through the window
	st = waitSweepDone(t, srv.Handler(), sr.ID)
	if st.Counts.Cached != 3 {
		t.Fatalf("final counts = %+v, want 3 cached", st.Counts)
	}
}

// TestSweepKillResumeOnlyUnfinishedPoints simulates kill -9 mid-sweep: the
// first life parks with points unfinished; a second life over the same state
// directory replays the manifest and journal, reruns only the unfinished
// points, and finishes the grid.
func TestSweepKillResumeOnlyUnfinishedPoints(t *testing.T) {
	dir := t.TempDir()
	stub := newStubRunner()
	stub.block = true
	cfg := testConfig(dir, stub)
	cfg.SweepWorkers = 4
	srv := newCheckedServer(t, cfg)
	srv.Start()

	code, sr := postSweep(t, srv.Handler(),
		`{"benchmarks":["SRD","NW"],"setups":["cppe"],"oversubscriptions":[50]}`)
	if code != http.StatusAccepted || sr.Points != 2 {
		t.Fatalf("POST sweep: %d %+v", code, sr)
	}
	<-stub.started // one point mid-run; both journaled
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Second life: unfinished points replay and complete without any client
	// re-submitting the sweep.
	stub2 := newStubRunner()
	cfg2 := testConfig(dir, stub2)
	cfg2.SweepWorkers = 4
	srv2 := newCheckedServer(t, cfg2)
	srv2.Start()
	defer srv2.Shutdown(0)
	st := waitSweepDone(t, srv2.Handler(), sr.ID)
	if st.Counts.Cached != 2 {
		t.Fatalf("counts after resume = %+v, want 2 cached", st.Counts)
	}
	if got := stub2.runs.Load(); got != 2 {
		t.Errorf("second life ran %d points, want the 2 unfinished ones", got)
	}

	// Third life: everything is durable; replay reruns nothing and the grid
	// is served straight from disk.
	stub3 := newStubRunner()
	srv3 := newCheckedServer(t, testConfig(dir, stub3))
	rr := sweepResult(t, srv3.Handler(), sr.ID)
	if !rr.Done || rr.Counts.Cached != 2 {
		t.Fatalf("third-life grid = %+v", rr.Counts)
	}
	if got := stub3.runs.Load(); got != 0 {
		t.Errorf("third life ran %d simulations for a finished sweep, want 0", got)
	}
}

// TestSweepValidation covers the request-shape rejections.
func TestSweepValidation(t *testing.T) {
	stub := newStubRunner()
	srv := newCheckedServer(t, testConfig(t.TempDir(), stub))
	// No workers: validation never reaches execution.

	for name, body := range map[string]string{
		"empty axis":    `{"benchmarks":[],"setups":["cppe"],"oversubscriptions":[50]}`,
		"missing axis":  `{"benchmarks":["SRD"],"setups":["cppe"]}`,
		"bad benchmark": `{"benchmarks":[""],"setups":["cppe"],"oversubscriptions":[50]}`,
		"not json":      `{`,
	} {
		if code, _ := postSweep(t, srv.Handler(), body); code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, code)
		}
	}

	// A grid expanding past the point cap is rejected up front.
	big := SweepRequest{Benchmarks: []string{"SRD"}, Setups: []string{"cppe"}}
	for i := 0; i <= maxSweepPoints; i++ {
		big.Oversubscriptions = append(big.Oversubscriptions, i)
	}
	raw, _ := json.Marshal(big)
	if code, _ := postSweep(t, srv.Handler(), string(raw)); code != http.StatusBadRequest {
		t.Errorf("oversized grid: %d, want 400", code)
	}

	// Duplicate axis values collapse instead of double-running.
	code, sr := postSweep(t, srv.Handler(), `{"benchmarks":["SRD","SRD"],"setups":["cppe"],"oversubscriptions":[50,50]}`)
	if code != http.StatusAccepted || sr.Points != 1 {
		t.Errorf("duplicate values: %d %+v, want 202 with 1 point", code, sr)
	}

	if code, _ := get(t, srv.Handler(), "/v1/sweeps/nope"); code != http.StatusNotFound {
		t.Errorf("unknown sweep status: %d, want 404", code)
	}
	if code, _ := get(t, srv.Handler(), "/v1/sweeps/nope/result"); code != http.StatusNotFound {
		t.Errorf("unknown sweep result: %d, want 404", code)
	}
}

// TestRetryAfterDeterministic pins the backpressure hint: a pure function of
// queue depth, and the header on shed responses carries exactly that value.
func TestRetryAfterDeterministic(t *testing.T) {
	for _, tc := range []struct{ depth, want int }{
		{-5, 1}, {0, 1}, {1, 2}, {10, 11}, {59, 60}, {60, 60}, {1000, 60},
	} {
		if got := RetryAfter(tc.depth); got != tc.want {
			t.Errorf("RetryAfter(%d) = %d, want %d", tc.depth, got, tc.want)
		}
	}

	stub := newStubRunner()
	stub.block = true
	cfg := testConfig(t.TempDir(), stub)
	cfg.QueueDepth = 2
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)
	defer close(stub.release)

	post(t, srv.Handler(), srdBody) // on the worker
	<-stub.started
	post(t, srv.Handler(), `{"benchmark":"NW","setup":"cppe","oversubscription":50}`)  // queued (depth 1)
	post(t, srv.Handler(), `{"benchmark":"HSD","setup":"cppe","oversubscription":50}`) // queued (depth 2)
	code, _, hdr := post(t, srv.Handler(), `{"benchmark":"BFS","setup":"cppe","oversubscription":50}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow POST: %d, want 429", code)
	}
	if got, want := hdr.Get("Retry-After"), strconv.Itoa(RetryAfter(2)); got != want {
		t.Errorf("Retry-After = %q, want %q (depth 2)", got, want)
	}
}

// TestSweepEventsEndToEnd drives the SSE stream over a live sweep: the first
// frame is a snapshot, per-point lifecycle events (started, progress, done)
// arrive as the grid runs, and the stream terminates itself with sweep_done.
func TestSweepEventsEndToEnd(t *testing.T) {
	stub := newStubRunner()
	stub.block = true
	cfg := testConfig(t.TempDir(), stub)
	srv := newCheckedServer(t, cfg)
	srv.Start()
	defer srv.Shutdown(0)
	hs := newHTTPServer(t, srv.Handler())

	code, sr := postSweep(t, srv.Handler(),
		`{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[50]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST sweep: %d", code)
	}
	<-stub.started

	resp, err := http.Get(hs.URL + "/v1/sweeps/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	events := make(chan Event, 256)
	go func() {
		defer close(events)
		dec := newSSEDecoder(resp.Body)
		for {
			ev, err := dec.next()
			if err != nil {
				return
			}
			events <- ev
		}
	}()

	first := <-events
	if first.Type != evSnapshot || first.Sweep != sr.ID {
		t.Fatalf("first event = %+v, want snapshot", first)
	}
	// The blocked run emits progress; wait until one event flows through,
	// then release and read to the terminal event.
	sawProgress := false
	var last Event
	timeout := time.After(20 * time.Second)
	released := false
	for last.Type != evSweepDone {
		select {
		case ev, ok := <-events:
			if !ok {
				t.Fatalf("stream ended before sweep_done (last=%+v)", last)
			}
			last = ev
			if ev.Type == evPointProgress {
				if ev.Cycle == 0 || ev.Benchmark != "SRD" {
					t.Fatalf("progress event = %+v", ev)
				}
				sawProgress = true
				if !released {
					released = true
					close(stub.release)
				}
			}
		case <-timeout:
			t.Fatalf("no sweep_done within timeout (last=%+v)", last)
		}
	}
	if !sawProgress {
		t.Error("never saw a point_progress event")
	}
	if last.Counts.Cached != 1 {
		t.Errorf("sweep_done counts = %+v, want 1 cached", last.Counts)
	}

	// A subscription to an already-finished sweep is snapshot + sweep_done.
	resp2, err := http.Get(hs.URL + "/v1/sweeps/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	dec := newSSEDecoder(resp2.Body)
	ev1, err1 := dec.next()
	ev2, err2 := dec.next()
	if err1 != nil || err2 != nil || ev1.Type != evSnapshot || ev2.Type != evSweepDone {
		t.Errorf("finished-sweep stream = %v/%v %v/%v, want snapshot then sweep_done", ev1.Type, err1, ev2.Type, err2)
	}
	if _, err := dec.next(); err == nil {
		t.Error("stream did not close after sweep_done")
	}
}

// TestRepostInsidePointFailure: a sweep point's job re-POSTed after the
// job turned failed but before its point_failed event went out (the Logf
// hook runs in that window) must not change the event: it carries the
// terminal record — the failure and its attempt — and not the re-armed
// one, and the sweep still moves past the point to finish the grid.
func TestRepostInsidePointFailure(t *testing.T) {
	stub := newStubRunner()
	stub.block = true // hold the first run until the test is subscribed
	stub.failures["SRD-cppe-50"] = 1
	cfg := testConfig(t.TempDir(), stub)
	cfg.SweepWorkers = 1
	cfg.MaxAttempts = 1
	var srv *Server
	reposted := make(chan SubmitResponse, 1)
	var once sync.Once
	cfg.Logf = func(format string, args ...any) {
		if strings.Contains(format, "failed:") {
			once.Do(func() {
				_, sr, _ := post(t, srv.Handler(), srdBody)
				reposted <- sr
			})
		}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)

	code, sr := postSweep(t, srv.Handler(), `{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[50,75]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST sweep: %d", code)
	}
	srv.mu.Lock()
	sw := srv.sweeps[sr.ID]
	failing := sw.Points[0].JobID
	sub := sw.hub.subscribe()
	srv.mu.Unlock()
	defer sw.hub.unsubscribe(sub)
	if failing != "SRD-cppe-50" {
		t.Fatalf("first point %s, want SRD-cppe-50", failing)
	}
	close(stub.release)

	if re := <-reposted; re.ID != failing || re.Cached || re.Deduped {
		t.Fatalf("re-POST of the failed point: %+v, want a fresh admission of %s", re, failing)
	}
	for ev := range sub.ch {
		if ev.Type != evPointFailed {
			continue
		}
		if ev.JobID != failing || ev.Attempts != 1 || !strings.Contains(ev.Error, "stub crash") {
			t.Errorf("point_failed = %+v, want %s's terminal record: attempt 1, the stub crash", ev, failing)
		}
		break
	}
	st := waitSweepDone(t, srv.Handler(), sr.ID)
	if st.Counts.Cached != 2 {
		t.Errorf("sweep done with %+v, want both points cached", st.Counts)
	}
	if got := stub.runs.Load(); got != 3 {
		t.Errorf("underlying runs = %d, want 3 (the failed run, its rerun, the second point)", got)
	}
}

// TestHubDropAndCoalesce pins the slow-consumer contract at the hub level: a
// full subscriber mailbox drops events (publish never blocks), the drop count
// is surfaced on the next delivery, and a second healthy subscriber loses
// nothing.
func TestHubDropAndCoalesce(t *testing.T) {
	h := newHub()
	slow := h.subscribe()
	total := cap(slow.ch) + 17
	for i := 0; i < total; i++ {
		h.publish(Event{Type: evPointProgress, Cycle: uint64(i + 1)})
	}
	if got := len(slow.ch); got != cap(slow.ch) {
		t.Fatalf("mailbox holds %d, want full at %d", got, cap(slow.ch))
	}
	if got := slow.dropped.Load(); got != 17 {
		t.Fatalf("dropped = %d, want 17", got)
	}
	// The handler attaches-and-resets the drop count on delivery; emulate one
	// delivery cycle.
	ev := <-slow.ch
	ev.Dropped = slow.dropped.Swap(0)
	if ev.Dropped != 17 || slow.dropped.Load() != 0 {
		t.Errorf("delivery carried dropped=%d (remaining %d), want 17/0", ev.Dropped, slow.dropped.Load())
	}

	h.unsubscribe(slow)
	h.publish(Event{Type: evSweepDone})
	if got := slow.dropped.Load(); got != 0 {
		t.Errorf("unsubscribed mailbox still counted %d drops", got)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the sweep wire golden files")

// TestSweepWireGolden pins the status and result documents of a finished
// two-point sweep byte for byte: one point cached with its result bytes, one
// failed with its attempts and error. Every per-point wire field appears.
// Run with -update to rewrite the golden files.
func TestSweepWireGolden(t *testing.T) {
	stub := newStubRunner()
	stub.failures["SRD-cppe-75"] = 100 // beyond any budget
	srv := newCheckedServer(t, testConfig(t.TempDir(), stub))
	srv.Start()
	defer srv.Shutdown(0)

	code, sr := postSweep(t, srv.Handler(), `{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[50,75]}`)
	if code != http.StatusAccepted || sr.Points != 2 {
		t.Fatalf("POST sweep: %d %+v", code, sr)
	}
	waitSweepDone(t, srv.Handler(), sr.ID)
	for _, tc := range []struct{ path, golden string }{
		{"/v1/sweeps/" + sr.ID, "sweep_status.golden.json"},
		{"/v1/sweeps/" + sr.ID + "/result", "sweep_result.golden.json"},
	} {
		code, got := get(t, srv.Handler(), tc.path)
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", tc.path, code, got)
		}
		path := filepath.Join("testdata", tc.golden)
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GET %s differs from %s:\n got: %s\nwant: %s", tc.path, path, got, want)
		}
	}
}
