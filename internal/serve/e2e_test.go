package serve

import (
	"io/fs"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	cppe "github.com/reproductions/cppe"
	"github.com/reproductions/cppe/internal/serve/fsfault"
)

// epochRunner calls onEpoch at each epoch boundary of its runs, before the
// server's own progress hook.
type epochRunner struct {
	Runner
	onEpoch func(cycle uint64)
}

func (r epochRunner) Run(req Request, stop func() bool, progress func(uint64)) (cppe.Result, error) {
	return r.Runner.Run(req, stop, func(cycle uint64) {
		r.onEpoch(cycle)
		progress(cycle)
	})
}

// createLog is a filesystem that records every path created through it.
type createLog struct {
	fsfault.FS
	mu      sync.Mutex
	dirs    []string
	created []string
}

func (c *createLog) MkdirAll(path string, perm fs.FileMode) error {
	c.mu.Lock()
	c.dirs = append(c.dirs, path)
	c.mu.Unlock()
	return c.FS.MkdirAll(path, perm)
}

func (c *createLog) WriteFile(name string, data []byte, perm fs.FileMode) error {
	c.add(name)
	return c.FS.WriteFile(name, data, perm)
}

func (c *createLog) Rename(oldpath, newpath string) error {
	c.add(newpath)
	return c.FS.Rename(oldpath, newpath)
}

func (c *createLog) add(path string) {
	c.mu.Lock()
	c.created = append(c.created, path)
	c.mu.Unlock()
}

// inJobFiles reports whether path, under the state directory dir, lies in
// journal/ or results/.
func inJobFiles(dir, path string) bool {
	rel, err := filepath.Rel(dir, path)
	return err == nil && (strings.HasPrefix(rel, "journal"+string(filepath.Separator)) ||
		strings.HasPrefix(rel, "results"+string(filepath.Separator)))
}

// strayFiles lists the regular files under dir outside journal/ and results/.
func strayFiles(t *testing.T, dir string) []string {
	t.Helper()
	var stray []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && !inJobFiles(dir, path) {
			stray = append(stray, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return stray
}

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
		// Several epoch boundaries per run, so the park/stop plumbing is
		// genuinely exercised by the real runner even on the happy path.
		Runner: sessionRunner{s: cppe.NewSession(opt), epoch: ref.Cycles / 5},
		Logf:   discardLogf,
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
		StateDir: t.TempDir(),
		Workers:  1,
		Runner:   sessionRunner{s: cppe.NewSession(opt), epoch: ref.Cycles / 5},
		Logf:     discardLogf,
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

// TestServeRealSessionWritesOnlyJobFiles: a real-session job that spans
// several epochs creates no file outside journal/ and results/ — not at any
// epoch boundary, and not by the time it is cached — and makes no directory
// beyond the store's layout.
func TestServeRealSessionWritesOnlyJobFiles(t *testing.T) {
	opt := cppe.Options{Scale: 0.05, Parallelism: 2}
	ref, err := cppe.NewSession(opt).Run(cppe.Request{Benchmark: "SRD", Setup: "cppe", Oversubscription: 50})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fsys := &createLog{FS: fsfault.OS}
	epochs := 0
	srv, err := New(Config{
		StateDir: dir,
		Workers:  1,
		FS:       fsys,
		Runner: epochRunner{
			Runner: sessionRunner{s: cppe.NewSession(opt), epoch: ref.Cycles / 5},
			onEpoch: func(uint64) {
				epochs++
				if stray := strayFiles(t, dir); len(stray) > 0 {
					t.Errorf("epoch %d: files outside journal/ and results/: %v", epochs, stray)
				}
			},
		},
		Logf: discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)
	_, sr, _ := post(t, srv.Handler(), srdBody)
	if j := waitDone(t, srv, sr.ID); j.State() != StateCached {
		t.Fatalf("job = %s (err=%q), want cached", j.State(), j.Err())
	}
	if epochs < 2 {
		t.Fatalf("run crossed %d epoch boundaries, want several", epochs)
	}
	if stray := strayFiles(t, dir); len(stray) > 0 {
		t.Errorf("after the run: files outside journal/ and results/: %v", stray)
	}
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	for _, p := range fsys.created {
		if !inJobFiles(dir, p) {
			t.Errorf("created %s, outside journal/ and results/", p)
		}
	}
	layout := []string{filepath.Join(dir, "journal"), filepath.Join(dir, "results"), filepath.Join(dir, "sweeps")}
	for _, d := range fsys.dirs {
		if !slices.Contains(layout, d) {
			t.Errorf("made directory %s, outside the store layout %v", d, layout)
		}
	}
}

// TestServeRealSessionParkResume parks a real run mid-flight with a graceful
// shutdown, then reruns it from cycle 0 in a second server life: the parked
// job keeps its queued record and nothing else, the second life starts over
// at the first epoch boundary, and the final bytes match cppe-sim's.
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
	runner := sessionRunner{s: cppe.NewSession(opt), epoch: ref.Cycles / 5}
	var srv *Server
	var firstLife []uint64
	reached := make(chan struct{})
	srv, err = New(Config{
		StateDir: dir,
		Workers:  1,
		// The first epoch boundary holds the run until the shutdown begins,
		// so the job is parked mid-run, never finished first.
		Runner: epochRunner{Runner: runner, onEpoch: func(cycle uint64) {
			firstLife = append(firstLife, cycle)
			if len(firstLife) == 1 {
				close(reached)
				<-srv.stop
			}
		}},
		Logf: discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	_, sr, _ := post(t, srv.Handler(), srdBody)
	<-reached
	if err := srv.Shutdown(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := srv.Job(sr.ID).State(); st != StateQueued {
		t.Fatalf("state after drain = %s, want queued", st)
	}
	if c := srv.Counters().Snapshot(); c.Parked != 1 || c.SimsCompleted != 0 {
		t.Errorf("first life counters = %+v, want one park and no completed sim", c)
	}
	recs, err := srv.Store().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != sr.ID || recs[0].State != StateQueued || recs[0].Attempts != 0 {
		t.Fatalf("journal after drain = %+v, want the job's queued record", recs)
	}
	if stray := strayFiles(t, dir); len(stray) > 0 {
		t.Errorf("parked job left files outside journal/ and results/: %v", stray)
	}

	var secondLife []uint64
	srv2, err := New(Config{
		StateDir: dir,
		Workers:  1,
		Runner:   epochRunner{Runner: runner, onEpoch: func(cycle uint64) { secondLife = append(secondLife, cycle) }},
		Logf:     discardLogf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	defer srv2.Shutdown(0)
	j := waitDone(t, srv2, sr.ID)
	if j.State() != StateCached {
		t.Fatalf("job after restart = %s (err=%q), want cached", j.State(), j.Err())
	}
	if c := srv2.Counters().Snapshot(); c.Replayed != 1 || c.SimsStarted != 1 {
		t.Errorf("second life counters = %+v, want one replayed job and one sim", c)
	}
	if len(secondLife) < 2 || secondLife[0] != firstLife[0] {
		t.Errorf("second life's epoch boundaries %v do not start over at the first life's first one (%d)", secondLife, firstLife[0])
	}
	_, body := get(t, srv2.Handler(), "/v1/jobs/"+sr.ID+"/result")
	if string(body) != string(want) {
		t.Errorf("parked-and-rerun result differs from cppe-sim's rendering:\n got: %s\nwant: %s", body, want)
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
		StateDir:     dir,
		Workers:      1,
		SweepWorkers: 1, // serialize the points: the shutdown lands mid-grid
		Runner:       sessionRunner{s: cppe.NewSession(opt), epoch: refCycles / 50},
		Logf:         discardLogf,
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
