package serve

import (
	"bytes"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/reproductions/cppe/internal/serve/fsfault"
)

// slowQueuedJournalFS delays every journal write of a "queued" record before
// it reaches the disk, so a submit handler's queued record is still in flight
// while the worker runs the job to completion and journals it cached.
type slowQueuedJournalFS struct {
	fsfault.FS
	delay time.Duration
}

func (f slowQueuedJournalFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if filepath.Base(filepath.Dir(name)) == "journal" && bytes.Contains(data, []byte(`"state": "queued"`)) {
		time.Sleep(f.delay)
	}
	return f.FS.WriteFile(name, data, perm)
}

// logRecorder collects the service's log lines.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (l *logRecorder) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logRecorder) matching(substr string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, s := range l.lines {
		if strings.Contains(s, substr) {
			out = append(out, s)
		}
	}
	return out
}

// TestJournalLateQueuedWriteCannotOverwriteCached: the submit handler
// journals a new job as queued after pushing it to the run queue, so a fast
// worker can run the job and journal it cached while that write is still in
// flight. Journal writes are serialized per job and read the record under
// that lock, so the late writer records the newest state: no journal write
// fails, and a restart finds the job cached instead of queueing it again.
func TestJournalLateQueuedWriteCannotOverwriteCached(t *testing.T) {
	dir := t.TempDir()
	stub := newStubRunner()
	logs := &logRecorder{}
	cfg := testConfig(dir, stub)
	cfg.FS = slowQueuedJournalFS{FS: fsfault.OS, delay: 100 * time.Millisecond}
	cfg.Logf = logs.logf
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()

	code, sr, _ := post(t, srv.Handler(), srdBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST: %d %+v", code, sr)
	}
	if j := waitDone(t, srv, sr.ID); j.State() != StateCached {
		t.Fatalf("job = %s (err=%q), want cached", j.State(), j.Err())
	}
	srv.Shutdown(0)
	if bad := logs.matching("journal write failed"); len(bad) != 0 {
		t.Errorf("journal writes failed: %q", bad)
	}
	noTornTemps(t, dir)

	stub2 := newStubRunner()
	srv2, err := New(testConfig(dir, stub2))
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	defer srv2.Shutdown(0)
	j := srv2.Job(sr.ID)
	if j == nil {
		t.Fatalf("restart lost job %s", sr.ID)
	}
	if j.State() != StateCached {
		t.Fatalf("restart replayed job %s as %s, want cached", sr.ID, j.State())
	}
	if c := srv2.Counters().Snapshot(); c.Compacted != 1 {
		t.Errorf("compacted = %d, want 1 (the cached record)", c.Compacted)
	}
	if n := stub2.runs.Load(); n != 0 {
		t.Errorf("restart ran the finished job again (%d runs)", n)
	}
}

// TestStoreConcurrentWritesOfOneRecord: concurrent writers of one journal
// record never share a temporary file, so none of them fails and no
// temporary file survives.
func TestStoreConcurrentWritesOfOneRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, writes = 4, 50
	errs := make(chan error, writers*writes)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				errs <- st.PutJob(Record{ID: "same", State: StateRunning, Attempts: w*writes + i})
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent journal write failed: %v", err)
		}
	}
	noTornTemps(t, dir)
	if recs, err := st.Jobs(); err != nil || len(recs) != 1 {
		t.Errorf("Jobs() = %+v, %v; want the one record", recs, err)
	}
}
