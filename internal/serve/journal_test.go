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
// it reaches the disk, widening the window in which a late queued write could
// land after the job's completion removed its record.
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

// slowTerminalJournalFS delays every journal write of a failed record and
// every removal of a journal record (which is how a job becomes cached), so it
// widens the window between a job's terminal transition and the moment that
// state is durable.
type slowTerminalJournalFS struct {
	fsfault.FS
	delay time.Duration
}

func (f slowTerminalJournalFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if filepath.Base(filepath.Dir(name)) == "journal" && bytes.Contains(data, []byte(`"state": "failed"`)) {
		time.Sleep(f.delay)
	}
	return f.FS.WriteFile(name, data, perm)
}

func (f slowTerminalJournalFS) Remove(name string) error {
	if filepath.Base(filepath.Dir(name)) == "journal" && strings.HasSuffix(name, ".json") {
		time.Sleep(f.delay)
	}
	return f.FS.Remove(name)
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

// TestJournalLateQueuedWriteCannotOverwriteCached: a slow journal write of a
// job's queued record must never land after the worker removed the record on
// completion. The queued record is written before the job is pushed to the
// run queue, and journal writes and removals are serialized per job and read
// the record under that lock, so the last one acts on the newest state: no
// journal write fails, no record of the finished job is left, and a restart
// answers it from its result file instead of running it again.
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

	recs, err := srv.Store().Jobs()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		t.Errorf("journal still holds %s as %s, want no record", rec.ID, rec.State)
	}

	stub2 := newStubRunner()
	srv2, err := New(testConfig(dir, stub2))
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	if c := srv2.Counters().Snapshot(); c.Replayed != 0 {
		t.Errorf("restart replayed %d records, want none", c.Replayed)
	}
	if code, body := get(t, srv2.Handler(), "/v1/jobs/"+sr.ID); code != http.StatusOK || !strings.Contains(string(body), `"cached"`) {
		t.Errorf("restart answers job %s with %d %s, want 200 cached", sr.ID, code, body)
	}
	srv2.Shutdown(0)
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

// TestTerminalRecordJournaledBeforeWake: a job's waiters wake only once its
// terminal state is durable in the journal (a failed record written, a cached
// job's record removed), so a waiter that restarts the service right away
// finds the job finished instead of replaying it as unfinished and running
// it again. Holds for success and for failure.
func TestTerminalRecordJournaledBeforeWake(t *testing.T) {
	for _, tc := range []struct {
		name      string
		failures  int
		want      State
		journaled State // "" = no record
	}{
		{"cached", 0, StateCached, ""},
		{"failed", 100, StateFailed, StateFailed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stub := newStubRunner()
			stub.failures["SRD-cppe-50"] = tc.failures
			cfg := testConfig(t.TempDir(), stub)
			cfg.FS = slowTerminalJournalFS{FS: fsfault.OS, delay: 100 * time.Millisecond}
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
			if j := waitDone(t, srv, sr.ID); j.State() != tc.want {
				t.Fatalf("job = %s (err=%q), want %s", j.State(), j.Err(), tc.want)
			}
			recs, err := srv.Store().Jobs()
			if err != nil {
				t.Fatal(err)
			}
			var journaled State
			for _, rec := range recs {
				if rec.ID == sr.ID {
					journaled = rec.State
				}
			}
			if journaled != tc.journaled {
				t.Errorf("waiter woke with the journal at %q, want %q", journaled, tc.journaled)
			}
		})
	}
}

// TestFinishRearmDuringPersist: a rearm while the terminal record is being
// persisted gives the job a fresh done channel for new waiters. finish wakes
// the waiters it finished for, after persisting, and leaves the fresh channel
// open.
func TestFinishRearmDuringPersist(t *testing.T) {
	j := NewJob("id", Request{})
	old := j.Done()
	var fresh <-chan struct{}
	j.finish(StateFailed, "boom", func(j *Job) {
		select {
		case <-old:
			t.Error("waiters woke before the terminal record was persisted")
		default:
		}
		j.rearm()
		fresh = j.Done()
	})
	select {
	case <-old:
	default:
		t.Error("finish did not wake the waiters it finished for")
	}
	select {
	case <-fresh:
		t.Error("finish closed the re-armed job's done channel")
	default:
	}
}
