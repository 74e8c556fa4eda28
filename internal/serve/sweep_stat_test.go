package serve

import (
	"fmt"
	"io/fs"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reproductions/cppe/internal/serve/fsfault"
)

// statCountingFS counts Stat calls (Store.HasResult is one Stat per call).
type statCountingFS struct {
	fsfault.FS
	stats atomic.Int64
}

func (f *statCountingFS) Stat(name string) (fs.FileInfo, error) {
	f.stats.Add(1)
	return f.FS.Stat(name)
}

// TestFinishedSweepsNotRescanned pins that a job's terminal transition
// advances only live sweeps. Finished sweeps stay in the registry, but
// advancing one is a no-op, so once every sweep is done the advance each
// transition runs (advanceAllLocked) must make no Stat call at all, however
// many points the finished sweeps hold.
func TestFinishedSweepsNotRescanned(t *testing.T) {
	const sweeps = 6
	cfs := &statCountingFS{FS: fsfault.OS}
	cfg := testConfig(t.TempDir(), newStubRunner())
	cfg.FS = cfs
	cfg.SweepWorkers = 4
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)

	for i := 0; i < sweeps; i++ {
		body := fmt.Sprintf(`{"benchmarks":["B%d"],"setups":["a","b"],"oversubscriptions":[50,75]}`, i)
		code, sr := postSweep(t, srv.Handler(), body)
		if code != http.StatusAccepted {
			t.Fatalf("POST sweep %d: %d", i, code)
		}
		// Wait for the done latch itself, not the status endpoint: status
		// reads "done" as soon as every point is terminal, before the last
		// transition has latched it.
		deadline := time.Now().Add(30 * time.Second)
		for {
			srv.mu.Lock()
			latched := srv.sweeps[sr.ID].done
			srv.mu.Unlock()
			if latched {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("sweep %d never latched done", i)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Every Stat on the advance path happens under s.mu, so holding it makes
	// the count exact even if a straggling transition is waiting to run.
	srv.mu.Lock()
	before := cfs.stats.Load()
	srv.advanceAllLocked()
	n := cfs.stats.Load() - before
	srv.mu.Unlock()
	if n != 0 {
		t.Errorf("advancing %d finished sweeps (%d points) made %d stats, want 0", sweeps, 4*sweeps, n)
	}
}
