package serve

import (
	"io/fs"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"github.com/reproductions/cppe/internal/serve/fsfault"
)

// journalFS counts journal writes and, while failing is set, refuses them
// with ENOSPC. Every other operation passes through.
type journalFS struct {
	fsfault.FS
	writes  atomic.Int64
	failing atomic.Bool
}

func (f *journalFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if filepath.Base(filepath.Dir(name)) == "journal" {
		f.writes.Add(1)
		if f.failing.Load() {
			return syscall.ENOSPC
		}
	}
	return f.FS.WriteFile(name, data, perm)
}

// admission is what one admission leaves behind for the job it names.
type admission struct {
	State    State // "" when no job is registered
	Attempts int
	Error    string
	Journal  Record // zero when the job has no journal record
	Writes   int64  // journal writes the admission made
	Depth    int    // run-queue depth afterwards
}

// step prepares a fresh server before an admission.
type step func(*testing.T, *Server, *journalFS)

// TestAdmissionParity runs each admission case through POST /v1/jobs and
// through a one-point sweep on a server whose workers are not started, and
// requires both paths to leave the same job state, attempts, error, journal
// record, journal write count and queue depth. A new job in particular is
// journaled exactly once, as queued, before its POST is answered. (A draining
// server refuses a sweep before expanding it; the outcome must still match.)
func TestAdmissionParity(t *testing.T) {
	const id = "SRD-cppe-50"
	req := Request{Benchmark: "SRD", Setup: "cppe", Oversubscription: 50}
	queued := Record{ID: id, Request: req, State: StateQueued}
	running := Record{ID: id, Request: req, State: StateRunning, Attempts: 1}
	cached := Record{ID: id, Request: req, State: StateCached}
	failed := Record{ID: id, Request: req, State: StateFailed, Attempts: 3, Error: "boom"}

	seed := func(rec Record) step {
		return func(t *testing.T, srv *Server, _ *journalFS) {
			j := jobFromRecord(rec)
			srv.jobs[rec.ID] = j
			if err := j.journal(srv.store.PutJob); err != nil {
				t.Fatal(err)
			}
		}
	}
	result := func(t *testing.T, srv *Server, _ *journalFS) {
		if err := srv.store.PutResult(id, []byte("{}\n")); err != nil {
			t.Fatal(err)
		}
	}
	fillQueue := func(t *testing.T, srv *Server, _ *journalFS) {
		if !srv.queue.TryPush(NewJob("filler", Request{Benchmark: "NW"})) {
			t.Fatal("could not fill the queue")
		}
	}
	enospc := func(_ *testing.T, _ *Server, jfs *journalFS) { jfs.failing.Store(true) }
	drain := func(_ *testing.T, srv *Server, _ *journalFS) { srv.Drain() }

	for _, tc := range []struct {
		name  string
		setup []step
		want  admission
	}{
		{"new job", nil,
			admission{State: StateQueued, Journal: queued, Writes: 1, Depth: 1}},
		{"in flight", []step{seed(running)},
			admission{State: StateRunning, Attempts: 1, Journal: running}},
		{"cached with bytes", []step{seed(cached), result},
			admission{State: StateCached, Journal: cached}},
		{"result file only", []step{result},
			admission{State: StateCached}},
		{"failed rearm", []step{seed(failed)},
			admission{State: StateQueued, Journal: queued, Writes: 1, Depth: 1}},
		{"evicted rearm", []step{seed(cached)},
			admission{State: StateQueued, Journal: queued, Writes: 1, Depth: 1}},
		{"full queue new job", []step{fillQueue},
			admission{Writes: 1, Depth: 1}},
		{"full queue rearm", []step{fillQueue, seed(failed)},
			admission{State: StateFailed, Attempts: 3, Error: "boom", Journal: failed, Writes: 2, Depth: 1}},
		{"journal ENOSPC", []step{enospc},
			admission{Writes: 1}},
		{"draining", []step{drain},
			admission{}},
	} {
		for _, path := range []string{"job", "sweep"} {
			t.Run(tc.name+"/"+path, func(t *testing.T) {
				jfs := &journalFS{FS: fsfault.OS}
				cfg := testConfig(t.TempDir(), newStubRunner())
				cfg.FS = jfs
				cfg.QueueDepth = 1
				srv := newCheckedServer(t, cfg)
				for _, step := range tc.setup {
					step(t, srv, jfs)
				}
				jfs.writes.Store(0)

				if path == "job" {
					post(t, srv.Handler(), srdBody)
				} else {
					postSweep(t, srv.Handler(), `{"benchmarks":["SRD"],"setups":["cppe"],"oversubscriptions":[50]}`)
				}

				got := admission{Writes: jfs.writes.Load(), Depth: srv.queue.Depth()}
				if j := srv.Job(id); j != nil {
					rec := j.Record()
					got.State, got.Attempts, got.Error = rec.State, rec.Attempts, rec.Error
				}
				jfs.failing.Store(false)
				recs, err := srv.Store().Jobs()
				if err != nil {
					t.Fatal(err)
				}
				for _, rec := range recs {
					if rec.ID == id {
						got.Journal = rec
					}
				}
				if got != tc.want {
					t.Errorf("admission left %+v, want %+v", got, tc.want)
				}
			})
		}
	}
}
