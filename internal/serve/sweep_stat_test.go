package serve

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reproductions/cppe/internal/serve/fsfault"
)

// statCountingFS counts Stat calls, all of them and those on result files.
type statCountingFS struct {
	fsfault.FS
	stats       atomic.Int64
	resultStats atomic.Int64
}

func (f *statCountingFS) Stat(name string) (fs.FileInfo, error) {
	f.stats.Add(1)
	if filepath.Base(filepath.Dir(name)) == "results" {
		f.resultStats.Add(1)
	}
	return f.FS.Stat(name)
}

// waitLatched waits for sweep id's done latch itself, not the status
// endpoint, so the wait makes no store call of its own.
func waitLatched(t testing.TB, srv *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		srv.mu.Lock()
		latched := srv.sweeps[id].done
		srv.mu.Unlock()
		if latched {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s never latched done", id)
		}
		time.Sleep(time.Millisecond)
	}
}

// drainStarted empties the stub's started channel for the life of the test,
// so runs never block on it however many points a sweep has.
func drainStarted(t testing.TB, stub *stubRunner) {
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for {
			select {
			case <-stub.started:
			case <-stop:
				return
			}
		}
	}()
}

// TestSweepMakesNoResultStats pins that sweep bookkeeping reads the store's
// in-memory result index, not the disk: a 256-point sweep over the stub
// runner makes no Stat call on a result file between its POST and its done
// latch.
func TestSweepMakesNoResultStats(t *testing.T) {
	stub := newStubRunner()
	drainStarted(t, stub)
	cfs := &statCountingFS{FS: fsfault.OS}
	cfg := testConfig(t.TempDir(), stub)
	cfg.FS = cfs
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Shutdown(0)

	before := cfs.resultStats.Load()
	code, sr := postSweep(t, srv.Handler(),
		`{"benchmarks":["A","B","C","D"],"setups":["a","b","c","d"],"oversubscriptions":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]}`)
	if code != http.StatusAccepted || sr.Points != 256 {
		t.Fatalf("POST sweep: %d %+v, want 202 with 256 points", code, sr)
	}
	waitLatched(t, srv, sr.ID)
	if n := cfs.resultStats.Load() - before; n != 0 {
		t.Errorf("a 256-point sweep made %d result-file stats, want 0", n)
	}
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
	srv := newCheckedServer(t, cfg)
	srv.Start()
	defer srv.Shutdown(0)

	for i := 0; i < sweeps; i++ {
		body := fmt.Sprintf(`{"benchmarks":["B%d"],"setups":["a","b"],"oversubscriptions":[50,75]}`, i)
		code, sr := postSweep(t, srv.Handler(), body)
		if code != http.StatusAccepted {
			t.Fatalf("POST sweep %d: %d", i, code)
		}
		waitLatched(t, srv, sr.ID)
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

// memFS is an in-memory fsfault.FS, so a benchmark times the server rather
// than the disk under it.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// memInfo is the fs.FileInfo memFS reports.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string       { return i.name }
func (i memInfo) Size() int64        { return i.size }
func (i memInfo) Mode() fs.FileMode  { return 0o644 }
func (i memInfo) ModTime() time.Time { return time.Time{} }
func (i memInfo) IsDir() bool        { return false }
func (i memInfo) Sys() any           { return nil }

func (m *memFS) MkdirAll(string, fs.FileMode) error { return nil }

func (m *memFS) WriteFile(name string, data []byte, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[name] = append([]byte(nil), data...)
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), data...), nil
}

func (m *memFS) Stat(name string) (fs.FileInfo, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "stat", Path: name, Err: fs.ErrNotExist}
	}
	return memInfo{name: filepath.Base(name), size: int64(len(data))}, nil
}

func (m *memFS) Glob(pattern string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name := range m.files {
		if ok, err := filepath.Match(pattern, name); err != nil {
			return nil, err
		} else if ok {
			out = append(out, name)
		}
	}
	return out, nil
}

// BenchmarkSweepPoints times whole sweeps of 64, 256 and 1,024 points over
// the stub runner, from the POST to the done latch, and reports the cost per
// point. The store sits on the real filesystem ("disk") or in memory
// ("mem"); in memory, what remains is the server's own work per point, and
// ns/point that grows with the size is sweep bookkeeping that grows with it.
func BenchmarkSweepPoints(b *testing.B) {
	for _, store := range []string{"disk", "mem"} {
		for _, n := range []int{64, 256, 1024} {
			b.Run(fmt.Sprintf("%s/%d", store, n), func(b *testing.B) {
				rates := make([]int, n/16)
				for i := range rates {
					rates[i] = i + 1
				}
				body, err := json.Marshal(SweepRequest{
					Benchmarks:        []string{"A", "B", "C", "D"},
					Setups:            []string{"a", "b", "c", "d"},
					Oversubscriptions: rates,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for i := 0; i < b.N; i++ {
					stub := newStubRunner()
					drainStarted(b, stub)
					cfg := testConfig(b.TempDir(), stub)
					if store == "mem" {
						cfg.FS = &memFS{files: make(map[string][]byte)}
					}
					srv, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					srv.Start()
					w := httptest.NewRecorder()
					b.StartTimer()
					srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/sweeps", strings.NewReader(string(body))))
					var sr SweepSubmitResponse
					if err := json.Unmarshal(w.Body.Bytes(), &sr); err != nil || sr.Points != n {
						b.Fatalf("POST sweep: %d %s", w.Code, w.Body.Bytes())
					}
					waitLatched(b, srv, sr.ID)
					b.StopTimer()
					srv.Shutdown(0)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/point")
			})
		}
	}
}
