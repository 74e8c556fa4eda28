package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reproductions/cppe/internal/serve/fsfault"
)

// Store is the durable side of the service: a state directory holding the job
// journal, the completed-result cache, and the sweep manifests. No simulation
// state is stored: an interrupted run reruns from cycle 0.
//
//	<dir>/journal/<id>.json   what replay reads of an unfinished or failed job;
//	                          removed once its result is durable
//	<dir>/results/<id>.json   canonical ResultJSON bytes of completed jobs,
//	                          served verbatim (byte-identical to cppe-sim -json)
//	<dir>/sweeps/<id>.json    durable sweep manifests (grid request + ordered
//	                          point job IDs), written once at accept
//
// All writes go through tmp+rename in the destination directory, so a kill -9
// at any instant leaves either the old file or the new one, never a torn
// record. Leftover .tmp files from a crash are swept on Open. Every
// filesystem operation goes through an injectable fsfault.FS, which is how
// the chaos tests prove that ENOSPC, short writes, and rename failures leave
// a replayable journal instead of corrupted state.
//
// The store also keeps in memory an index of the result files and the state
// GC needs: a last-served sequence per result (the LRU order) and a pin count
// per result (a pinned result is never evicted, which protects reads).
type Store struct {
	dir string
	fs  fsfault.FS

	mu sync.Mutex
	// results indexes the result files by safeName(id): one Glob builds it
	// at open, then the store's own renames and removals keep it (the store
	// is the only writer of results/). A file deleted behind its back stays
	// indexed until a read finds it gone.
	results    map[string]bool
	pins       map[string]int
	lastServed map[string]uint64
	seq        uint64

	// tmpSeq numbers temporary files, so concurrent writers of one path
	// never share a tmp name.
	tmpSeq atomic.Uint64
}

// OpenStore creates (if needed) the state directory layout over the real
// filesystem and sweeps torn temporary files left by a crashed writer.
func OpenStore(dir string) (*Store, error) { return OpenStoreFS(dir, fsfault.OS) }

// OpenStoreFS is OpenStore with an injectable filesystem (chaos tests wrap
// fsfault.OS in a seeded fault injector; nil means fsfault.OS).
func OpenStoreFS(dir string, fsys fsfault.FS) (*Store, error) {
	if fsys == nil {
		fsys = fsfault.OS
	}
	st := &Store{
		dir:        dir,
		fs:         fsys,
		results:    make(map[string]bool),
		pins:       make(map[string]int),
		lastServed: make(map[string]uint64),
	}
	for _, sub := range []string{st.journalDir(), st.resultsDir(), st.sweepsDir()} {
		if err := fsys.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("serve: state dir: %w", err)
		}
		tmps, err := fsys.Glob(filepath.Join(sub, "*.tmp"))
		if err != nil {
			return nil, fmt.Errorf("serve: state dir sweep: %w", err)
		}
		for _, t := range tmps {
			_ = fsys.Remove(t) // best-effort sweep; a survivor is re-swept next open
		}
	}
	paths, err := fsys.Glob(filepath.Join(st.resultsDir(), "*.json"))
	if err != nil {
		return nil, fmt.Errorf("serve: result index: %w", err)
	}
	for _, p := range paths {
		st.results[resultIDFromPath(p)] = true
	}
	return st, nil
}

// Dir returns the root state directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) journalDir() string { return filepath.Join(st.dir, "journal") }
func (st *Store) resultsDir() string { return filepath.Join(st.dir, "results") }
func (st *Store) sweepsDir() string  { return filepath.Join(st.dir, "sweeps") }

// safeName defends the filesystem against a hostile or buggy ID: job IDs are
// 16 hex digits in production, but stub runners may hand us anything.
func safeName(id string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, id)
}

func (st *Store) journalPath(id string) string {
	return filepath.Join(st.journalDir(), safeName(id)+".json")
}

func (st *Store) resultPath(id string) string {
	return filepath.Join(st.resultsDir(), safeName(id)+".json")
}

func (st *Store) sweepPath(id string) string {
	return filepath.Join(st.sweepsDir(), safeName(id)+".json")
}

// atomicWrite replaces path with data via tmp+rename in the same directory.
// Each write gets its own "<path>.<n>.tmp", which Open's "*.tmp" sweep still
// matches.
func (st *Store) atomicWrite(path string, data []byte) error {
	tmp := fmt.Sprintf("%s.%d.tmp", path, st.tmpSeq.Add(1))
	if err := st.fs.WriteFile(tmp, data, 0o644); err != nil {
		_ = st.fs.Remove(tmp) // drop a torn tmp eagerly; Open re-sweeps survivors
		return err
	}
	if err := st.fs.Rename(tmp, path); err != nil {
		_ = st.fs.Remove(tmp) // drop a torn tmp eagerly; Open re-sweeps survivors
		return err
	}
	return nil
}

// PutJob journals rec, atomically replacing the job's previous record.
func (st *Store) PutJob(rec Record) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: journal %s: %w", rec.ID, err)
	}
	if err := st.atomicWrite(st.journalPath(rec.ID), append(data, '\n')); err != nil {
		return fmt.Errorf("serve: journal %s: %w", rec.ID, err)
	}
	return nil
}

// DeleteJob removes a job's journal record: when the job is cached, when an
// admission that lost the queue-capacity race rolls back, and when replay
// finds the job's result durable. Missing records are fine.
func (st *Store) DeleteJob(id string) {
	_ = st.fs.Remove(st.journalPath(id)) // best-effort; replay tolerates leftovers
}

// Jobs reads every journal record, sorted by ID so replay order is
// deterministic. Records that fail to parse (torn by a crash predating the
// tmp+rename discipline, or hand-edited) are removed and skipped: a journal
// that cannot be replayed must not wedge the service forever.
func (st *Store) Jobs() ([]Record, error) {
	paths, err := st.fs.Glob(filepath.Join(st.journalDir(), "*.json"))
	if err != nil {
		return nil, fmt.Errorf("serve: journal scan: %w", err)
	}
	sort.Strings(paths)
	recs := make([]Record, 0, len(paths))
	for _, p := range paths {
		data, err := st.fs.ReadFile(p)
		if err != nil {
			continue
		}
		var rec Record
		if json.Unmarshal(data, &rec) != nil || rec.ID == "" {
			_ = st.fs.Remove(p) // unparsable record: drop it rather than wedge replay
			continue
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// PutResult stores the canonical result bytes for a completed job, indexing
// it once the rename has made it durable.
func (st *Store) PutResult(id string, data []byte) error {
	if err := st.atomicWrite(st.resultPath(id), data); err != nil {
		return fmt.Errorf("serve: result %s: %w", id, err)
	}
	st.mu.Lock()
	st.results[safeName(id)] = true
	st.mu.Unlock()
	return nil
}

// Result returns the stored result bytes for id, marking it most-recently
// served for the GC's LRU order. A read that finds the file gone drops it
// from the index, so the job reruns on its next admission.
func (st *Store) Result(id string) ([]byte, error) {
	data, err := st.fs.ReadFile(st.resultPath(id))
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case err == nil:
		st.seq++
		st.lastServed[id] = st.seq
	case errors.Is(err, fs.ErrNotExist):
		if _, err := st.fs.Stat(st.resultPath(id)); err != nil { // no PutResult landed since the read
			delete(st.results, safeName(id))
		}
	}
	return data, err
}

// HasResult reports whether a completed result for id is indexed. It makes
// no syscall.
func (st *Store) HasResult(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.results[safeName(id)]
}

// DeleteResult removes a stored result; a successful removal unindexes it.
func (st *Store) DeleteResult(id string) error {
	err := st.fs.Remove(st.resultPath(id))
	if err == nil {
		st.mu.Lock()
		delete(st.results, safeName(id))
		st.mu.Unlock()
	}
	return err
}

// Pin marks id's result in use: a pinned result is never evicted by GC.
// Pins are counted, so concurrent readers compose; every Pin must be paired
// with an Unpin.
func (st *Store) Pin(id string) {
	st.mu.Lock()
	st.pins[id]++
	st.mu.Unlock()
}

// Unpin releases one pin on id's result.
func (st *Store) Unpin(id string) {
	st.mu.Lock()
	if st.pins[id] > 1 {
		st.pins[id]--
	} else {
		delete(st.pins, id)
	}
	st.mu.Unlock()
}

// pinned reports whether id's result currently holds any pins.
func (st *Store) pinnedLocked(id string) bool { return st.pins[id] > 0 }

// PutSweep journals a sweep manifest. Manifests are written once at accept:
// per-point state lives in the job journal and the result store, so the
// manifest never needs replacing.
func (st *Store) PutSweep(rec SweepRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: sweep manifest %s: %w", rec.ID, err)
	}
	if err := st.atomicWrite(st.sweepPath(rec.ID), append(data, '\n')); err != nil {
		return fmt.Errorf("serve: sweep manifest %s: %w", rec.ID, err)
	}
	return nil
}

// Sweeps reads every sweep manifest, sorted by ID for deterministic replay.
// Unparsable manifests are removed and skipped, like torn journal records.
func (st *Store) Sweeps() ([]SweepRecord, error) {
	paths, err := st.fs.Glob(filepath.Join(st.sweepsDir(), "*.json"))
	if err != nil {
		return nil, fmt.Errorf("serve: sweep scan: %w", err)
	}
	sort.Strings(paths)
	recs := make([]SweepRecord, 0, len(paths))
	for _, p := range paths {
		data, err := st.fs.ReadFile(p)
		if err != nil {
			continue
		}
		var rec SweepRecord
		if json.Unmarshal(data, &rec) != nil || rec.ID == "" {
			_ = st.fs.Remove(p) // unparsable manifest: drop it rather than wedge replay
			continue
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// DeleteSweep removes a sweep manifest (used by GC age expiry of completed
// sweeps). Missing manifests are fine.
func (st *Store) DeleteSweep(id string) {
	_ = st.fs.Remove(st.sweepPath(id)) // best-effort; replay tolerates leftovers
}

// SweepAge returns how old id's manifest is at now (zero if unknown).
func (st *Store) SweepAge(id string, now time.Time) time.Duration {
	fi, err := st.fs.Stat(st.sweepPath(id))
	if err != nil {
		return 0
	}
	return now.Sub(fi.ModTime())
}

// ResultUsage reports how many results are on disk and their total size
// (surfaced by /statsz so operators can watch the GC budget).
func (st *Store) ResultUsage() (count int, bytes int64) {
	paths, err := st.fs.Glob(filepath.Join(st.resultsDir(), "*.json"))
	if err != nil {
		return 0, 0
	}
	for _, p := range paths {
		fi, err := st.fs.Stat(p)
		if err != nil {
			continue
		}
		count++
		bytes += fi.Size()
	}
	return count, bytes
}

// resultIDFromPath recovers the job ID from a result file path. Filesystem-
// unsafe IDs were flattened by safeName at write time, so the recovered ID is
// the flattened form — consistent with every other store lookup.
func resultIDFromPath(p string) string {
	return strings.TrimSuffix(filepath.Base(p), ".json")
}
