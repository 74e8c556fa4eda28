package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/reproductions/cppe/internal/audit"
	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/workload"
)

// resultBytes renders r in the byte-exact form the determinism contract is
// stated over: the Result's JSON with Err flattened to its message, so two
// different failures never compare equal (json.Marshal alone renders any
// error as {}).
func resultBytes(t testing.TB, r Result) string {
	t.Helper()
	var msg string
	if r.Err != nil {
		msg = r.Err.Error()
	}
	data, err := json.Marshal(struct {
		Result
		Err string
	}{r, msg})
	if err != nil {
		t.Fatalf("marshal result %v: %v", r.Key, err)
	}
	return string(data)
}

// The setups, rates and event budgets an oracle input picks from: every
// named setup, then registry pairs that no named setup aliases.
var (
	pathSetups  = append(SetupNames(), "mhpe+locality", "learned+tree")
	pathRates   = []int{0, 50, 75}
	pathBudgets = []uint64{0, 50_000, 100_000}
)

// pathSeed encodes an oracle input from names, so the seed corpus reads as
// the keys it covers. The seven bytes are bench, setup, rate, flags (bit 0
// turns on chaos seed 11, the rest pick the event budget), the number of
// epochs the reference run's cycles divide into, the pause cycle in tenths
// of the reference run, and the park boundary (modulo the boundaries).
func pathSeed(bench, setup string, rate int, chaos bool, budget uint64, epochs, pause, park byte) []byte {
	bi := slices.IndexFunc(workload.All(), func(b workload.Benchmark) bool { return b.Abbr == bench })
	si, ri, ei := slices.Index(pathSetups, setup), slices.Index(pathRates, rate), slices.Index(pathBudgets, budget)
	if bi < 0 || si < 0 || ri < 0 || ei < 0 {
		panic(fmt.Sprintf("pathSeed: unknown %s/%s@%d budget %d", bench, setup, rate, budget))
	}
	flags := byte(ei) << 1
	if chaos {
		flags |= 1
	}
	return []byte{byte(bi), byte(si), byte(ri), flags, epochs - 2, pause - 1, park}
}

// firedByKind returns the per-kind event counts of the one machine on s's
// free list, or false when the list holds none or several.
func firedByKind(s *Session) (map[engine.Tag]uint64, bool) {
	s.machinesMu.Lock()
	defer s.machinesMu.Unlock()
	if len(s.machines) != 1 {
		return nil, false
	}
	return s.machines[0].Eng.FiredByKind(), true
}

// goneAfter fails t if the run record at path or its temporary survived.
func goneAfter(t *testing.T, route, path string) {
	t.Helper()
	for _, p := range []string{path, path + ".tmp"} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: %s left behind (err=%v)", route, filepath.Base(p), err)
		}
	}
}

// FuzzPathsAgree is the path-agreement oracle: every route to a Result —
// cached, swept, recycled, paused, stepped, recorded, parked, audited, or
// run under another runtime — must render the same bytes as a solo Run of
// the same key in a fresh single-worker session. Where a route leaves
// exactly one machine on its session's free list, that machine's per-kind
// event counts must match the reference's too. A disagreement is a defect of
// the program, never of the input.
func FuzzPathsAgree(f *testing.F) {
	// The pause-and-continue golden configurations, each at its own pause.
	f.Add(pathSeed("NW", "lru-20%", 50, false, 0, 7, 2, 1))
	f.Add(pathSeed("B+T", "cppe", 50, false, 0, 5, 5, 2))
	f.Add(pathSeed("2DC", "cppe", 75, false, 0, 4, 8, 3))
	f.Add(pathSeed("KMN", "hpe", 50, false, 0, 3, 2, 0))
	f.Add(pathSeed("HIS", "tree", 50, false, 0, 6, 5, 4))
	// Fault injection, and event budgets that bind mid-run.
	f.Add(pathSeed("SRD", "cppe", 50, true, 0, 4, 5, 1))
	f.Add(pathSeed("SRD", "cppe", 50, false, 50_000, 7, 3, 2))
	f.Add(pathSeed("SRD", "cppe", 50, false, 100_000, 7, 6, 5))
	// The sweep grid, with the learned policy that reads machine state
	// through policy.MachineView. SRD/baseline and HSD/random at 50% are
	// pause-and-continue golden configurations too.
	for i, b := range []string{"SRD", "HSD"} {
		for j, su := range []string{"baseline", "cppe", "random", "learned"} {
			for k, pct := range []int{75, 50} {
				n := byte(i*8 + j*2 + k)
				f.Add(pathSeed(b, su, pct, false, 0, 2+n%6, 1+n%9, n))
			}
		}
	}
	// Keys of other workloads and setups, unlimited memory, registry pairs.
	f.Add(pathSeed("STN", "baseline", 50, false, 0, 3, 4, 1))
	f.Add(pathSeed("STN", "cppe", 50, false, 0, 5, 7, 2))
	f.Add(pathSeed("STN", "random", 50, false, 0, 2, 9, 0))
	f.Add(pathSeed("MRQ", "baseline", 50, false, 0, 4, 3, 3))
	f.Add(pathSeed("NW", "cppe", 50, false, 0, 6, 6, 1))
	f.Add(pathSeed("NW", "baseline", 75, false, 0, 3, 5, 2))
	f.Add(pathSeed("BKP", "baseline", 75, false, 0, 5, 2, 4))
	f.Add(pathSeed("HIS", "cppe", 50, false, 0, 4, 8, 3))
	f.Add(pathSeed("2DC", "mhpe+locality", 0, false, 0, 5, 4, 2))
	f.Add(pathSeed("BFS", "learned+tree", 75, true, 0, 3, 6, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		t.Parallel()
		benches := workload.All()
		k := Key{
			Bench:      benches[int(data[0])%len(benches)].Abbr,
			Setup:      pathSetups[int(data[1])%len(pathSetups)],
			OversubPct: pathRates[int(data[2])%len(pathRates)],
		}
		cfg := Config{Base: memdef.DefaultConfig(), Scale: 0.05, Warps: 32,
			MaxEvents: pathBudgets[int(data[3]>>1)%len(pathBudgets)]}
		cfg.Base.ChaosSeed = 11 * int64(data[3]&1) // chaos seed 0 or 11
		checkPaths(t, k, cfg, 2+memdef.Cycle(data[4]%6), 1+memdef.Cycle(data[5]%9), int(data[6]))
	})
}

// gomaxprocsMu serializes the routes that set GOMAXPROCS, so each runs at
// the width it names and restores the previous one while other inputs run
// in parallel.
var gomaxprocsMu sync.Mutex

// checkPaths runs k along every route under cfg at the given parallelism and
// compares each Result with the reference. The resumable routes run in
// epochs of the reference run's cycles divided by epochs; pause-and-continue
// stops at pause tenths of them, and the parked route at boundary park
// (modulo the boundaries).
func checkPaths(t *testing.T, k Key, cfg Config, epochs, pause memdef.Cycle, park int) {
	at := func(parallelism int) Config {
		c := cfg
		c.Parallelism = parallelism
		return c
	}
	refSession := NewSession(at(1))
	ref := refSession.Run(k)
	if ref.Cycles == 0 {
		t.Fatalf("%v: degenerate reference run: %+v", k, ref)
	}
	want := resultBytes(t, ref)
	wantKinds, _ := firedByKind(refSession)
	agree := func(route string, s *Session, got Result) {
		t.Helper()
		if g := resultBytes(t, got); g != want {
			t.Errorf("%v, %s: Result differs from a solo Run\n got %s\nwant %s", k, route, g, want)
		}
		if s == nil {
			return // a sweep's machines may have run another key last
		}
		if kinds, ok := firedByKind(s); ok && !maps.Equal(kinds, wantKinds) {
			t.Errorf("%v, %s: events by kind differ from a solo Run\n got %v\nwant %v", k, route, kinds, wantKinds)
		}
	}
	every := max(ref.Cycles/epochs, 1)
	// other is a short run of another workload, setup and capacity (at scale
	// 0.05 every workload has the same footprint): the companion of k's
	// sweep, and the run whose machine k's recycled run inherits.
	other := Key{Bench: "2DC", Setup: "random", OversubPct: 75}
	if k.Bench == other.Bench {
		other.Bench = "BKP"
	}
	if k.OversubPct == other.OversubPct {
		other.OversubPct = 50
	}

	// 1. A repeat in a fresh wider session, then its cache hit.
	s := NewSession(at(4))
	agree("repeat at Parallelism 4", s, s.Run(k))
	agree("cache hit", s, s.Run(k))
	if n := s.CachedRuns(); n != 1 {
		t.Errorf("%v: %d cached Results after a run and its repeat, want 1", k, n)
	}

	// 2 and 9. A sweep with a companion and a duplicate at three scheduler
	// widths, then a repeat under another width after churning the heap.
	func() {
		gomaxprocsMu.Lock()
		defer gomaxprocsMu.Unlock()
		prev := runtime.GOMAXPROCS(0)
		defer runtime.GOMAXPROCS(prev)
		sweep := []Key{k, other, k}
		for _, width := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(width)
			s := NewSession(at(2))
			s.Warm(sweep)
			if n := s.CachedRuns(); n != 2 {
				t.Errorf("%v: Warm at GOMAXPROCS %d cached %d runs, want 2", k, width, n)
			}
			agree(fmt.Sprintf("Warm at GOMAXPROCS %d", width), nil, s.Run(k))
		}
		runtime.GOMAXPROCS(max(4, 2*prev))
		if perturbHeap(int64(park)) == 0 {
			t.Fatal("heap perturbation degenerate")
		}
		s := NewSession(at(4))
		agree("GOMAXPROCS flip and churned heap", s, s.Run(k))
	}()

	// 3. A machine recycled from a run of another workload, setup and
	// capacity, stepped by RunUntil in epochs. Its pauses are the epoch
	// boundaries a resumable run must report.
	s = NewSession(at(1))
	s.Run(other)
	b, err := s.build(k)
	if err != nil {
		t.Fatalf("%v: build: %v", k, err)
	}
	var boundaries []memdef.Cycle
	for {
		res, paused := b.machine.RunUntil(s.cfg.MaxEvents, b.machine.Eng.Now()+every)
		if !paused {
			agree("recycled machine stepped in epochs", s, s.collect(k, b, res))
			break
		}
		boundaries = append(boundaries, b.machine.Eng.Now())
	}
	if len(boundaries) == 0 {
		t.Fatalf("%v: no epoch boundary in epochs of %d cycles", k, every)
	}

	// 4. Paused mid-run, then driven to the end.
	s = NewSession(at(1))
	if b, err = s.build(k); err != nil {
		t.Fatalf("%v: build: %v", k, err)
	}
	c := ref.Cycles * pause / 10
	if _, paused := b.machine.RunUntil(s.cfg.MaxEvents, c); !paused {
		t.Fatalf("%v: run finished before pause cycle %d", k, c)
	}
	got, _ := s.drive(k, b, runOpts{})
	agree(fmt.Sprintf("paused at cycle %d", c), s, got)

	// 7. Parked at boundary n with a run record, which is gone on return.
	path := filepath.Join(t.TempDir(), "run.rec")
	n := 1 + park%len(boundaries)
	var first []memdef.Cycle
	_, err = NewSession(at(1)).RunResumable(k, path, every, func() bool {
		return len(first) >= n
	}, progressInto(t, k, &first))
	if !errors.Is(err, ErrParked) {
		t.Fatalf("%v: parked run err = %v, want ErrParked", k, err)
	}
	goneAfter(t, "parked", path)
	if !slices.Equal(first, boundaries[:n]) {
		t.Errorf("%v: parked life reported %v, want %v", k, first, boundaries[:n])
	}

	// 5, and 6 as 7's rerun in a fresh session. Resumable without and with
	// a run record: progress at every one of the stepped machine's pauses,
	// nothing cached, and no file left behind.
	for i, rec := range []string{"", path} {
		route := []string{"resumable", fmt.Sprintf("recorded rerun after parking at boundary %d", n)}[i]
		s = NewSession(at(1))
		var seen []memdef.Cycle
		got, err = s.RunResumable(k, rec, every, nil, progressInto(t, k, &seen))
		if err != nil {
			t.Fatalf("%v, %s: %v", k, route, err)
		}
		agree(route, s, got)
		if !slices.Equal(seen, boundaries) {
			t.Errorf("%v, %s: progress cycles %v, want the stepped machine's pauses %v", k, route, seen, boundaries)
		}
		if n := s.CachedRuns(); n != 0 {
			t.Errorf("%v, %s: cached %d Results, want none", k, route, n)
		}
		goneAfter(t, route, rec)
	}

	// 8. With the integrity auditor on.
	audited := at(1)
	audited.Base.AuditEveryCycles = audit.DefaultEveryCycles
	s = NewSession(audited)
	got = s.Run(k)
	if ref.Err == nil && got.Err != nil {
		t.Errorf("%v: audit flagged a clean run: %v", k, got.Err)
	}
	agree("audited", s, got)
}

// progressInto returns a progress hook that appends each boundary's cycle
// to cycles and checks that it reports k.
func progressInto(t *testing.T, k Key, cycles *[]memdef.Cycle) func(Progress) {
	return func(p Progress) {
		if p.Key != k {
			t.Errorf("progress key = %v, want %v", p.Key, k)
		}
		*cycles = append(*cycles, p.Cycle)
	}
}

// perturbHeap churns the allocator with a seeded population of maps, so the
// next simulation starts from another heap layout, map bucket geometry and
// per-map hash seeds: a result that depends on map iteration order or on
// addresses diverges. The maps stay reachable until it returns, so the
// allocations cannot be elided.
func perturbHeap(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	keep := make([]map[uint64]uint64, 64)
	total := 0
	for i := range keep {
		keep[i] = make(map[uint64]uint64, rng.Intn(512))
		for range 1 + rng.Intn(2048) {
			keep[i][rng.Uint64()] = rng.Uint64()
		}
		for k := range keep[i] {
			if k%3 == 0 {
				delete(keep[i], k) // leave tombstoned buckets behind
			}
		}
		total += len(keep[i])
	}
	runtime.GC()
	return total
}
