// Package policytest is the conformance kit for eviction policies and
// prefetchers: Run (and RunPrefetch) drive an implementation through a
// deterministic scripted machine — the same event contract the UVM driver
// guarantees — and fail the test on any contract violation. The kit is what
// "correct policy" means operationally; every in-tree policy passes it, and
// external RegisterPolicy implementations are expected to run it in their own
// test suites:
//
//	func TestMyPolicy(t *testing.T) {
//		policytest.Run(t, func(env policy.Env) (evict.Policy, error) {
//			return NewMyPolicy(env.Seed), nil
//		})
//	}
//
// Checks:
//
//   - event-contract ordering: OnFault → SelectVictim/OnEvicted (to make
//     room) → OnMigrate → OnTouch, exactly as the driver fires them, with no
//     panics along the way;
//   - SelectVictim never returns an excluded chunk, never a chunk the policy
//     was not told is resident, and reports ok=false when every candidate is
//     excluded (rather than returning something anyway);
//   - Tracked bookkeeping matches machine residency as a set after every
//     eviction (the invariant the integrity auditor enforces in real runs);
//   - determinism under GOMAXPROCS changes and heap churn: two instances fed
//     the identical script make identical decisions while the allocator and
//     scheduler are perturbed around them;
//   - isolation: two interleaved instances of one factory share no state —
//     parallel Warm workers run instances side by side, and recycled
//     machines get fresh ones from the factory — so an instance built while
//     the original is halfway through, fed the same prefix, must reach the
//     same state and then continue in lockstep with the original decision
//     for decision.
package policytest

import (
	"runtime"
	"sort"
	"testing"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/policy"
	"github.com/reproductions/cppe/internal/prefetch"
)

// Script parameters: small enough to run every registered policy with -race
// in CI, large enough to fill the machine many times over and force hundreds
// of evictions.
const (
	scriptChunks   = 64 // footprint of the scripted workload, in chunks
	scriptCapacity = 16 // machine capacity, in chunks
	scriptSteps    = 4000
	scriptSeed     = 0x5eed_c0de
)

// machine is the scripted stand-in for the UVM driver: it owns residency and
// touch bitmaps, fires the policy event contract in driver order, and
// implements policy.MachineView over its own state. All control flow derives
// from one splitmix64 stream, so a deterministic policy yields a
// deterministic decision log.
type machine struct {
	t   *testing.T
	pol evict.Policy
	rng uint64

	resident  []memdef.PageBitmap // by chunk index
	touched   []memdef.PageBitmap
	nResident int
	cycle     memdef.Cycle
	evictions []policy.EvictionRecord

	// decisions is the victim log — the policy's observable behavior.
	decisions []memdef.ChunkID
}

func newMachine(t *testing.T, pol evict.Policy, seed uint64) *machine {
	m := &machine{
		t:        t,
		pol:      pol,
		rng:      seed,
		resident: make([]memdef.PageBitmap, scriptChunks),
		touched:  make([]memdef.PageBitmap, scriptChunks),
	}
	if vb, ok := pol.(policy.ViewBinder); ok {
		vb.BindView(machineView{m})
	}
	return m
}

func (m *machine) next() uint64 {
	m.rng += 0x9e3779b97f4a7c15
	z := m.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// machineView implements policy.MachineView over the scripted machine.
type machineView struct{ m *machine }

var _ policy.MachineView = machineView{}

func (v machineView) Cycle() memdef.Cycle { return v.m.cycle }
func (v machineView) CapacityPages() int  { return scriptCapacity * memdef.ChunkPages }
func (v machineView) ResidentPages() int {
	n := 0
	for _, bm := range v.m.resident {
		n += bm.Count()
	}
	return n
}
func (v machineView) MemoryFull() bool { return v.m.nResident >= scriptCapacity }
func (v machineView) Resident(p memdef.PageNum) bool {
	c := int(p.Chunk())
	if c < 0 || c >= len(v.m.resident) {
		return false
	}
	return v.m.resident[c]&(1<<uint(p.Index())) != 0
}
func (v machineView) ChunkResident(c memdef.ChunkID) memdef.PageBitmap {
	if int(c) >= len(v.m.resident) {
		return 0
	}
	return v.m.resident[c]
}
func (v machineView) ChunkTouched(c memdef.ChunkID) memdef.PageBitmap {
	if int(c) >= len(v.m.touched) {
		return 0
	}
	return v.m.touched[c]
}
func (v machineView) RecentEvictions() []policy.EvictionRecord {
	evs := v.m.evictions
	if len(evs) > policy.WindowSize {
		evs = evs[len(evs)-policy.WindowSize:]
	}
	return append([]policy.EvictionRecord(nil), evs...)
}

// evictOne asks the policy for a victim (with faulting excluded, plus extra
// when non-negative), validates the answer, and applies the eviction.
func (m *machine) evictOne(faulting memdef.ChunkID, extra memdef.ChunkID, haveExtra bool) {
	m.t.Helper()
	excluded := func(c memdef.ChunkID) bool {
		return c == faulting || (haveExtra && c == extra)
	}
	v, ok := m.pol.SelectVictim(excluded)
	if !ok {
		m.t.Fatalf("step %v: SelectVictim found no victim with %d chunks resident", m.cycle, m.nResident)
	}
	if excluded(v) {
		m.t.Fatalf("step %v: SelectVictim returned excluded chunk %v", m.cycle, v)
	}
	if int(v) >= len(m.resident) || m.resident[v] == 0 {
		m.t.Fatalf("step %v: SelectVictim returned non-resident chunk %v", m.cycle, v)
	}
	untouch := (m.resident[v] &^ m.touched[v]).Count()
	m.evictions = append(m.evictions, policy.EvictionRecord{
		Chunk: v, Touched: m.resident[v] & m.touched[v], Untouch: untouch, Cycle: m.cycle,
	})
	m.resident[v] = 0
	m.touched[v] = 0
	m.nResident--
	m.pol.OnEvicted(v, untouch)
	m.decisions = append(m.decisions, v)
}

// step advances the script once: a fault on a non-resident chunk (evicting to
// capacity first, exactly like the driver) or a touch on a resident page.
func (m *machine) step() {
	m.t.Helper()
	m.cycle++
	c := memdef.ChunkID(m.next() % scriptChunks)
	if m.resident[c] == 0 {
		m.pol.OnFault(c)
		for m.nResident >= scriptCapacity {
			// Occasionally exclude one extra resident chunk, as the driver
			// does for chunks with in-flight state.
			extra := memdef.ChunkID(m.next() % scriptChunks)
			m.evictOne(c, extra, m.next()%4 == 0)
		}
		m.resident[c] = memdef.FullBitmap
		m.nResident++
		m.pol.OnMigrate(c, memdef.FullBitmap)
		return
	}
	idx := int(m.next() % memdef.ChunkPages)
	bit := memdef.PageBitmap(1) << uint(idx)
	if m.touched[c]&bit == 0 {
		m.touched[c] |= bit
		m.pol.OnTouch(c, idx)
	}
}

// checkTracked verifies Tracked bookkeeping equals machine residency as a
// set, in any order.
func (m *machine) checkTracked() {
	m.t.Helper()
	tr, ok := m.pol.(evict.Tracked)
	if !ok {
		return
	}
	got := append([]memdef.ChunkID(nil), tr.TrackedChunks()...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	var want []memdef.ChunkID
	for c, bm := range m.resident {
		if bm != 0 {
			want = append(want, memdef.ChunkID(c))
		}
	}
	if len(got) != len(want) {
		m.t.Fatalf("TrackedChunks has %d chunks, machine has %d resident", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			m.t.Fatalf("TrackedChunks[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// build constructs a fresh policy from the factory with the kit's Env.
func build(t *testing.T, factory policy.EvictionFactory) evict.Policy {
	t.Helper()
	pol, err := factory(policy.Env{Config: memdef.DefaultConfig(), Seed: scriptSeed})
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	if pol == nil {
		t.Fatal("factory returned a nil policy")
	}
	return pol
}

// Run drives one eviction policy through the full conformance suite. The
// factory must return a fresh instance per call (the suite constructs
// several and compares their behavior).
func Run(t *testing.T, factory policy.EvictionFactory) {
	t.Helper()

	t.Run("contract", func(t *testing.T) {
		pol := build(t, factory)
		// Empty policy: no victim exists, and saying so is mandatory.
		if v, ok := pol.SelectVictim(func(memdef.ChunkID) bool { return false }); ok {
			t.Fatalf("empty policy returned victim %v", v)
		}
		m := newMachine(t, pol, scriptSeed)
		for i := 0; i < scriptSteps; i++ {
			m.step()
			if i%64 == 0 {
				m.checkTracked()
			}
		}
		m.checkTracked()
		if len(m.decisions) == 0 {
			t.Fatal("script produced no evictions; capacity pressure never materialized")
		}
		// All candidates excluded: the policy must decline, not loop or
		// fabricate a victim.
		if v, ok := pol.SelectVictim(func(memdef.ChunkID) bool { return true }); ok {
			t.Fatalf("SelectVictim with everything excluded returned %v", v)
		}
	})

	t.Run("determinism", func(t *testing.T) {
		prev := runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
		// Heap churn beside the second run: a policy whose decisions depend
		// on addresses, map order, or timing will diverge.
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			var garbage [][]byte
			for {
				select {
				case <-stop:
					return
				default:
					garbage = append(garbage, make([]byte, 1<<12))
					if len(garbage) > 256 {
						garbage = garbage[:0]
					}
				}
			}
		}()
		a := newMachine(t, build(t, factory), scriptSeed)
		for i := 0; i < scriptSteps; i++ {
			a.step()
		}
		b := newMachine(t, build(t, factory), scriptSeed)
		for i := 0; i < scriptSteps; i++ {
			b.step()
		}
		close(stop)
		<-done
		if len(a.decisions) != len(b.decisions) {
			t.Fatalf("decision logs differ in length: %d vs %d", len(a.decisions), len(b.decisions))
		}
		for i := range a.decisions {
			if a.decisions[i] != b.decisions[i] {
				t.Fatalf("decision %d differs: %v vs %v", i, a.decisions[i], b.decisions[i])
			}
		}
	})

	t.Run("isolation", func(t *testing.T) {
		a := newMachine(t, build(t, factory), scriptSeed)
		for i := 0; i < scriptSteps/2; i++ {
			a.step()
		}
		// A second instance, built while the original is live, is fed the
		// same prefix.
		b := newMachine(t, build(t, factory), scriptSeed)
		for i := 0; i < scriptSteps/2; i++ {
			b.step()
		}
		compareDecisions(t, "second instance's prefix", a.decisions, b.decisions)
		b.checkTracked()
		// Both continue in lockstep, so state the two instances share (a
		// package-level table, a buffer captured by the factory) shows up
		// as a divergence.
		a.decisions, b.decisions = nil, nil
		for i := 0; i < scriptSteps/2; i++ {
			a.step()
			b.step()
		}
		if len(a.decisions) == 0 {
			t.Fatal("no evictions after the halfway cut")
		}
		compareDecisions(t, "interleaved", a.decisions, b.decisions)
		a.checkTracked()
		b.checkTracked()
	})
}

// compareDecisions fails the test unless two victim logs are identical.
func compareDecisions(t *testing.T, what string, a, b []memdef.ChunkID) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s decision logs differ in length: %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s decision %d differs: original %v, second instance %v", what, i, a[i], b[i])
		}
	}
}

// RunPrefetch drives one prefetcher through the conformance suite: the Plan
// append contract (a non-empty dst prefix comes back untouched; the appended
// pages contain the faulted page, no resident pages, and ascend),
// determinism, and isolation.
func RunPrefetch(t *testing.T, factory policy.PrefetchFactory) {
	t.Helper()

	buildPF := func(t *testing.T) *prefetchRunner {
		t.Helper()
		pf, err := factory(policy.Env{Config: memdef.DefaultConfig(), Seed: scriptSeed})
		if err != nil {
			t.Fatalf("factory: %v", err)
		}
		if pf == nil {
			t.Fatal("factory returned a nil prefetcher")
		}
		return &prefetchRunner{t: t, pf: pf, rng: scriptSeed,
			resident: make([]memdef.PageBitmap, scriptChunks)}
	}

	t.Run("contract", func(t *testing.T) {
		r := buildPF(t)
		for i := 0; i < scriptSteps; i++ {
			r.step()
		}
		if r.plans == 0 {
			t.Fatal("script produced no prefetch plans")
		}
		if !r.full {
			t.Fatal("script never filled memory; eviction traffic was not exercised")
		}
	})

	t.Run("determinism", func(t *testing.T) {
		a, b := buildPF(t), buildPF(t)
		for i := 0; i < scriptSteps; i++ {
			a.step()
			b.step()
		}
		if a.planHash != b.planHash || a.planPages != b.planPages {
			t.Fatalf("plan streams diverge: %#x/%d vs %#x/%d pages",
				a.planHash, a.planPages, b.planHash, b.planPages)
		}
	})

	t.Run("isolation", func(t *testing.T) {
		a := buildPF(t)
		for i := 0; i < scriptSteps/2; i++ {
			a.step()
		}
		// A second instance, built while the original is live, fed the same
		// prefix, then both continued in lockstep.
		b := buildPF(t)
		for i := 0; i < scriptSteps/2; i++ {
			b.step()
		}
		if a.planHash != b.planHash || a.planPages != b.planPages {
			t.Fatalf("second instance's prefix plan streams diverge: %#x/%d vs %#x/%d pages",
				a.planHash, a.planPages, b.planHash, b.planPages)
		}
		a.planHash, a.planPages = 0, 0
		b.planHash, b.planPages = 0, 0
		for i := 0; i < scriptSteps/2; i++ {
			a.step()
			b.step()
		}
		if a.planPages == 0 {
			t.Fatal("no prefetch plans after the halfway cut")
		}
		if a.planHash != b.planHash || a.planPages != b.planPages {
			t.Fatalf("interleaved plan streams diverge: %#x/%d vs %#x/%d pages",
				a.planHash, a.planPages, b.planHash, b.planPages)
		}
	})
}

// prefetchRunner drives a prefetcher through fault/migrate/evict traffic with
// the Plan contract checked on every fault.
type prefetchRunner struct {
	t        *testing.T
	pf       prefetch.Prefetcher
	rng      uint64
	resident []memdef.PageBitmap
	nPages   int
	full     bool

	plans     int
	planHash  uint64
	planPages int
	// buf is the reused Plan destination, as the driver keeps one.
	buf []memdef.PageNum
}

// sentinelPages prefix every Plan destination; no scripted fault touches
// them, so a prefetcher that overwrites dst instead of appending to it is
// caught.
var sentinelPages = [...]memdef.PageNum{1 << 40, 1<<40 + 7, 3}

func (r *prefetchRunner) next() uint64 {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *prefetchRunner) isResident(p memdef.PageNum) bool {
	c := int(p.Chunk())
	if c < 0 || c >= len(r.resident) {
		return false
	}
	return r.resident[c]&(1<<uint(p.Index())) != 0
}

// step faults a non-resident page (validating and applying the resulting
// plan, with capacity evictions first when full) or evicts a resident chunk
// outright to feed the prefetcher's OnEvict path.
func (r *prefetchRunner) step() {
	r.t.Helper()
	const capacityPages = scriptCapacity * memdef.ChunkPages
	c := memdef.ChunkID(r.next() % scriptChunks)
	idx := int(r.next() % memdef.ChunkPages)
	p := c.Page(idx)
	if r.isResident(p) {
		// Sporadically evict this chunk with a pseudo-random touch pattern,
		// standing in for the driver's capacity evictions.
		if r.next()%8 == 0 {
			touched := r.resident[c] & memdef.PageBitmap(r.next())
			untouch := (r.resident[c] &^ touched).Count()
			r.nPages -= r.resident[c].Count()
			r.resident[c] = 0
			r.pf.OnEvict(c, touched, untouch)
		}
		return
	}
	dst := append(r.buf[:0], sentinelPages[:]...)
	out := r.pf.Plan(dst, p, prefetch.Context{Resident: r.isResident, MemoryFull: r.full})
	n := len(sentinelPages)
	if len(out) < n {
		r.t.Fatalf("plan for %v dropped the dst prefix: returned %d pages, dst had %d", p, len(out), n)
	}
	for i, q := range sentinelPages {
		if dst[i] != q || out[i] != q {
			r.t.Fatalf("plan for %v overwrote dst[%d]: dst %v, result %v", p, i, dst[:n], out[:n])
		}
	}
	r.buf = out
	plan := out[n:]
	seenP := false
	for i, q := range plan {
		if i > 0 && q <= plan[i-1] {
			r.t.Fatalf("plan for %v not in ascending order: %v", p, plan)
		}
		if r.isResident(q) {
			r.t.Fatalf("plan for %v contains resident page %v", p, q)
		}
		if q == p {
			seenP = true
		}
	}
	if !seenP {
		r.t.Fatalf("plan for %v does not contain the faulted page: %v", p, plan)
	}
	r.plans++
	r.planPages += len(plan)
	for _, q := range plan {
		r.planHash = (r.planHash ^ uint64(q)) * 0x100000001b3
		qc := int(q.Chunk())
		if qc >= 0 && qc < len(r.resident) {
			bit := memdef.PageBitmap(1) << uint(q.Index())
			if r.resident[qc]&bit == 0 {
				r.resident[qc] |= bit
				r.nPages++
			}
		}
	}
	r.pf.OnMigrate(plan)
	if r.nPages >= capacityPages {
		r.full = true
	}
}
