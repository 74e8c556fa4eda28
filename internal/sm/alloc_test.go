package sm

import (
	"runtime"
	"testing"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
)

// TestNewMachineAllocs gates the allocations of building a fresh Table-I
// machine with 64 one-access warps, as every cppe-sim run and every first run
// of a session pays. Components come from one allocation per kind and event
// callbacks are shared per kind, so what is left is a fixed set of
// components, two tag-store allocations per L1 cache, and one
// translation-done callback per warp (uvm.Translate takes a func()): 167.
// With a closure per warp stage and a small object per SM, TLB, cache and
// DRAM channel it was 709. The ceiling sits about 15% above the count.
func TestNewMachineAllocs(t *testing.T) {
	cfg := memdef.DefaultConfig()
	traces := make([][]memdef.Op, 64)
	for i := range traces {
		traces[i] = []memdef.Op{memdef.PackAccess(memdef.Access{Addr: memdef.VirtAddr(i) << memdef.PageShift})}
	}
	pol, pf := evict.NewLRU(), prefetch.NewLocality()
	a := testing.AllocsPerRun(5, func() { NewMachine(cfg, pol, pf, traces) })
	t.Logf("NewMachine, Table I, 64 warps: %v allocs", a)
	const ceiling = 192
	if a > ceiling {
		t.Errorf("NewMachine, Table I, 64 warps: %v allocs, ceiling %v", a, ceiling)
	}
}

// allocBytes returns the number of heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
