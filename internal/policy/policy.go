// Package policy is the pluggable policy layer: a versioned registration API
// that exposes eviction policies and prefetchers behind a narrow, read-only
// view of machine state, so new policies — including learned ones — can be
// added without touching the simulation core.
//
// The package defines three things:
//
//   - MachineView, the only window a policy gets into the simulated machine:
//     residency, the recent-eviction pattern window, capacity pressure, and
//     the simulated clock. There is no way to mutate machine state through
//     it, by construction (every method returns values or copies).
//   - the registry: named, versioned factories for eviction policies and
//     prefetchers (Register / NewEviction / NewPrefetch), through which all
//     in-tree policies are constructed and any external policy can be too.
//   - Learned, the in-tree proof of the API: a seeded, deterministic
//     perceptron over pattern-window features that ranks evict candidates
//     (see learned.go).
//
// The package is part of the simulation core for the determinism rules
// enforced by cppe-lint: no map iteration, wall clock, global rand, or
// goroutines reach a policy decision.
package policy

import (
	"errors"

	"github.com/reproductions/cppe/internal/memdef"
)

// APIVersion is the current policy-contract version. A Registration must
// carry exactly this version: the registry refuses registrations written
// against a different contract instead of letting them misbehave at runtime.
// Version 2 changed Prefetcher.Plan to append into a caller-owned buffer.
// Version 3 made MachineView.RecentEvictions return the view's reused buffer,
// valid only until the next call, instead of a fresh copy per call.
const APIVersion = 3

// Typed registry errors. They are surfaced through harness Result.Err (and a
// nonzero cppe-sim exit), never panics.
var (
	// ErrPolicyExists reports a Register call with a name that is already
	// registered for the same kind.
	ErrPolicyExists = errors.New("policy: name already registered")
	// ErrUnknownPolicy reports a lookup of a name that is not registered.
	ErrUnknownPolicy = errors.New("policy: unknown policy")
	// ErrBadRegistration reports a structurally invalid Registration: empty
	// name, missing factory, or a Version other than APIVersion.
	ErrBadRegistration = errors.New("policy: invalid registration")
)

// EvictionRecord is one entry of the machine's pattern window: the touch
// pattern an evicted chunk left behind. It is the same information the
// pattern-aware prefetcher and MHPE consume through their event callbacks,
// exposed read-only so view-driven policies can learn from it.
type EvictionRecord struct {
	// Chunk is the evicted chunk.
	Chunk memdef.ChunkID
	// Touched is the bit vector of pages that were touched while resident.
	Touched memdef.PageBitmap
	// Untouch is the number of migrated-but-never-touched pages (0..16).
	Untouch int
	// Cycle is the simulated time of the eviction.
	Cycle memdef.Cycle
}

// WindowSize is the capacity of the machine's recent-eviction window. Old
// records fall off FIFO.
const WindowSize = 32

// MachineView is the narrow, read-only view of the simulated machine a
// policy may consult. It is deliberately small: residency, the pattern
// window, capacity pressure, and the clock — no raw access to the driver,
// page table, or event engine. Every method is a pure observation; mutating
// the machine through a MachineView is impossible by construction (methods
// return values, and the one slice, RecentEvictions, is a copy of the
// driver's window in a buffer the driver never reads back).
//
// The view is bound once, at machine construction, to any policy or
// prefetcher that implements ViewBinder. All observations are deterministic
// functions of the simulation state, so two machines running the same trace
// present identical views, whether fresh, recycled, or rerun.
type MachineView interface {
	// Cycle is the current simulated time in core cycles.
	Cycle() memdef.Cycle
	// CapacityPages is the GPU memory capacity in pages (0 = unlimited).
	CapacityPages() int
	// ResidentPages is the number of pages currently occupying frames
	// (resident or with an in-flight migration holding a reservation).
	ResidentPages() int
	// MemoryFull reports whether GPU memory has filled to capacity (it
	// never becomes false again; capacity is managed by eviction).
	MemoryFull() bool
	// Resident reports whether page p currently has a valid GPU mapping or
	// an in-flight migration.
	Resident(p memdef.PageNum) bool
	// ChunkResident returns the residency bit vector of chunk c (zero for
	// an unknown chunk).
	ChunkResident(c memdef.ChunkID) memdef.PageBitmap
	// ChunkTouched returns the touched bit vector of chunk c: the pages
	// accessed by the GPU since they became resident.
	ChunkTouched(c memdef.ChunkID) memdef.PageBitmap
	// RecentEvictions returns the pattern window, oldest first, at most
	// WindowSize records, copied into a buffer the view reuses: the slice
	// is valid until the next RecentEvictions call, so read it within the
	// callback that asked for it and copy any record kept longer. Writing
	// to it has no effect on the machine.
	RecentEvictions() []EvictionRecord
}

// ViewBinder is implemented by policies and prefetchers that consult the
// machine view. The UVM driver binds its view exactly once, after
// construction and before the first event callback. Policies must treat the
// view as optional: a nil or never-bound view (unit tests, conformance
// scripts without a machine) degrades features to zero, it does not crash.
type ViewBinder interface {
	BindView(v MachineView)
}
