package memdef

import (
	"fmt"
	"time"
)

// Config captures the simulated system configuration (Table I of the paper)
// together with the knobs that control the event-driven abstraction level
// (warp count per SM, compute gap between accesses, workload scale).
//
// The zero value is not usable; call DefaultConfig and adjust fields.
type Config struct {
	// --- GPU cores (Table I) ---

	// NumSMs is the number of streaming multiprocessors.
	NumSMs int
	// CoreClockHz is the SM core clock in Hz.
	CoreClockHz uint64
	// WarpsPerSM is the number of concurrently resident warps modeled per
	// SM. Each warp is an independent post-coalesced access stream; the SM
	// keeps running while at least one warp is not blocked on a far fault
	// (replayable far faults, Zheng et al. [9]).
	WarpsPerSM int
	// ComputeGapCycles is the number of core cycles a warp computes between
	// the completion of one memory access and the issue of the next.
	ComputeGapCycles Cycle

	// --- L1 data cache (per SM) ---

	L1CacheBytes  int
	L1CacheWays   int
	L1CacheLineSz int
	L1HitLatency  Cycle

	// --- L1 TLB (per SM) ---

	L1TLBEntries int
	L1TLBLatency Cycle

	// --- Shared L2 data cache ---

	L2CacheBytes  int
	L2CacheWays   int
	L2CacheLineSz int
	L2HitLatency  Cycle

	// --- Shared L2 TLB ---

	L2TLBEntries int
	L2TLBWays    int
	L2TLBLatency Cycle
	L2TLBPorts   int

	// --- Page table walker ---

	// PTWConcurrentWalks is the number of page-table walks that may be in
	// flight simultaneously (highly-threaded walker, Power et al. [18]).
	PTWConcurrentWalks int
	// PTWLevels is the page-table depth (4-level radix).
	PTWLevels int

	// --- Page walk cache ---

	PWCBytes   int
	PWCWays    int
	PWCLatency Cycle
	// PWCEntryBytes is the modeled size of one PWC entry (one PTE).
	PWCEntryBytes int

	// --- DRAM (GDDR5) ---

	DRAMChannels int
	// DRAMBanksPerChannel sets bank-level parallelism: each bank has its
	// own open row; requests to different banks of a channel overlap their
	// row activations but share the channel's data bus.
	DRAMBanksPerChannel int
	DRAMRowBytes        int
	DRAMRowHitLat       Cycle
	DRAMRowMissLat      Cycle
	// DRAMBusLat is the data-bus occupancy per access (burst transfer).
	DRAMBusLat Cycle
	// DRAMChannelGBs is per-channel bandwidth in GB/s (aggregate 528 GB/s
	// over 12 channels in Table I).
	DRAMChannelGBs float64

	// --- CPU-GPU interconnect ---

	// PCIeGBs is the host interconnect bandwidth in GB/s.
	PCIeGBs float64
	// MaxConcurrentMigrations bounds how many fault batches the driver
	// services at once (the fault buffer is drained with limited
	// parallelism). The UVM manager additionally clamps this so in-flight
	// reservations can never exceed half the GPU memory capacity.
	MaxConcurrentMigrations int
	// FaultServiceTime is the end-to-end far-fault service latency paid per
	// fault batch before any data moves (page-table updates, host round
	// trips). Table I: 20 microseconds.
	FaultServiceTime time.Duration

	// --- UVM policy constants (Section IV) ---

	// IntervalPages: an interval elapses every IntervalPages page
	// migrations (64 pages = 4 chunk migrations).
	IntervalPages int
	// MHPE thresholds (Section VI-A).
	T1 int // first untouch-level threshold to switch MRU -> LRU (32)
	T2 int // first-four-interval untouch threshold (40)
	T3 int // forward-distance limit (32)
	// PatternMinUntouch is the minimum untouch level of an evicted chunk
	// for it to be recorded in the pattern buffer (8 = half a chunk).
	PatternMinUntouch int

	// --- Oversubscription & thrash detection ---

	// MemoryPages is the GPU physical memory capacity in pages. Zero means
	// "unlimited" (used for the footprint-discovery pass, Section VI).
	MemoryPages int
	// ThrashAbortFactor aborts a simulation (models the paper's observed
	// baseline crashes for MVT/BIC) once total evicted pages exceed
	// ThrashAbortFactor x footprint pages. Zero disables the detector.
	ThrashAbortFactor int

	// --- Simulation integrity (audit & chaos) ---

	// AuditEveryCycles enables the integrity auditor with a periodic
	// full-state check every AuditEveryCycles simulated cycles (plus scoped
	// checks at migration commits and evictions). Zero disables auditing.
	// Audit checks are read-only, so enabling them never changes results.
	AuditEveryCycles Cycle
	// ChaosSeed, when non-zero, arms the deterministic fault injector at the
	// interconnect/UVM boundary: delayed and reordered migration completions
	// and transient far-fault service failures (retried by the driver with
	// bounded exponential backoff). The same seed reproduces the same
	// perturbation sequence exactly.
	ChaosSeed int64
}

// DefaultConfig returns the Table-I configuration with the event-model knobs
// set to their standard values.
func DefaultConfig() Config {
	return Config{
		NumSMs:           28,
		CoreClockHz:      1_400_000_000,
		WarpsPerSM:       8,
		ComputeGapCycles: 40,

		L1CacheBytes:  48 << 10,
		L1CacheWays:   6,
		L1CacheLineSz: 128,
		L1HitLatency:  28,

		L1TLBEntries: 128,
		L1TLBLatency: 1,

		L2CacheBytes:  3 << 20,
		L2CacheWays:   16,
		L2CacheLineSz: 128,
		L2HitLatency:  120,

		L2TLBEntries: 512,
		L2TLBWays:    16,
		L2TLBLatency: 10,
		L2TLBPorts:   2,

		PTWConcurrentWalks: 64,
		PTWLevels:          4,

		PWCBytes:      8 << 10,
		PWCWays:       16,
		PWCLatency:    10,
		PWCEntryBytes: 8,

		DRAMChannels:        12,
		DRAMBanksPerChannel: 16,
		DRAMRowBytes:        2 << 10,
		DRAMRowHitLat:       160,
		DRAMRowMissLat:      320,
		DRAMBusLat:          4,
		DRAMChannelGBs:      44,

		PCIeGBs:                 16,
		MaxConcurrentMigrations: 8,
		FaultServiceTime:        20 * time.Microsecond,

		IntervalPages:     64,
		T1:                32,
		T2:                40,
		T3:                32,
		PatternMinUntouch: 8,

		MemoryPages:       0,
		ThrashAbortFactor: 64,
	}
}

// CyclesPer returns the number of core cycles in duration d, rounded up.
func (c Config) CyclesPer(d time.Duration) Cycle {
	ns := uint64(d.Nanoseconds())
	return Cycle((ns*c.CoreClockHz + 999_999_999) / 1_000_000_000)
}

// TransferCycles returns the core cycles needed to move n bytes at gbPerSec
// gigabytes per second, rounded up to at least one cycle for n > 0.
func (c Config) TransferCycles(n int, gbPerSec float64) Cycle {
	if n <= 0 || gbPerSec <= 0 {
		return 0
	}
	seconds := float64(n) / (gbPerSec * 1e9)
	cy := Cycle(seconds * float64(c.CoreClockHz))
	if cy == 0 {
		cy = 1
	}
	return cy
}

// FaultServiceCycles returns the far-fault service latency in core cycles.
func (c Config) FaultServiceCycles() Cycle { return c.CyclesPer(c.FaultServiceTime) }

// Validate reports the first structural problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.NumSMs <= 0:
		return fmt.Errorf("memdef: NumSMs must be positive, got %d", c.NumSMs)
	case c.CoreClockHz == 0:
		return fmt.Errorf("memdef: CoreClockHz must be positive")
	case c.WarpsPerSM <= 0:
		return fmt.Errorf("memdef: WarpsPerSM must be positive, got %d", c.WarpsPerSM)
	case c.L1TLBEntries <= 0:
		return fmt.Errorf("memdef: L1TLBEntries must be positive, got %d", c.L1TLBEntries)
	case c.L2TLBEntries <= 0 || c.L2TLBWays <= 0:
		return fmt.Errorf("memdef: L2 TLB geometry invalid (%d entries, %d ways)", c.L2TLBEntries, c.L2TLBWays)
	case c.L2TLBEntries%c.L2TLBWays != 0:
		return fmt.Errorf("memdef: L2 TLB entries (%d) not divisible by ways (%d)", c.L2TLBEntries, c.L2TLBWays)
	case c.PTWConcurrentWalks <= 0:
		return fmt.Errorf("memdef: PTWConcurrentWalks must be positive, got %d", c.PTWConcurrentWalks)
	case c.PTWLevels <= 0 || c.PTWLevels > 6:
		return fmt.Errorf("memdef: PTWLevels out of range: %d", c.PTWLevels)
	case c.DRAMChannels <= 0:
		return fmt.Errorf("memdef: DRAMChannels must be positive, got %d", c.DRAMChannels)
	case c.DRAMBanksPerChannel <= 0:
		return fmt.Errorf("memdef: DRAMBanksPerChannel must be positive, got %d", c.DRAMBanksPerChannel)
	case c.PCIeGBs <= 0:
		return fmt.Errorf("memdef: PCIeGBs must be positive, got %g", c.PCIeGBs)
	case c.MaxConcurrentMigrations <= 0:
		return fmt.Errorf("memdef: MaxConcurrentMigrations must be positive, got %d", c.MaxConcurrentMigrations)
	case c.IntervalPages <= 0 || c.IntervalPages%ChunkPages != 0:
		return fmt.Errorf("memdef: IntervalPages must be a positive multiple of %d, got %d", ChunkPages, c.IntervalPages)
	case c.MemoryPages < 0:
		return fmt.Errorf("memdef: MemoryPages must be non-negative, got %d", c.MemoryPages)
	case c.MemoryPages > 0 && c.MemoryPages < ChunkPages:
		return fmt.Errorf("memdef: MemoryPages (%d) smaller than one chunk (%d pages); the driver migrates at chunk granularity", c.MemoryPages, ChunkPages)
	case c.L1CacheLineSz < 4 || !powerOfTwo(c.L1CacheLineSz):
		return fmt.Errorf("memdef: L1CacheLineSz must be a power of two of at least 4, got %d", c.L1CacheLineSz)
	case c.L2CacheLineSz < 4 || !powerOfTwo(c.L2CacheLineSz):
		return fmt.Errorf("memdef: L2CacheLineSz must be a power of two of at least 4, got %d", c.L2CacheLineSz)
	case c.PWCEntryBytes < 4 || !powerOfTwo(c.PWCEntryBytes):
		return fmt.Errorf("memdef: PWCEntryBytes must be a power of two of at least 4, got %d", c.PWCEntryBytes)
	}
	// The tag-store geometries cache.New accepts: a positive capacity of at
	// least one line, and a line count the ways divide into whole sets.
	for _, g := range [...]struct {
		name              string
		bytes, ways, line int
	}{
		{"L1 cache", c.L1CacheBytes, c.L1CacheWays, c.L1CacheLineSz},
		{"L2 cache", c.L2CacheBytes, c.L2CacheWays, c.L2CacheLineSz},
		{"PWC", c.PWCBytes, c.PWCWays, c.PWCEntryBytes},
	} {
		if g.bytes < g.line || g.ways <= 0 || (g.bytes/g.line)%g.ways != 0 {
			return fmt.Errorf("memdef: %s geometry invalid (%d bytes, %d ways, %d-byte lines)", g.name, g.bytes, g.ways, g.line)
		}
	}
	return nil
}

// powerOfTwo reports whether n is a power of two (n > 0).
func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

// IntervalChunks is the number of chunk migrations per interval.
func (c Config) IntervalChunks() int { return c.IntervalPages / ChunkPages }
