package memdef

import (
	"testing"
	"time"
)

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"NumSMs", func(c *Config) { c.NumSMs = 0 }},
		{"CoreClockHz", func(c *Config) { c.CoreClockHz = 0 }},
		{"WarpsPerSM", func(c *Config) { c.WarpsPerSM = -1 }},
		{"L1TLBEntries", func(c *Config) { c.L1TLBEntries = 0 }},
		{"L2TLBWays", func(c *Config) { c.L2TLBWays = 0 }},
		{"L2TLBGeometry", func(c *Config) { c.L2TLBEntries = 100; c.L2TLBWays = 16 }},
		{"PTWConcurrentWalks", func(c *Config) { c.PTWConcurrentWalks = 0 }},
		{"PTWLevels", func(c *Config) { c.PTWLevels = 9 }},
		{"DRAMChannels", func(c *Config) { c.DRAMChannels = 0 }},
		{"PCIeGBs", func(c *Config) { c.PCIeGBs = 0 }},
		{"IntervalPages", func(c *Config) { c.IntervalPages = 63 }},
		{"MemoryPages", func(c *Config) { c.MemoryPages = -5 }},
		{"MemoryPagesSubChunk", func(c *Config) { c.MemoryPages = ChunkPages - 1 }},
		{"L1CacheLineSz", func(c *Config) { c.L1CacheLineSz = 0 }},
		{"L1CacheLineSzNonPow2", func(c *Config) { c.L1CacheLineSz = 96 }},
		{"L2CacheLineSzNonPow2", func(c *Config) { c.L2CacheLineSz = 100 }},
		{"L2CacheLineSzTooSmall", func(c *Config) { c.L2CacheLineSz = 2 }},
		{"PWCEntryBytes", func(c *Config) { c.PWCEntryBytes = 0 }},
	}
	for _, m := range mutations {
		cfg := DefaultConfig()
		m.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted bad %s", m.name)
		}
	}
}

func TestCyclesPer(t *testing.T) {
	cfg := DefaultConfig() // 1.4 GHz
	if got := cfg.CyclesPer(20 * time.Microsecond); got != 28000 {
		t.Fatalf("20us at 1.4GHz = %d cycles, want 28000", got)
	}
	if got := cfg.CyclesPer(0); got != 0 {
		t.Fatalf("0 duration = %d cycles, want 0", got)
	}
	// Rounding up: 1ns at 1.4GHz is 1.4 cycles -> 2.
	if got := cfg.CyclesPer(1 * time.Nanosecond); got != 2 {
		t.Fatalf("1ns = %d cycles, want 2 (round up)", got)
	}
}

func TestTransferCycles(t *testing.T) {
	cfg := DefaultConfig()
	// A 4 KiB page at 16 GB/s: 4096/16e9 s = 256 ns = 358.4 cycles.
	got := cfg.TransferCycles(PageBytes, cfg.PCIeGBs)
	if got < 358 || got > 359 {
		t.Fatalf("page transfer = %d cycles, want ~358", got)
	}
	if cfg.TransferCycles(0, cfg.PCIeGBs) != 0 {
		t.Fatalf("zero bytes should cost zero cycles")
	}
	if cfg.TransferCycles(1, cfg.PCIeGBs) == 0 {
		t.Fatalf("non-zero transfer must cost at least one cycle")
	}
	// A chunk is 16x a page.
	chunk := cfg.TransferCycles(ChunkBytes, cfg.PCIeGBs)
	if chunk < 16*got-16 || chunk > 16*got+16 {
		t.Fatalf("chunk transfer %d not ~16x page %d", chunk, got)
	}
}

func TestFaultServiceCycles(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.FaultServiceCycles(); got != 28000 {
		t.Fatalf("fault service = %d cycles, want 28000", got)
	}
}

func TestIntervalChunks(t *testing.T) {
	cfg := DefaultConfig()
	if got := cfg.IntervalChunks(); got != 4 {
		t.Fatalf("IntervalChunks = %d, want 4 (64 pages / 16)", got)
	}
}
