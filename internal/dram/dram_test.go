package dram

import (
	"testing"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/memdef"
)

func testConfig() memdef.Config {
	cfg := memdef.DefaultConfig()
	cfg.DRAMChannels = 2
	cfg.DRAMBanksPerChannel = 2
	cfg.DRAMRowBytes = 1024
	cfg.DRAMRowHitLat = 10
	cfg.DRAMRowMissLat = 30
	cfg.DRAMBusLat = 2
	return cfg
}

// addrFor builds an address landing on (channel, bank, rowIndex) under the
// route mapping: row = ch + channels*(bank + banks*rowIndex).
func addrFor(cfg memdef.Config, ch, bank, rowIdx int) memdef.VirtAddr {
	row := ch + cfg.DRAMChannels*(bank+cfg.DRAMBanksPerChannel*rowIdx)
	return memdef.VirtAddr(row * cfg.DRAMRowBytes)
}

func TestGeometry(t *testing.T) {
	e := engine.New()
	d := New(e, testConfig())
	if d.Channels() != 2 || d.Banks() != 2 {
		t.Fatalf("geometry = %d channels x %d banks", d.Channels(), d.Banks())
	}
}

func TestRowHitFasterThanMiss(t *testing.T) {
	e := engine.New()
	cfg := testConfig()
	d := New(e, cfg)
	var miss, hit memdef.Cycle
	e.Schedule(0, func() { miss = d.Access(addrFor(cfg, 0, 0, 0), memdef.Read) })
	e.Schedule(100, func() { hit = d.Access(addrFor(cfg, 0, 0, 0)+64, memdef.Read) })
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if miss != 32 { // 30 bank + 2 bus
		t.Fatalf("miss latency = %d, want 32", miss)
	}
	if hit != 112 { // 10 bank + 2 bus from cycle 100
		t.Fatalf("hit latency = %d, want 112", hit)
	}
	s := d.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBankLevelParallelism(t *testing.T) {
	e := engine.New()
	cfg := testConfig()
	d := New(e, cfg)
	var a, b memdef.Cycle
	e.Schedule(0, func() {
		a = d.Access(addrFor(cfg, 0, 0, 0), memdef.Read) // ch0 bank0
		b = d.Access(addrFor(cfg, 0, 1, 0), memdef.Read) // ch0 bank1
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	// Both row-miss in parallel banks (30 each), serialized only on the
	// 2-cycle bus: 32 and 34, not 32 and 62.
	if a != 32 || b != 34 {
		t.Fatalf("latencies = %d, %d; want 32, 34 (banks overlap)", a, b)
	}
}

func TestSameBankSerializes(t *testing.T) {
	e := engine.New()
	cfg := testConfig()
	d := New(e, cfg)
	var a, b memdef.Cycle
	e.Schedule(0, func() {
		a = d.Access(addrFor(cfg, 0, 0, 0), memdef.Read) // bank0 row r0
		b = d.Access(addrFor(cfg, 0, 0, 1), memdef.Read) // bank0 row r1: conflict
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	// Second access waits for the bank: 30 + 30 + 2 = 62.
	if a != 32 || b != 62 {
		t.Fatalf("latencies = %d, %d; want 32, 62 (bank conflict)", a, b)
	}
}

func TestChannelParallelism(t *testing.T) {
	e := engine.New()
	cfg := testConfig()
	d := New(e, cfg)
	var a, b memdef.Cycle
	e.Schedule(0, func() {
		a = d.Access(addrFor(cfg, 0, 0, 0), memdef.Read)
		b = d.Access(addrFor(cfg, 1, 0, 0), memdef.Read)
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if a != 32 || b != 32 {
		t.Fatalf("independent channels serialized: %d, %d", a, b)
	}
}

func TestRowBufferReplacement(t *testing.T) {
	e := engine.New()
	cfg := testConfig()
	d := New(e, cfg)
	e.Schedule(0, func() {
		d.Access(addrFor(cfg, 0, 0, 0), memdef.Read) // open row A
		d.Access(addrFor(cfg, 0, 0, 1), memdef.Read) // row B closes A
		d.Access(addrFor(cfg, 0, 0, 0), memdef.Read) // row A misses again
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.RowMisses != 3 || s.RowHits != 0 {
		t.Fatalf("stats = %+v, want 3 misses", s)
	}
}

// TestAccessSchedulesNothing: Access returns the completion cycle and queues
// no event; a caller that acts at completion schedules its own.
func TestAccessSchedulesNothing(t *testing.T) {
	e := engine.New()
	cfg := testConfig()
	d := New(e, cfg)
	var finish memdef.Cycle
	pending := -1
	e.Schedule(5, func() {
		finish = d.Access(addrFor(cfg, 0, 0, 0), memdef.Write)
		pending = e.Pending()
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if finish != 37 {
		t.Fatalf("finish %d, want 37", finish)
	}
	if pending != 0 || e.Fired() != 1 {
		t.Fatalf("Access queued %d events (%d fired), want none", pending, e.Fired())
	}
	if d.Stats().Writes != 1 {
		t.Fatal("write not counted")
	}
}

func TestSequentialStreamRowLocality(t *testing.T) {
	e := engine.New()
	cfg := testConfig()
	d := New(e, cfg)
	n := 256
	e.Schedule(0, func() {
		for i := 0; i < n; i++ {
			d.Access(memdef.VirtAddr(i*64), memdef.Read)
		}
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Reads != uint64(n) {
		t.Fatalf("reads = %d", s.Reads)
	}
	// 64B strides within 1 KiB rows: 15 of 16 accesses hit the open row.
	if s.RowHitRate() < 0.9 {
		t.Fatalf("sequential row-hit rate = %f", s.RowHitRate())
	}
	// Busy accounting must equal the per-access service exactly.
	wantBank := memdef.Cycle(s.RowHits*uint64(cfg.DRAMRowHitLat) + s.RowMisses*uint64(cfg.DRAMRowMissLat))
	if s.BankBusyCycles != wantBank {
		t.Fatalf("bank busy = %d, want %d", s.BankBusyCycles, wantBank)
	}
	if s.BusBusyCycles != memdef.Cycle(n)*cfg.DRAMBusLat {
		t.Fatalf("bus busy = %d", s.BusBusyCycles)
	}
}
