package xbus

import (
	"testing"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/memdef"
)

func TestTransferSerializesPerDirection(t *testing.T) {
	e := engine.New()
	cfg := memdef.DefaultConfig()
	l := New(e, cfg)
	page := cfg.TransferCycles(memdef.PageBytes, cfg.PCIeGBs)
	var a, b memdef.Cycle
	e.Schedule(0, func() {
		a = l.Transfer(HostToDevice, memdef.PageBytes)
		b = l.Transfer(HostToDevice, memdef.PageBytes)
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if a != page || b != 2*page {
		t.Fatalf("H2D transfers = %d, %d; want %d, %d", a, b, page, 2*page)
	}
}

func TestDuplexDirectionsIndependent(t *testing.T) {
	e := engine.New()
	cfg := memdef.DefaultConfig()
	l := New(e, cfg)
	page := cfg.TransferCycles(memdef.PageBytes, cfg.PCIeGBs)
	var h2d, d2h memdef.Cycle
	e.Schedule(0, func() {
		h2d = l.Transfer(HostToDevice, memdef.PageBytes)
		d2h = l.Transfer(DeviceToHost, memdef.PageBytes)
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if h2d != page || d2h != page {
		t.Fatalf("duplex directions serialized: %d, %d", h2d, d2h)
	}
}

// TestTransferFinishCycle: a transfer booked on an idle link finishes its
// duration after the cycle it was booked at.
func TestTransferFinishCycle(t *testing.T) {
	e := engine.New()
	cfg := memdef.DefaultConfig()
	l := New(e, cfg)
	var finish memdef.Cycle
	e.Schedule(100, func() { finish = l.Transfer(DeviceToHost, memdef.ChunkBytes) })
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if want := 100 + cfg.TransferCycles(memdef.ChunkBytes, cfg.PCIeGBs); finish != want || finish <= 100 {
		t.Fatalf("chunk transfer booked at 100 finishes at %d, want %d", finish, want)
	}
}

// TestZeroByteTransfer: a zero-byte transfer finishes at the cycle it is
// booked.
func TestZeroByteTransfer(t *testing.T) {
	e := engine.New()
	l := New(e, memdef.DefaultConfig())
	e.Schedule(7, func() {
		if got := l.Transfer(HostToDevice, 0); got != 7 {
			t.Errorf("zero transfer completes at %d, want 7", got)
		}
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	e := engine.New()
	cfg := memdef.DefaultConfig()
	l := New(e, cfg)
	e.Schedule(0, func() {
		l.Transfer(HostToDevice, memdef.ChunkBytes)
		l.Transfer(HostToDevice, memdef.PageBytes)
		l.Transfer(DeviceToHost, memdef.PageBytes)
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	s := l.Stats()
	if s.BytesH2D != memdef.ChunkBytes+memdef.PageBytes || s.TransfersH2D != 2 {
		t.Fatalf("H2D stats = %+v", s)
	}
	if s.BytesD2H != memdef.PageBytes || s.TransfersD2H != 1 {
		t.Fatalf("D2H stats = %+v", s)
	}
	if s.BusyH2D <= s.BusyD2H {
		t.Fatalf("H2D busy (%d) should exceed D2H busy (%d)", s.BusyH2D, s.BusyD2H)
	}
}

func TestDirectionString(t *testing.T) {
	if HostToDevice.String() != "H2D" || DeviceToHost.String() != "D2H" {
		t.Fatal("direction strings wrong")
	}
}

func TestTrackingInflightBytes(t *testing.T) {
	e := engine.New()
	cfg := memdef.DefaultConfig()
	l := New(e, cfg)
	l.EnableTracking()
	page := cfg.TransferCycles(memdef.PageBytes, cfg.PCIeGBs)
	e.Schedule(0, func() {
		l.Transfer(HostToDevice, memdef.PageBytes)
		l.Transfer(HostToDevice, memdef.PageBytes)
		if got := l.InflightBytes(HostToDevice); got != 2*memdef.PageBytes {
			t.Errorf("inflight = %d, want %d", got, 2*memdef.PageBytes)
		}
		if msg := l.CheckIntegrity(); msg != "" {
			t.Errorf("integrity violated mid-flight: %s", msg)
		}
	})
	// After the first transfer completes, only the second is in flight.
	e.Schedule(page, func() {
		if got := l.InflightBytes(HostToDevice); got != memdef.PageBytes {
			t.Errorf("inflight after first completion = %d, want %d", got, memdef.PageBytes)
		}
		if msg := l.CheckIntegrity(); msg != "" {
			t.Errorf("integrity violated after completion: %s", msg)
		}
	})
	// At the second completion, nothing is left in flight.
	e.Schedule(2*page, func() {
		if got := l.InflightBytes(HostToDevice); got != 0 {
			t.Errorf("inflight after drain = %d, want 0", got)
		}
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckIntegrityDetectsOverbooking(t *testing.T) {
	e := engine.New()
	cfg := memdef.DefaultConfig()
	l := New(e, cfg)
	l.EnableTracking()
	e.Schedule(0, func() {
		l.Transfer(DeviceToHost, memdef.PageBytes)
		l.Transfer(DeviceToHost, memdef.PageBytes)
		// Corrupt the bookkeeping: pull the second completion up to the
		// first's, as if both pages moved in one transfer's worth of time —
		// more bytes in flight than the link has bandwidth for.
		q := l.outstanding[DeviceToHost]
		q[1].finish = q[0].finish
		if msg := l.CheckIntegrity(); msg == "" {
			t.Error("overbooked link not detected")
		}
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckIntegrityDisabledWithoutTracking(t *testing.T) {
	e := engine.New()
	l := New(e, memdef.DefaultConfig())
	l.Transfer(HostToDevice, memdef.PageBytes)
	if msg := l.CheckIntegrity(); msg != "" {
		t.Fatalf("untracked link reported: %s", msg)
	}
	if len(l.outstanding[HostToDevice]) != 0 {
		t.Fatal("untracked link recorded outstanding transfers")
	}
}
