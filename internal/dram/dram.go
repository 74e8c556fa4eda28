// Package dram models the GPU's GDDR5 memory system: 12 channels, each with
// 16 banks and an FR-FCFS-flavoured scheduler (Table I).
//
// The model is a timing approximation suitable for an event-driven simulator.
// Each channel has per-bank row buffers and a shared data bus:
//
//   - a request occupies its bank for the row-hit latency when it targets the
//     bank's open row, or the row-miss (precharge+activate) latency
//     otherwise; requests to different banks overlap (bank-level
//     parallelism);
//   - the burst transfer then occupies the channel's data bus, on which all
//     of the channel's requests serialize.
//
// FR-FCFS's row-hit-first effect is captured structurally: a row hit's bank
// time is short, so it reaches the bus ahead of older row misses to other
// rows of the same bank, which is what the policy buys in practice without
// simulating a full command scheduler.
package dram

import (
	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/memdef"
)

// bank is one DRAM bank with an open-row buffer.
type bank struct {
	res     engine.Resource
	openRow uint64
	hasRow  bool

	rowHits   uint64
	rowMisses uint64
}

// channel is one GDDR5 channel: banks plus a shared data bus. Channels, banks
// and their resources are stored by value, every channel's banks in one
// array, so route's lookup lands in contiguous memory instead of chasing a
// per-channel or per-bank pointer and a DRAM is three allocations; bankMask
// is len(banks)-1 when the bank count is a power of two (Table I's 16),
// letting route mask instead of divide.
type channel struct {
	banks    []bank
	bankMask uint64
	bus      engine.Resource
}

// DRAM is the multi-channel memory system.
type DRAM struct {
	eng      *engine.Engine
	cfg      memdef.Config
	channels []channel
	rowShift uint
	reads    uint64
	writes   uint64
}

// New builds the DRAM model from the Table-I configuration.
func New(eng *engine.Engine, cfg memdef.Config) *DRAM {
	if cfg.DRAMChannels <= 0 || cfg.DRAMBanksPerChannel <= 0 {
		panic("dram: bad geometry")
	}
	shift := uint(0)
	for 1<<shift < cfg.DRAMRowBytes {
		shift++
	}
	d := &DRAM{eng: eng, cfg: cfg, rowShift: shift, channels: make([]channel, cfg.DRAMChannels)}
	nb := cfg.DRAMBanksPerChannel
	banks := make([]bank, cfg.DRAMChannels*nb)
	for i := range d.channels {
		ch := &d.channels[i]
		ch.banks = banks[i*nb : (i+1)*nb : (i+1)*nb]
		if n := uint64(nb); n&(n-1) == 0 {
			ch.bankMask = n - 1
		}
	}
	d.Reset()
	return d
}

// Reset returns every bank and bus to idle with no open row and zeroed
// counters, keeping the geometry.
func (d *DRAM) Reset() {
	for i := range d.channels {
		ch := &d.channels[i]
		ch.bus = *engine.NewResource(d.eng)
		for b := range ch.banks {
			ch.banks[b] = bank{res: *engine.NewResource(d.eng)}
		}
	}
	*d = DRAM{eng: d.eng, cfg: d.cfg, channels: d.channels, rowShift: d.rowShift}
}

// route maps an address to (channel, bank, row): rows interleave across
// channels, then across banks within the channel.
func (d *DRAM) route(a memdef.VirtAddr) (*channel, *bank, uint64) {
	row := uint64(a) >> d.rowShift
	// One hardware division yields both the channel remainder and the bank
	// quotient; the bank modulo is a mask for power-of-two bank counts.
	nch := uint64(len(d.channels))
	q := row / nch
	ch := &d.channels[row-q*nch]
	var bi uint64
	if ch.bankMask != 0 {
		bi = q & ch.bankMask
	} else {
		bi = q % uint64(len(ch.banks))
	}
	return ch, &ch.banks[bi], row
}

// Access books a memory access of the given kind to address a and returns
// its completion cycle, when the data is available (read) or committed
// (write). It schedules nothing: a caller that must act at completion
// schedules its own event at the returned cycle.
func (d *DRAM) Access(a memdef.VirtAddr, kind memdef.AccessKind) memdef.Cycle {
	ch, bk, row := d.route(a)
	var svc memdef.Cycle
	if bk.hasRow && bk.openRow == row {
		svc = d.cfg.DRAMRowHitLat
		bk.rowHits++
	} else {
		svc = d.cfg.DRAMRowMissLat
		bk.rowMisses++
		bk.openRow = row
		bk.hasRow = true
	}
	if kind == memdef.Write {
		d.writes++
	} else {
		d.reads++
	}
	bankDone := bk.res.Acquire(svc)
	return ch.bus.AcquireAt(bankDone, d.cfg.DRAMBusLat)
}

// Stats is a snapshot of DRAM counters.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	// BankBusyCycles is summed over all banks; BusBusyCycles over channels.
	BankBusyCycles memdef.Cycle
	BusBusyCycles  memdef.Cycle
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	t := s.RowHits + s.RowMisses
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

// Stats returns aggregate counters.
func (d *DRAM) Stats() Stats {
	s := Stats{Reads: d.reads, Writes: d.writes}
	for i := range d.channels {
		ch := &d.channels[i]
		s.BusBusyCycles += ch.bus.BusyCycles()
		for i := range ch.banks {
			bk := &ch.banks[i]
			s.RowHits += bk.rowHits
			s.RowMisses += bk.rowMisses
			s.BankBusyCycles += bk.res.BusyCycles()
		}
	}
	return s
}

// Channels returns the channel count.
func (d *DRAM) Channels() int { return len(d.channels) }

// Banks returns the per-channel bank count.
func (d *DRAM) Banks() int { return len(d.channels[0].banks) }
