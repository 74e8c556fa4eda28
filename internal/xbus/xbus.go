// Package xbus models the CPU–GPU interconnect (PCIe in Table I): a duplex
// link with 16 GB/s of bandwidth per direction, on which page migrations
// (host-to-device), evicted-page write-backs (device-to-host) and fault
// messages travel. Transfers in the same direction serialize; the two
// directions are independent, matching full-duplex PCIe.
package xbus

import (
	"fmt"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/memdef"
)

// Direction selects a link direction.
type Direction int

const (
	// HostToDevice carries page migrations into GPU memory.
	HostToDevice Direction = iota
	// DeviceToHost carries evicted (dirty) pages back to system memory.
	DeviceToHost
)

func (d Direction) String() string {
	if d == DeviceToHost {
		return "D2H"
	}
	return "H2D"
}

// transferRec is one outstanding (booked but not yet completed) transfer,
// kept only while audit tracking is enabled.
type transferRec struct {
	bytes  int
	dur    memdef.Cycle
	finish memdef.Cycle
}

// Link is the modeled interconnect.
type Link struct {
	eng *engine.Engine
	cfg memdef.Config
	dir [2]*engine.Resource

	bytesMoved [2]uint64
	transfers  [2]uint64

	// track enables outstanding-transfer bookkeeping for the integrity
	// auditor. Off by default so clean runs stay allocation-free.
	track       bool
	outstanding [2][]transferRec
}

// New returns an idle link.
func New(eng *engine.Engine, cfg memdef.Config) *Link {
	l := &Link{
		eng: eng,
		cfg: cfg,
		dir: [2]*engine.Resource{
			engine.NewResource(eng),
			engine.NewResource(eng),
		},
	}
	l.Reset()
	return l
}

// Reset returns the link to idle with zeroed counters and audit tracking
// off, keeping the outstanding-transfer storage.
func (l *Link) Reset() {
	for _, r := range l.dir {
		r.Reset()
	}
	*l = Link{
		eng:         l.eng,
		cfg:         l.cfg,
		dir:         l.dir,
		outstanding: [2][]transferRec{l.outstanding[0][:0], l.outstanding[1][:0]},
	}
}

// Transfer books a transfer of n bytes in direction d, starting now (or when
// the link frees up), and returns its completion cycle. It schedules nothing:
// a caller that must act at completion schedules its own event at the
// returned cycle. Zero-byte transfers complete immediately.
func (l *Link) Transfer(d Direction, n int) memdef.Cycle {
	dur := l.cfg.TransferCycles(n, l.cfg.PCIeGBs)
	finish := l.dir[d].Acquire(dur)
	l.bytesMoved[d] += uint64(n)
	l.transfers[d]++
	if l.track {
		l.recordOutstanding(d, n, dur, finish)
	}
	return finish
}

// EnableTracking turns on outstanding-transfer bookkeeping so CheckIntegrity
// can verify the in-flight-bytes invariant. Enabled by the auditor wiring.
func (l *Link) EnableTracking() { l.track = true }

// recordOutstanding appends a transfer record, pruning completed ones first.
// Transfers in one direction serialize, so finishes are non-decreasing and
// pruning pops from the front.
func (l *Link) recordOutstanding(d Direction, n int, dur, finish memdef.Cycle) {
	now := l.eng.Now()
	q := l.outstanding[d]
	i := 0
	for i < len(q) && q[i].finish <= now {
		i++
	}
	q = append(q[:0], q[i:]...)
	l.outstanding[d] = append(q, transferRec{bytes: n, dur: dur, finish: finish})
}

// InflightBytes returns the bytes booked on direction d that have not yet
// completed. Requires EnableTracking.
func (l *Link) InflightBytes(d Direction) int {
	now := l.eng.Now()
	total := 0
	for _, r := range l.outstanding[d] {
		if r.finish > now {
			total += r.bytes
		}
	}
	return total
}

// CheckIntegrity verifies the link invariants and returns "" when they hold.
// Transfers in one direction serialize, so outstanding bookings must be
// FIFO-ordered, lie within the resource horizon, and — the capacity
// invariant — the booked cycles of all in-flight transfers must fit in the
// wall of time they span: in-flight bytes can never exceed what the link has
// bandwidth to move in that window.
func (l *Link) CheckIntegrity() string {
	if !l.track {
		return ""
	}
	now := l.eng.Now()
	for d := HostToDevice; d <= DeviceToHost; d++ {
		inflight := 0
		var booked, lastFinish, firstStart memdef.Cycle
		live := 0
		for _, r := range l.outstanding[d] {
			if r.finish <= now {
				continue
			}
			if r.finish < lastFinish {
				return fmt.Sprintf("%v: outstanding completions out of order (%d after %d)", d, r.finish, lastFinish)
			}
			if live == 0 {
				firstStart = r.finish - r.dur
			}
			inflight += r.bytes
			booked += r.dur
			lastFinish = r.finish
			live++
		}
		if live == 0 {
			continue
		}
		if free := l.dir[d].FreeAt(); lastFinish > free {
			return fmt.Sprintf("%v: outstanding completion at %d beyond resource horizon %d", d, lastFinish, free)
		}
		if span := lastFinish - firstStart; booked > span {
			return fmt.Sprintf("%v: %d in-flight bytes book %d cycles into a %d-cycle window (over link capacity)",
				d, inflight, booked, span)
		}
	}
	return ""
}

// Stats is a snapshot of link counters.
type Stats struct {
	BytesH2D, BytesD2H         uint64
	TransfersH2D, TransfersD2H uint64
	BusyH2D, BusyD2H           memdef.Cycle
}

// Stats returns the counters.
func (l *Link) Stats() Stats {
	return Stats{
		BytesH2D:     l.bytesMoved[HostToDevice],
		BytesD2H:     l.bytesMoved[DeviceToHost],
		TransfersH2D: l.transfers[HostToDevice],
		TransfersD2H: l.transfers[DeviceToHost],
		BusyH2D:      l.dir[HostToDevice].BusyCycles(),
		BusyD2H:      l.dir[DeviceToHost].BusyCycles(),
	}
}
