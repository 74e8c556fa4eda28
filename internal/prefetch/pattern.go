package prefetch

import (
	"errors"
	"fmt"

	"github.com/reproductions/cppe/internal/memdef"
)

// ErrUnknownScheme reports a DeletionScheme outside the paper's two schemes.
var ErrUnknownScheme = errors.New("prefetch: unknown deletion scheme")

// DeletionScheme selects how the pattern buffer forgets chunks whose faults
// stop matching the recorded touch pattern (Section IV-C, Fig. 6).
type DeletionScheme int

const (
	// Scheme1 deletes a chunk's pattern whenever a faulted page does not
	// match the touch pattern.
	Scheme1 DeletionScheme = 1
	// Scheme2 deletes a chunk's pattern only when the mismatch happens on
	// the first lookup of that entry; once an entry has matched, it stays.
	Scheme2 DeletionScheme = 2
)

// patternEntry is one pattern-buffer record.
type patternEntry struct {
	touched     memdef.PageBitmap // pages touched in the previous residency
	matchedOnce bool              // a fault has matched this pattern before
}

// PatternStats counts pattern-buffer activity.
type PatternStats struct {
	Recorded   uint64 // entries inserted on eviction
	Hits       uint64 // faults that found their chunk in the buffer
	Matches    uint64 // hits whose faulted page matched the pattern
	Mismatches uint64
	Deletions  uint64
	PeakLen    int
}

// Pattern is CPPE's access pattern-aware prefetcher. It behaves like the
// locality prefetcher until memory fills; afterwards it consults a pattern
// buffer of evicted chunks' touch vectors:
//
//   - buffer hit and the faulted page matches the pattern: migrate only the
//     pattern's touched pages (that are not already resident);
//   - buffer hit but mismatch: migrate the whole chunk and delete the entry
//     according to the configured scheme;
//   - buffer miss: migrate the whole chunk.
//
// Only chunks whose untouch level is at least MinUntouch (paper: 8, half a
// chunk) are recorded, keeping the buffer short.
type Pattern struct {
	scheme     DeletionScheme
	minUntouch int
	buf        map[memdef.ChunkID]patternEntry
	stats      PatternStats
}

// NewPattern returns a pattern-aware prefetcher with the given deletion
// scheme and minimum untouch level for recording (0 means the paper's 8).
// A scheme outside {Scheme1, Scheme2} is ErrUnknownScheme: setup construction
// errors surface through harness Result.Err instead of aborting the process.
func NewPattern(scheme DeletionScheme, minUntouch int) (*Pattern, error) {
	if scheme != Scheme1 && scheme != Scheme2 {
		return nil, fmt.Errorf("%w: %d", ErrUnknownScheme, scheme)
	}
	if minUntouch <= 0 {
		minUntouch = 8
	}
	return &Pattern{
		scheme:     scheme,
		minUntouch: minUntouch,
		buf:        make(map[memdef.ChunkID]patternEntry),
	}, nil
}

// MustPattern is NewPattern for wiring with compile-time-constant schemes
// (tests, examples); an invalid scheme is a construction-time programmer
// error and panics, like template.Must.
func MustPattern(scheme DeletionScheme, minUntouch int) *Pattern {
	pf, err := NewPattern(scheme, minUntouch)
	if err != nil {
		panic(err)
	}
	return pf
}

// Name implements Prefetcher.
func (pf *Pattern) Name() string { return fmt.Sprintf("pattern-s%d", int(pf.scheme)) }

// Plan implements the pattern lookup described above.
func (pf *Pattern) Plan(dst []memdef.PageNum, p memdef.PageNum, ctx Context) []memdef.PageNum {
	if !ctx.MemoryFull {
		return chunkPages(dst, p, ctx.Resident)
	}
	c := p.Chunk()
	e, ok := pf.buf[c]
	if !ok {
		return chunkPages(dst, p, ctx.Resident)
	}
	pf.stats.Hits++
	if e.touched.Has(p.Index()) {
		// Pattern match: migrate only the touched pages of the pattern.
		pf.stats.Matches++
		if !e.matchedOnce {
			e.matchedOnce = true
			pf.buf[c] = e
		}
		for i := 0; i < memdef.ChunkPages; i++ {
			if !e.touched.Has(i) {
				continue
			}
			if q := c.Page(i); q == p || !ctx.Resident(q) {
				dst = append(dst, q)
			}
		}
		return dst
	}
	// Mismatch: whole chunk, and delete per scheme.
	pf.stats.Mismatches++
	if pf.scheme == Scheme1 || !e.matchedOnce {
		delete(pf.buf, c)
		pf.stats.Deletions++
	}
	return chunkPages(dst, p, ctx.Resident)
}

// OnMigrate implements Prefetcher (the buffer is fed by evictions only).
func (pf *Pattern) OnMigrate(pages []memdef.PageNum) {}

// OnEvict records the chunk's touch pattern when it is sparse enough to be
// worth remembering. A chunk with no touched pages at all is not recorded:
// its "pattern" would never match any fault.
func (pf *Pattern) OnEvict(c memdef.ChunkID, touched memdef.PageBitmap, untouch int) {
	if untouch < pf.minUntouch || touched == 0 {
		return
	}
	pf.buf[c] = patternEntry{touched: touched}
	pf.stats.Recorded++
	if len(pf.buf) > pf.stats.PeakLen {
		pf.stats.PeakLen = len(pf.buf)
	}
}

// Len returns the current buffer length (overhead analysis, Section VI-C).
func (pf *Pattern) Len() int { return len(pf.buf) }

// Stats returns a snapshot of buffer activity.
func (pf *Pattern) Stats() PatternStats { return pf.stats }

// Scheme returns the configured deletion scheme.
func (pf *Pattern) Scheme() DeletionScheme { return pf.scheme }
