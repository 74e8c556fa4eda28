// Package prefetch implements the page prefetchers evaluated by the paper:
//
//   - the sequential-local "locality" prefetcher (Zheng et al. [9]), which the
//     baseline keeps using naively under oversubscription;
//   - a disable-on-full variant (Li et al. [11]);
//   - the tree-based neighborhood prefetcher attributed to the NVIDIA driver
//     (Ganguly et al. [16]), provided as an extension/ablation;
//   - CPPE's access pattern-aware prefetcher (Section IV-C), with the two
//     pattern-buffer deletion schemes of Fig. 6/7.
//
// A prefetcher is consulted by the UVM driver on every far fault and appends
// the set of pages to migrate, always including the faulted page, to a buffer
// the driver owns.
package prefetch

import "github.com/reproductions/cppe/internal/memdef"

// Context is the driver state a prefetcher may consult when planning.
type Context struct {
	// Resident reports whether a page currently has a valid GPU mapping or
	// an in-flight migration (such pages must not be requested again).
	Resident func(memdef.PageNum) bool
	// MemoryFull is true once GPU memory has filled to capacity (it never
	// becomes false again; capacity is managed by eviction from then on).
	MemoryFull bool
}

// Prefetcher plans the page set migrated on a far fault and observes
// migration/eviction traffic for its internal state.
type Prefetcher interface {
	// Name returns a short identifier ("locality", "pattern-s2", ...).
	Name() string
	// Plan appends the pages to migrate for a fault on page p to dst and
	// returns the extended slice, like strconv.AppendInt. The elements
	// already in dst are left untouched; the appended pages always contain
	// p, contain no resident pages, and are in ascending page order. The
	// driver passes a reused buffer, so Plan must not retain dst or the
	// result.
	Plan(dst []memdef.PageNum, p memdef.PageNum, ctx Context) []memdef.PageNum
	// OnMigrate informs the prefetcher that pages became resident.
	OnMigrate(pages []memdef.PageNum)
	// OnEvict informs the prefetcher that chunk c was evicted; touched is
	// the bit vector of pages that were touched while resident, and untouch
	// is the count of migrated-but-untouched pages.
	OnEvict(c memdef.ChunkID, touched memdef.PageBitmap, untouch int)
}

// chunkPages appends the non-resident pages of p's chunk to dst in ascending
// order — the 64 KiB basic-block migration set used by the locality
// prefetcher.
func chunkPages(dst []memdef.PageNum, p memdef.PageNum, resident func(memdef.PageNum) bool) []memdef.PageNum {
	c := p.Chunk()
	for i := 0; i < memdef.ChunkPages; i++ {
		q := c.Page(i)
		if q == p || !resident(q) {
			dst = append(dst, q)
		}
	}
	return dst
}

// Locality is the sequential-local prefetcher [9]: every fault migrates the
// whole 64 KiB chunk around the faulted page, memory pressure or not. This is
// the prefetch half of the paper's baseline.
type Locality struct{}

// NewLocality returns the locality prefetcher.
func NewLocality() *Locality { return &Locality{} }

// Name implements Prefetcher.
func (*Locality) Name() string { return "locality" }

// Plan appends all non-resident pages of the faulted chunk.
func (*Locality) Plan(dst []memdef.PageNum, p memdef.PageNum, ctx Context) []memdef.PageNum {
	return chunkPages(dst, p, ctx.Resident)
}

// OnMigrate implements Prefetcher (stateless).
func (*Locality) OnMigrate(pages []memdef.PageNum) {}

// OnEvict implements Prefetcher (stateless).
func (*Locality) OnEvict(c memdef.ChunkID, touched memdef.PageBitmap, untouch int) {}

// DisableOnFull prefetches like Locality until GPU memory fills, then
// migrates only the faulted page (Li et al. [11]'s software fallback, the
// paper's Fig. 10 comparison point).
type DisableOnFull struct{}

// NewDisableOnFull returns the disable-on-full prefetcher.
func NewDisableOnFull() *DisableOnFull { return &DisableOnFull{} }

// Name implements Prefetcher.
func (*DisableOnFull) Name() string { return "disable-on-full" }

// Plan appends the chunk before memory fills, the single page after.
func (*DisableOnFull) Plan(dst []memdef.PageNum, p memdef.PageNum, ctx Context) []memdef.PageNum {
	if ctx.MemoryFull {
		return append(dst, p)
	}
	return chunkPages(dst, p, ctx.Resident)
}

// OnMigrate implements Prefetcher (stateless).
func (*DisableOnFull) OnMigrate(pages []memdef.PageNum) {}

// OnEvict implements Prefetcher (stateless).
func (*DisableOnFull) OnEvict(c memdef.ChunkID, touched memdef.PageBitmap, untouch int) {}

// None disables prefetching entirely: one page per fault. Used by the HPE
// ablation (HPE was designed for GPUs without prefetch support).
type None struct{}

// NewNone returns the no-prefetch policy.
func NewNone() *None { return &None{} }

// Name implements Prefetcher.
func (*None) Name() string { return "none" }

// Plan appends only the faulted page.
func (*None) Plan(dst []memdef.PageNum, p memdef.PageNum, ctx Context) []memdef.PageNum {
	return append(dst, p)
}

// OnMigrate implements Prefetcher (stateless).
func (*None) OnMigrate(pages []memdef.PageNum) {}

// OnEvict implements Prefetcher (stateless).
func (*None) OnEvict(c memdef.ChunkID, touched memdef.PageBitmap, untouch int) {}
