package cache

import (
	"github.com/reproductions/cppe/internal/snapshot"
)

// lineBytes is the encoded size of one line: tag, valid, dirty, lru.
const lineBytes = 8 + 1 + 1 + 8

// Encode writes the complete tag-store state: every line (tag, valid, dirty,
// lru), the LRU tick, and the counters. Geometry is rebuilt from
// configuration on restore; Decode rejects a line-count mismatch.
func (c *Cache) Encode(w *snapshot.Writer) {
	w.Mark("CACH")
	w.PutU64(uint64(len(c.lines)))
	// The lines are most of a checkpoint: reserve their section once and
	// write the records in one loop.
	if sec := w.Reserve(lineBytes * len(c.lines)); sec != nil {
		for _, l := range c.lines {
			sec = sec.PutU64(l.key >> 2).
				PutBool(l.key&lineValid != 0).
				PutBool(l.key&lineDirty != 0).
				PutU64(l.lru)
		}
	}
	w.PutU64(c.tick)
	w.PutU64(c.hits)
	w.PutU64(c.misses)
	w.PutU64(c.evictions)
	w.PutU64(c.writebacks)
}

// Decode restores the state written by Encode into a geometry-identical
// cache.
func (c *Cache) Decode(r *snapshot.Reader) {
	r.ExpectMark("CACH")
	n := r.GetCount(lineBytes)
	if r.Err() != nil {
		return
	}
	if n != len(c.lines) {
		r.Failf("cache %s: %d lines in checkpoint, %d configured", c.name, n, len(c.lines))
		return
	}
	for i := range c.lines {
		tag := r.GetU64()
		if tag > ^uint64(0)>>2 {
			r.Failf("cache %s: line %d tag %#x out of range", c.name, i, tag)
			return
		}
		key := tag << 2
		if r.GetBool() {
			key |= lineValid
		}
		if r.GetBool() {
			key |= lineDirty
		}
		c.lines[i] = line{key: key, lru: r.GetU64()}
	}
	c.tick = r.GetU64()
	c.hits = r.GetU64()
	c.misses = r.GetU64()
	c.evictions = r.GetU64()
	c.writebacks = r.GetU64()
}
