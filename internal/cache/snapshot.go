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
	w.PutU64(uint64(len(c.tags)))
	// The lines are most of a checkpoint: reserve their section once and
	// write the records in one loop.
	if sec := w.Reserve(lineBytes * len(c.tags)); sec != nil {
		for i := range c.tags {
			sec = sec.PutU64(c.tags[i]).
				PutBool(c.flags[i]&lineValid != 0).
				PutBool(c.flags[i]&lineDirty != 0).
				PutU64(c.lru[i])
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
	if n != len(c.tags) {
		r.Failf("cache %s: %d lines in checkpoint, %d configured", c.name, n, len(c.tags))
		return
	}
	for i := range c.tags {
		c.tags[i] = r.GetU64()
		var f uint8
		if r.GetBool() {
			f |= lineValid
		}
		if r.GetBool() {
			f |= lineDirty
		}
		c.flags[i] = f
		c.lru[i] = r.GetU64()
	}
	c.tick = r.GetU64()
	c.hits = r.GetU64()
	c.misses = r.GetU64()
	c.evictions = r.GetU64()
	c.writebacks = r.GetU64()
}
