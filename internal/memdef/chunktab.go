package memdef

import "slices"

// FarChunks is the number of consecutive chunks one far block of a
// ChunkTable covers.
const FarChunks = 64

// minDense is the first length of a ChunkTable's dense part when it grows
// from empty.
const minDense = 256

// ChunkTable maps chunk IDs to values of T; the zero T stands for no value.
// Chunks below its dense limit are indexed directly, in a table that grows
// by doubling up to the limit. Chunks at or past the limit are kept in
// blocks of FarChunks consecutive chunks, sorted by base and found by binary
// search, so a widely scattered set of chunks costs memory by the chunks it
// holds rather than by the span it covers. Storing or clearing a chunk moves
// no entry: a block is added when the first chunk in it gets a value and
// dropped, kept for reuse, when the last one loses it.
//
// The zero ChunkTable holds nothing and keeps every chunk in far blocks.
type ChunkTable[T comparable] struct {
	dense []T
	// limit bounds the chunks dense may index; dense grows toward it.
	limit ChunkID
	far   []*chunkBlock[T]
	// spare holds dropped blocks, zeroed, for the next block added.
	spare []*chunkBlock[T]
}

// chunkBlock holds the values of FarChunks consecutive chunks from base, a
// multiple of FarChunks; live counts the non-zero ones.
type chunkBlock[T comparable] struct {
	base ChunkID
	live int
	v    [FarChunks]T
}

// Reset empties t, keeping its storage. From then on t indexes the chunks
// below limit directly: its dense table covers the first size of them at
// once and doubles, up to limit, as higher chunks get values.
func (t *ChunkTable[T]) Reset(size, limit int) {
	clear(t.dense)
	if size > cap(t.dense) {
		t.dense = make([]T, size)
	}
	t.dense = t.dense[:size]
	t.limit = ChunkID(limit)
	for _, b := range t.far {
		*b = chunkBlock[T]{}
		t.spare = append(t.spare, b)
	}
	clear(t.far)
	t.far = t.far[:0]
}

// Get returns chunk c's value, or the zero T.
func (t *ChunkTable[T]) Get(c ChunkID) T {
	if c < ChunkID(len(t.dense)) {
		return t.dense[c]
	}
	return t.getFar(c)
}

func (t *ChunkTable[T]) getFar(c ChunkID) T {
	if i, ok := t.block(c); ok {
		return t.far[i].v[c%FarChunks]
	}
	var zero T
	return zero
}

// Set makes v chunk c's value; the zero T removes it.
func (t *ChunkTable[T]) Set(c ChunkID, v T) {
	if c < ChunkID(len(t.dense)) {
		t.dense[c] = v
		return
	}
	if c < t.limit {
		var zero T
		if v == zero {
			return // past the dense part, so c holds nothing
		}
		t.grow(c)
		t.dense[c] = v
		return
	}
	t.setFar(c, v)
}

// grow extends the dense table over chunk c, below the limit.
func (t *ChunkTable[T]) grow(c ChunkID) {
	n := min(max(2*len(t.dense), int(c)+1, minDense), int(t.limit))
	if n > cap(t.dense) {
		dense := make([]T, n)
		copy(dense, t.dense)
		t.dense = dense
	}
	t.dense = t.dense[:n]
}

func (t *ChunkTable[T]) setFar(c ChunkID, v T) {
	var zero T
	i, ok := t.block(c)
	if !ok {
		if v == zero {
			return
		}
		var b *chunkBlock[T]
		if n := len(t.spare); n > 0 {
			b, t.spare = t.spare[n-1], t.spare[:n-1]
		} else {
			b = new(chunkBlock[T])
		}
		b.base = c - c%FarChunks
		t.far = slices.Insert(t.far, i, b)
	}
	b := t.far[i]
	slot := &b.v[c%FarChunks]
	switch {
	case *slot == zero && v != zero:
		b.live++
	case *slot != zero && v == zero:
		b.live--
	}
	*slot = v
	if b.live == 0 {
		t.far = slices.Delete(t.far, i, i+1)
		t.spare = append(t.spare, b)
	}
}

// block returns the position in far of the block covering chunk c, and
// whether that block exists (else the position where it belongs).
func (t *ChunkTable[T]) block(c ChunkID) (int, bool) {
	base := c - c%FarChunks
	lo, hi := 0, len(t.far)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.far[mid].base < base {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(t.far) && t.far[lo].base == base
}

// Each calls fn for every chunk with a value, in ascending chunk order,
// until fn returns false.
func (t *ChunkTable[T]) Each(fn func(ChunkID, T) bool) {
	var zero T
	for c, v := range t.dense {
		if v != zero && !fn(ChunkID(c), v) {
			return
		}
	}
	for _, b := range t.far {
		for i, v := range b.v {
			if v != zero && !fn(b.base+ChunkID(i), v) {
				return
			}
		}
	}
}

// End returns a chunk ID above every chunk with a value: the end of the
// last far block, or else of the dense table.
func (t *ChunkTable[T]) End() ChunkID {
	if n := len(t.far); n > 0 {
		return t.far[n-1].base + FarChunks
	}
	return ChunkID(len(t.dense))
}

// Dense returns the directly indexed part of t, for inspection: chunk c's
// value is at index c.
func (t *ChunkTable[T]) Dense() []T { return t.dense }

// Blocks returns the number of far blocks t holds.
func (t *ChunkTable[T]) Blocks() int { return len(t.far) }
