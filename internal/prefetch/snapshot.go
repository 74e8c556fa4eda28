package prefetch

import (
	"sort"

	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/snapshot"
)

// Snapshotter is the checkpoint interface every repository prefetcher
// implements: EncodeState writes the prefetcher's complete mutable state,
// DecodeState restores it into a freshly constructed prefetcher of the same
// configuration. The stateless prefetchers still implement it (with a bare
// section mark) so a checkpoint detects a prefetcher-kind mismatch.
type Snapshotter interface {
	EncodeState(w *snapshot.Writer)
	DecodeState(r *snapshot.Reader)
}

// EncodeState implements Snapshotter (stateless).
func (*Locality) EncodeState(w *snapshot.Writer) { w.Mark("FLOC") }

// DecodeState implements Snapshotter (stateless).
func (*Locality) DecodeState(r *snapshot.Reader) { r.ExpectMark("FLOC") }

// EncodeState implements Snapshotter (stateless).
func (*DisableOnFull) EncodeState(w *snapshot.Writer) { w.Mark("FDOF") }

// DecodeState implements Snapshotter (stateless).
func (*DisableOnFull) DecodeState(r *snapshot.Reader) { r.ExpectMark("FDOF") }

// EncodeState implements Snapshotter (stateless).
func (*None) EncodeState(w *snapshot.Writer) { w.Mark("FNON") }

// DecodeState implements Snapshotter (stateless).
func (*None) DecodeState(r *snapshot.Reader) { r.ExpectMark("FNON") }

// EncodeState implements Snapshotter.
func (t *Tree) EncodeState(w *snapshot.Writer) {
	w.Mark("FTRE")
	keys := make([]memdef.ChunkID, 0, len(t.fetched))
	//cppelint:ordered keys are sorted before encoding
	for c := range t.fetched {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.PutInt(len(keys))
	for _, c := range keys {
		w.PutU64(uint64(c))
	}
}

// DecodeState implements Snapshotter.
func (t *Tree) DecodeState(r *snapshot.Reader) {
	r.ExpectMark("FTRE")
	n := r.GetCount(8)
	for i := 0; i < n; i++ {
		t.fetched[memdef.ChunkID(r.GetU64())] = true
	}
}

// EncodeState implements Snapshotter. The deletion scheme and recording
// threshold are construction configuration, written only as a cross-check.
func (pf *Pattern) EncodeState(w *snapshot.Writer) {
	w.Mark("FPAT")
	w.PutInt(int(pf.scheme))
	w.PutInt(pf.minUntouch)
	keys := make([]memdef.ChunkID, 0, len(pf.buf))
	//cppelint:ordered keys are sorted before encoding
	for c := range pf.buf {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.PutInt(len(keys))
	for _, c := range keys {
		e := pf.buf[c]
		w.PutU64(uint64(c))
		w.PutU16(uint16(e.touched))
		w.PutBool(e.matchedOnce)
	}
	w.PutU64(pf.stats.Recorded)
	w.PutU64(pf.stats.Hits)
	w.PutU64(pf.stats.Matches)
	w.PutU64(pf.stats.Mismatches)
	w.PutU64(pf.stats.Deletions)
	w.PutInt(pf.stats.PeakLen)
}

// DecodeState implements Snapshotter.
func (pf *Pattern) DecodeState(r *snapshot.Reader) {
	r.ExpectMark("FPAT")
	if s := r.GetInt(); r.Err() == nil && s != int(pf.scheme) {
		r.Failf("prefetch: deletion scheme %d in checkpoint, %d configured", s, int(pf.scheme))
		return
	}
	if mu := r.GetInt(); r.Err() == nil && mu != pf.minUntouch {
		r.Failf("prefetch: min-untouch %d in checkpoint, %d configured", mu, pf.minUntouch)
		return
	}
	n := r.GetCount(11)
	for i := 0; i < n; i++ {
		c := memdef.ChunkID(r.GetU64())
		e := patternEntry{touched: memdef.PageBitmap(r.GetU16()), matchedOnce: r.GetBool()}
		if r.Err() != nil {
			return
		}
		pf.buf[c] = e
	}
	pf.stats.Recorded = r.GetU64()
	pf.stats.Hits = r.GetU64()
	pf.stats.Matches = r.GetU64()
	pf.stats.Mismatches = r.GetU64()
	pf.stats.Deletions = r.GetU64()
	pf.stats.PeakLen = r.GetInt()
}
