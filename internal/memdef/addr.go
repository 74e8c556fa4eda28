// Package memdef holds the shared address/page/chunk vocabulary and the
// Table-I system configuration used by every other simulator package.
//
// The unit conventions are fixed across the repository:
//
//   - addresses are 64-bit virtual byte addresses (only the low 48 bits are
//     meaningful, matching a 4-level x86-64-style page table),
//   - a page is 4 KiB,
//   - a chunk (NVIDIA "64KB basic block") is 16 contiguous pages,
//   - time is measured in GPU core cycles at the configured core clock.
package memdef

import "fmt"

// Architectural constants fixed by the paper's methodology (Section V).
const (
	// PageShift is log2 of the OS page size (4 KiB pages).
	PageShift = 12
	// PageBytes is the OS page size in bytes.
	PageBytes = 1 << PageShift
	// ChunkShift is log2 of the number of pages per chunk.
	ChunkShift = 4
	// ChunkPages is the number of contiguous virtual pages in one chunk
	// (a 64 KiB "basic block", NVIDIA driver terminology).
	ChunkPages = 1 << ChunkShift
	// ChunkBytes is the chunk size in bytes (64 KiB).
	ChunkBytes = PageBytes * ChunkPages
	// VABits is the meaningful virtual-address width (4-level page table).
	VABits = 48
)

// VirtAddr is a virtual byte address in the unified CPU/GPU address space.
type VirtAddr uint64

// PageNum is a virtual page number (VirtAddr >> PageShift).
type PageNum uint64

// ChunkID identifies a chunk of ChunkPages contiguous virtual pages
// (PageNum >> ChunkShift).
type ChunkID uint64

// Cycle is a point in simulated time, in GPU core cycles.
type Cycle uint64

// Page returns the virtual page containing a.
func (a VirtAddr) Page() PageNum { return PageNum(a >> PageShift) }

// Chunk returns the chunk containing a.
func (a VirtAddr) Chunk() ChunkID { return ChunkID(a >> (PageShift + ChunkShift)) }

// Offset returns the byte offset of a within its page.
func (a VirtAddr) Offset() uint64 { return uint64(a) & (PageBytes - 1) }

// Addr returns the base virtual address of page p.
func (p PageNum) Addr() VirtAddr { return VirtAddr(p) << PageShift }

// Chunk returns the chunk containing page p.
func (p PageNum) Chunk() ChunkID { return ChunkID(p >> ChunkShift) }

// Index returns the position of page p within its chunk (0..ChunkPages-1).
func (p PageNum) Index() int { return int(p & (ChunkPages - 1)) }

// FirstPage returns the first page of chunk c.
func (c ChunkID) FirstPage() PageNum { return PageNum(c) << ChunkShift }

// Page returns the i-th page of chunk c (0 <= i < ChunkPages).
func (c ChunkID) Page(i int) PageNum { return PageNum(c)<<ChunkShift + PageNum(i) }

// Addr returns the base virtual address of chunk c.
func (c ChunkID) Addr() VirtAddr { return VirtAddr(c) << (PageShift + ChunkShift) }

func (a VirtAddr) String() string { return fmt.Sprintf("va:%#x", uint64(a)) }
func (p PageNum) String() string  { return fmt.Sprintf("pg:%#x", uint64(p)) }
func (c ChunkID) String() string  { return fmt.Sprintf("ck:%#x", uint64(c)) }

// PageBitmap is a 16-bit per-page bitmap over one chunk. It is used both for
// residency masks and for the touch/untouch vectors kept by the eviction
// policies and the pattern buffer. Bit i corresponds to chunk page index i.
type PageBitmap uint16

// FullBitmap has every page bit set.
const FullBitmap PageBitmap = 1<<ChunkPages - 1

// Set returns b with page index i set.
func (b PageBitmap) Set(i int) PageBitmap { return b | 1<<uint(i) }

// Clear returns b with page index i cleared.
func (b PageBitmap) Clear(i int) PageBitmap { return b &^ (1 << uint(i)) }

// Has reports whether page index i is set.
func (b PageBitmap) Has(i int) bool { return b&(1<<uint(i)) != 0 }

// Count returns the number of set bits (popcount).
func (b PageBitmap) Count() int {
	// 16-bit popcount via nibble folding; avoids importing math/bits in the
	// many hot paths that only need a handful of instructions.
	v := uint32(b)
	v = v - ((v >> 1) & 0x5555)
	v = (v & 0x3333) + ((v >> 2) & 0x3333)
	v = (v + (v >> 4)) & 0x0f0f
	return int((v + (v >> 8)) & 0x1f)
}

func (b PageBitmap) String() string {
	buf := make([]byte, ChunkPages)
	for i := 0; i < ChunkPages; i++ {
		if b.Has(i) {
			buf[ChunkPages-1-i] = '1'
		} else {
			buf[ChunkPages-1-i] = '0'
		}
	}
	return string(buf)
}
