// Package cacheline provides cacheline-granularity primitives used by the
// HiNFS DRAM write buffer and the direct-read path.
//
// HiNFS manages its 4 KB DRAM buffer blocks at the granularity of processor
// cachelines (64 B). Each block therefore carries a 64-bit Bitmap in which
// bit P set means "cacheline P of this block holds data" (valid bitmap) or
// "cacheline P is dirty" (dirty bitmap), depending on use. The Cacheline
// Level Fetch/Writeback scheme (CLFW, paper §3.2.1) and the read-consistency
// merge (paper §3.3.1) both iterate runs of consecutive equal bits so that a
// single memcpy covers each run.
package cacheline

import "math/bits"

const (
	// Size is the size of one processor cacheline in bytes.
	Size = 64
	// BlockSize is the file-system block size in bytes.
	BlockSize = 4096
	// PerBlock is the number of cachelines in one block.
	PerBlock = BlockSize / Size
)

// Bitmap tracks one bit per cacheline of a 4 KB block. The zero value has
// no bits set.
type Bitmap uint64

// Full is a bitmap with every cacheline bit set.
const Full Bitmap = ^Bitmap(0)

// Set sets the bit for cacheline i.
func (b *Bitmap) Set(i int) { *b |= 1 << uint(i) }

// Clear clears the bit for cacheline i.
func (b *Bitmap) Clear(i int) { *b &^= 1 << uint(i) }

// Test reports whether the bit for cacheline i is set.
func (b Bitmap) Test(i int) bool { return b&(1<<uint(i)) != 0 }

// Count returns the number of set bits.
func (b Bitmap) Count() int { return bits.OnesCount64(uint64(b)) }

// Any reports whether any bit is set.
func (b Bitmap) Any() bool { return b != 0 }

// SetRange sets the bits for every cacheline overlapping the byte range
// [off, off+n) within the block. It panics if the range exceeds the block.
func (b *Bitmap) SetRange(off, n int) {
	*b |= RangeMask(off, n)
}

// RangeMask returns a bitmap with the bits set for every cacheline
// overlapping the byte range [off, off+n) within a block.
func RangeMask(off, n int) Bitmap {
	if n <= 0 {
		return 0
	}
	if off < 0 || off+n > BlockSize {
		panic("cacheline: range out of block bounds")
	}
	first := off / Size
	last := (off + n - 1) / Size
	width := last - first + 1
	if width >= 64 {
		return Full
	}
	return Bitmap((uint64(1)<<uint(width) - 1) << uint(first))
}

// Run is a maximal run of consecutive cachelines whose bits share one value.
type Run struct {
	// Off is the byte offset of the run within the block.
	Off int
	// Len is the byte length of the run.
	Len int
	// Set reports the common bit value of the run.
	Set bool
}

// Runs appends to dst the maximal runs of consecutive equal bits covering
// cachelines [firstLine, lastLine] and returns the extended slice. Callers
// use it to issue one copy per run rather than one per cacheline.
func (b Bitmap) Runs(dst []Run, firstLine, lastLine int) []Run {
	if firstLine < 0 || lastLine >= PerBlock || firstLine > lastLine {
		panic("cacheline: run bounds out of range")
	}
	i := firstLine
	for i <= lastLine {
		v := b.Test(i)
		j := i + 1
		for j <= lastLine && b.Test(j) == v {
			j++
		}
		dst = append(dst, Run{Off: i * Size, Len: (j - i) * Size, Set: v})
		i = j
	}
	return dst
}

// LinesCovering returns the first and last cacheline indices overlapping the
// byte range [off, off+n) within a block. n must be positive.
func LinesCovering(off, n int) (first, last int) {
	if n <= 0 || off < 0 || off+n > BlockSize {
		panic("cacheline: bad byte range")
	}
	return off / Size, (off + n - 1) / Size
}

// LineCount returns the number of cachelines needed to cover n bytes
// starting at byte offset off within a block-aligned region.
func LineCount(off int64, n int) int {
	if n <= 0 {
		return 0
	}
	first := off / Size
	last := (off + int64(n) - 1) / Size
	return int(last - first + 1)
}
