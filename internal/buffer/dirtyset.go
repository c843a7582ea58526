package buffer

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
)

// dirtySet is a FileBuf's ordered set of file-block indices that may hold
// dirty cachelines — what fsync has to visit, instead of every block the
// file has buffered.
//
// Invariant: every block installed in the file whose dirty map is non-zero
// is a member. The set may be a superset (a member whose block was cleaned
// or evicted between a snapshot and its visit costs Flush one failed
// lookupPin), never a subset. Members are added before a dirty map leaves
// zero and removed after it returns to zero, both under the block's flush
// mutex, or under the shard mutex at the detach that discards a dirty block.
//
// It is a sorted slice of 64-block words, the block-level twin of the
// per-block cacheline bitmap: a sequentially written file costs one word
// per 256 KiB, and an ascending flush removes from the front one word — not
// one index — at a time. mu is a leaf lock (taken under a block's flush
// mutex or a shard mutex, never the reverse).
type dirtySet struct {
	mu    sync.Mutex
	words []dirtyWord // ascending base; no word is empty
}

// dirtyWord covers file blocks [base*64, base*64+64).
type dirtyWord struct {
	base int64
	bits uint64
}

// find returns the position of base's word, or where it would be inserted.
func (s *dirtySet) find(base int64) (int, bool) {
	return slices.BinarySearchFunc(s.words, base, func(w dirtyWord, b int64) int {
		return cmp.Compare(w.base, b)
	})
}

func (s *dirtySet) add(idx int64) {
	base, bit := idx>>6, uint64(1)<<(uint64(idx)&63)
	s.mu.Lock()
	if i, ok := s.find(base); ok {
		s.words[i].bits |= bit
	} else {
		s.words = slices.Insert(s.words, i, dirtyWord{base, bit})
	}
	s.mu.Unlock()
}

func (s *dirtySet) remove(idx int64) {
	base, bit := idx>>6, uint64(1)<<(uint64(idx)&63)
	s.mu.Lock()
	if i, ok := s.find(base); ok {
		if s.words[i].bits &^= bit; s.words[i].bits == 0 {
			s.words = slices.Delete(s.words, i, i+1)
		}
	}
	s.mu.Unlock()
}

// from copies the members >= next into dst in ascending order and returns
// how many it copied (at most len(dst)).
func (s *dirtySet) from(next int64, dst []int64) int {
	n := 0
	s.mu.Lock()
	i, _ := s.find(next >> 6)
	for ; i < len(s.words) && n < len(dst); i++ {
		w := s.words[i]
		if w.base == next>>6 {
			w.bits &= ^uint64(0) << (uint64(next) & 63)
		}
		for ; w.bits != 0 && n < len(dst); w.bits &= w.bits - 1 {
			dst[n] = w.base<<6 + int64(bits.TrailingZeros64(w.bits))
			n++
		}
	}
	s.mu.Unlock()
	return n
}
