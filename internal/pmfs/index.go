package pmfs

import (
	"encoding/binary"

	"hinfs/internal/journal"
)

// The per-file block index is a B-tree of 512-ary index blocks, as in PMFS.
// A file of height 0 stores its single data block number directly in the
// inode root pointer; height h > 0 means the root is an index block whose
// children each cover 512^(h-1) blocks.

// capBlocks returns the number of data blocks addressable at height h.
func capBlocks(h byte) int64 {
	c := int64(1)
	for i := byte(0); i < h; i++ {
		c *= ptrsPerBlock
	}
	return c
}

// heightFor returns the minimum tree height addressing block index idx.
func heightFor(idx int64) byte {
	h := byte(0)
	for capBlocks(h) <= idx {
		h++
	}
	return h
}

// readPtr reads pointer slot of index block bn.
func (fs *FS) readPtr(bn int64, slot int64) int64 {
	var b [8]byte
	fs.dev.Read(b[:], blockAddr(bn)+slot*8)
	return int64(binary.LittleEndian.Uint64(b[:]))
}

// writePtr journals and updates pointer slot of index block bn.
func (fs *FS) writePtr(tx *journal.Tx, bn int64, slot int64, val int64) {
	addr := blockAddr(bn) + slot*8
	tx.LogRange(addr, 8)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(val))
	fs.dev.Write(b[:], addr)
	fs.dev.Flush(addr, 8)
}

// zeroBlock clears a freshly allocated block and flushes the zeroes. The
// flush is required for crash consistency, not just hygiene: the allocator
// reuses freed blocks (its per-shard hints rewind toward freed ranges), so a
// fresh block may carry stale bytes from its previous life. Index blocks,
// directory blocks and the unwritten tail of data blocks are all assumed to
// read as zero once the allocating transaction commits — if the zeroes were
// left as plain stores, a crash after the commit record could resurrect the
// stale content (e.g. garbage tree pointers).
func (fs *FS) zeroBlock(bn int64) {
	fs.dev.Write(fs.zero[:], blockAddr(bn))
	fs.dev.Flush(blockAddr(bn), BlockSize)
}

// treeLookup returns the block number holding file block idx, or 0 if the
// block is a hole.
func (fs *FS) treeLookup(rec inodeRec, idx int64) int64 {
	if rec.Root == 0 || idx >= capBlocks(rec.Height) {
		return 0
	}
	bn := rec.Root
	for h := rec.Height; h > 0; h-- {
		sub := capBlocks(h - 1)
		slot := idx / sub
		idx %= sub
		bn = fs.readPtr(bn, slot)
		if bn == 0 {
			return 0
		}
	}
	return bn
}

// treeEnsure makes file block idx exist, growing the tree and allocating
// index/data blocks as needed. It updates rec in place (caller persists the
// inode record once per operation) and returns the data block number.
func (fs *FS) treeEnsure(tx *journal.Tx, rec *inodeRec, idx int64) (bn int64, created bool, err error) {
	// Grow the tree until idx is addressable.
	for idx >= capBlocks(rec.Height) {
		if rec.Root == 0 {
			rec.Height = heightFor(idx)
			break
		}
		newRoot, err := fs.alloc.alloc(tx, 1)
		if err != nil {
			return 0, false, err
		}
		fs.zeroBlock(newRoot[0])
		fs.writePtr(tx, newRoot[0], 0, rec.Root)
		rec.Root = newRoot[0]
		rec.Height++
	}
	if rec.Root == 0 {
		// Empty file: allocate the root path directly.
		blocks, err := fs.alloc.alloc(tx, 1)
		if err != nil {
			return 0, false, err
		}
		if rec.Height == 0 {
			fs.zeroBlock(blocks[0])
			rec.Root = blocks[0]
			rec.Blocks++
			return blocks[0], true, nil
		}
		fs.zeroBlock(blocks[0])
		rec.Root = blocks[0]
	}
	// Walk down, filling missing interior blocks.
	cur := rec.Root
	for h := rec.Height; h > 0; h-- {
		sub := capBlocks(h - 1)
		slot := idx / sub
		idx %= sub
		child := fs.readPtr(cur, slot)
		if child == 0 {
			blocks, err := fs.alloc.alloc(tx, 1)
			if err != nil {
				return 0, false, err
			}
			child = blocks[0]
			fs.zeroBlock(child)
			fs.writePtr(tx, cur, slot, child)
			if h == 1 {
				created = true
				rec.Blocks++
			}
		}
		cur = child
	}
	return cur, created, nil
}

// walkToLeaf ensures the interior path for file block idx exists and
// returns the leaf index block covering it plus the first file block index
// that leaf covers. Height must be >= 1 and idx addressable.
func (fs *FS) walkToLeaf(tx *journal.Tx, rec *inodeRec, idx int64) (leafBn, leafBase int64, err error) {
	cur := rec.Root
	base := int64(0)
	for h := rec.Height; h > 1; h-- {
		sub := capBlocks(h - 1)
		slot := (idx - base) / sub
		child := fs.readPtr(cur, slot)
		if child == 0 {
			blocks, err := fs.alloc.alloc(tx, 1)
			if err != nil {
				return 0, 0, err
			}
			child = blocks[0]
			fs.zeroBlock(child)
			fs.writePtr(tx, cur, slot, child)
		}
		base += slot * sub
		cur = child
	}
	return cur, base, nil
}

// treeEnsureRange makes file blocks [first, first+count) exist, batching
// allocation and journaling per leaf index block: the bitmap is journaled
// per word and a leaf's pointer slots are journaled as one range, so the
// per-write journal traffic is proportional to extents, not blocks (as in
// PMFS's extent-style allocation). It appends the resolved extents to dst
// and updates rec in place.
func (fs *FS) treeEnsureRange(tx *journal.Tx, rec *inodeRec, first, count int64, dst []Extent) ([]Extent, error) {
	if count <= 0 {
		return dst, nil
	}
	last := first + count - 1
	// Grow the tree until the whole range is addressable.
	for last >= capBlocks(rec.Height) {
		if rec.Root == 0 {
			rec.Height = heightFor(last)
			break
		}
		newRoot, err := fs.alloc.alloc(tx, 1)
		if err != nil {
			return dst, err
		}
		fs.zeroBlock(newRoot[0])
		fs.writePtr(tx, newRoot[0], 0, rec.Root)
		rec.Root = newRoot[0]
		rec.Height++
	}
	// Height 0: single-block file, root is the data block.
	if rec.Height == 0 {
		if rec.Root == 0 {
			blocks, err := fs.alloc.alloc(tx, 1)
			if err != nil {
				return dst, err
			}
			fs.zeroBlock(blocks[0])
			rec.Root = blocks[0]
			rec.Blocks++
			return append(dst, Extent{Index: 0, Addr: blockAddr(blocks[0]), Created: true}), nil
		}
		return append(dst, Extent{Index: 0, Addr: blockAddr(rec.Root)}), nil
	}
	if rec.Root == 0 {
		blocks, err := fs.alloc.alloc(tx, 1)
		if err != nil {
			return dst, err
		}
		fs.zeroBlock(blocks[0])
		rec.Root = blocks[0]
	}
	idx := first
	for idx <= last {
		leafBn, leafBase, err := fs.walkToLeaf(tx, rec, idx)
		if err != nil {
			return dst, err
		}
		batchEnd := leafBase + ptrsPerBlock
		if batchEnd > last+1 {
			batchEnd = last + 1
		}
		startSlot := idx - leafBase
		endSlot := batchEnd - leafBase // exclusive
		// Read existing pointers and find the missing ones.
		var miss []int64
		var pbuf [16]int64 // a write of up to 64 KiB stays off the heap
		ptrs := pbuf[:]
		if n := endSlot - startSlot; n <= int64(len(pbuf)) {
			ptrs = ptrs[:n]
		} else {
			ptrs = make([]int64, n)
		}
		for s := startSlot; s < endSlot; s++ {
			ptrs[s-startSlot] = fs.readPtr(leafBn, s)
			if ptrs[s-startSlot] == 0 {
				miss = append(miss, s)
			}
		}
		if len(miss) > 0 {
			blocks, err := fs.alloc.alloc(tx, len(miss))
			if err != nil {
				return dst, err
			}
			// Journal the touched slot span once, then write the slots.
			spanAddr := blockAddr(leafBn) + miss[0]*8
			spanLen := int((miss[len(miss)-1] - miss[0] + 1) * 8)
			tx.LogRange(spanAddr, spanLen)
			var b [8]byte
			for i, s := range miss {
				fs.zeroBlock(blocks[i])
				ptrs[s-startSlot] = blocks[i]
				binary.LittleEndian.PutUint64(b[:], uint64(blocks[i]))
				fs.dev.Write(b[:], blockAddr(leafBn)+s*8)
			}
			fs.dev.Flush(spanAddr, spanLen)
			fs.dev.Fence()
			rec.Blocks += int64(len(miss))
		}
		mi := 0
		for s := startSlot; s < endSlot; s++ {
			created := mi < len(miss) && miss[mi] == s
			if created {
				mi++
			}
			dst = append(dst, Extent{
				Index:   leafBase + s,
				Addr:    blockAddr(ptrs[s-startSlot]),
				Created: created,
			})
		}
		idx = batchEnd
	}
	return dst, nil
}

// treeFreeFrom frees all data blocks with index >= from, plus any index
// blocks left with no children, updating rec in place. from = 0 tears down
// the whole tree.
func (fs *FS) treeFreeFrom(tx *journal.Tx, rec *inodeRec, from int64) {
	if rec.Root == 0 {
		return
	}
	var freed []int64
	empty := fs.freeWalk(tx, &freed, rec.Root, rec.Height, 0, from, rec)
	if empty {
		rec.Root = 0
		rec.Height = 0
	}
	fs.alloc.release(tx, freed)
}

// freeWalk recursively frees blocks under bn (covering file blocks starting
// at base, at the given height) whose index >= from. It reports whether bn
// itself was freed.
func (fs *FS) freeWalk(tx *journal.Tx, freed *[]int64, bn int64, height byte, base, from int64, rec *inodeRec) bool {
	if height == 0 {
		if base >= from {
			*freed = append(*freed, bn)
			rec.Blocks--
			return true
		}
		return false
	}
	sub := capBlocks(height - 1)
	anyLeft := false
	for slot := int64(0); slot < ptrsPerBlock; slot++ {
		child := fs.readPtr(bn, slot)
		if child == 0 {
			continue
		}
		childBase := base + slot*sub
		if childBase+sub <= from {
			anyLeft = true
			continue // entirely below the cut
		}
		if fs.freeWalk(tx, freed, child, height-1, childBase, from, rec) {
			fs.writePtr(tx, bn, slot, 0)
		} else {
			anyLeft = true
		}
	}
	if !anyLeft {
		*freed = append(*freed, bn)
		return true
	}
	return false
}
