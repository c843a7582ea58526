package pmfs

import (
	"encoding/binary"

	"hinfs/internal/journal"
)

// The per-file block index is a B-tree of 512-ary index blocks, as in PMFS,
// with direct pointers at the bottom. A file of height 0 addresses up to
// directPtrs data blocks from the inode itself — file block 0 through the
// root pointer, blocks 1-3 through the direct words — so a file of at most
// 16 KiB owns no index block. Height h > 0 means the root is an index block
// whose children each cover 512^(h-1) blocks, and the direct words are zero.

// capBlocks returns the number of data blocks a subtree of height h spans.
func capBlocks(h byte) int64 {
	c := int64(1)
	for i := byte(0); i < h; i++ {
		c *= ptrsPerBlock
	}
	return c
}

// addressable returns the number of file blocks an inode of height h
// addresses.
func addressable(h byte) int64 {
	if h == 0 {
		return directPtrs
	}
	return capBlocks(h)
}

// heightFor returns the minimum inode height addressing block index idx.
func heightFor(idx int64) byte {
	h := byte(0)
	for addressable(h) <= idx {
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

// zeroRange clears [addr, addr+n), n <= BlockSize, and flushes the zeroes.
// The flush is required for crash consistency, not just hygiene: the
// allocator reuses freed blocks (its per-shard hints rewind toward freed
// ranges), so a fresh block carries stale bytes from its previous life, and
// every byte of it that the allocating transaction does not overwrite must
// read as zero once that transaction commits — zeroes left as plain stores
// could be lost by a crash after the commit record and resurrect the stale
// content. Callers order the flush before the commit record with a fence.
func (fs *FS) zeroRange(addr int64, n int) {
	fs.dev.Write(fs.zero[:n], addr)
	fs.dev.Flush(addr, n)
}

// zeroBlock clears a whole fresh block. Index and directory blocks (garbage
// tree pointers or dentries otherwise), mmap'ed blocks and blocks a failed
// write leaves behind take it; a data block a write is about to fill is
// zeroed only where a read can see what the write leaves (see zeroEdges).
func (fs *FS) zeroBlock(bn int64) { fs.zeroRange(blockAddr(bn), BlockSize) }

// treeLookup returns the block number holding file block idx, or 0 if the
// block is a hole.
func (fs *FS) treeLookup(rec inodeRec, idx int64) int64 {
	if idx >= addressable(rec.Height) {
		return 0
	}
	if rec.Height == 0 {
		return *rec.ptr(idx)
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

// treeLookupRange appends the extents of file blocks [first, first+count) to
// dst and reports whether every one of them exists; it stops at the first
// hole. It is treeEnsureRange's read-only half — one walk per leaf, nothing
// allocated, nothing journaled — for the write that turns out to need neither.
func (fs *FS) treeLookupRange(rec inodeRec, first, count int64, dst []Extent) ([]Extent, bool) {
	last := first + count - 1
	if last >= addressable(rec.Height) {
		return dst, false
	}
	if rec.Height == 0 {
		for idx := first; idx <= last; idx++ {
			bn := *rec.ptr(idx)
			if bn == 0 {
				return dst, false
			}
			dst = append(dst, Extent{Index: idx, Addr: blockAddr(bn)})
		}
		return dst, true
	}
	if rec.Root == 0 {
		return dst, false
	}
	for idx := first; idx <= last; {
		leaf, base := rec.Root, int64(0)
		for h := rec.Height; h > 1; h-- {
			sub := capBlocks(h - 1)
			slot := (idx - base) / sub
			if leaf = fs.readPtr(leaf, slot); leaf == 0 {
				return dst, false
			}
			base += slot * sub
		}
		for end := min(base+ptrsPerBlock, last+1); idx < end; idx++ {
			bn := fs.readPtr(leaf, idx-base)
			if bn == 0 {
				return dst, false
			}
			dst = append(dst, Extent{Index: idx, Addr: blockAddr(bn)})
		}
	}
	return dst, true
}

// grow makes file block last addressable, updating rec in place. An empty
// inode takes the height it needs at once. Otherwise each step allocates a
// new root index block holding what the inode pointed at — the four direct
// words when a small file outgrows them, the old root above that — and the
// inode's next store publishes it. The block needs no undo image: nothing
// reaches it until that store, whose fence orders its flush.
func (fs *FS) grow(tx *journal.Tx, rec *inodeRec, last int64) error {
	if rec.empty() {
		rec.Height = heightFor(last)
		return nil
	}
	for last >= addressable(rec.Height) {
		ix, err := fs.alloc.allocOne(tx)
		if err != nil {
			return err
		}
		var b [directPtrs * 8]byte
		if rec.Height == 0 {
			for idx := int64(0); idx < directPtrs; idx++ {
				putLE64(b[idx*8:], uint64(*rec.ptr(idx)))
			}
		} else {
			putLE64(b[:], uint64(rec.Root))
		}
		fs.dev.Write(fs.zero[:], blockAddr(ix))
		fs.dev.Write(b[:], blockAddr(ix))
		fs.dev.Flush(blockAddr(ix), BlockSize)
		rec.Root, rec.Direct = ix, [directPtrs - 1]int64{}
		rec.Height++
	}
	return nil
}

// treeEnsure makes file block idx exist, as treeEnsureRange does, and
// zeroes it whole if it allocated it: it is the directory path, and a new
// directory block must read as free slots. It returns the block number.
func (fs *FS) treeEnsure(tx *journal.Tx, rec *inodeRec, idx int64) (bn int64, created bool, err error) {
	var buf [1]Extent
	ext, err := fs.treeEnsureRange(tx, rec, idx, 1, buf[:0])
	if err != nil {
		return 0, false, err
	}
	if ext[0].Created {
		fs.zeroBlock(ext[0].Addr / BlockSize)
	}
	return ext[0].Addr / BlockSize, ext[0].Created, nil
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
			child, err = fs.alloc.allocOne(tx)
			if err != nil {
				return 0, 0, err
			}
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
// and updates rec in place. Index blocks it allocates are zeroed here; data
// blocks come back Created and NOT zeroed — the caller knows which of their
// bytes the write covers and zeroes the rest before tx can commit.
func (fs *FS) treeEnsureRange(tx *journal.Tx, rec *inodeRec, first, count int64, dst []Extent) ([]Extent, error) {
	if count <= 0 {
		return dst, nil
	}
	last := first + count - 1
	if err := fs.grow(tx, rec, last); err != nil {
		return dst, err
	}
	if rec.Height == 0 {
		// Direct pointers: one allocation for the missing blocks, recorded
		// in the inode, which the caller stores.
		missing := 0
		for idx := first; idx <= last; idx++ {
			if *rec.ptr(idx) == 0 {
				missing++
			}
		}
		var bbuf [directPtrs]int64
		blocks, err := fs.alloc.alloc(tx, missing, bbuf[:0])
		if err != nil {
			return dst, err
		}
		for idx := first; idx <= last; idx++ {
			p := rec.ptr(idx)
			created := *p == 0
			if created {
				*p, blocks = blocks[0], blocks[1:]
				rec.Blocks++
			}
			dst = append(dst, Extent{Index: idx, Addr: blockAddr(*p), Created: created})
		}
		return dst, nil
	}
	if rec.Root == 0 {
		bn, err := fs.alloc.allocOne(tx)
		if err != nil {
			return dst, err
		}
		fs.zeroBlock(bn)
		rec.Root = bn
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
		var pbuf, mbuf, bbuf [16]int64 // a write of up to 64 KiB stays off the heap
		ptrs, miss := pbuf[:], mbuf[:0]
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
			blocks, err := fs.alloc.alloc(tx, len(miss), bbuf[:0])
			if err != nil {
				return dst, err
			}
			// Journal the touched slot span once, then write the slots.
			spanAddr := blockAddr(leafBn) + miss[0]*8
			spanLen := int((miss[len(miss)-1] - miss[0] + 1) * 8)
			tx.LogRange(spanAddr, spanLen)
			var b [8]byte
			for i, s := range miss {
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

// treeFreeFrom frees data blocks with index >= from, highest index first,
// plus any index blocks left with no children, updating rec in place. from
// = 0 tears down the whole tree. One call frees at most fs.freeChunk() data
// blocks, which bounds the entries tx logs; it returns
// the lowest file block index it freed and whether blocks >= from remain.
// While more is true the caller commits tx with rec stored — the tree minus
// a tail is a consistent, shorter tree — and calls again with a new
// transaction.
func (fs *FS) treeFreeFrom(tx *journal.Tx, rec *inodeRec, from int64) (cut int64, more bool) {
	if rec.Height == 0 {
		return fs.directFreeFrom(tx, rec, from)
	}
	if rec.Root == 0 {
		return from, false
	}
	w := freeWalk{fs: fs, tx: tx, rec: rec, from: from, budget: fs.freeChunk()}
	if w.walk(rec.Root, rec.Height, 0) {
		rec.Root = 0
		rec.Height = 0
	}
	fs.alloc.release(tx, w.freed)
	return w.cut, w.more
}

// directFreeFrom is treeFreeFrom at height 0: it clears the direct pointers
// of blocks >= from, highest first, within the same chunk budget.
func (fs *FS) directFreeFrom(tx *journal.Tx, rec *inodeRec, from int64) (cut int64, more bool) {
	var buf [directPtrs]int64
	freed, budget := buf[:0], fs.freeChunk()
	cut = from
	for idx := int64(directPtrs - 1); idx >= from; idx-- {
		p := rec.ptr(idx)
		if *p == 0 {
			continue
		}
		if budget == 0 {
			more = true
			break
		}
		budget--
		freed = append(freed, *p)
		*p = 0
		rec.Blocks--
		cut = idx
	}
	fs.alloc.release(tx, freed)
	return cut, more
}

// freeChunk sizes treeFreeFrom's chunk from the journal's geometry. Freeing
// a data block logs up to two entries (its pointer slot, its bitmap word),
// and a transaction that logs more than journal.TxCapacity waits on itself
// forever; a sixteenth of that per chunk leaves the rest of the lane to the
// transactions running beside it.
func (fs *FS) freeChunk() int64 {
	if n := int64(fs.jnl.TxCapacity() / 16); n > 1 {
		return n
	}
	return 1
}

// freeWalk is the state of one treeFreeFrom pass.
type freeWalk struct {
	fs     *FS
	tx     *journal.Tx
	rec    *inodeRec
	from   int64   // free data blocks with file index >= from
	budget int64   // data blocks this pass may still free
	freed  []int64 // block numbers to release
	cut    int64   // lowest file block index freed
	more   bool    // the budget ran out with blocks >= from left
}

// walk frees blocks under bn (covering file blocks starting at base, at the
// given height), descending from the highest slot. It reports whether bn
// itself was freed.
func (w *freeWalk) walk(bn int64, height byte, base int64) bool {
	if height == 0 {
		if base < w.from {
			return false
		}
		if w.budget == 0 {
			w.more = true
			return false
		}
		w.budget--
		w.cut = base
		w.freed = append(w.freed, bn)
		w.rec.Blocks--
		return true
	}
	sub := capBlocks(height - 1)
	anyLeft := false
	for slot := int64(ptrsPerBlock - 1); slot >= 0; slot-- {
		child := w.fs.readPtr(bn, slot)
		if child == 0 {
			continue
		}
		childBase := base + slot*sub
		if w.more || childBase+sub <= w.from {
			// This child stays (out of budget, or entirely below the
			// cut), and so does everything in the slots below it.
			anyLeft = true
			break
		}
		if w.walk(child, height-1, childBase) {
			w.fs.writePtr(w.tx, bn, slot, 0)
		} else {
			anyLeft = true
		}
	}
	if !anyLeft {
		w.freed = append(w.freed, bn)
		return true
	}
	return false
}
