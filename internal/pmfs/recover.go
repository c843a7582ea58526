package pmfs

// recoverRebuild reconstructs the allocation state from the recovered
// namespace, after journal rollback. It exists because the bitmap's undo
// records are logical XOR masks (see applyWords): rollback cannot know
// whether a torn word's in-place update persisted before the crash, so
// applying the mask can just as well set a bit that was never durably
// set as clear one that was. The same ambiguity holds for the inode-use
// bytes of transactions whose effects interleave with the crash. Rather
// than guess, recovery walks the (already rolled-back) namespace and
// makes the truth authoritative — the NOVA approach of rebuilding
// allocator state at every mount:
//
//   - an inode is live iff it is reachable from the root (there are no
//     open handles at mount time, so unlinked-but-open does not apply);
//     any other in-use inode record is freed;
//   - the block bitmap becomes exactly {metadata region} ∪ {blocks
//     referenced by live inodes' direct pointers and index trees}.
//
// The walk is defensive: out-of-range or doubly-referenced blocks are
// skipped rather than trusted (Check reports them). Rebuilding is
// idempotent, so a crash during recovery just repeats it on the next
// mount. Returns the number of bitmap words corrected and inode records
// freed.
func (fs *FS) recoverRebuild() (wordsFixed, inosFreed int) {
	reach := make(map[int64]bool)
	live := map[Ino]bool{RootIno: true}
	var walkTree func(bn int64, height byte)
	walkTree = func(bn int64, height byte) {
		if bn < fs.l.dataStart || bn >= fs.l.totalBlocks || reach[bn] {
			return
		}
		reach[bn] = true
		if height == 0 {
			return
		}
		for slot := int64(0); slot < ptrsPerBlock; slot++ {
			if child := fs.readPtr(bn, slot); child != 0 {
				walkTree(child, height-1)
			}
		}
	}
	var walkDir func(ino Ino)
	walkDir = func(ino Ino) {
		rec := fs.loadInode(ino)
		rec.roots(walkTree)
		fs.dirScan(rec, func(_ int, d dentry) bool {
			if d.ino == 0 || int64(d.ino) >= fs.l.maxInodes || live[d.ino] {
				return false
			}
			live[d.ino] = true
			if d.typ == typeDir {
				walkDir(d.ino)
			} else {
				fs.loadInode(d.ino).roots(walkTree)
			}
			return false
		})
	}
	walkDir(RootIno)

	// Free orphaned inode records.
	var b [1]byte
	for ino := Ino(2); ino < Ino(fs.l.maxInodes); ino++ {
		addr := fs.l.inodeAddr(ino) + inoType
		fs.dev.Read(b[:], addr)
		if b[0] != typeFree && !live[ino] {
			b[0] = typeFree
			fs.dev.Write(b[:], addr)
			fs.dev.Flush(addr, 1)
			inosFreed++
		}
	}

	// Rewrite every bitmap word that disagrees with reachability; the
	// allocator recomputes its per-shard free counts and hints from the
	// corrected mirror.
	a := fs.alloc
	want := make([]uint64, len(a.words))
	for bn := int64(0); bn < a.firstBlock; bn++ {
		want[bn/64] |= 1 << uint(bn%64)
	}
	for bn := range reach {
		want[bn/64] |= 1 << uint(bn%64)
	}
	wordsFixed = a.rebuild(want)
	if wordsFixed > 0 || inosFreed > 0 {
		fs.dev.Fence()
	}
	return wordsFixed, inosFreed
}
