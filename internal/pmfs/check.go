package pmfs

import (
	"errors"
	"fmt"
)

// ErrJournalResidue is the distinct error class for journal-region
// validation failures: valid-flagged log entries left behind by
// transactions that are no longer open (committed or rolled back).
// Check wraps each finding so callers can test with errors.Is.
var ErrJournalResidue = errors.New("journal residue")

// ErrStalePointer is the error class for direct pointer words left set on
// an inode of height >= 1, where only the root pointer addresses blocks.
var ErrStalePointer = errors.New("stale pointer")

// Check is an fsck-style validator of the on-device image. It walks the
// namespace from the root, validates every inode record and index tree,
// and cross-checks the block bitmap:
//
//   - directory entries must point at live inodes of the recorded type;
//   - every index/data block must be inside the data region, marked
//     allocated in the bitmap, and referenced exactly once;
//   - inode Blocks counters must match the tree contents;
//   - an inode of height >= 1 must have zero direct words;
//   - a directory's DRAM index, where one is built, must match its
//     dentries;
//   - every allocated block must be reachable (no leaks).
//
// The file system must be quiescent while Check runs (no in-flight
// operations; with per-directory locking there is no single lock to take,
// so quiescence is the caller's contract). It returns every problem found
// (nil means the image is consistent).
func (fs *FS) Check() []error {
	var errs []error
	addErr := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	seen := make(map[int64]Ino) // block number → owning inode
	var walkTree func(ino Ino, bn int64, height byte) int64
	walkTree = func(ino Ino, bn int64, height byte) int64 {
		if bn < fs.l.dataStart || bn >= fs.l.totalBlocks {
			addErr("inode %d: block %d outside data region", ino, bn)
			return 0
		}
		if owner, dup := seen[bn]; dup {
			addErr("inode %d: block %d already referenced by inode %d", ino, bn, owner)
			return 0
		}
		seen[bn] = ino
		if !fs.alloc.isAllocated(bn) {
			addErr("inode %d: block %d referenced but free in bitmap", ino, bn)
		}
		if height == 0 {
			return 1
		}
		var data int64
		for slot := int64(0); slot < ptrsPerBlock; slot++ {
			child := fs.readPtr(bn, slot)
			if child != 0 {
				data += walkTree(ino, child, height-1)
			}
		}
		return data
	}
	// walkInode walks every block rec points at and returns its data
	// block count.
	walkInode := func(ino Ino, rec inodeRec) int64 {
		var data int64
		rec.roots(func(bn int64, height byte) { data += walkTree(ino, bn, height) })
		if rec.Height > 0 && rec.Direct != [directPtrs - 1]int64{} {
			errs = append(errs, fmt.Errorf("inode %d: direct words %v set at height %d: %w",
				ino, rec.Direct, rec.Height, ErrStalePointer))
		}
		return data
	}

	checkInode := func(ino Ino, wantType byte) inodeRec {
		rec := fs.loadInode(ino)
		if rec.Type != wantType {
			addErr("inode %d: type %d, want %d", ino, rec.Type, wantType)
			return rec
		}
		if dataBlocks := walkInode(ino, rec); dataBlocks != rec.Blocks {
			addErr("inode %d: Blocks=%d but tree holds %d data blocks",
				ino, rec.Blocks, dataBlocks)
		}
		if rec.Size < 0 {
			addErr("inode %d: negative size %d", ino, rec.Size)
		}
		return rec
	}

	liveInos := map[Ino]bool{RootIno: true}
	var walkDir func(ino Ino)
	walkDir = func(ino Ino) {
		rec := checkInode(ino, typeDir)
		if v, ok := fs.states.Load(ino); ok {
			if ix := v.(*inodeState).dirIdx.Load(); ix != nil {
				if m := ix.mismatch(fs.buildDirIndex(rec)); m != "" {
					addErr("dir %d: index differs from its dentries: %s", ino, m)
				}
			}
		}
		fs.dirScan(rec, func(_ int, d dentry) bool {
			if d.ino == 0 || int64(d.ino) >= fs.l.maxInodes {
				addErr("dir %d: dentry %q has bad ino %d", ino, d.name, d.ino)
				return false
			}
			if liveInos[d.ino] {
				addErr("dir %d: dentry %q points at already-linked ino %d (hard links unsupported)",
					ino, d.name, d.ino)
				return false
			}
			liveInos[d.ino] = true
			switch d.typ {
			case typeDir:
				walkDir(d.ino)
			case typeFile:
				checkInode(d.ino, typeFile)
			default:
				addErr("dir %d: dentry %q has bad type %d", ino, d.name, d.typ)
			}
			return false
		})
	}
	walkDir(RootIno)

	// Unlinked-but-open inodes are legitimately live without a dentry.
	fs.states.Range(func(k, v any) bool {
		st := v.(*inodeState)
		st.meta.Lock()
		if st.unlinked && st.refs > 0 {
			ino := k.(Ino)
			if !liveInos[ino] {
				liveInos[ino] = true
				walkInode(ino, fs.loadInode(ino))
			}
		}
		st.meta.Unlock()
		return true
	})

	// Leak check: every allocated data-region block must have been seen.
	fs.alloc.lockAll()
	for bn := fs.l.dataStart; bn < fs.l.totalBlocks; bn++ {
		if fs.alloc.isAllocated(bn) {
			if _, ok := seen[bn]; !ok {
				addErr("block %d allocated but unreachable (leaked)", bn)
			}
		}
	}
	fs.alloc.unlockAll()

	// Inode-table scan: every in-use inode must be linked somewhere.
	for ino := Ino(1); ino < Ino(fs.l.maxInodes); ino++ {
		var b [1]byte
		fs.dev.Read(b[:], fs.l.inodeAddr(ino)+inoType)
		if b[0] != typeFree && !liveInos[ino] {
			addErr("inode %d in use but not reachable from the namespace", ino)
		}
	}

	// Journal-region scan: every live undo or bitmap entry must belong to
	// an open transaction or sit beside its transaction's live commit
	// record. A committed transaction's entries die with their lane half's
	// next generation stamp and recovery zeroes the area, so anything else
	// is residue that would replay a stale undo image after the next crash.
	for _, r := range fs.jnl.Residue() {
		errs = append(errs, fmt.Errorf("journal lane %d slot %d: live entry (kind %d) for non-open, uncommitted tx %d: %w",
			r.Lane, r.Slot, r.Kind, r.TxID, ErrJournalResidue))
	}
	return errs
}
