package pmfs

import (
	"fmt"
	"math/bits"
	"strings"

	"hinfs/internal/journal"
	"hinfs/internal/vfs"
)

// Directories are regular files whose data blocks hold fixed-size 64 B
// dentries (one cacheline each, so a dentry update journals cleanly).
// A dentry with ino 0 is a free slot. Slot s of a directory is dentry
// s%dentriesPerBlock of its file block s/dentriesPerBlock.

const dentriesPerBlock = BlockSize / DentrySize

type dentry struct {
	ino  Ino
	typ  byte
	name string
}

func decodeDentry(b []byte) dentry {
	ino := Ino(le64(b[deIno:]))
	if ino == 0 {
		return dentry{}
	}
	n := int(b[deNameLen])
	if n > MaxNameLen {
		n = MaxNameLen
	}
	return dentry{ino: ino, typ: b[deType], name: string(b[deName : deName+n])}
}

func encodeDentry(d dentry) [DentrySize]byte {
	var b [DentrySize]byte
	putLE64(b[deIno:], uint64(d.ino))
	b[deType] = d.typ
	b[deNameLen] = byte(len(d.name))
	copy(b[deName:], d.name)
	return b
}

// dirScan iterates the dentries of directory dir, calling fn with each
// in-use entry's slot and contents. fn returns true to stop. The caller
// holds the directory's inode lock. Only ReadDir, recovery, Check and the
// index build read a whole directory; lookups and creates go through the
// directory's dirIndex.
func (fs *FS) dirScan(rec inodeRec, fn func(slot int, d dentry) bool) {
	blocks := (rec.Size + BlockSize - 1) / BlockSize
	var buf [DentrySize]byte
	for bi := int64(0); bi < blocks; bi++ {
		bn := fs.treeLookup(rec, bi)
		if bn == 0 {
			continue
		}
		for s := 0; s < dentriesPerBlock; s++ {
			fs.dev.Read(buf[:], blockAddr(bn)+int64(s)*DentrySize)
			d := decodeDentry(buf[:])
			if d.ino == 0 {
				continue
			}
			if fn(int(bi)*dentriesPerBlock+s, d) {
				return
			}
		}
	}
}

// dirIndex is a directory's DRAM index over its NVMM dentries, the
// namespace half of what the Linux dcache gives PMFS. The dentries stay
// the only truth: the index is never persisted, is built from them on
// first use (dirIndexOf), and changes only after the dentry store it
// mirrors, under the directory's write lock. Readers share the read lock.
type dirIndex struct {
	names  map[string]int32 // name → slot
	blocks []int64          // device address of each directory block (0 for a hole)
	used   []uint64         // bit s of used[b] set iff slot b*dentriesPerBlock+s is in use
}

// dirIndexOf returns the index of directory dir, whose state is st. Only
// when the directory has none does it read the directory's record, to
// build one. The caller holds the directory lock in either mode; readers
// that race to build each make a copy and the first CompareAndSwap wins.
func (fs *FS) dirIndexOf(dir Ino, st *inodeState) *dirIndex {
	if ix := st.dirIdx.Load(); ix != nil {
		return ix
	}
	ix := fs.buildDirIndex(fs.loadInode(dir))
	if !st.dirIdx.CompareAndSwap(nil, ix) {
		return st.dirIdx.Load()
	}
	return ix
}

// buildDirIndex indexes rec's dentries with one dirScan. A hole in the
// directory's block map (never made by this code) is marked full, so no
// slot is handed out in it — the scan this index replaced skipped holes
// too.
func (fs *FS) buildDirIndex(rec inodeRec) *dirIndex {
	blocks := (rec.Size + BlockSize - 1) / BlockSize
	ix := &dirIndex{
		names:  make(map[string]int32),
		blocks: make([]int64, blocks),
		used:   make([]uint64, blocks),
	}
	for bi := range ix.blocks {
		if bn := fs.treeLookup(rec, int64(bi)); bn != 0 {
			ix.blocks[bi] = blockAddr(bn)
		} else {
			ix.used[bi] = ^uint64(0)
		}
	}
	fs.dirScan(rec, func(slot int, d dentry) bool {
		ix.used[slot/dentriesPerBlock] |= 1 << uint(slot%dentriesPerBlock)
		if _, dup := ix.names[d.name]; !dup {
			ix.names[d.name] = int32(slot) // a lookup finds the first of duplicates, as a scan would
		}
		return false
	})
	return ix
}

func (ix *dirIndex) addr(slot int) int64 {
	return ix.blocks[slot/dentriesPerBlock] + int64(slot%dentriesPerBlock)*DentrySize
}

// freeSlot returns the lowest free slot, or -1 when every block is full.
func (ix *dirIndex) freeSlot() int {
	for b, w := range ix.used {
		if w != ^uint64(0) {
			return b*dentriesPerBlock + bits.TrailingZeros64(^w)
		}
	}
	return -1
}

// mismatch describes the first difference between ix and want (an index
// just built from the dentries), or returns "" when they agree.
func (ix *dirIndex) mismatch(want *dirIndex) string {
	if len(ix.blocks) != len(want.blocks) {
		return fmt.Sprintf("%d blocks, dentries fill %d", len(ix.blocks), len(want.blocks))
	}
	for bi := range want.blocks {
		if ix.blocks[bi] != want.blocks[bi] {
			return fmt.Sprintf("block %d at %d, directory maps it at %d", bi, ix.blocks[bi], want.blocks[bi])
		}
		if ix.used[bi] != want.used[bi] {
			return fmt.Sprintf("block %d used slots %#x, dentries %#x", bi, ix.used[bi], want.used[bi])
		}
	}
	if len(ix.names) != len(want.names) {
		return fmt.Sprintf("%d names, dentries hold %d", len(ix.names), len(want.names))
	}
	for name, slot := range want.names {
		if got, ok := ix.names[name]; !ok || got != slot {
			return fmt.Sprintf("name %q at slot %d (present %v), dentry in slot %d", name, got, ok, slot)
		}
	}
	return ""
}

// dirLookup finds name in the directory through its index and reads the
// one dentry it names for the ino and type. It runs for every component of
// every path and allocates nothing: the returned dentry is built around
// name itself.
func (fs *FS) dirLookup(ix *dirIndex, name string) (slot int, d dentry, ok bool) {
	s, ok := ix.names[name]
	if !ok {
		return 0, dentry{}, false
	}
	var buf [deName]byte
	fs.dev.Read(buf[:], ix.addr(int(s)))
	return int(s), dentry{ino: Ino(le64(buf[deIno:])), typ: buf[deType], name: name}, true
}

// dirFreeSlot returns the lowest free slot of directory dir — the
// first-fit slot a scan of its dentries would find — extending the
// directory by one zeroed block when every slot is taken. rec's size grows
// with the extension; the caller stores it.
func (fs *FS) dirFreeSlot(tx *journal.Tx, dir Ino, ix *dirIndex, rec *inodeRec) (int, error) {
	if slot := ix.freeSlot(); slot >= 0 {
		return slot, nil
	}
	blocks := int64(len(ix.blocks))
	bn, _, err := fs.treeEnsure(tx, rec, blocks)
	if err != nil {
		// The tree may have grown a level before the data block ran
		// out; tx allocated the new index block, so rec must keep it.
		fs.storeInode(tx, dir, *rec)
		return 0, err
	}
	rec.Size = (blocks + 1) * BlockSize
	ix.blocks = append(ix.blocks, blockAddr(bn))
	ix.used = append(ix.used, 0)
	return int(blocks) * dentriesPerBlock, nil
}

// dirAddEntry inserts a dentry into the lowest free slot, extending the
// directory if it is full. It journals the slot and persists the write.
func (fs *FS) dirAddEntry(tx *journal.Tx, dir Ino, ix *dirIndex, rec *inodeRec, d dentry) error {
	if len(d.name) > MaxNameLen {
		return vfs.ErrNameTooLon
	}
	slot, err := fs.dirFreeSlot(tx, dir, ix, rec)
	if err != nil {
		return err
	}
	fs.dirPutEntry(tx, ix, slot, d)
	return nil
}

// dirPutEntry stores d into free slot, then indexes it. The name is cloned:
// callers pass a substring of the path they were given.
func (fs *FS) dirPutEntry(tx *journal.Tx, ix *dirIndex, slot int, d dentry) {
	addr := ix.addr(slot)
	e := encodeDentry(d)
	tx.LogRange(addr, DentrySize)
	fs.dev.Write(e[:], addr)
	fs.dev.Flush(addr, DentrySize)
	fs.dev.Fence()
	ix.used[slot/dentriesPerBlock] |= 1 << uint(slot%dentriesPerBlock)
	ix.names[strings.Clone(d.name)] = int32(slot)
}

// dirRemoveEntry clears the dentry in slot, which holds name, then drops
// it from the index.
func (fs *FS) dirRemoveEntry(tx *journal.Tx, ix *dirIndex, slot int, name string) {
	addr := ix.addr(slot)
	tx.LogRange(addr, 8)
	var zero [8]byte
	fs.dev.Write(zero[:], addr)
	fs.dev.Flush(addr, 8)
	fs.dev.Fence()
	ix.used[slot/dentriesPerBlock] &^= 1 << uint(slot%dentriesPerBlock)
	delete(ix.names, name)
}
