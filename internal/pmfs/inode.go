package pmfs

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"hinfs/internal/journal"
	"hinfs/internal/vfs"
)

// inodeRec is a DRAM view of one on-device inode record. Mutations go
// through store, which journals the old record and writes the new one
// through to NVMM, so the device image is always authoritative.
type inodeRec struct {
	Type   byte
	Height byte
	Links  uint32
	Size   int64
	Root   int64 // root index block, or file block 0's data block at height 0 (0 = none)
	Blocks int64 // data blocks allocated
	Mtime  int64
	// Direct holds the data blocks of file blocks 1-3 at height 0; zero at
	// any other height.
	Direct [directPtrs - 1]int64
}

// ptr returns the pointer word addressing file block idx of a height-0
// inode, idx < directPtrs.
func (r *inodeRec) ptr(idx int64) *int64 {
	if idx == 0 {
		return &r.Root
	}
	return &r.Direct[idx-1]
}

// empty reports whether the inode addresses no block at all.
func (r *inodeRec) empty() bool {
	return r.Root == 0 && r.Direct == [directPtrs - 1]int64{}
}

// roots calls fn with every block the inode points at and the height of the
// subtree under it: the direct data blocks at height 0, the root index block
// above. Check and recoverRebuild reach a file's blocks through it.
func (r inodeRec) roots(fn func(bn int64, height byte)) {
	if r.Height > 0 {
		if r.Root != 0 {
			fn(r.Root, r.Height)
		}
		return
	}
	for idx := int64(0); idx < directPtrs; idx++ {
		if bn := *r.ptr(idx); bn != 0 {
			fn(bn, 0)
		}
	}
}

func (fs *FS) loadInode(ino Ino) inodeRec {
	var b [inoLine]byte
	fs.dev.Read(b[:], fs.l.inodeAddr(ino))
	rec := inodeRec{
		Type:   b[inoType],
		Height: b[inoHeight],
		Links:  binary.LittleEndian.Uint32(b[inoLinks:]),
		Size:   int64(binary.LittleEndian.Uint64(b[inoSize:])),
		Root:   int64(binary.LittleEndian.Uint64(b[inoRoot:])),
		Blocks: int64(binary.LittleEndian.Uint64(b[inoBlocks:])),
		Mtime:  int64(binary.LittleEndian.Uint64(b[inoMtime:])),
	}
	for i := range rec.Direct {
		rec.Direct[i] = int64(binary.LittleEndian.Uint64(b[inoDirect+8*i:]))
	}
	return rec
}

// storeInode journals the inode's first cacheline under tx and writes rec
// through to NVMM as one line. Fields [0, 40) are logged every time; the
// direct words only when this store changes them, as a second entry, so a
// transaction that leaves the block map alone logs one entry for the inode.
// Every transaction that mutates an inode passes through here, so this is
// also where per-inode commit chaining is established: tx's commit record
// is ordered behind the previous transaction that touched the same inode.
// Deferred (ordered-mode) commits finish in data writeback order, which can
// invert begin order; without the chain a crash could roll an older
// uncommitted transaction's inode pre-image over a newer committed one's
// update.
func (fs *FS) storeInode(tx *journal.Tx, ino Ino, rec inodeRec) {
	st := fs.state(ino)
	st.meta.Lock()
	prev := st.lastTx
	if prev != tx {
		st.lastTx = tx
	}
	st.meta.Unlock()
	if prev != tx {
		tx.After(prev)
	}
	addr := fs.l.inodeAddr(ino)
	var b [inoLine]byte
	b[inoType] = rec.Type
	b[inoHeight] = rec.Height
	binary.LittleEndian.PutUint32(b[inoLinks:], rec.Links)
	binary.LittleEndian.PutUint64(b[inoSize:], uint64(rec.Size))
	binary.LittleEndian.PutUint64(b[inoRoot:], uint64(rec.Root))
	binary.LittleEndian.PutUint64(b[inoBlocks:], uint64(rec.Blocks))
	binary.LittleEndian.PutUint64(b[inoMtime:], uint64(rec.Mtime))
	for i, bn := range rec.Direct {
		binary.LittleEndian.PutUint64(b[inoDirect+8*i:], uint64(bn))
	}
	tx.LogRange(addr, inoDirect)
	var cur [inoLine - inoDirect]byte
	fs.dev.Read(cur[:], addr+inoDirect)
	if cur != [inoLine - inoDirect]byte(b[inoDirect:]) {
		tx.LogRange(addr+inoDirect, inoLine-inoDirect)
	}
	fs.dev.Write(b[:], addr)
	fs.dev.Flush(addr, len(b))
	fs.dev.Fence()
}

// stampMtime stores the current time into ino's Mtime in place: one aligned
// 8-byte store and one flush of its line, no journal entry. Records are
// 128-byte aligned and inoMtime is a multiple of 8, so the word never
// straddles a line and a crash shows the old stamp or the new one, never a
// mix (DESIGN.md "Crash model"); no other field shares the store, so there
// is nothing for an undo image to protect. An older transaction on the same
// inode that is still open and gets rolled back restores its own pre-image of
// the line — an older stamp. The caller holds the inode write lock and orders
// the flush with whatever fence its data needs.
func (fs *FS) stampMtime(ino Ino) {
	addr := fs.l.inodeAddr(ino) + inoMtime
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(fs.now().UnixNano()))
	fs.dev.Write(b[:], addr)
	fs.dev.Flush(addr, len(b))
}

// inodeState is the DRAM-resident lock and bookkeeping for one inode.
// mu is the inode data lock (serializes file reads/writes); dir is the
// per-directory namespace lock (crabbed during path walks, write-held for
// dentry mutations — meaningful only on directory inodes); meta guards
// the small bookkeeping fields and may be taken while mu or dir is held.
type inodeState struct {
	mu  sync.RWMutex
	dir sync.RWMutex

	meta sync.Mutex
	// refs counts open handles; a deleted inode is reclaimed at last close.
	refs int
	// unlinked marks an inode removed from the namespace while open.
	unlinked bool
	// lastSync is the last fsync wall time, used by HiNFS's Buffer Benefit
	// Model (the paper stores it in the in-DRAM file metadata).
	lastSync time.Time
	// lastTx is the most recent journal transaction that touched this
	// inode's metadata; storeInode chains each new transaction's commit
	// record behind it (see storeInode).
	lastTx *journal.Tx
	// dirIdx is a directory's DRAM index over its dentries, nil until the
	// first lookup builds it (dirIndexOf). freeInode's state delete drops
	// it with the directory.
	dirIdx atomic.Pointer[dirIndex]
}

func (fs *FS) state(ino Ino) *inodeState {
	v, ok := fs.states.Load(ino)
	if !ok {
		v, _ = fs.states.LoadOrStore(ino, &inodeState{})
	}
	return v.(*inodeState)
}

// allocInode reserves a free inode number and initializes its record.
func (fs *FS) allocInode(tx *journal.Tx, typ byte) (Ino, error) {
	fs.inoMu.Lock()
	if len(fs.freeInos) == 0 {
		fs.inoMu.Unlock()
		return 0, vfs.ErrNoSpace
	}
	ino := fs.freeInos[len(fs.freeInos)-1]
	fs.freeInos = fs.freeInos[:len(fs.freeInos)-1]
	fs.inoMu.Unlock()
	fs.storeInode(tx, ino, inodeRec{
		Type:  typ,
		Links: 1,
		Mtime: fs.now().UnixNano(),
	})
	return ino, nil
}

// freeInode releases an inode record and returns the number to the free
// list.
func (fs *FS) freeInode(tx *journal.Tx, ino Ino) {
	fs.storeInode(tx, ino, inodeRec{})
	// Forget the DRAM state before the number can be handed out again: a
	// create that reused ino while the old state was still registered would
	// lock it, and unlock the fresh one this delete makes way for.
	fs.states.Delete(ino)
	fs.inoMu.Lock()
	fs.freeInos = append(fs.freeInos, ino)
	fs.inoMu.Unlock()
}
