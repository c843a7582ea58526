package pmfs

import (
	"io"
	"math"
	"sync/atomic"
	"time"

	"hinfs/internal/journal"
	"hinfs/internal/obs"
	"hinfs/internal/vfs"
)

// File is an open PMFS file handle. It implements vfs.File with direct
// access, and exposes the locked low-level primitives (PrepareWriteLocked,
// BlockAddrLocked, ...) that the HiNFS layer composes with its DRAM buffer.
type File struct {
	fs  *FS
	ino Ino
	// st is the inode's state as registered at open, for the lock methods:
	// the handle's ref keeps it registered while the handle is open, and an
	// operation that raced Close past the closed-check must unlock the
	// object it locked — a lookup by number after the reclaim finds a new one.
	// (The bookkeeping methods below still look the state up by number.)
	st     *inodeState
	flags  int
	closed atomic.Bool
	// extents backs WritePlan.Extents across writes through this handle;
	// used only under the inode write lock.
	extents []Extent
}

// Extent locates one file block on the device.
type Extent struct {
	// Index is the file block index (offset / BlockSize).
	Index int64
	// Addr is the device byte offset of the block.
	Addr int64
	// Created reports whether this block was newly allocated.
	Created bool
}

// WritePlan is the metadata side of a write: the resolved extents and the
// journal transaction that made them visible — nil for an overwrite of
// existing blocks inside the size, which has nothing to commit. Extents
// aliases storage the handle reuses for its next write: it is valid until
// the caller releases the inode write lock.
type WritePlan struct {
	Extents []Extent
	Tx      *journal.Tx
}

// Ino returns the file's inode number.
func (f *File) Ino() Ino { return f.ino }

// InodeNumber implements vfs.InodeNumberer.
func (f *File) InodeNumber() uint64 { return uint64(f.ino) }

// Flags returns the open flags.
func (f *File) Flags() int { return f.flags }

// FS returns the owning file system.
func (f *File) FS() *FS { return f.fs }

// Lock acquires the inode's write lock.
func (f *File) Lock() { f.st.mu.Lock() }

// Unlock releases the inode's write lock.
func (f *File) Unlock() { f.st.mu.Unlock() }

// RLock acquires the inode's read lock.
func (f *File) RLock() { f.st.mu.RLock() }

// RUnlock releases the inode's read lock.
func (f *File) RUnlock() { f.st.mu.RUnlock() }

// Size implements vfs.File.
func (f *File) Size() int64 {
	f.RLock()
	defer f.RUnlock()
	return f.SizeLocked()
}

// SizeLocked returns the file size; the caller holds the inode lock.
func (f *File) SizeLocked() int64 { return f.fs.loadInode(f.ino).Size }

// BlockAddrLocked returns the device byte address of file block index, or
// 0 if the block is a hole; the caller holds the inode lock.
func (f *File) BlockAddrLocked(index int64) int64 {
	rec := f.fs.loadInode(f.ino)
	bn := f.fs.treeLookup(rec, index)
	if bn == 0 {
		return 0
	}
	return blockAddr(bn)
}

// LastSync returns the file's last synchronization time (DRAM metadata
// used by the HiNFS Buffer Benefit Model).
func (f *File) LastSync() time.Time {
	st := f.fs.state(f.ino)
	st.meta.Lock()
	defer st.meta.Unlock()
	return st.lastSync
}

// MarkSynced records t as the file's last synchronization time.
func (f *File) MarkSynced(t time.Time) {
	st := f.fs.state(f.ino)
	st.meta.Lock()
	st.lastSync = t
	st.meta.Unlock()
}

func (f *File) checkOpen() error {
	if f.closed.Load() {
		return vfs.ErrClosed
	}
	return f.fs.checkMounted()
}

// ReadAt implements vfs.File: a single copy NVMM→user.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	f.RLock()
	defer f.RUnlock()
	return f.readAtLocked(p, off)
}

func (f *File) readAtLocked(p []byte, off int64) (int, error) {
	rec := f.fs.loadInode(f.ino)
	if off >= rec.Size {
		// io.ReaderAt contract: reads at or past EOF report io.EOF, so a
		// streaming caller can distinguish "end of file" from "empty read".
		return 0, io.EOF
	}
	n := len(p)
	var eof error
	if off+int64(n) > rec.Size {
		n = int(rec.Size - off)
		eof = io.EOF
	}
	read := 0
	for read < n {
		idx := (off + int64(read)) / BlockSize
		bo := (off + int64(read)) % BlockSize
		chunk := BlockSize - int(bo)
		if chunk > n-read {
			chunk = n - read
		}
		bn := f.fs.treeLookup(rec, idx)
		if bn == 0 {
			for i := read; i < read+chunk; i++ {
				p[i] = 0
			}
		} else {
			f.fs.dev.Read(p[read:read+chunk], blockAddr(bn)+bo)
			f.fs.col.Load().Copy(obs.CopyReadOut, chunk)
		}
		read += chunk
	}
	return n, eof
}

// PrepareWriteLocked does the metadata side of a write of n bytes at off and
// returns where the data goes. The caller holds the inode write lock.
//
// A write that stays inside the file's size and lands only on blocks that
// exist changes nothing a crash could tear: no size, no pointer, no bitmap
// bit. It opens no transaction — Mtime is stamped in place (see stampMtime)
// and the plan's Tx is nil: the caller writes its data and has nothing to
// commit.
//
// Any other write — past EOF, into a hole, the first of a file — allocates
// and journals: every touched block is made to exist, the size extended and
// Mtime stored under plan.Tx. A freshly allocated block (Extent.Created)
// comes back zeroed only where a read can see what the write does not cover
// (see zeroEdges): the caller must make its data durable over the covered
// bytes — or zeroes, if it gives the data up — before the transaction's
// commit record is written, either by writing it (WriteNT, fence) and then
// calling Commit, or by gating the transaction on its buffered blocks
// (AddPending, Seal: HiNFS ordered mode, §4.1). A write that starts past EOF
// zeroes the gap it exposes in the block that held the old EOF (zeroGap). A
// write whose end would pass math.MaxInt64 is rejected, like a negative
// offset.
func (f *File) PrepareWriteLocked(off int64, n int) (WritePlan, error) {
	if off < 0 || n < 0 || off > math.MaxInt64-int64(n) {
		return WritePlan{}, vfs.ErrInvalid
	}
	rec := f.fs.loadInode(f.ino)
	first := off / BlockSize
	count := int64(0)
	if n > 0 {
		count = (off+int64(n)-1)/BlockSize - first + 1
	}
	// The size test comes first so an append or a fresh file never pays the
	// probe; a probe that meets a hole falls through to the transaction.
	if count > 0 && off+int64(n) <= rec.Size {
		extents, ok := f.fs.treeLookupRange(rec, first, count, f.extents[:0])
		f.retainExtents(extents)
		if ok {
			f.fs.stampMtime(f.ino)
			return WritePlan{Extents: extents}, nil
		}
	}
	if off > rec.Size {
		f.fs.zeroGap(rec, off)
	}
	tx := f.fs.jnl.Begin()
	extents, err := f.fs.treeEnsureRange(tx, &rec, first, count, f.extents[:0])
	f.retainExtents(extents)
	if err != nil {
		// Roll forward what we logged; the allocation state is
		// consistent, the write just fails. The blocks it did allocate
		// stay in the file and nothing will be written to them, so they
		// are zeroed whole.
		for _, e := range extents {
			if e.Created {
				f.fs.zeroRange(e.Addr, BlockSize)
			}
		}
		f.fs.storeInode(tx, f.ino, rec)
		tx.Commit()
		return WritePlan{}, err
	}
	f.fs.zeroEdges(extents, off, n, rec.Size)
	if off+int64(n) > rec.Size {
		rec.Size = off + int64(n)
	}
	rec.Mtime = f.fs.now().UnixNano()
	f.fs.storeInode(tx, f.ino, rec)
	return WritePlan{Extents: extents, Tx: tx}, nil
}

// retainExtents keeps a plan's storage for the handle's next write, unless a
// huge write grew it.
func (f *File) retainExtents(extents []Extent) {
	if cap(extents) <= 64 {
		f.extents = extents
	}
}

// zeroEdges zeroes, in the freshly allocated blocks among extents (the plan
// of a write of n bytes at off into a file of size bytes), the bytes a read
// can see that the write does not cover: the head of the first block below
// off, and the tail of the last block from off+n up to size — a hole filled
// below EOF. A fresh last block's tail past the new EOF stays as the
// allocator left it; no read sees it before an extension zeroes it (zeroGap).
// Covered bytes are not zeroed — every caller persists its data over them
// before the allocating transaction's commit record (WriteNT then fence on
// the eager route; the DRAM buffer gates the transaction on the block on the
// lazy route, and zeroes what it drops unwritten) — so a fresh block is
// written to NVMM once, not twice. The flushes are ordered before the commit
// record by the fence storeInode issues next.
func (fs *FS) zeroEdges(extents []Extent, off int64, n int, size int64) {
	if len(extents) == 0 {
		return
	}
	if head := off % BlockSize; head != 0 && extents[0].Created {
		fs.zeroRange(extents[0].Addr, int(head))
	}
	last := extents[len(extents)-1]
	start := last.Index * BlockSize
	if tail, lim := off+int64(n)-start, min(size-start, BlockSize); last.Created && tail < lim {
		fs.zeroRange(last.Addr+tail, int(lim-tail))
	}
}

// zeroGap zeroes what extending rec from its size to end exposes in the
// block that holds the old EOF: [size, end), clipped to that block. Bytes
// past EOF — a fresh block's tail, or what a truncate cut off — are not the
// file's, and are zeroed here when the size first covers them, unless a
// write covers them instead. Blocks past that one are holes, or were zeroed
// whole when allocated. The caller orders the flush before the extension's
// commit record.
func (fs *FS) zeroGap(rec inodeRec, end int64) {
	bo := rec.Size % BlockSize
	if bo == 0 || end <= rec.Size {
		return
	}
	if bn := fs.treeLookup(rec, rec.Size/BlockSize); bn != 0 {
		fs.zeroRange(blockAddr(bn)+bo, int(min(end-rec.Size, BlockSize-bo)))
	}
}

// WriteAt implements vfs.File: the PMFS direct write path. Data is copied
// user→NVMM with non-temporal stores so it is durable when the metadata
// transaction commits.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	f.Lock()
	defer f.Unlock()
	if f.flags&vfs.OAppend != 0 {
		off = f.SizeLocked()
	}
	return f.writeAtLocked(p, off)
}

func (f *File) writeAtLocked(p []byte, off int64) (int, error) {
	plan, err := f.PrepareWriteLocked(off, len(p))
	if err != nil {
		return 0, err
	}
	written := 0
	for _, e := range plan.Extents {
		blkOff := int64(0)
		if e.Index == off/BlockSize {
			blkOff = off % BlockSize
		}
		chunk := int(BlockSize - blkOff)
		if chunk > len(p)-written {
			chunk = len(p) - written
		}
		f.fs.dev.WriteNT(p[written:written+chunk], e.Addr+blkOff)
		f.fs.col.Load().Copy(obs.CopyUserIn, chunk)
		written += chunk
	}
	f.fs.dev.Fence()
	if plan.Tx != nil {
		plan.Tx.Commit()
	}
	return written, nil
}

// Fsync implements vfs.File. PMFS data is durable at write return, so only
// an ordering fence is needed.
func (f *File) Fsync() error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	f.fs.dev.Fence()
	f.MarkSynced(f.fs.now())
	return nil
}

// Truncate implements vfs.File.
func (f *File) Truncate(size int64) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if size < 0 {
		return vfs.ErrInvalid
	}
	f.Lock()
	defer f.Unlock()
	return f.truncateLocked(size)
}

// TruncateLocked is Truncate with the inode lock already held (HiNFS
// drops its buffered blocks first, then delegates here).
func (f *File) TruncateLocked(size int64) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if size < 0 {
		return vfs.ErrInvalid
	}
	return f.truncateLocked(size)
}

func (f *File) truncateLocked(size int64) error {
	rec := f.fs.loadInode(f.ino)
	if size == rec.Size {
		return nil
	}
	tx := f.fs.jnl.Begin()
	if size < rec.Size {
		from := (size + BlockSize - 1) / BlockSize
		for {
			cut, more := f.fs.treeFreeFrom(tx, &rec, from)
			if !more {
				break
			}
			// The file minus the tail freed so far is a complete, longer
			// truncation: commit it and go on in a new transaction.
			if end := cut * BlockSize; end < rec.Size {
				rec.Size = end
			}
			f.fs.storeInode(tx, f.ino, rec)
			tx.Commit()
			tx = f.fs.jnl.Begin()
		}
	} else {
		f.fs.zeroGap(rec, size)
	}
	rec.Size = size
	rec.Mtime = f.fs.now().UnixNano()
	f.fs.storeInode(tx, f.ino, rec)
	tx.Commit()
	return nil
}

// Close implements vfs.File. Closing an already-closed handle returns
// ErrClosed without touching the refcount (a double Close must not
// release another handle's reference). The last close of a removed file
// reclaims it; the decision is made under the refcount lock, so exactly
// one of N racing closes does.
func (f *File) Close() error {
	if f.closed.Swap(true) {
		return vfs.ErrClosed
	}
	st := f.fs.state(f.ino)
	st.meta.Lock()
	st.refs--
	last := st.refs == 0 && st.unlinked
	st.meta.Unlock()
	if last {
		f.fs.reclaim(f.ino, st)
	}
	return nil
}

// MaxBlockIndex is the largest file block index whose end offset fits in an
// int64; MmapBlock rejects any index past it.
const MaxBlockIndex = math.MaxInt64/BlockSize - 1

// MmapBlock emulates PMFS direct memory-mapped I/O for one file block: it
// ensures the block exists, extends the size over it, and returns a slice
// aliasing its device memory. Stores through the slice become durable only
// at the next Flush/Msync, matching §4.2's "mmap writes are not persistent
// until msync".
func (f *File) MmapBlock(index int64) ([]byte, error) {
	if err := f.checkOpen(); err != nil {
		return nil, err
	}
	if index < 0 || index > MaxBlockIndex {
		return nil, vfs.ErrInvalid
	}
	f.Lock()
	defer f.Unlock()
	if rec := f.fs.loadInode(f.ino); index == rec.Size/BlockSize {
		// The mapping exposes the tail of the block that holds EOF.
		f.fs.zeroGap(rec, (index+1)*BlockSize)
	}
	plan, err := f.PrepareWriteLocked(index*BlockSize, BlockSize)
	if err != nil {
		return nil, err
	}
	e := plan.Extents[0]
	if e.Created {
		// The plan covers the whole block, so nothing was zeroed — but the
		// caller writes nothing before the commit.
		f.fs.zeroRange(e.Addr, BlockSize)
		f.fs.dev.Fence()
	}
	if plan.Tx != nil {
		plan.Tx.Commit()
	}
	return f.fs.dev.Slice(e.Addr, BlockSize), nil
}
