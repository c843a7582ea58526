package pmfs

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"hinfs/internal/clock"
	"hinfs/internal/journal"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
	"hinfs/internal/obs/flight"
	"hinfs/internal/vfs"
)

func le64(b []byte) uint64       { return binary.LittleEndian.Uint64(b) }
func putLE64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// FS is a mounted PMFS-like file system. It implements vfs.FileSystem with
// direct access: reads copy NVMM→user, writes copy user→NVMM with
// non-temporal stores, and all metadata updates are undo-journaled.
//
// Namespace concurrency uses per-directory read/write locks (each
// directory's inodeState.dir) instead of one tree-wide mutex. Path walks
// crab: the child's lock is acquired before the parent's is released, so a
// walker can never land in a directory that was removed out from under it
// — rmdir needs the parent's write lock to unlink the child and the
// child's write lock to free it, and both conflict with the walker's read
// locks. All lock edges therefore point parent→child, which is what makes
// the scheme deadlock-free; the one operation needing two unrelated
// directory locks (rename) is serialized against other renames by renameMu
// and orders its pair ancestor-first (ino-order for disjoint subtrees).
// See DESIGN.md "Lock hierarchy & multicore metadata scaling".
type FS struct {
	dev   *nvmm.Device
	l     layout
	jnl   *journal.Journal
	alloc *allocator
	clk   clock.Clock

	// serial, when set, routes every namespace operation through serialMu
	// exactly as the pre-sharding global nsMu did — the measured baseline
	// for the metascale figure, not a production mode.
	serial   bool
	serialMu sync.RWMutex

	// renameMu serializes renames against each other so that the ancestry
	// relation between any rename's two parent directories is stable while
	// it decides its lock order.
	renameMu sync.Mutex

	states sync.Map // Ino → *inodeState

	inoMu    sync.Mutex
	freeInos []Ino

	col          atomic.Pointer[obs.Collector]
	dirContended atomic.Int64

	zero [BlockSize]byte

	// flt is the NVMM flight recorder over the layout's flight region,
	// nil when the image was formatted without one.
	flt *flight.Recorder

	unmounted atomic.Bool
}

// Mkfs formats dev and returns the mounted file system.
func Mkfs(dev *nvmm.Device, opts Options) (*FS, error) {
	opts.fill()
	l, err := computeLayout(dev.Size(), opts)
	if err != nil {
		return nil, err
	}
	fs := &FS{dev: dev, l: l, clk: clock.Real{}, serial: opts.SerialNamespace}
	// Zero the metadata regions.
	for off := l.journalStart; off < l.bitmapStart; off += BlockSize {
		dev.Write(fs.zero[:], off)
	}
	dev.Flush(l.journalStart, int(l.bitmapStart-l.journalStart))
	fs.alloc = newAllocator(dev, l, opts.AllocShards)
	fs.alloc.format()
	fs.jnl, err = journal.NewLanes(dev, l.journalStart, l.journalSize, opts.JournalLanes)
	if err != nil {
		return nil, err
	}
	fs.initFreeInos()
	if l.flightSize > 0 {
		if err := flight.Format(dev, l.flightStart, l.flightSize); err != nil {
			return nil, err
		}
		if fs.flt, err = flight.Attach(dev, l.flightStart, l.flightSize); err != nil {
			return nil, err
		}
	}
	// Create the root directory.
	tx := fs.jnl.Begin()
	fs.storeInode(tx, RootIno, inodeRec{Type: typeDir, Links: 2, Mtime: fs.clk.Now().UnixNano()})
	tx.Commit()
	l.writeSuper(dev)
	return fs, nil
}

// Mount parses an existing image, runs journal recovery, and returns the
// file system with default runtime options.
func Mount(dev *nvmm.Device) (*FS, error) {
	fs, _, err := MountRecoverOpts(dev, Options{})
	return fs, err
}

// MountOpts is Mount with explicit runtime options (lane/shard counts and
// the serial-namespace baseline switch; the format parameters come from
// the superblock). Lane and shard counts are DRAM-only structures, so an
// image may be remounted with any values.
func MountOpts(dev *nvmm.Device, opts Options) (*FS, error) {
	fs, _, err := MountRecoverOpts(dev, opts)
	return fs, err
}

// MountRecover is Mount, also reporting rolled-back transaction count.
func MountRecover(dev *nvmm.Device) (*FS, int, error) {
	return MountRecoverOpts(dev, Options{})
}

// MountRecoverOpts is MountOpts, also reporting rolled-back transaction
// count.
func MountRecoverOpts(dev *nvmm.Device, opts Options) (*FS, int, error) {
	l, err := readLayout(dev)
	if err != nil {
		return nil, 0, err
	}
	rolled, err := journal.Recover(dev, l.journalStart, l.journalSize)
	if err != nil {
		return nil, 0, err
	}
	fs := &FS{dev: dev, l: l, clk: clock.Real{}, serial: opts.SerialNamespace}
	fs.alloc = newAllocator(dev, l, opts.AllocShards)
	fs.alloc.load()
	fs.jnl, err = journal.NewLanes(dev, l.journalStart, l.journalSize, opts.JournalLanes)
	if err != nil {
		return nil, 0, err
	}
	fs.recoverRebuild()
	fs.initFreeInos()
	if l.flightSize > 0 {
		// Attach resumes the sequence counter past every record that
		// survived the crash; the pre-crash suffix stays decodable (and
		// is what MountRecover-time forensics reads) until new records
		// lap it.
		if fs.flt, err = flight.Attach(dev, l.flightStart, l.flightSize); err != nil {
			return nil, 0, err
		}
	}
	return fs, rolled, nil
}

// Flight returns the NVMM flight recorder, or nil when the image was
// formatted without a flight region (Options.FlightBlocks == 0).
func (fs *FS) Flight() *flight.Recorder { return fs.flt }

// FlightRegion returns the byte offset and size of the on-device flight
// region, or (0, 0) when absent. Forensic tools decode the region
// directly from a crash image with flight.Decode without mounting.
func (fs *FS) FlightRegion() (off, size int64) { return fs.l.flightStart, fs.l.flightSize }

// SetClock replaces the time source (tests and the HiNFS layer).
func (fs *FS) SetClock(c clock.Clock) { fs.clk = c }

// SetObs attaches an observability collector to the metadata path: journal
// lane contention, allocator steal/scan counters, and directory-lock
// contention. Nil detaches.
func (fs *FS) SetObs(c *obs.Collector) {
	fs.col.Store(c)
	fs.jnl.SetObs(c)
	fs.alloc.SetObs(c)
}

func (fs *FS) now() time.Time { return fs.clk.Now() }

// Device returns the underlying NVMM device.
func (fs *FS) Device() *nvmm.Device { return fs.dev }

// Journal returns the metadata journal.
func (fs *FS) Journal() *journal.Journal { return fs.jnl }

// FreeBlocks returns the number of free data blocks.
func (fs *FS) FreeBlocks() int64 { return fs.alloc.freeBlocks() }

// AllocStats reports block-allocator activity counters.
func (fs *FS) AllocStats() AllocStats { return fs.alloc.stats() }

// DirLockContended reports how many directory-lock acquisitions found the
// lock held.
func (fs *FS) DirLockContended() int64 { return fs.dirContended.Load() }

func (fs *FS) initFreeInos() {
	// Scan the inode table for free records; ino 0 is reserved invalid and
	// ino 1 is the root. Scan high→low so allocation hands out low numbers.
	var b [1]byte
	for ino := Ino(fs.l.maxInodes - 1); ino >= 2; ino-- {
		fs.dev.Read(b[:], fs.l.inodeAddr(ino)+inoType)
		if b[0] == typeFree {
			fs.freeInos = append(fs.freeInos, ino)
		}
	}
}

func (fs *FS) checkMounted() error {
	if fs.unmounted.Load() {
		return vfs.ErrUnmounted
	}
	return nil
}

var nsNoop = func() {}

// nsSerial takes the whole-tree lock in serial-namespace baseline mode and
// returns the matching unlock; in the default sharded mode it is a no-op.
func (fs *FS) nsSerial(write bool) func() {
	if !fs.serial {
		return nsNoop
	}
	if write {
		fs.serialMu.Lock()
		return fs.serialMu.Unlock
	}
	fs.serialMu.RLock()
	return fs.serialMu.RUnlock
}

// dirLock acquires st's directory lock, counting contended acquisitions
// and charging the contended wait to the attached op's lock stage.
func (fs *FS) dirLock(st *inodeState, write bool) {
	if write {
		if st.dir.TryLock() {
			return
		}
	} else if st.dir.TryRLock() {
		return
	}
	fs.dirContended.Add(1)
	fs.col.Load().Add(obs.CtrDirLockContended, 1)
	op := obs.CurrentOp()
	var start time.Time
	if op != nil {
		start = time.Now()
	}
	if write {
		st.dir.Lock()
	} else {
		st.dir.RLock()
	}
	if op != nil {
		op.Charge(obs.StageLock, time.Since(start).Nanoseconds())
	}
}

func (fs *FS) dirUnlock(st *inodeState, write bool) {
	if write {
		st.dir.Unlock()
	} else {
		st.dir.RUnlock()
	}
}

// lockDirPath walks parts from the root with lock crabbing and returns the
// final directory's inode with its dir lock held — in write mode when
// write is set, read mode otherwise; intermediate directories are only
// ever read-locked, and each child's lock is acquired before its parent's
// is released. The caller must release the returned lock via dirUnlock.
func (fs *FS) lockDirPath(parts []string, write bool) (Ino, *inodeState, error) {
	cur := RootIno
	curSt := fs.state(cur)
	curWrite := write && len(parts) == 0
	fs.dirLock(curSt, curWrite)
	for i, name := range parts {
		rec := fs.loadInode(cur)
		if rec.Type != typeDir {
			fs.dirUnlock(curSt, curWrite)
			return 0, nil, vfs.ErrNotDir
		}
		_, d, ok := fs.dirLookup(fs.dirIndexOf(curSt, rec), name)
		if !ok {
			fs.dirUnlock(curSt, curWrite)
			return 0, nil, vfs.ErrNotExist
		}
		if d.typ != typeDir {
			fs.dirUnlock(curSt, curWrite)
			return 0, nil, vfs.ErrNotDir
		}
		childSt := fs.state(d.ino)
		childWrite := write && i == len(parts)-1
		fs.dirLock(childSt, childWrite)
		fs.dirUnlock(curSt, curWrite)
		cur, curSt, curWrite = d.ino, childSt, childWrite
	}
	return cur, curSt, nil
}

// Resolve returns the inode at path.
func (fs *FS) Resolve(path string) (Ino, error) {
	var buf [16]string
	parts, err := vfs.SplitPath(buf[:0], path)
	if err != nil {
		return 0, err
	}
	return fs.resolveParts(parts)
}

func (fs *FS) resolveParts(parts []string) (Ino, error) {
	defer fs.nsSerial(false)()
	if len(parts) == 0 {
		return RootIno, nil
	}
	dir, dirSt, err := fs.lockDirPath(parts[:len(parts)-1], false)
	if err != nil {
		return 0, err
	}
	defer fs.dirUnlock(dirSt, false)
	_, d, ok := fs.dirLookup(fs.dirIndexOf(dirSt, fs.loadInode(dir)), parts[len(parts)-1])
	if !ok {
		return 0, vfs.ErrNotExist
	}
	return d.ino, nil
}

// Create implements vfs.FileSystem.
func (fs *FS) Create(path string) (vfs.File, error) {
	return fs.Open(path, vfs.OCreate|vfs.ORdwr)
}

// Open implements vfs.FileSystem.
func (fs *FS) Open(path string, flags int) (vfs.File, error) {
	f, err := fs.OpenFile(path, flags)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// OpenFile is Open returning the concrete *File (used by the HiNFS layer).
// The parent directory is write-locked only when the open may create; a
// plain open shares the read lock. An O_TRUNC truncate is data-path work
// and runs after the namespace lock is released — the handle's ref (taken
// under the parent lock) keeps concurrent unlink from freeing the storage
// underneath it.
func (fs *FS) OpenFile(path string, flags int) (*File, error) {
	if err := fs.checkMounted(); err != nil {
		return nil, err
	}
	var buf [16]string
	dirParts, base, err := vfs.SplitDirBase(buf[:0], path)
	if err != nil {
		return nil, err
	}
	write := flags&vfs.OCreate != 0
	defer fs.nsSerial(true)()
	dirIno, dirSt, err := fs.lockDirPath(dirParts, write)
	if err != nil {
		return nil, err
	}
	dirRec := fs.loadInode(dirIno)
	ix := fs.dirIndexOf(dirSt, dirRec)
	_, d, ok := fs.dirLookup(ix, base)
	var f *File
	switch {
	case ok && d.typ == typeDir:
		fs.dirUnlock(dirSt, write)
		return nil, vfs.ErrIsDir
	case ok:
		f = fs.fileHandle(d.ino, flags)
		fs.dirUnlock(dirSt, write)
		if flags&vfs.OTrunc != 0 {
			f.Lock()
			err := f.truncateLocked(0)
			f.Unlock()
			if err != nil {
				f.Close()
				return nil, err
			}
		}
	case flags&vfs.OCreate != 0:
		tx := fs.jnl.Begin()
		ino, err := fs.allocInode(tx, typeFile)
		if err != nil {
			tx.Commit()
			fs.dirUnlock(dirSt, write)
			return nil, err
		}
		if err := fs.dirAddEntry(tx, dirIno, ix, &dirRec, dentry{ino: ino, typ: typeFile, name: base}); err != nil {
			fs.freeInode(tx, ino)
			tx.Commit()
			fs.dirUnlock(dirSt, write)
			return nil, err
		}
		fs.storeInode(tx, dirIno, dirRec)
		tx.Commit()
		f = fs.fileHandle(ino, flags)
		fs.dirUnlock(dirSt, write)
	default:
		fs.dirUnlock(dirSt, write)
		return nil, vfs.ErrNotExist
	}
	return f, nil
}

func (fs *FS) fileHandle(ino Ino, flags int) *File {
	st := fs.state(ino)
	st.meta.Lock()
	st.refs++
	st.meta.Unlock()
	return &File{fs: fs, ino: ino, st: st, flags: flags}
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(path string) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	var buf [16]string
	dirParts, base, err := vfs.SplitDirBase(buf[:0], path)
	if err != nil {
		return err
	}
	defer fs.nsSerial(true)()
	dirIno, dirSt, err := fs.lockDirPath(dirParts, true)
	if err != nil {
		return err
	}
	defer fs.dirUnlock(dirSt, true)
	dirRec := fs.loadInode(dirIno)
	ix := fs.dirIndexOf(dirSt, dirRec)
	if _, _, ok := fs.dirLookup(ix, base); ok {
		return vfs.ErrExist
	}
	tx := fs.jnl.Begin()
	ino, err := fs.allocInode(tx, typeDir)
	if err != nil {
		tx.Commit()
		return err
	}
	if err := fs.dirAddEntry(tx, dirIno, ix, &dirRec, dentry{ino: ino, typ: typeDir, name: base}); err != nil {
		fs.freeInode(tx, ino)
		tx.Commit()
		return err
	}
	fs.storeInode(tx, dirIno, dirRec)
	tx.Commit()
	return nil
}

// Rmdir implements vfs.FileSystem. The victim's own write lock is taken
// (parent first, then child) before it is freed, so walkers that crabbed
// into it are excluded, and walkers that have not reached the parent yet
// can never find its dentry again.
func (fs *FS) Rmdir(path string) error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	var buf [16]string
	dirParts, base, err := vfs.SplitDirBase(buf[:0], path)
	if err != nil {
		return err
	}
	defer fs.nsSerial(true)()
	dirIno, dirSt, err := fs.lockDirPath(dirParts, true)
	if err != nil {
		return err
	}
	defer fs.dirUnlock(dirSt, true)
	ix := fs.dirIndexOf(dirSt, fs.loadInode(dirIno))
	slot, d, ok := fs.dirLookup(ix, base)
	if !ok {
		return vfs.ErrNotExist
	}
	if d.typ != typeDir {
		return vfs.ErrNotDir
	}
	childSt := fs.state(d.ino)
	fs.dirLock(childSt, true)
	defer fs.dirUnlock(childSt, true)
	if len(fs.dirIndexOf(childSt, fs.loadInode(d.ino)).names) != 0 {
		return vfs.ErrNotEmpty
	}
	tx := fs.jnl.Begin()
	fs.dirRemoveEntry(tx, ix, slot, base)
	fs.reclaimInode(tx, d.ino)
	return nil
}

// Unlink implements vfs.FileSystem.
func (fs *FS) Unlink(path string) error {
	_, reclaim, err := fs.UnlinkKeepStorage(path)
	if err != nil {
		return err
	}
	if reclaim != nil {
		reclaim()
	}
	return nil
}

// UnlinkKeepStorage removes path's directory entry but defers freeing the
// inode's storage: if no handle is open it returns a reclaim closure the
// caller invokes after discarding any cached state for the inode (HiNFS
// drops its DRAM buffer blocks first, so background writeback can never
// touch freed NVMM blocks). A nil reclaim means open handles exist and the
// last Close frees the storage instead.
func (fs *FS) UnlinkKeepStorage(path string) (Ino, func(), error) {
	if err := fs.checkMounted(); err != nil {
		return 0, nil, err
	}
	var buf [16]string
	dirParts, base, err := vfs.SplitDirBase(buf[:0], path)
	if err != nil {
		return 0, nil, err
	}
	defer fs.nsSerial(true)()
	dirIno, dirSt, err := fs.lockDirPath(dirParts, true)
	if err != nil {
		return 0, nil, err
	}
	defer fs.dirUnlock(dirSt, true)
	ix := fs.dirIndexOf(dirSt, fs.loadInode(dirIno))
	slot, d, ok := fs.dirLookup(ix, base)
	if !ok {
		return 0, nil, vfs.ErrNotExist
	}
	if d.typ == typeDir {
		return 0, nil, vfs.ErrIsDir
	}
	tx := fs.jnl.Begin()
	fs.dirRemoveEntry(tx, ix, slot, base)
	reclaim := fs.deferredReclaim(d.ino)
	tx.Commit()
	return d.ino, reclaim, nil
}

// deferredReclaim marks ino for reclamation. If handles are open it
// arranges last-close reclamation and returns nil; otherwise it returns a
// closure freeing the storage in its own transaction. The closure takes
// the inode lock, so in-flight reads through surviving paths are excluded.
func (fs *FS) deferredReclaim(ino Ino) func() {
	st := fs.state(ino)
	st.meta.Lock()
	open := st.refs > 0
	if open {
		st.unlinked = true
	}
	st.meta.Unlock()
	if open {
		return nil
	}
	return func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		fs.reclaimInode(fs.jnl.Begin(), ino)
	}
}

// reclaimInode frees ino's index tree and then its record, and commits tx
// (which may already carry the namespace change that orphaned ino). A large
// tree goes chunk by chunk from the tail, one transaction each; a crash
// between two leaves an unreachable inode with a shorter tree, which
// recoverRebuild frees like any other orphan. The caller excludes every
// other user of ino.
func (fs *FS) reclaimInode(tx *journal.Tx, ino Ino) {
	rec := fs.loadInode(ino)
	for {
		if _, more := fs.treeFreeFrom(tx, &rec, 0); !more {
			break
		}
		fs.storeInode(tx, ino, rec)
		tx.Commit()
		tx = fs.jnl.Begin()
	}
	fs.freeInode(tx, ino)
	tx.Commit()
}

// Rename implements vfs.FileSystem. A regular file at newpath is replaced.
func (fs *FS) Rename(oldpath, newpath string) error {
	_, reclaim, err := fs.RenameKeepStorage(oldpath, newpath)
	if err != nil {
		return err
	}
	if reclaim != nil {
		reclaim()
	}
	return nil
}

func partsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// partsPrefix reports whether a is a (non-strict) path prefix of b. With
// no "." / ".." / symlinks, textual prefix is the ancestry relation.
func partsPrefix(a, b []string) bool {
	if len(a) > len(b) {
		return false
	}
	return partsEqual(a, b[:len(a)])
}

// peekDir resolves parts to a directory with read crabbing and returns the
// ino plus its state pointer with no locks held. The pointer is the
// validity token for the later re-lock: freeInode deletes the state entry,
// so if fs.state(ino) still returns the same pointer the directory was
// never freed (and renames are excluded by renameMu, so it is also still
// at this path).
func (fs *FS) peekDir(parts []string) (Ino, *inodeState, error) {
	ino, st, err := fs.lockDirPath(parts, false)
	if err != nil {
		return 0, nil, err
	}
	fs.dirUnlock(st, false)
	return ino, st, nil
}

// RenameKeepStorage is Rename with the replaced target's storage
// reclamation deferred to the returned closure (see UnlinkKeepStorage).
// The returned ino is the replaced file's inode (0 if none was replaced).
//
// Locking protocol: renames hold renameMu (stabilizing directory
// ancestry), resolve both parent directories with plain read crabbing
// releasing all locks, then write-lock the two parents ancestor-first
// (path-prefix order; ino order when the subtrees are disjoint) and
// validate both via state-pointer identity before trusting the snapshot.
// Holding the first parent's lock while walking to the second would
// deadlock against walkers queued behind the pending write lock, which is
// why the resolve and lock phases are separate.
func (fs *FS) RenameKeepStorage(oldpath, newpath string) (Ino, func(), error) {
	if err := fs.checkMounted(); err != nil {
		return 0, nil, err
	}
	var oldBuf, newBuf [16]string
	oldDirParts, oldBase, err := vfs.SplitDirBase(oldBuf[:0], oldpath)
	if err != nil {
		return 0, nil, err
	}
	newDirParts, newBase, err := vfs.SplitDirBase(newBuf[:0], newpath)
	if err != nil {
		return 0, nil, err
	}
	if len(newBase) > MaxNameLen {
		return 0, nil, vfs.ErrNameTooLon
	}
	// SplitDirBase leaves the base right after the parent parts.
	oldAll := oldDirParts[:len(oldDirParts)+1]
	newAll := newDirParts[:len(newDirParts)+1]
	if partsEqual(oldAll, newAll) {
		return 0, nil, nil // rename to self is a no-op
	}
	if partsPrefix(oldAll, newAll) {
		// Moving a directory into its own subtree would detach the subtree
		// as an unreachable cycle.
		return 0, nil, vfs.ErrInvalid
	}
	defer fs.nsSerial(true)()
	fs.renameMu.Lock()
	defer fs.renameMu.Unlock()

	var (
		oldDir, newDir     Ino
		oldSt, newSt       *inodeState
		oldWrite, newWrite bool // whether each lock is held separately
	)
	unlockBoth := func() {
		if newWrite {
			fs.dirUnlock(newSt, true)
		}
		if oldWrite {
			fs.dirUnlock(oldSt, true)
		}
		oldWrite, newWrite = false, false
	}
	for attempt := 0; ; attempt++ {
		oldDir, oldSt, err = fs.peekDir(oldDirParts)
		if err != nil {
			return 0, nil, err
		}
		newDir, newSt, err = fs.peekDir(newDirParts)
		if err != nil {
			return 0, nil, err
		}
		switch {
		case oldDir == newDir:
			fs.dirLock(oldSt, true)
			oldWrite = true
			newSt = oldSt
		case partsPrefix(oldDirParts, newDirParts):
			fs.dirLock(oldSt, true)
			fs.dirLock(newSt, true)
			oldWrite, newWrite = true, true
		case partsPrefix(newDirParts, oldDirParts):
			fs.dirLock(newSt, true)
			fs.dirLock(oldSt, true)
			oldWrite, newWrite = true, true
		case oldDir < newDir:
			fs.dirLock(oldSt, true)
			fs.dirLock(newSt, true)
			oldWrite, newWrite = true, true
		default:
			fs.dirLock(newSt, true)
			fs.dirLock(oldSt, true)
			oldWrite, newWrite = true, true
		}
		// Both directories may have been removed (and their inos reused)
		// between the unlocked resolve and the locks landing; a stale state
		// pointer or record proves it.
		if fs.state(oldDir) == oldSt && fs.loadInode(oldDir).Type == typeDir &&
			fs.state(newDir) == newSt && fs.loadInode(newDir).Type == typeDir {
			break
		}
		unlockBoth()
		if attempt >= 16 {
			return 0, nil, vfs.ErrNotExist
		}
	}
	defer unlockBoth()

	oldIx := fs.dirIndexOf(oldSt, fs.loadInode(oldDir))
	oldSlot, d, ok := fs.dirLookup(oldIx, oldBase)
	if !ok {
		return 0, nil, vfs.ErrNotExist
	}
	newDirRec := fs.loadInode(newDir)
	newIx := fs.dirIndexOf(newSt, newDirRec)
	destSlot, destD, exists := fs.dirLookup(newIx, newBase)
	if exists && destD.typ == typeDir {
		return 0, nil, vfs.ErrIsDir
	}
	tx := fs.jnl.Begin()
	// Take the new slot before removing anything, so that a full
	// directory on a full device fails the rename with both names intact.
	// When the rename frees a slot in the new directory (the replaced
	// target's, or the source's own) it cannot need one, and the slot is
	// taken after the removals: first fit then sees the freed slots too.
	slot := -1
	if !exists && oldDir != newDir {
		if slot, err = fs.dirFreeSlot(tx, newDir, newIx, &newDirRec); err != nil {
			tx.Commit()
			return 0, nil, err
		}
	}
	var replaced Ino
	var reclaim func()
	if exists {
		fs.dirRemoveEntry(tx, newIx, destSlot, newBase)
		replaced = destD.ino
		reclaim = fs.deferredReclaim(destD.ino)
	}
	fs.dirRemoveEntry(tx, oldIx, oldSlot, oldBase)
	if slot < 0 {
		slot = newIx.freeSlot()
	}
	fs.dirPutEntry(tx, newIx, slot, dentry{ino: d.ino, typ: d.typ, name: newBase})
	fs.storeInode(tx, newDir, newDirRec)
	tx.Commit()
	return replaced, reclaim, nil
}

// Stat implements vfs.FileSystem.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	if err := fs.checkMounted(); err != nil {
		return vfs.FileInfo{}, err
	}
	var buf [16]string
	parts, err := vfs.SplitPath(buf[:0], path)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	ino, err := fs.resolveParts(parts)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	name := "/"
	if len(parts) > 0 {
		name = parts[len(parts)-1]
	}
	st := fs.state(ino)
	st.mu.RLock()
	defer st.mu.RUnlock()
	rec := fs.loadInode(ino)
	return vfs.FileInfo{Name: name, Size: rec.Size, IsDir: rec.Type == typeDir, Blocks: rec.Blocks}, nil
}

// ReadDir implements vfs.FileSystem.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	if err := fs.checkMounted(); err != nil {
		return nil, err
	}
	parts, err := vfs.SplitPath(nil, path)
	if err != nil {
		return nil, err
	}
	defer fs.nsSerial(false)()
	ino, st, err := fs.lockDirPath(parts, false)
	if err != nil {
		return nil, err
	}
	defer fs.dirUnlock(st, false)
	rec := fs.loadInode(ino)
	if rec.Type != typeDir {
		return nil, vfs.ErrNotDir
	}
	var out []vfs.DirEntry
	fs.dirScan(rec, func(_ int, d dentry) bool {
		out = append(out, vfs.DirEntry{Name: d.name, IsDir: d.typ == typeDir})
		return false
	})
	return out, nil
}

// Sync implements vfs.FileSystem. PMFS persists data at write time, so a
// fence suffices.
func (fs *FS) Sync() error {
	if err := fs.checkMounted(); err != nil {
		return err
	}
	fs.dev.Fence()
	return nil
}

// Unmount implements vfs.FileSystem.
func (fs *FS) Unmount() error {
	if fs.unmounted.Swap(true) {
		return vfs.ErrUnmounted
	}
	fs.dev.Fence()
	return nil
}
