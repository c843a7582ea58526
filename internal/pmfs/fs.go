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
// directory locks (rename) is serialized against other renames and rmdir
// by renameMu and orders its pair ancestor-first (ino-order for disjoint
// subtrees). See DESIGN.md "Lock hierarchy & multicore metadata scaling".
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

	// renameMu serializes renames against each other and against Rmdir, so
	// that a rename's two parent directories stay live, and their ancestry
	// stable, while it decides its lock order.
	renameMu sync.Mutex

	// onReclaim is the reclaim hook (SetReclaimHook), nil when none is set.
	onReclaim func(Ino)

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
	recoverLog := journal.Recover
	if l.incompat&incompatJournalGen == 0 {
		recoverLog = journal.RecoverUnstamped
	}
	rolled, err := recoverLog(dev, l.journalStart, l.journalSize)
	if err != nil {
		return nil, 0, err
	}
	if l.incompat != incompatKnown {
		markFormat(dev)
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

// lockDir walks parts from the root with lock crabbing and returns the
// final directory's inode with its dir lock held — in write mode when
// write is set, read mode otherwise; intermediate directories are only
// ever read-locked, and each child's lock is acquired before its parent's
// is released. It reads no inode record: the root is a directory, and
// every other component's type is the one its parent's dentry names. The
// caller must release the returned lock via dirUnlock.
func (fs *FS) lockDir(parts []string, write bool) (Ino, *inodeState, error) {
	cur, curSt := RootIno, fs.state(RootIno)
	curWrite := write && len(parts) == 0
	fs.dirLock(curSt, curWrite)
	for i, name := range parts {
		_, d, ok := fs.dirLookup(fs.dirIndexOf(cur, curSt), name)
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

// nsPath is a path walked to its parent directory, whose lock is held.
type nsPath struct {
	dir          Ino
	st           *inodeState
	write        bool      // whether st's dir lock is held in write mode
	unlockSerial func()    // releases the serial baseline's lock
	ix           *dirIndex // the parent's index; nil for the root
	base         string    // the last component, "/" for the root
	slot         int       // base's slot in the parent; -1 for the root
	d            dentry    // base's dentry; d.ino is 0 when the parent has no such name
}

// walk takes path to its locked parent directory, the one preamble of every
// namespace operation but rename: it checks the mount, splits path into a
// stack array, takes the serial baseline's lock, crabs down to the parent
// (write-locked when write is set) and looks the base name up in the
// parent's index. The root has no parent: a read walk returns it as its own
// entry, its lock held in read mode, and a write walk — whose caller adds or
// removes a name — rejects it. The caller releases the locks with unwalk.
func (fs *FS) walk(path string, write bool) (nsPath, error) {
	p := nsPath{write: write}
	if err := fs.checkMounted(); err != nil {
		return p, err
	}
	var buf [16]string
	parts, err := vfs.SplitPath(buf[:0], path)
	if err != nil {
		return p, err
	}
	n := len(parts)
	if n == 0 && write {
		return p, vfs.ErrInvalid
	}
	p.unlockSerial = fs.nsSerial(write)
	if p.dir, p.st, err = fs.lockDir(parts[:max(n-1, 0)], write); err != nil {
		p.unlockSerial()
		return p, err
	}
	if n == 0 {
		p.base, p.slot, p.d = "/", -1, dentry{ino: RootIno, typ: typeDir}
		return p, nil
	}
	p.ix = fs.dirIndexOf(p.dir, p.st)
	p.base = parts[n-1]
	p.slot, p.d, _ = fs.dirLookup(p.ix, p.base)
	return p, nil
}

// unwalk releases the locks walk took.
func (fs *FS) unwalk(p nsPath) {
	fs.dirUnlock(p.st, p.write)
	p.unlockSerial()
}

// Resolve returns the inode at path.
func (fs *FS) Resolve(path string) (Ino, error) {
	p, err := fs.walk(path, false)
	if err != nil {
		return 0, err
	}
	fs.unwalk(p)
	if p.d.ino == 0 {
		return 0, vfs.ErrNotExist
	}
	return p.d.ino, nil
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
	p, err := fs.walk(path, flags&vfs.OCreate != 0)
	if err != nil {
		return nil, err
	}
	ino := p.d.ino
	switch {
	case p.d.typ == typeDir:
		err = vfs.ErrIsDir
	case ino == 0 && flags&vfs.OCreate != 0:
		ino, err = fs.create(p, typeFile)
	case ino == 0:
		err = vfs.ErrNotExist
	}
	var f *File
	if err == nil {
		f = fs.fileHandle(ino, flags)
	}
	fs.unwalk(p)
	if err != nil {
		return nil, err
	}
	if p.d.ino != 0 && flags&vfs.OTrunc != 0 {
		f.Lock()
		err := f.truncateLocked(0)
		f.Unlock()
		if err != nil {
			f.Close()
			return nil, err
		}
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

// create allocates an inode of type typ and links it as p.base into p's
// write-locked parent, whose record it stores in the same transaction.
func (fs *FS) create(p nsPath, typ byte) (Ino, error) {
	dirRec := fs.loadInode(p.dir)
	tx := fs.jnl.Begin()
	defer tx.Commit()
	ino, err := fs.allocInode(tx, typ)
	if err != nil {
		return 0, err
	}
	if err := fs.dirAddEntry(tx, p.dir, p.ix, &dirRec, dentry{ino: ino, typ: typ, name: p.base}); err != nil {
		fs.freeInode(tx, ino)
		return 0, err
	}
	fs.storeInode(tx, p.dir, dirRec)
	return ino, nil
}

// Mkdir implements vfs.FileSystem.
func (fs *FS) Mkdir(path string) error {
	p, err := fs.walk(path, true)
	if err != nil {
		return err
	}
	defer fs.unwalk(p)
	if p.d.ino != 0 {
		return vfs.ErrExist
	}
	_, err = fs.create(p, typeDir)
	return err
}

// Rmdir implements vfs.FileSystem. It is the only operation that frees a
// directory, and it holds renameMu while it does (see rename). The victim's
// own write lock is taken (parent first, then child) before it is freed, so
// walkers that crabbed into it are excluded, and walkers that have not
// reached the parent yet can never find its dentry again.
func (fs *FS) Rmdir(path string) error {
	fs.renameMu.Lock()
	defer fs.renameMu.Unlock()
	p, err := fs.walk(path, true)
	if err != nil {
		return err
	}
	defer fs.unwalk(p)
	switch {
	case p.d.ino == 0:
		return vfs.ErrNotExist
	case p.d.typ != typeDir:
		return vfs.ErrNotDir
	}
	st := fs.state(p.d.ino)
	fs.dirLock(st, true)
	defer fs.dirUnlock(st, true)
	if len(fs.dirIndexOf(p.d.ino, st).names) != 0 {
		return vfs.ErrNotEmpty
	}
	tx := fs.jnl.Begin()
	fs.dirRemoveEntry(tx, p.ix, p.slot, p.base)
	fs.reclaimInode(tx, p.d.ino)
	return nil
}

// Unlink implements vfs.FileSystem. The file's storage is reclaimed once
// the namespace locks are released (see orphaned).
func (fs *FS) Unlink(path string) error {
	p, err := fs.walk(path, true)
	if err != nil {
		return err
	}
	switch {
	case p.d.ino == 0:
		err = vfs.ErrNotExist
	case p.d.typ == typeDir:
		err = vfs.ErrIsDir
	default:
		tx := fs.jnl.Begin()
		fs.dirRemoveEntry(tx, p.ix, p.slot, p.base)
		tx.Commit()
	}
	fs.unwalk(p)
	if err != nil {
		return err
	}
	fs.orphaned(p.d.ino)
	return nil
}

// SetReclaimHook installs fn, which is called with the inode number of a
// removed file after its dentry removal commits and before its storage is
// freed — once per file, whether unlink, rename-over or the last close
// frees it. Install it before the first operation.
func (fs *FS) SetReclaimHook(fn func(Ino)) { fs.onReclaim = fn }

// orphaned is called, with no namespace lock held, for a file whose last
// name is gone. With no handle open it reclaims the file now; otherwise the
// last Close does. No handle can be opened once the name is gone, so the
// count only falls.
func (fs *FS) orphaned(ino Ino) {
	st := fs.state(ino)
	st.meta.Lock()
	open := st.refs > 0
	st.unlinked = open
	st.meta.Unlock()
	if !open {
		fs.reclaim(ino, st)
	}
}

// reclaim frees an orphaned file: the one path unlink, rename-over and the
// last close share. The reclaim hook runs first — HiNFS drops the file's
// buffered DRAM blocks there, so background writeback can never touch freed
// NVMM blocks — and the storage is then freed under the inode lock: a read
// that raced the last Close and passed its closed-check still holds the
// read lock, and must finish before the blocks it copies from are reused.
func (fs *FS) reclaim(ino Ino, st *inodeState) {
	if fs.onReclaim != nil {
		fs.onReclaim(ino)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	fs.reclaimInode(fs.jnl.Begin(), ino)
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

// Rename implements vfs.FileSystem. A regular file at newpath is replaced,
// and reclaimed as an unlinked one is once every lock is released.
func (fs *FS) Rename(oldpath, newpath string) error {
	replaced, err := fs.rename(oldpath, newpath)
	if replaced != 0 {
		fs.orphaned(replaced)
	}
	return err
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

// peekDir resolves parts to a directory with read crabbing and returns it
// with no locks held.
func (fs *FS) peekDir(parts []string) (Ino, *inodeState, error) {
	ino, st, err := fs.lockDir(parts, false)
	if err != nil {
		return 0, nil, err
	}
	fs.dirUnlock(st, false)
	return ino, st, nil
}

// rename moves oldpath to newpath and returns the inode it replaced, 0 if
// none.
//
// Locking protocol: rename holds renameMu, which Rmdir — the only operation
// that frees a directory — holds too, so directory ancestry is stable and
// both parents stay live and in place after it resolves them with plain
// read crabbing and releases every lock. It then write-locks the two
// parents ancestor-first (path-prefix order; ino order when the subtrees
// are disjoint). Holding the first parent's lock while walking to the
// second would deadlock against walkers queued behind the pending write
// lock, which is why the resolve and lock phases are separate.
func (fs *FS) rename(oldpath, newpath string) (Ino, error) {
	if err := fs.checkMounted(); err != nil {
		return 0, err
	}
	var oldBuf, newBuf [16]string
	oldDirParts, oldBase, err := vfs.SplitDirBase(oldBuf[:0], oldpath)
	if err != nil {
		return 0, err
	}
	newDirParts, newBase, err := vfs.SplitDirBase(newBuf[:0], newpath)
	if err != nil {
		return 0, err
	}
	if len(newBase) > MaxNameLen {
		return 0, vfs.ErrNameTooLon
	}
	// SplitDirBase leaves the base right after the parent parts.
	oldAll := oldDirParts[:len(oldDirParts)+1]
	newAll := newDirParts[:len(newDirParts)+1]
	if partsEqual(oldAll, newAll) {
		return 0, nil // rename to self is a no-op
	}
	if partsPrefix(oldAll, newAll) {
		// Moving a directory into its own subtree would detach the subtree
		// as an unreachable cycle.
		return 0, vfs.ErrInvalid
	}
	fs.renameMu.Lock()
	defer fs.renameMu.Unlock()
	defer fs.nsSerial(true)()
	oldDir, oldSt, err := fs.peekDir(oldDirParts)
	if err != nil {
		return 0, err
	}
	newDir, newSt, err := fs.peekDir(newDirParts)
	if err != nil {
		return 0, err
	}
	first, second := oldSt, newSt
	if partsPrefix(newDirParts, oldDirParts) || !partsPrefix(oldDirParts, newDirParts) && newDir < oldDir {
		first, second = newSt, oldSt
	}
	fs.dirLock(first, true)
	defer fs.dirUnlock(first, true)
	if second != first {
		fs.dirLock(second, true)
		defer fs.dirUnlock(second, true)
	}

	oldIx := fs.dirIndexOf(oldDir, oldSt)
	oldSlot, d, ok := fs.dirLookup(oldIx, oldBase)
	if !ok {
		return 0, vfs.ErrNotExist
	}
	newDirRec := fs.loadInode(newDir)
	newIx := fs.dirIndexOf(newDir, newSt)
	destSlot, dest, exists := fs.dirLookup(newIx, newBase)
	if exists && dest.typ == typeDir {
		return 0, vfs.ErrIsDir
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
			return 0, err
		}
	}
	if exists {
		fs.dirRemoveEntry(tx, newIx, destSlot, newBase)
	}
	fs.dirRemoveEntry(tx, oldIx, oldSlot, oldBase)
	if slot < 0 {
		slot = newIx.freeSlot()
	}
	fs.dirPutEntry(tx, newIx, slot, dentry{ino: d.ino, typ: d.typ, name: newBase})
	fs.storeInode(tx, newDir, newDirRec)
	tx.Commit()
	return dest.ino, nil
}

// Stat implements vfs.FileSystem. The record is read under the parent's
// read lock, so no unlink can remove the name and reclaim the inode between
// the lookup and the read.
func (fs *FS) Stat(path string) (vfs.FileInfo, error) {
	p, err := fs.walk(path, false)
	if err != nil {
		return vfs.FileInfo{}, err
	}
	defer fs.unwalk(p)
	if p.d.ino == 0 {
		return vfs.FileInfo{}, vfs.ErrNotExist
	}
	st := fs.state(p.d.ino)
	st.mu.RLock()
	defer st.mu.RUnlock()
	rec := fs.loadInode(p.d.ino)
	return vfs.FileInfo{Name: p.base, Size: rec.Size, IsDir: rec.Type == typeDir, Blocks: rec.Blocks}, nil
}

// ReadDir implements vfs.FileSystem. The directory's read lock is taken
// inside its parent's, which the walk holds until the listing is done.
func (fs *FS) ReadDir(path string) ([]vfs.DirEntry, error) {
	p, err := fs.walk(path, false)
	if err != nil {
		return nil, err
	}
	defer fs.unwalk(p)
	switch {
	case p.d.ino == 0:
		return nil, vfs.ErrNotExist
	case p.d.typ != typeDir:
		return nil, vfs.ErrNotDir
	}
	if p.slot >= 0 { // the root's own lock is the one the walk holds
		st := fs.state(p.d.ino)
		fs.dirLock(st, false)
		defer fs.dirUnlock(st, false)
	}
	var out []vfs.DirEntry
	fs.dirScan(fs.loadInode(p.d.ino), func(_ int, d dentry) bool {
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
