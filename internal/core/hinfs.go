// Package core implements HiNFS — the paper's primary contribution: a
// high-performance NVMM file system that hides NVMM's long write latency
// behind a DRAM write buffer without reintroducing double-copy overheads.
//
// HiNFS layers three components over the PMFS-like persistent substrate
// (internal/pmfs):
//
//   - the NVMM-aware Write Buffer (internal/buffer): lazy-persistent
//     writes land in DRAM and are written back by background threads
//     (§3.2), at cacheline granularity (CLFW, §3.2.1);
//   - the Eager-Persistent Write Checker (internal/benefit): O_SYNC /
//     sync-mount writes (case 1) and writes to blocks the Buffer Benefit
//     Model marked Eager-Persistent (case 2) bypass the buffer and go
//     directly to NVMM with non-temporal stores (§3.3.2);
//   - direct reads: reads copy straight from DRAM and/or NVMM to the user
//     buffer, merged per cacheline with the DRAM Block Index + Cacheline
//     Bitmap (§3.3.1) — never through an intermediate cache page.
//
// The Variant knobs reproduce the paper's ablations: HiNFS-NCLFW disables
// cacheline-level fetch/writeback, and HiNFS-WB disables the eager checker
// so every write is buffered ("simply using DRAM as a write buffer").
package core

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"hinfs/internal/benefit"
	"hinfs/internal/buffer"
	"hinfs/internal/cacheline"
	"hinfs/internal/clock"
	"hinfs/internal/journal"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
	"hinfs/internal/pmfs"
	"hinfs/internal/vfs"
)

// BlockSize is the file system block size.
const BlockSize = pmfs.BlockSize

// zeroBlock is a shared, read-only block of zeros.
var zeroBlock [BlockSize]byte

// Options configures a HiNFS mount.
type Options struct {
	// BufferBlocks is the DRAM write buffer capacity in 4 KB blocks.
	// Required (the paper mounts with a 2 GB buffer for microbenchmarks).
	BufferBlocks int
	// DisableCLFW turns off Cacheline Level Fetch/Writeback — the paper's
	// HiNFS-NCLFW variant (Fig. 9).
	DisableCLFW bool
	// DisableEagerChecker buffers every write — the paper's HiNFS-WB
	// variant (Figs. 12, 13).
	DisableEagerChecker bool
	// SyncMount emulates mounting with the sync option: every write is
	// eager-persistent case 1.
	SyncMount bool
	// Buffer overrides write-buffer tuning; Blocks and CLFW are set from
	// the fields above.
	Buffer buffer.Config
	// Clock substitutes the time source (tests). Defaults to the wall
	// clock.
	Clock clock.Clock
	// PMFS tunes the persistent substrate: format parameters (Mkfs only)
	// plus the runtime concurrency knobs (journal lanes, allocator shards,
	// the serial-namespace baseline), which apply on every mount.
	PMFS pmfs.Options
	// Obs, when non-nil, receives decision-path latency histograms
	// (direct vs buffered read, eager vs lazy write) and per-block routing
	// counters from this mount, and is propagated to the write buffer, the
	// benefit model and the device. Nil (the default) costs one pointer
	// test per operation.
	Obs *obs.Collector
	// UnsafeSkipOrderedCommit deliberately breaks the paper's §4.1
	// ordered-mode coupling: a lazy write's metadata commit record is
	// written at once instead of waiting for the buffered data to reach
	// NVMM, so a crash can expose metadata describing data that was never
	// persisted. It exists only so the crash-point explorer's self-test
	// can prove it detects real ordering bugs. Never set it otherwise.
	UnsafeSkipOrderedCommit bool
}

// FS is a mounted HiNFS instance. It implements vfs.FileSystem.
type FS struct {
	*pmfs.FS
	pool  *buffer.Pool
	model *benefit.Model
	clk   clock.Clock
	opts  Options
	obs   *obs.Collector

	mu    sync.Mutex
	files map[pmfs.Ino]*buffer.FileBuf
}

// Mkfs formats dev and mounts HiNFS on it.
func Mkfs(dev *nvmm.Device, opts Options) (*FS, error) {
	base, err := pmfs.Mkfs(dev, opts.PMFS)
	if err != nil {
		return nil, err
	}
	return wrap(base, dev, opts), nil
}

// Mount mounts HiNFS on a formatted device, running journal recovery.
func Mount(dev *nvmm.Device, opts Options) (*FS, error) {
	base, err := pmfs.MountOpts(dev, opts.PMFS)
	if err != nil {
		return nil, err
	}
	return wrap(base, dev, opts), nil
}

// MountRecover is Mount, also reporting the number of journal
// transactions rolled back during recovery.
func MountRecover(dev *nvmm.Device, opts Options) (*FS, int, error) {
	base, rolled, err := pmfs.MountRecoverOpts(dev, opts.PMFS)
	if err != nil {
		return nil, 0, err
	}
	return wrap(base, dev, opts), rolled, nil
}

func wrap(base *pmfs.FS, dev *nvmm.Device, opts Options) *FS {
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	base.SetClock(opts.Clock)
	bcfg := opts.Buffer
	bcfg.Blocks = opts.BufferBlocks
	bcfg.CLFW = !opts.DisableCLFW
	if bcfg.Obs == nil {
		bcfg.Obs = opts.Obs
	}
	pool := buffer.NewPool(dev, opts.Clock, bcfg)
	// The ghost buffer mirrors the pool's resolved (defaulted) capacity,
	// not the raw mount options.
	model := benefit.NewModel(opts.Clock, benefit.Config{
		GhostBlocks:      pool.Config().Blocks,
		NVMMWriteLatency: dev.Config().WriteLatency,
		Obs:              opts.Obs,
	})
	fs := &FS{
		FS:    base,
		pool:  pool,
		model: model,
		clk:   opts.Clock,
		opts:  opts,
		obs:   opts.Obs,
		files: make(map[pmfs.Ino]*buffer.FileBuf),
	}
	if opts.Obs != nil {
		dev.SetObs(opts.Obs)
		base.SetObs(opts.Obs)
	}
	// Under journal space pressure, drain deferred (ordered-mode) commits:
	// write back the buffered blocks that gate a transaction begun before
	// the journal's bound, and only those.
	base.Journal().SetPressure(func(bound uint32) { fs.pool.DrainBefore(bound) })
	// A removed file's buffered dirty blocks are discarded after its dentry
	// removal commits and before its NVMM storage is freed — at unlink,
	// rename-over or last close: writes to short-lived files never pay NVMM
	// cost (§1), and background writeback can never touch freed blocks.
	base.SetReclaimHook(fs.dropFile)
	return fs
}

// Fsck validates the persistent image (see pmfs.FS.Check). Flush the
// buffer first (Sync) for a meaningful result; buffered-but-unflushed
// lazy writes legitimately hold uncommitted transactions.
func (fs *FS) Fsck() []error { return fs.FS.Check() }

// Pool exposes the DRAM write buffer (stats, tests).
func (fs *FS) Pool() *buffer.Pool { return fs.pool }

// Model exposes the Buffer Benefit Model (stats, tests).
func (fs *FS) Model() *benefit.Model { return fs.model }

// fileBuf returns the shared per-inode buffer view.
func (fs *FS) fileBuf(ino pmfs.Ino) *buffer.FileBuf {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fb := fs.files[ino]
	if fb == nil {
		fb = fs.pool.NewFile()
		fs.files[ino] = fb
	}
	return fb
}

// dropFile discards all buffered and model state for ino. It is the
// substrate's reclaim hook (see wrap).
func (fs *FS) dropFile(ino pmfs.Ino) {
	fs.mu.Lock()
	fb := fs.files[ino]
	delete(fs.files, ino)
	fs.mu.Unlock()
	if fb != nil {
		fb.Drop()
	}
	fs.model.DropFile(uint64(ino))
}

// Create implements vfs.FileSystem.
func (fs *FS) Create(path string) (vfs.File, error) {
	return fs.Open(path, vfs.OCreate|vfs.ORdwr)
}

// Open implements vfs.FileSystem.
func (fs *FS) Open(path string, flags int) (vfs.File, error) {
	// O_TRUNC is handled here, not by the substrate, so buffered blocks
	// are dropped under the inode lock before their NVMM blocks are freed.
	pf, err := fs.FS.OpenFile(path, flags&^vfs.OTrunc)
	if err != nil {
		return nil, err
	}
	f := &File{fs: fs, pf: pf, fb: fs.fileBuf(pf.Ino()), flags: flags}
	if flags&vfs.OTrunc != 0 {
		if err := f.Truncate(0); err != nil {
			pf.Close()
			return nil, err
		}
	}
	return f, nil
}

// Sync implements vfs.FileSystem: flush the whole DRAM buffer to NVMM.
func (fs *FS) Sync() error {
	fs.pool.FlushAll()
	return fs.FS.Sync()
}

// Unmount implements vfs.FileSystem: flush all DRAM blocks to NVMM (§3.2)
// and stop the writeback threads before unmounting the substrate.
func (fs *FS) Unmount() error {
	fs.pool.Close()
	return fs.FS.Unmount()
}

// Abandon stops the background writeback threads without flushing the
// DRAM buffer — the crash-simulation counterpart of Unmount. The device
// image is left exactly as the persist events issued so far made it;
// buffered dirty state evaporates as a power failure would drop it.
func (fs *FS) Abandon() { fs.pool.Abandon() }

// File is an open HiNFS file handle.
type File struct {
	fs    *FS
	pf    *pmfs.File
	fb    *buffer.FileBuf
	flags int

	mapped bool
	closed atomic.Bool
}

// checkOpen rejects operations on a closed handle before any lock is
// taken. An operation that passes the check while Close runs still
// completes safely: storage reclamation happens under the inode lock the
// operation holds.
func (f *File) checkOpen() error {
	if f.closed.Load() {
		return vfs.ErrClosed
	}
	return nil
}

// Size implements vfs.File.
func (f *File) Size() int64 { return f.pf.Size() }

// Ino returns the file's inode number.
func (f *File) Ino() pmfs.Ino { return f.pf.Ino() }

// InodeNumber implements vfs.InodeNumberer.
func (f *File) InodeNumber() uint64 { return uint64(f.pf.Ino()) }

// ReadAt implements vfs.File: a single copy to the user buffer, merged per
// cacheline between DRAM and NVMM (§3.3.1).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	c := f.fs.obs
	var start time.Time
	if c != nil {
		start = time.Now()
	}
	merged := false
	f.pf.RLock()
	defer f.pf.RUnlock()
	size := f.pf.SizeLocked()
	if off >= size {
		// io.ReaderAt contract: reads at or past EOF report io.EOF.
		return 0, io.EOF
	}
	n := len(p)
	var eof error
	if off+int64(n) > size {
		n = int(size - off)
		eof = io.EOF
	}
	read := 0
	for read < n {
		pos := off + int64(read)
		idx := pos / BlockSize
		bo := int(pos % BlockSize)
		chunk := BlockSize - bo
		if chunk > n-read {
			chunk = n - read
		}
		dst := p[read : read+chunk]
		addr := f.pf.BlockAddrLocked(idx)
		if !f.fb.ReadMerge(idx, bo, dst, addr) {
			// Not buffered: read NVMM directly (or a hole).
			if addr == 0 {
				for i := range dst {
					dst[i] = 0
				}
			} else {
				f.fs.Device().Read(dst, addr+int64(bo))
				c.Copy(obs.CopyReadOut, len(dst))
			}
		} else {
			merged = true
		}
		read += chunk
	}
	if c != nil {
		dur := time.Since(start).Nanoseconds()
		path := obs.PathDirectRead
		if merged {
			path = obs.PathBufferedRead
		}
		c.Path(path, dur)
	}
	return n, eof
}

// WriteAt implements vfs.File: the Eager-Persistent Write Checker routes
// each touched block either to the DRAM buffer (lazy-persistent) or
// directly to NVMM (eager-persistent).
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	if err := f.checkOpen(); err != nil {
		return 0, err
	}
	if off < 0 {
		return 0, vfs.ErrInvalid
	}
	if len(p) == 0 {
		return 0, nil
	}
	c := f.fs.obs
	var start time.Time
	if c != nil {
		start = time.Now()
	}
	f.pf.Lock()
	defer f.pf.Unlock()
	size := f.pf.SizeLocked()
	if f.flags&vfs.OAppend != 0 {
		off = size
	}
	f.zeroBufferedGap(size, off)
	plan, err := f.pf.PrepareWriteLocked(off, len(p))
	if err != nil {
		return 0, err
	}
	// What a buffered block's persistence releases: the write's transaction,
	// or — for an overwrite, which has none — nothing.
	var gate []*journal.Tx
	if plan.Tx != nil {
		gate = []*journal.Tx{plan.Tx}
	}
	dev := f.fs.Device()
	ino := uint64(f.pf.Ino())
	case1 := f.fs.opts.SyncMount || f.flags&vfs.OSync != 0 || f.mapped
	lastSync := f.pf.LastSync()

	written := 0
	pendingBlocks := 0
	anyDirect := false
	eagerBlocks, lazyBlocks := int64(0), int64(0)
	for _, e := range plan.Extents {
		blkOff := 0
		if e.Index == off/BlockSize {
			blkOff = int(off % BlockSize)
		}
		chunk := BlockSize - blkOff
		if chunk > len(p)-written {
			chunk = len(p) - written
		}
		data := p[written : written+chunk]
		mask := cacheline.RangeMask(blkOff, chunk)
		f.fs.model.RecordWrite(ino, e.Index, mask)

		eager := case1
		if !eager && !f.fs.opts.DisableEagerChecker {
			eager = f.fs.model.IsEager(ino, e.Index, lastSync)
		}
		switch {
		case eager && case1 && f.fb.Buffered(e.Index):
			// Case-1 consistency (§3.3.2): the block is already in DRAM;
			// write it there, then explicitly evict it before returning.
			f.fb.Write(e.Index, blkOff, data, e.Addr, !e.Created)
			f.fb.EvictBlock(e.Index)
			anyDirect = true
			eagerBlocks++
		case eager:
			// Direct NVMM write; invalidate any stale buffered lines so
			// reads cannot see old data (case-2 blocks are clean since
			// their last sync, so this drops no dirty state).
			f.fb.Invalidate(e.Index, blkOff, chunk)
			dev.WriteNT(data, e.Addr+int64(blkOff))
			c.Copy(obs.CopyUserIn, len(data))
			anyDirect = true
			eagerBlocks++
		default:
			f.fb.Write(e.Index, blkOff, data, e.Addr, !e.Created, gate...)
			pendingBlocks++
			lazyBlocks++
		}
		written += chunk
	}
	if anyDirect {
		dev.Fence()
	}
	// Ordered-mode commit: the transaction's commit record is written when
	// its last buffered block persists; with no buffered blocks it commits
	// now (data already durable via WriteNT). The unsafe knob skips the
	// wait (seeded ordering bug for the crash explorer's self-test).
	if tx := plan.Tx; tx != nil {
		if !f.fs.opts.UnsafeSkipOrderedCommit {
			tx.AddPending(pendingBlocks)
		}
		tx.Seal()
	}
	if c != nil {
		dur := time.Since(start).Nanoseconds()
		// An op with any direct block pays NVMM latency inline, so it
		// belongs to the eager-persistent distribution; pure-DRAM ops
		// belong to the lazy one. The block-level split stays exact in
		// the counters.
		path := obs.PathLazyWrite
		if anyDirect {
			path = obs.PathEagerWrite
		}
		c.Path(path, dur)
		c.Add(obs.CtrEagerBlocks, eagerBlocks)
		c.Add(obs.CtrLazyBlocks, lazyBlocks)
	}
	return written, nil
}

// Fsync implements vfs.File: flush the file's dirty DRAM blocks to NVMM,
// fence, and let the Buffer Benefit Model re-evaluate block states.
func (f *File) Fsync() error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	f.pf.Lock()
	f.fb.Flush()
	f.fs.Device().Fence()
	f.pf.Unlock()
	f.fs.model.OnSync(uint64(f.pf.Ino()))
	f.pf.MarkSynced(f.fs.clk.Now())
	return nil
}

// Truncate implements vfs.File. Buffered blocks beyond the new size are
// discarded before the substrate frees their NVMM blocks.
func (f *File) Truncate(size int64) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if size < 0 {
		return vfs.ErrInvalid
	}
	f.pf.Lock()
	defer f.pf.Unlock()
	old := f.pf.SizeLocked()
	if size < old {
		boundary := size / BlockSize
		for _, idx := range f.fb.BlockIndices() {
			if idx > boundary || (idx == boundary && size%BlockSize == 0) {
				f.fb.DropBlock(idx)
			}
		}
		// Write back what stays buffered, so every transaction still gated
		// on this file commits now and the truncate's own — chained behind
		// them — commits before it returns. The allocator hands freed
		// blocks out again at once; were the truncate's commit record still
		// waiting on a buffered block, a crash could roll the truncate back
		// after another file had durably taken one of them.
		f.fb.Flush()
	}
	f.zeroBufferedGap(old, size)
	return f.pf.TruncateLocked(size)
}

// zeroBufferedGap writes zeroes over what extending the file from size to end
// exposes in the buffered copy of the block that holds EOF — [size, end),
// clipped to that block — if the block is buffered: its valid lines past EOF
// may hold bytes fetched from NVMM or cut off by a truncate. pmfs zeroes the
// same gap on NVMM before it commits the extension; zeroing the copy first
// means no write-back can carry those bytes over the zeroes afterwards. The
// caller holds the inode write lock.
func (f *File) zeroBufferedGap(size, end int64) {
	idx, bo := size/BlockSize, size%BlockSize
	if bo == 0 || end <= size || !f.fb.Buffered(idx) {
		return
	}
	n := min(end-size, BlockSize-bo)
	f.fb.Write(idx, int(bo), zeroBlock[:n], f.pf.BlockAddrLocked(idx), true)
}

// Close implements vfs.File. A second Close returns ErrClosed. The last
// close of a removed file drops its buffered blocks through the reclaim
// hook (see wrap).
func (f *File) Close() error {
	f.closed.Store(true)
	return f.pf.Close()
}

// Mmap emulates direct memory-mapped I/O for one file block (§4.2): the
// file's dirty DRAM blocks are flushed, its blocks switch to
// Eager-Persistent until Munmap, and the returned slice aliases NVMM.
func (f *File) Mmap(index int64) ([]byte, error) {
	if err := f.checkOpen(); err != nil {
		return nil, err
	}
	if index < 0 || index > pmfs.MaxBlockIndex {
		return nil, vfs.ErrInvalid
	}
	f.pf.Lock()
	f.fb.Flush()
	size := f.pf.SizeLocked()
	f.zeroBufferedGap(size, (index+1)*BlockSize)
	f.pf.Unlock()
	// Mark the blocks the file holds, and the mapped one: the blocks
	// between them are holes until something writes them.
	nblocks := (size + BlockSize - 1) / BlockSize
	indices := make([]int64, 0, nblocks+1)
	for i := int64(0); i < nblocks; i++ {
		indices = append(indices, i)
	}
	if index >= nblocks {
		indices = append(indices, index)
	}
	f.fs.model.MarkEager(uint64(f.pf.Ino()), indices)
	f.mapped = true
	m, err := f.pf.MmapBlock(index)
	if err != nil {
		return nil, err
	}
	// Reads must not see stale DRAM lines for the mapped block.
	f.fb.EvictBlock(index)
	return m, nil
}

// Msync persists stores made through the Mmap slice of block index.
func (f *File) Msync(index int64) error {
	if err := f.checkOpen(); err != nil {
		return err
	}
	if index < 0 {
		return vfs.ErrInvalid
	}
	f.pf.RLock()
	addr := f.pf.BlockAddrLocked(index)
	f.pf.RUnlock()
	if addr == 0 {
		return vfs.ErrInvalid
	}
	f.fs.Device().Flush(addr, BlockSize)
	f.fs.Device().Fence()
	return nil
}

// Munmap ends the mapping; blocks decay back to Lazy-Persistent via the
// benefit model's normal 5 s rule.
func (f *File) Munmap() error {
	f.mapped = false
	return nil
}
