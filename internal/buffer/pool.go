// Package buffer implements HiNFS's NVMM-aware DRAM write buffer
// (paper §3.2).
//
// The buffer holds 4 KB DRAM blocks managed with the LRW (Least Recently
// Written) replacement policy. Each block carries two cacheline bitmaps:
// valid (which 64 B lines hold up-to-date data in DRAM) and dirty (which
// lines must be written back to NVMM). The Cacheline Level Fetch/Writeback
// scheme (CLFW, §3.2.1) fetches only the cachelines a partial write needs
// and writes back only dirty cachelines, run by run.
//
// Background writeback threads reclaim blocks when free space drops below
// Low_f (until it exceeds High_f), wake every FlushPeriod, and write back
// dirty blocks older than MaxDirtyAge. Ordered-mode journaling is
// supported by per-block transaction references: when a block's dirty
// lines reach NVMM, every registered transaction is notified so its commit
// record can be written (paper §4.1).
//
// Concurrency model: the pool is split into Config.Shards independent
// shards. A buffered block's shard is chosen by hashing its (FileBuf,
// block index) pair, so different files — and different block ranges of
// the same file — spread across shards and the write-hit fast path never
// serializes behind one global lock. Each shard owns:
//
//   - a mutex guarding the shard's slice of every file's DRAM Block Index,
//     the shard's LRW list and its free list;
//   - its own free list (blocks migrate between shards under allocation
//     pressure: an empty shard steals a free block from the fullest one);
//   - its own Low_f/High_f watermarks, computed from the shard's share of
//     the pool and clamped so that Low_f >= 1 block and Low_f < High_f —
//     background reclamation therefore arms even for tiny pools whose
//     fractional watermarks would truncate to zero.
//
// Within a shard the per-block protocol is unchanged: a per-block pin
// count keeps a block from being detached or reclaimed while in use; a
// per-block flush mutex serializes content mutation (write-copy,
// writeback, invalidate); and the bitmaps are atomics so scans read
// consistent snapshots without locks. Same-file writer/reader exclusion is
// provided by the owning file system's inode lock.
//
// Cross-shard operations (FlushAll, DrainBefore, DirtyBlocks, Close) visit
// shards in index order, locking one shard at a time; they never hold two
// shard locks at once, so there is no lock-ordering hazard. FlushAll — the
// sync(2) path — pins every dirty block it finds regardless of the block's
// current pin count: pins only block detachment, not writeback, so a
// concurrent reader's pin must not (and no longer does) exempt a dirty
// block from durability.
//
// The paper indexes buffered blocks with a per-file B-tree reused from
// PMFS and notes (§3.2) that the index structure is not performance
// critical — "there will be little performance difference between the
// index implementations of B-tree and other structures". We use Go's map
// as the per-file, per-shard DRAM Block Index accordingly.
package buffer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hinfs/internal/cacheline"
	"hinfs/internal/clock"
	"hinfs/internal/journal"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
)

// BlockSize is the DRAM buffer block size (equal to the FS block size).
const BlockSize = cacheline.BlockSize

// minShardBlocks is the smallest per-shard capacity the automatic shard
// count will produce; below it, per-shard watermarks degenerate and the
// sharding overhead outweighs the lock-contention win.
const minShardBlocks = 64

// stallBackoff is how long a stalled foreground allocation waits when
// every block in its shard is pinned (liveness fallback).
const stallBackoff = 10 * time.Microsecond

// Config tunes the buffer pool. Zero fields take the paper's defaults.
type Config struct {
	// Blocks is the pool capacity in 4 KB blocks. Required.
	Blocks int
	// Shards is the number of independent pool shards. 0 picks
	// runtime.GOMAXPROCS(0), capped so every shard holds at least
	// minShardBlocks blocks; an explicit value is honoured up to one
	// shard per block.
	Shards int
	// LowFree is the free-block fraction that wakes the writeback threads
	// (default 0.05, the paper's Low_f). Per shard it is clamped to at
	// least one block.
	LowFree float64
	// HighFree is the free-block fraction reclamation aims for
	// (default 0.20, the paper's High_f). Per shard it is clamped to stay
	// above the low watermark.
	HighFree float64
	// FlushPeriod is the periodic writeback wake interval (default 5 s).
	FlushPeriod time.Duration
	// MaxDirtyAge writes back blocks not written for this long
	// (default 30 s).
	MaxDirtyAge time.Duration
	// WritebackThreads is the number of background flusher goroutines
	// (default 4; the paper creates "multiple independent kernel
	// threads"). A negative value disables background writeback entirely:
	// eviction then happens only inline in the foreground allocation
	// path, which deterministic replacement-policy tests rely on.
	WritebackThreads int
	// CLFW enables Cacheline Level Fetch/Writeback. When false (the
	// paper's HiNFS-NCLFW ablation), whole blocks are fetched on a partial
	// miss and whole blocks are written back.
	CLFW bool
	// Obs, when non-nil, receives foreground stall latencies
	// (obs.PathStall) and background writeback batch sizes
	// (obs.PathWriteback). Nil disables observability at zero cost on the
	// write-hit fast path.
	Obs *obs.Collector
}

func (c *Config) fill() {
	if c.Shards == 0 {
		n := runtime.GOMAXPROCS(0)
		if most := c.Blocks / minShardBlocks; n > most {
			n = most
		}
		c.Shards = n
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Shards > c.Blocks && c.Blocks > 0 {
		c.Shards = c.Blocks
	}
	if c.LowFree == 0 {
		c.LowFree = 0.05
	}
	if c.HighFree == 0 {
		c.HighFree = 0.20
	}
	if c.FlushPeriod == 0 {
		c.FlushPeriod = 5 * time.Second
	}
	if c.MaxDirtyAge == 0 {
		c.MaxDirtyAge = 30 * time.Second
	}
	if c.WritebackThreads == 0 {
		c.WritebackThreads = 4
	}
	if c.WritebackThreads < 0 {
		c.WritebackThreads = 0
	}
}

// ShardStats reports one shard's occupancy (lock-free snapshot).
type ShardStats struct {
	// Capacity is the shard's initial share of the pool in blocks.
	Capacity int
	// Free is the shard's current free-list length.
	Free int
	// InUse is the number of blocks currently installed in the shard.
	InUse int
}

// Stats aggregates pool counters.
type Stats struct {
	// WriteHits counts buffered writes that found their block in DRAM.
	WriteHits int64
	// WriteMisses counts buffered writes that allocated a new DRAM block.
	WriteMisses int64
	// LinesFetched counts cachelines fetched NVMM→DRAM for partial writes.
	LinesFetched int64
	// LinesFlushed counts cachelines written back DRAM→NVMM.
	LinesFlushed int64
	// Evictions counts blocks reclaimed by writeback threads or by a
	// stalled foreground allocation (not case-1 evictions or unmount).
	Evictions int64
	// Stalls counts foreground allocation episodes that found their shard
	// exhausted.
	Stalls int64
	// StallNanos is the cumulative time foreground allocations spent in
	// the exhausted-shard slow path (inline eviction plus backoff waits),
	// measured on the pool clock.
	StallNanos int64
	// WritebackBatches counts background reclaim/age passes that wrote
	// back at least one block.
	WritebackBatches int64
	// WritebackBlocks counts blocks written back by background batches
	// (per-batch size = WritebackBlocks / WritebackBatches).
	WritebackBlocks int64
	// Drops counts dirty blocks discarded because their file was deleted —
	// writes that never had to reach NVMM.
	Drops int64
	// Shards snapshots per-shard occupancy.
	Shards []ShardStats
}

// block is one DRAM buffer block. Its data is owned by the pool slab.
type block struct {
	data []byte
	fb   *FileBuf
	sh   *shard // owning shard (home of free/LRW membership)
	idx  int64  // file block index
	addr int64  // NVMM device byte address of the backing block

	valid atomic.Uint64 // cacheline.Bitmap: up-to-date lines in DRAM
	dirty atomic.Uint64 // cacheline.Bitmap: lines needing writeback

	lastWrite atomic.Int64 // unix nanos of the last buffered write

	fmu sync.Mutex    // serializes content mutation: write, flush, invalidate
	txs []*journal.Tx // ordered-mode commits gated on this block (under fmu)
	// fresh (under fmu) marks a block whose NVMM backing was allocated by a
	// write buffered here and has not been written back since: pmfs left
	// the bytes that write covers un-zeroed, so until the block is flushed
	// the dirty lines of the NVMM block still hold its previous owner's
	// bytes. Set by Write(blockExists == false), cleared by a flush;
	// DropBlock zeroes those lines on NVMM before it lets txs commit (Drop,
	// whose file is already unreachable, does not).
	fresh bool

	pins atomic.Int32 // >0: block must not be detached or reclaimed

	prev, next *block // LRW list links (head = MRW, tail = LRW)
}

func (b *block) validMap() cacheline.Bitmap { return cacheline.Bitmap(b.valid.Load()) }
func (b *block) dirtyMap() cacheline.Bitmap { return cacheline.Bitmap(b.dirty.Load()) }

// shard is one independent slice of the pool: its own lock, free list,
// LRW list and watermarks.
type shard struct {
	pool *Pool
	id   int
	// total is the shard's initial share of the pool; low/high are the
	// reclamation watermarks in blocks, clamped to low >= 1 and
	// low < high (<= total).
	total     int
	low, high int

	mu    sync.Mutex
	free  []*block
	head  *block // most recently written
	tail  *block // least recently written
	inUse int

	// freeCount and inUseCount mirror len(free) and inUse so Stats and
	// FreeBlocks read occupancy without taking shard locks.
	freeCount  atomic.Int32
	inUseCount atomic.Int32
}

// Pool is the shared DRAM buffer.
type Pool struct {
	dev *nvmm.Device
	clk clock.Clock
	cfg Config

	shards []*shard
	total  int

	fileID atomic.Uint64
	closed atomic.Bool

	wake chan struct{}
	quit chan struct{}
	wg   sync.WaitGroup

	writeHits    atomic.Int64
	writeMisses  atomic.Int64
	linesFetched atomic.Int64
	linesFlushed atomic.Int64
	evictions    atomic.Int64
	stalls       atomic.Int64
	stallNanos   atomic.Int64
	wbBatches    atomic.Int64
	wbBlocks     atomic.Int64
	drops        atomic.Int64
}

// NewPool creates a pool of cfg.Blocks DRAM blocks over dev and starts the
// background writeback threads.
func NewPool(dev *nvmm.Device, clk clock.Clock, cfg Config) *Pool {
	if cfg.Blocks <= 0 {
		panic("buffer: Config.Blocks must be positive")
	}
	cfg.fill()
	p := &Pool{dev: dev, clk: clk, cfg: cfg, total: cfg.Blocks,
		wake: make(chan struct{}, 1), quit: make(chan struct{})}
	slab := make([]byte, cfg.Blocks*BlockSize)
	p.shards = make([]*shard, cfg.Shards)
	base := cfg.Blocks / cfg.Shards
	rem := cfg.Blocks % cfg.Shards
	next := 0
	for i := range p.shards {
		n := base
		if i < rem {
			n++
		}
		sh := &shard{pool: p, id: i, total: n}
		sh.low = int(float64(n) * cfg.LowFree)
		sh.high = int(float64(n) * cfg.HighFree)
		if sh.low < 1 {
			sh.low = 1
		}
		if sh.high <= sh.low {
			sh.high = sh.low + 1
		}
		if sh.high > n {
			sh.high = n
		}
		if sh.low > sh.high {
			sh.low = sh.high // degenerate one-block shard
		}
		sh.free = make([]*block, n)
		for j := 0; j < n; j++ {
			sh.free[j] = &block{
				data: slab[(next+j)*BlockSize : (next+j+1)*BlockSize],
				sh:   sh,
			}
		}
		sh.freeCount.Store(int32(n))
		next += n
		p.shards[i] = sh
	}
	for i := 0; i < cfg.WritebackThreads; i++ {
		p.wg.Add(1)
		go p.writebackLoop(i)
	}
	return p
}

// shardFor maps a (file, block index) pair onto its shard.
func (p *Pool) shardFor(fb *FileBuf, idx int64) *shard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	h := fb.id*0x9E3779B97F4A7C15 + uint64(idx)*0xBF58476D1CE4E5B9
	h ^= h >> 29
	h *= 0x94D049BB133111EB
	h ^= h >> 32
	return p.shards[h%uint64(len(p.shards))]
}

// Stats returns a snapshot of pool counters.
func (p *Pool) Stats() Stats {
	st := Stats{
		WriteHits:        p.writeHits.Load(),
		WriteMisses:      p.writeMisses.Load(),
		LinesFetched:     p.linesFetched.Load(),
		LinesFlushed:     p.linesFlushed.Load(),
		Evictions:        p.evictions.Load(),
		Stalls:           p.stalls.Load(),
		StallNanos:       p.stallNanos.Load(),
		WritebackBatches: p.wbBatches.Load(),
		WritebackBlocks:  p.wbBlocks.Load(),
		Drops:            p.drops.Load(),
		Shards:           make([]ShardStats, len(p.shards)),
	}
	for i, sh := range p.shards {
		st.Shards[i] = ShardStats{
			Capacity: sh.total,
			Free:     int(sh.freeCount.Load()),
			InUse:    int(sh.inUseCount.Load()),
		}
	}
	return st
}

// FreeBlocks returns the current number of free DRAM blocks (lock-free
// snapshot summed across shards).
func (p *Pool) FreeBlocks() int {
	n := 0
	for _, sh := range p.shards {
		n += int(sh.freeCount.Load())
	}
	return n
}

// Capacity returns the pool size in blocks.
func (p *Pool) Capacity() int { return p.total }

// ShardCount returns the number of independent pool shards.
func (p *Pool) ShardCount() int { return len(p.shards) }

// Config returns the pool configuration after defaulting (Shards holds
// the resolved shard count).
func (p *Pool) Config() Config { return p.cfg }

// DirtyBlocks returns the number of buffered blocks with dirty lines.
func (p *Pool) DirtyBlocks() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.Lock()
		for b := sh.head; b != nil; b = b.next {
			if b.dirtyMap().Any() {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// Abandon stops the background writeback threads without flushing
// anything. Crash-simulation harnesses use it in place of Close so the
// NVMM image stays exactly as the persist events issued so far made it.
func (p *Pool) Abandon() {
	if p.closed.Swap(true) {
		return
	}
	close(p.quit)
	p.wg.Wait()
}

// Close flushes every dirty block to NVMM, releases every block and stops
// the writeback threads (the paper flushes all DRAM blocks at unmount).
func (p *Pool) Close() {
	if p.closed.Swap(true) {
		return
	}
	close(p.quit)
	p.wg.Wait()
	for _, sh := range p.shards {
		for {
			sh.mu.Lock()
			empty := sh.tail == nil
			victim := sh.victimLocked()
			if victim != nil {
				victim.pins.Add(1)
			}
			sh.mu.Unlock()
			if empty {
				break
			}
			if victim == nil {
				runtime.Gosched()
				continue
			}
			p.evictPinned(sh, victim, obs.CopySyncFlush)
		}
	}
}

// --- per-shard LRW list management (callers hold sh.mu) ---

func (sh *shard) pushMRW(b *block) {
	b.prev = nil
	b.next = sh.head
	if sh.head != nil {
		sh.head.prev = b
	}
	sh.head = b
	if sh.tail == nil {
		sh.tail = b
	}
}

func (sh *shard) unlinkList(b *block) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		sh.head = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	} else {
		sh.tail = b.prev
	}
	b.prev, b.next = nil, nil
}

func (sh *shard) touch(b *block) {
	sh.unlinkList(b)
	sh.pushMRW(b)
}

// installLocked links b into the shard for (fb, idx); the caller owns b
// exclusively and holds sh.mu.
func (sh *shard) installLocked(b *block, fb *FileBuf, idx, addr int64) {
	b.fb = fb
	b.sh = sh
	b.idx = idx
	b.addr = addr
	m := fb.blocks[sh.id]
	if m == nil {
		m = make(map[int64]*block)
		fb.blocks[sh.id] = m
	}
	m[idx] = b
	sh.pushMRW(b)
	sh.inUse++
	sh.inUseCount.Store(int32(sh.inUse))
}

// detachLocked removes b from its file index and the LRW list; the caller
// then owns the block exclusively (pins must be zero, or the caller holds
// the only pin — new pins require the map entry this deletes). Caller
// holds sh.mu.
func (sh *shard) detachLocked(b *block) {
	sh.unlinkList(b)
	delete(b.fb.blocks[sh.id], b.idx)
	b.fb = nil
	sh.inUse--
	sh.inUseCount.Store(int32(sh.inUse))
}

// victimLocked picks the Least Recently Written unpinned block; nil if
// none. Caller holds sh.mu.
func (sh *shard) victimLocked() *block {
	for b := sh.tail; b != nil; b = b.prev {
		if b.pins.Load() == 0 {
			return b
		}
	}
	return nil
}

// releaseBlock resets b and returns it to its shard's free list.
func (p *Pool) releaseBlock(b *block) {
	b.valid.Store(0)
	b.dirty.Store(0)
	b.idx, b.addr = 0, 0
	b.fresh = false
	sh := b.sh
	sh.mu.Lock()
	sh.free = append(sh.free, b)
	sh.freeCount.Store(int32(len(sh.free)))
	sh.mu.Unlock()
}

// notifyTxsLocked tells every transaction gated on b that its data
// persisted. Caller holds b.fmu.
func notifyTxsLocked(b *block) {
	for _, tx := range b.txs {
		tx.BlockPersisted()
	}
	b.txs = nil
}

// flushBlock writes b's dirty lines back to NVMM. The caller must hold a
// pin or have detached the block. kind attributes the DRAM→NVMM copy:
// CopySyncFlush for fsync/sync/unmount, CopyInlineEvict for foreground
// evictions, CopyWriteback for background reclaim/age passes.
func (p *Pool) flushBlock(b *block, kind obs.CopyKind) {
	b.fmu.Lock()
	p.flushBlockLocked(b, kind)
	b.fmu.Unlock()
}

// flushBlockLocked writes b's dirty lines back to NVMM and fences. With
// CLFW only dirty runs are copied and flushed; without it the whole block
// is written. Write-back is stores and cacheline flushes into memory, so
// it cannot fail: the dirty map is cleared and gated transactions are
// notified once the fence returns. Caller holds b.fmu.
func (p *Pool) flushBlockLocked(b *block, kind obs.CopyKind) {
	dirty := b.dirtyMap()
	if !dirty.Any() {
		notifyTxsLocked(b)
		return
	}
	dirtyBytes := dirty.Count() * cacheline.Size
	if p.cfg.CLFW {
		var rb [cacheline.PerBlock]cacheline.Run
		for _, r := range dirty.Runs(rb[:0], 0, cacheline.PerBlock-1) {
			if !r.Set {
				continue
			}
			p.dev.Write(b.data[r.Off:r.Off+r.Len], b.addr+int64(r.Off))
			p.dev.Flush(b.addr+int64(r.Off), r.Len)
			p.linesFlushed.Add(int64(r.Len / cacheline.Size))
		}
	} else {
		dirtyBytes = BlockSize
		p.dev.Write(b.data, b.addr)
		p.dev.Flush(b.addr, BlockSize)
		p.linesFlushed.Add(cacheline.PerBlock)
	}
	p.dev.Fence()
	b.dirty.Store(0)
	b.fresh = false
	if fb := b.fb; fb != nil {
		// Stable while the caller's pin holds (detach needs pins == 0).
		fb.dirty.remove(b.idx)
	}
	p.cfg.Obs.Copy(kind, dirtyBytes)
	notifyTxsLocked(b)
}

// FlushAll writes back every dirty block in the pool (the sync(2) path)
// and returns the number of cachelines flushed. Blocks stay cached clean.
//
// Every dirty block is pinned and flushed regardless of its current pin
// count: a pin only prevents detachment, never writeback, so a concurrent
// reader (ReadMerge) must not exempt a block from sync durability. Shards
// are visited in index order; blocks dirtied after their shard was scanned
// belong to the next sync.
func (p *Pool) FlushAll() int { return p.flushDirty(false, 0) }

// DrainBefore writes back the dirty blocks that gate a transaction begun
// before bound (journal.Tx.BegunBefore) — the journal-pressure drain: those
// are the transactions that can hold the lane half the journal must reuse
// next, and each commits once its last gated block persists. Blocks that
// gate only later transactions, or none, stay dirty, so a file that dies
// before its turn never reaches NVMM. It returns the number of cachelines
// flushed and walks the pool like FlushAll.
func (p *Pool) DrainBefore(bound uint32) int { return p.flushDirty(true, bound) }

// flushDirty pins every dirty block, shard by shard, and flushes each one —
// with gated set, only those gating a transaction begun before bound.
func (p *Pool) flushDirty(gated bool, bound uint32) int {
	flushed := 0
	var victims []*block
	for _, sh := range p.shards {
		victims = victims[:0]
		sh.mu.Lock()
		for b := sh.head; b != nil; b = b.next {
			if b.dirtyMap().Any() {
				b.pins.Add(1)
				victims = append(victims, b)
			}
		}
		sh.mu.Unlock()
		for _, b := range victims {
			b.fmu.Lock()
			if !gated || gatesBefore(b.txs, bound) {
				flushed += b.dirtyMap().Count()
				p.flushBlockLocked(b, obs.CopySyncFlush)
			}
			b.fmu.Unlock()
			b.pins.Add(-1)
		}
	}
	return flushed
}

// gatesBefore reports whether any of txs began before bound.
func gatesBefore(txs []*journal.Tx, bound uint32) bool {
	for _, tx := range txs {
		if tx.BegunBefore(bound) {
			return true
		}
	}
	return false
}

// writebackLoop is the background flusher (§3.2): it reclaims blocks from
// the LRW position when free space is low, and periodically writes back
// aged dirty blocks. Thread i starts its shard sweep at offset i so
// concurrent threads drain different shards.
//
// Both sweeps yield the processor after every block. The device wait spins
// (nvmm.Wait), so a sweep of a hundred-odd blocks would otherwise hold its P
// for milliseconds while a client goroutine that is runnable waits behind
// it; yielding bounds that wait to one block's device time. Only these two
// background loops yield — nothing a foreground caller waits in (fsync,
// sync, inline eviction) gives up its turn.
func (p *Pool) writebackLoop(i int) {
	defer p.wg.Done()
	for {
		select {
		case <-p.quit:
			return
		case <-p.wake:
			p.reclaimFrom(i)
			p.flushAgedFrom(i)
		case <-p.clk.After(p.cfg.FlushPeriod):
			p.flushAgedFrom(i)
			if p.needReclaim() {
				p.reclaimFrom(i)
			}
		}
	}
}

// needReclaim reports whether any shard is below its low watermark.
func (p *Pool) needReclaim() bool {
	for _, sh := range p.shards {
		if int(sh.freeCount.Load()) < sh.low {
			return true
		}
	}
	return false
}

// reclaimFrom evicts LRW-position blocks in every shard that is below its
// high watermark, starting the sweep at shard offset off.
func (p *Pool) reclaimFrom(off int) {
	n := len(p.shards)
	for k := 0; k < n; k++ {
		p.reclaimShard(p.shards[(off+k)%n])
	}
}

// reclaimShard evicts LRW-position blocks until the shard's free space
// exceeds High_f.
func (p *Pool) reclaimShard(sh *shard) {
	batch := int64(0)
	for {
		sh.mu.Lock()
		if len(sh.free) >= sh.high {
			sh.mu.Unlock()
			break
		}
		victim := sh.victimLocked()
		if victim == nil {
			sh.mu.Unlock()
			break
		}
		victim.pins.Add(1)
		sh.mu.Unlock()
		if p.evictPinned(sh, victim, obs.CopyWriteback) {
			batch++
			p.evictions.Add(1)
		}
		runtime.Gosched() // see writebackLoop: one block's device time per turn
	}
	if batch > 0 {
		p.wbBatches.Add(1)
		p.wbBlocks.Add(batch)
		p.cfg.Obs.Path(obs.PathWriteback, batch)
	}
}

// evictPinned flushes a pinned eviction victim and, if the block is still
// installed, clean and exclusively ours, detaches and releases it. The pin
// is always dropped. Reports whether the block was released; a block that
// was re-pinned or re-dirtied meanwhile stays buffered. kind attributes the
// flush copy.
func (p *Pool) evictPinned(sh *shard, victim *block, kind obs.CopyKind) bool {
	p.flushBlock(victim, kind)
	sh.mu.Lock()
	ok := victim.fb != nil && victim.pins.Load() == 1 && !victim.dirtyMap().Any()
	if ok {
		sh.detachLocked(victim)
	}
	sh.mu.Unlock()
	victim.pins.Add(-1)
	if ok {
		p.releaseBlock(victim)
	}
	return ok
}

// flushAgedFrom writes back dirty blocks older than MaxDirtyAge without
// evicting them; they stay cached clean. The sweep starts at shard offset
// off.
func (p *Pool) flushAgedFrom(off int) {
	cutoff := p.clk.Now().Add(-p.cfg.MaxDirtyAge).UnixNano()
	n := len(p.shards)
	var victims []*block
	for k := 0; k < n; k++ {
		sh := p.shards[(off+k)%n]
		victims = victims[:0]
		sh.mu.Lock()
		for b := sh.tail; b != nil; b = b.prev {
			if b.pins.Load() == 0 && b.dirtyMap().Any() && b.lastWrite.Load() < cutoff {
				b.pins.Add(1)
				victims = append(victims, b)
			}
		}
		sh.mu.Unlock()
		for _, b := range victims {
			p.flushBlock(b, obs.CopyWriteback)
			b.pins.Add(-1)
			runtime.Gosched() // see writebackLoop
		}
		if len(victims) > 0 {
			p.wbBatches.Add(1)
			p.wbBlocks.Add(int64(len(victims)))
			p.cfg.Obs.Path(obs.PathWriteback, int64(len(victims)))
		}
	}
}

// Kick nudges the background writeback threads without blocking.
func (p *Pool) Kick() { p.kickWriteback() }

// kickWriteback nudges the background threads without blocking.
func (p *Pool) kickWriteback() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// stealFree takes a free block from the shard with the most free blocks
// (excluding sh). It returns nil if every other shard is exhausted too.
func (p *Pool) stealFree(sh *shard) *block {
	var richest *shard
	best := 0
	for _, o := range p.shards {
		if o == sh {
			continue
		}
		if f := int(o.freeCount.Load()); f > best {
			best, richest = f, o
		}
	}
	if richest == nil {
		return nil
	}
	richest.mu.Lock()
	defer richest.mu.Unlock()
	if len(richest.free) == 0 {
		return nil
	}
	b := richest.free[len(richest.free)-1]
	richest.free = richest.free[:len(richest.free)-1]
	richest.freeCount.Store(int32(len(richest.free)))
	return b
}

// allocBlock takes a free block for shard sh. If the shard is exhausted
// the caller first steals a free block from another shard; failing that it
// stalls (the paper's foreground stall behaviour): it kicks the writeback
// threads and, as a liveness fallback, evicts one LRW block inline. Stall
// waits run on the pool clock so simulated-clock runs stay deterministic,
// and stall duration is accounted in Stats.StallNanos.
func (p *Pool) allocBlock(sh *shard) *block {
	sh.mu.Lock()
	var stallStart time.Time
	var stallOp *obs.OpCtx
	var stallFlush0 int64
	stalled := false
	for len(sh.free) == 0 {
		if !stalled {
			stalled = true
			stallStart = p.clk.Now()
			p.stalls.Add(1)
			// Snapshot the attached op's flush charge: device persists
			// performed inside this stall (inline evictions) bill to
			// StageFlush, and the episode's StageStall is net of them.
			if stallOp = obs.CurrentOp(); stallOp != nil {
				stallFlush0 = stallOp.StageNS(obs.StageFlush)
			}
		}
		p.kickWriteback()
		sh.mu.Unlock()
		if b := p.stealFree(sh); b != nil {
			p.observeStall(stallStart, stallOp, stallFlush0)
			return b
		}
		sh.mu.Lock()
		victim := sh.victimLocked()
		if victim != nil {
			victim.pins.Add(1)
			sh.mu.Unlock()
			if p.evictPinned(sh, victim, obs.CopyInlineEvict) {
				p.evictions.Add(1)
			} else {
				// The block was re-pinned or re-dirtied; back off before
				// rescanning.
				<-p.clk.After(stallBackoff)
			}
		} else {
			sh.mu.Unlock()
			<-p.clk.After(stallBackoff)
		}
		sh.mu.Lock()
	}
	b := sh.free[len(sh.free)-1]
	sh.free = sh.free[:len(sh.free)-1]
	sh.freeCount.Store(int32(len(sh.free)))
	if len(sh.free) < sh.low {
		p.kickWriteback()
	}
	sh.mu.Unlock()
	if stalled {
		p.observeStall(stallStart, stallOp, stallFlush0)
	}
	return b
}

// observeStall accounts one completed foreground stall episode: the
// cumulative StallNanos counter, the stall-latency histogram and the
// attached op's StageStall — net of device flush time charged
// during the episode, so stall and flush never double-count.
func (p *Pool) observeStall(start time.Time, op *obs.OpCtx, flush0 int64) {
	ns := p.clk.Now().Sub(start).Nanoseconds()
	p.stallNanos.Add(ns)
	if op != nil {
		net := ns - (op.StageNS(obs.StageFlush) - flush0)
		if net > 0 {
			op.Charge(obs.StageStall, net)
		}
	}
	p.cfg.Obs.Path(obs.PathStall, ns)
}
