package buffer

import (
	"runtime"
	"slices"

	"hinfs/internal/cacheline"
	"hinfs/internal/journal"
	"hinfs/internal/obs"
)

// FileBuf is the per-file view of the pool: the DRAM Block Index mapping
// file block indices to buffered DRAM blocks (paper Fig. 5). HiNFS holds
// one FileBuf per inode with buffered data.
//
// The index is split across the pool's shards: blocks[i] holds the file
// blocks whose (FileBuf, index) hash lands on shard i and is guarded by
// that shard's mutex. Same-file write/read exclusion is provided by the
// owning file system's inode lock; FileBuf coordinates with the pool's
// writeback threads via the shard mutexes, per-block pins and the
// per-block flush mutex. Beside the index it keeps the ordered set of
// blocks that may be dirty (see dirtySet), so fsync costs what is dirty,
// not what is buffered.
type FileBuf struct {
	pool *Pool
	id   uint64
	// blocks[i] is the shard-i slice of the index; the slice header is
	// immutable after NewFile, each element is created lazily and accessed
	// only under shard i's mutex.
	blocks []map[int64]*block
	// dirty is the ordered set of block indices Flush visits.
	dirty dirtySet
}

// NewFile returns an empty per-file buffer view.
func (p *Pool) NewFile() *FileBuf {
	return &FileBuf{
		pool:   p,
		id:     p.fileID.Add(1),
		blocks: make([]map[int64]*block, len(p.shards)),
	}
}

// lookupPin finds the buffered block for idx and pins it; the caller must
// unpin. Returns nil if the block is not buffered.
func (fb *FileBuf) lookupPin(idx int64, touch bool) *block {
	sh := fb.pool.shardFor(fb, idx)
	sh.mu.Lock()
	b := fb.blocks[sh.id][idx]
	if b != nil {
		b.pins.Add(1)
		if touch {
			sh.touch(b)
		}
	}
	sh.mu.Unlock()
	return b
}

// Write buffers data at byte offset blkOff within file block idx. addr is
// the NVMM device address of the backing block (used for CLFW fetch and
// later writeback). blockExists reports whether the NVMM block held data
// before this write (false for newly allocated blocks, whose unwritten
// bytes are zero). txs are ordered-mode transactions whose commit must
// wait for this block's persistence; they are registered on the block.
//
// It returns the number of cachelines the write covered (the Buffer
// Benefit Model's N_cw contribution).
func (fb *FileBuf) Write(idx int64, blkOff int, data []byte, addr int64, blockExists bool, txs ...*journal.Tx) int {
	if len(data) == 0 || blkOff+len(data) > BlockSize {
		panic("buffer: bad write range")
	}
	p := fb.pool
	b := fb.lookupPin(idx, true)
	if b == nil {
		sh := p.shardFor(fb, idx)
		nb := p.allocBlock(sh)
		sh.mu.Lock()
		if cur := fb.blocks[sh.id][idx]; cur != nil {
			// Defensive: installed concurrently (should not happen under
			// the inode lock).
			cur.pins.Add(1)
			sh.touch(cur)
			sh.mu.Unlock()
			p.releaseBlock(nb)
			b = cur
		} else {
			nb.pins.Add(1)
			sh.installLocked(nb, fb, idx, addr)
			sh.mu.Unlock()
			b = nb
		}
		p.writeMisses.Add(1)
	} else {
		p.writeHits.Add(1)
	}
	b.fmu.Lock()
	if !blockExists {
		b.fresh = true
	}
	valid := b.validMap()
	mask := cacheline.RangeMask(blkOff, len(data))
	// CLFW fetch: bring in only the cachelines this write partially covers
	// and that are not yet valid (§3.2.1). Without CLFW the whole block is
	// fetched on a miss.
	fetchMask := cacheline.Bitmap(0)
	if p.cfg.CLFW {
		first, last := cacheline.LinesCovering(blkOff, len(data))
		if blkOff%cacheline.Size != 0 && !valid.Test(first) {
			fetchMask.Set(first)
		}
		if (blkOff+len(data))%cacheline.Size != 0 && !valid.Test(last) {
			fetchMask.Set(last)
		}
	} else {
		fetchMask = ^valid
	}
	if fetchMask.Any() {
		var rb [cacheline.PerBlock]cacheline.Run
		fetched := 0
		for _, r := range fetchMask.Runs(rb[:0], 0, cacheline.PerBlock-1) {
			if !r.Set {
				continue
			}
			if blockExists {
				p.dev.Read(b.data[r.Off:r.Off+r.Len], b.addr+int64(r.Off))
				p.linesFetched.Add(int64(r.Len / cacheline.Size))
				fetched += r.Len
			} else {
				// Backing block is fresh: the missing lines are zero.
				zero(b.data[r.Off : r.Off+r.Len])
			}
		}
		p.cfg.Obs.Copy(obs.CopyWriteFetch, fetched)
	}
	if !p.cfg.CLFW {
		valid = cacheline.Full
	}
	copy(b.data[blkOff:], data)
	p.cfg.Obs.Copy(obs.CopyUserIn, len(data))
	b.valid.Store(uint64(valid | mask))
	fb.storeDirtyLocked(b, b.dirtyMap()|mask)
	b.lastWrite.Store(p.clk.Now().UnixNano())
	if len(txs) > 0 {
		b.txs = append(b.txs, txs...)
	}
	b.fmu.Unlock()
	b.pins.Add(-1)
	return mask.Count()
}

// storeDirtyLocked sets b's dirty map and keeps the file's dirty set in
// step: the index joins the set before the map leaves zero and leaves it
// after the map returns to zero, so the set never lags the map. Caller
// holds b.fmu and a pin on b, which is installed in fb.
func (fb *FileBuf) storeDirtyLocked(b *block, d cacheline.Bitmap) {
	was := b.dirtyMap().Any()
	if !was && d.Any() {
		fb.dirty.add(b.idx)
	}
	b.dirty.Store(uint64(d))
	if was && !d.Any() {
		fb.dirty.remove(b.idx)
	}
}

// zeroBlock is the all-zero source for zeroLinesLocked; it is only read.
var zeroBlock [BlockSize]byte

func zero(s []byte) {
	for i := range s {
		s[i] = 0
	}
}

// ReadMerge copies the byte range [blkOff, blkOff+len(dst)) of file block
// idx into dst, taking each cacheline from DRAM if the buffered block
// holds it valid and from NVMM (at addr) otherwise — the paper's
// read-consistency merge (§3.3.1). One copy is issued per run of
// consecutive same-source cachelines. It reports whether the block was
// buffered; if not it copies nothing and the caller reads NVMM directly.
func (fb *FileBuf) ReadMerge(idx int64, blkOff int, dst []byte, addr int64) bool {
	if len(dst) == 0 {
		return false
	}
	b := fb.lookupPin(idx, false)
	if b == nil {
		return false
	}
	defer b.pins.Add(-1)
	fb.pool.cfg.Obs.Copy(obs.CopyReadOut, len(dst))
	first, last := cacheline.LinesCovering(blkOff, len(dst))
	var rb [cacheline.PerBlock]cacheline.Run
	for _, r := range b.validMap().Runs(rb[:0], first, last) {
		lo, hi := r.Off, r.Off+r.Len
		if lo < blkOff {
			lo = blkOff
		}
		if hi > blkOff+len(dst) {
			hi = blkOff + len(dst)
		}
		if lo >= hi {
			continue
		}
		if r.Set {
			copy(dst[lo-blkOff:hi-blkOff], b.data[lo:hi])
		} else if addr == 0 {
			// The block is a hole on NVMM; unbuffered lines read zero.
			zero(dst[lo-blkOff : hi-blkOff])
		} else {
			fb.pool.dev.Read(dst[lo-blkOff:hi-blkOff], addr+int64(lo))
		}
	}
	return true
}

// DropBlock discards block idx without writeback (truncate: the NVMM
// block is about to be freed, so its buffered data must never be flushed).
// Gated transactions are released, which lets a transaction that extended
// the file into this block commit before the one that frees it does; in
// that window a crash image shows the block in the file up to the extended
// size. pmfs zeroed neither a fresh block's written lines nor, in a block
// that already existed, the lines an append wrote past a tail it left as
// allocated, so the dirty lines of a fresh block or of one that gates a
// transaction are zeroed on NVMM first: the window shows zeroes, never the
// block's previous owner.
func (fb *FileBuf) DropBlock(idx int64) { fb.drop(idx, true) }

// drop detaches block idx and discards its dirty lines, zeroing them on
// NVMM first when zeroes is set and the block is fresh or gates a
// transaction (see DropBlock), then releases its gated transactions.
func (fb *FileBuf) drop(idx int64, zeroes bool) {
	p := fb.pool
	sh := p.shardFor(fb, idx)
	for {
		sh.mu.Lock()
		b := fb.blocks[sh.id][idx]
		if b == nil {
			sh.mu.Unlock()
			return
		}
		if b.pins.Load() != 0 {
			sh.mu.Unlock()
			runtime.Gosched()
			continue
		}
		sh.detachLocked(b)
		// No block is installed for idx now, so the set may forget it
		// whatever b's dirty map says.
		fb.dirty.remove(idx)
		sh.mu.Unlock()
		b.fmu.Lock()
		if dirty := b.dirtyMap(); dirty.Any() {
			p.drops.Add(1)
			if zeroes && (b.fresh || len(b.txs) > 0) {
				p.zeroLinesLocked(b, dirty)
			}
		}
		b.dirty.Store(0)
		notifyTxsLocked(b)
		b.fmu.Unlock()
		p.releaseBlock(b)
		return
	}
}

// zeroLinesLocked writes and flushes zeroes over the given lines of b's NVMM
// block, fenced so they are durable before anything the caller does next.
// Caller holds b.fmu.
func (p *Pool) zeroLinesLocked(b *block, lines cacheline.Bitmap) {
	var rb [cacheline.PerBlock]cacheline.Run
	for _, r := range lines.Runs(rb[:0], 0, cacheline.PerBlock-1) {
		if r.Set {
			p.dev.Write(zeroBlock[:r.Len], b.addr+int64(r.Off))
			p.dev.Flush(b.addr+int64(r.Off), r.Len)
		}
	}
	p.dev.Fence()
}

// Buffered reports whether file block idx is in the DRAM buffer.
func (fb *FileBuf) Buffered(idx int64) bool {
	sh := fb.pool.shardFor(fb, idx)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return fb.blocks[sh.id][idx] != nil
}

// DirtyLines returns the number of dirty cachelines buffered for block
// idx (0 if not buffered).
func (fb *FileBuf) DirtyLines(idx int64) int {
	sh := fb.pool.shardFor(fb, idx)
	sh.mu.Lock()
	b := fb.blocks[sh.id][idx]
	sh.mu.Unlock()
	if b == nil {
		return 0
	}
	return b.dirtyMap().Count()
}

// Flush writes back every dirty block of the file (the fsync path) and
// returns the number of cachelines flushed — the Buffer Benefit Model's
// N_cf as performed by the synchronization process itself. Blocks stay
// cached clean. It visits the file's dirty set in ascending file-block
// order, whatever shard each block lives in, so the device-write schedule
// (and with it the persist-event stream crash exploration replays) is a
// function of the op sequence alone; a file with nothing dirty costs one
// look at the set — no shard lock, no allocation. A member that a writeback
// thread cleaned or evicted since the snapshot is a no-op. Write-back
// cannot fail, so the error is always nil.
func (fb *FileBuf) Flush() (int, error) {
	p := fb.pool
	flushed := 0
	var batch [32]int64
	for next := int64(0); ; {
		n := fb.dirty.from(next, batch[:])
		if n == 0 {
			return flushed, nil
		}
		next = batch[n-1] + 1
		for _, idx := range batch[:n] {
			b := fb.lookupPin(idx, false)
			if b == nil {
				continue
			}
			b.fmu.Lock()
			flushed += b.dirtyMap().Count()
			p.flushBlockLocked(b, obs.CopySyncFlush)
			b.fmu.Unlock()
			b.pins.Add(-1)
		}
	}
}

// EvictBlock flushes block idx if dirty and removes it from the buffer
// (the paper's case-1 eager-persistent consistency path: write to the
// DRAM block, then explicitly evict it before returning).
func (fb *FileBuf) EvictBlock(idx int64) {
	p := fb.pool
	sh := p.shardFor(fb, idx)
	for {
		sh.mu.Lock()
		b := fb.blocks[sh.id][idx]
		if b == nil {
			sh.mu.Unlock()
			return
		}
		if b.pins.Load() != 0 {
			sh.mu.Unlock()
			runtime.Gosched()
			continue
		}
		b.pins.Add(1)
		sh.mu.Unlock()
		if p.evictPinned(sh, b, obs.CopyInlineEvict) {
			return
		}
	}
}

// Invalidate drops the valid/dirty state of every cacheline overlapping
// [blkOff, blkOff+n) of block idx, flushing first if any covered line is
// dirty. HiNFS calls it when an eager-persistent write goes directly to
// NVMM so stale DRAM lines cannot shadow the new data.
func (fb *FileBuf) Invalidate(idx int64, blkOff, n int) {
	b := fb.lookupPin(idx, false)
	if b == nil {
		return
	}
	mask := cacheline.RangeMask(blkOff, n)
	b.fmu.Lock()
	if (b.dirtyMap() & mask).Any() {
		fb.pool.flushBlockLocked(b, obs.CopyInlineEvict)
	}
	b.valid.Store(uint64(b.validMap() &^ mask))
	fb.storeDirtyLocked(b, b.dirtyMap()&^mask)
	b.fmu.Unlock()
	b.pins.Add(-1)
	if !b.validMap().Any() {
		fb.dropIfEmpty(idx)
	}
}

// dropIfEmpty releases block idx if it holds no valid lines.
func (fb *FileBuf) dropIfEmpty(idx int64) {
	p := fb.pool
	sh := p.shardFor(fb, idx)
	sh.mu.Lock()
	b := fb.blocks[sh.id][idx]
	if b == nil || b.pins.Load() != 0 || b.validMap().Any() {
		sh.mu.Unlock()
		return
	}
	sh.detachLocked(b)
	sh.mu.Unlock()
	// No valid lines means no dirty lines: this only releases any gated
	// transactions.
	p.flushBlock(b, obs.CopySyncFlush)
	p.releaseBlock(b)
}

// Drop discards every buffered block of the file and writes nothing: the
// file was deleted, so its dirty data never needs to reach NVMM (§1's
// "writes to files that are later deleted do not need to be performed").
// It is the reclaim hook's drop, called after the file's dentry removal
// committed: the transactions it releases commit on an unreachable inode,
// so unlike DropBlock it owes no zeroes — a crash before the freeing commit
// leaves an orphan, and recovery frees it unread. Gated transactions are
// released shard by shard and lowest block index first within a shard — one
// sorted pass per shard, so the release order is deterministic (see Flush).
func (fb *FileBuf) Drop() {
	var idxs []int64
	for _, sh := range fb.pool.shards {
		idxs = idxs[:0]
		sh.mu.Lock()
		for idx := range fb.blocks[sh.id] {
			idxs = append(idxs, idx)
		}
		sh.mu.Unlock()
		slices.Sort(idxs)
		for _, idx := range idxs {
			fb.drop(idx, false)
		}
	}
}

// BlockIndices returns the sorted file block indices currently buffered
// (diagnostics and tests).
func (fb *FileBuf) BlockIndices() []int64 {
	p := fb.pool
	var out []int64
	for _, sh := range p.shards {
		sh.mu.Lock()
		for idx := range fb.blocks[sh.id] {
			out = append(out, idx)
		}
		sh.mu.Unlock()
	}
	slices.Sort(out)
	return out
}
