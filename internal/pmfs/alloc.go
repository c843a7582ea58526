package pmfs

import (
	"encoding/binary"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"hinfs/internal/journal"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
	"hinfs/internal/vfs"
)

// DefaultAllocShards is the default number of allocator shards. Matches
// journal.DefaultLanes so a metadata transaction's journal lane and block
// shard contend at the same concurrency grain.
const DefaultAllocShards = 8

// allocShard is one independently locked slice of the block range. Shard
// boundaries are 64-block (one bitmap word) aligned, so every mirror word
// is owned by exactly one shard and can be read-modified-persisted under
// that shard's mutex alone.
type allocShard struct {
	mu   sync.Mutex
	lo   int64 // first block of the shard's range
	hi   int64 // one past the last block
	free int64 // zero bits in [lo, hi), exact under mu
	hint int64 // next block number to try; rewound on release
}

// allocator manages the persistent block bitmap. A DRAM mirror of the
// bitmap serves lookups; every change is undo-journaled and written through
// to the NVMM bitmap so that recovery sees a consistent free map.
//
// The block range is partitioned into word-aligned shards, each with its
// own mutex, free count and allocation hint (NOVA-style per-CPU free
// lists). An allocation reserves space globally (one CAS on freeTotal — the
// all-or-nothing ErrNoSpace check), picks a round-robin home shard, and
// steals from neighbouring shards when its home runs dry. Sharding is a
// DRAM-only concurrency structure: the persistent bitmap format and the
// XOR undo records are unchanged, so recovery and recoverRebuild are
// oblivious to the shard count.
type allocator struct {
	dev         *nvmm.Device
	bitmapStart int64 // device byte offset of bitmap
	firstBlock  int64 // first allocatable block number
	totalBlocks int64

	words []uint64 // DRAM mirror, bit set = allocated

	shards        []*allocShard
	wordsPerShard int64
	nextShard     atomic.Uint64 // round-robin home-shard assignment
	// freeTotal is the global free count. Invariant: freeTotal never
	// exceeds the number of zero bits in the mirror — alloc decrements it
	// before setting bits, release increments it after clearing them — so
	// a successful reservation always finds its blocks in some shard.
	freeTotal atomic.Int64

	steals       atomic.Int64 // cross-shard grabs (home shard ran dry)
	wordsScanned atomic.Int64 // bitmap words examined by free-block scans
	col          atomic.Pointer[obs.Collector]
}

func newAllocator(dev *nvmm.Device, l layout, shards int) *allocator {
	if shards <= 0 {
		shards = DefaultAllocShards
	}
	a := &allocator{
		dev:         dev,
		bitmapStart: l.bitmapStart,
		firstBlock:  l.dataStart,
		totalBlocks: l.totalBlocks,
		words:       make([]uint64, (l.totalBlocks+63)/64),
	}
	numWords := int64(len(a.words))
	if int64(shards) > numWords {
		shards = int(numWords)
	}
	a.wordsPerShard = (numWords + int64(shards) - 1) / int64(shards)
	for i := 0; i < shards; i++ {
		loW := int64(i) * a.wordsPerShard
		hiW := loW + a.wordsPerShard
		if hiW > numWords {
			hiW = numWords
		}
		s := &allocShard{lo: loW * 64, hi: hiW * 64}
		if s.lo < a.firstBlock {
			s.lo = a.firstBlock
		}
		if s.hi > a.totalBlocks {
			s.hi = a.totalBlocks
		}
		if s.hi < s.lo {
			s.hi = s.lo // shard entirely inside the metadata region
		}
		s.hint = s.lo
		a.shards = append(a.shards, s)
	}
	return a
}

// SetObs attaches a collector receiving steal/scan counters, or detaches
// with nil.
func (a *allocator) SetObs(c *obs.Collector) { a.col.Store(c) }

// shardOf returns the shard owning block bn.
func (a *allocator) shardOf(bn int64) int {
	i := (bn / 64) / a.wordsPerShard
	if i >= int64(len(a.shards)) {
		i = int64(len(a.shards)) - 1
	}
	return int(i)
}

// recount recomputes every shard's free count (and the global total) from
// the mirror and rewinds all hints. Caller holds every shard lock (or has
// exclusive access during init).
func (a *allocator) recount() {
	total := int64(0)
	for _, s := range a.shards {
		s.free = 0
		for bn := s.lo; bn < s.hi; bn++ {
			if a.words[bn/64]&(1<<uint(bn%64)) == 0 {
				s.free++
			}
		}
		s.hint = s.lo
		total += s.free
	}
	a.freeTotal.Store(total)
}

// lockAll acquires every shard lock in index order, quiescing the
// allocator for whole-bitmap operations (Check, rebuild).
func (a *allocator) lockAll() {
	for _, s := range a.shards {
		s.mu.Lock()
	}
}

func (a *allocator) unlockAll() {
	for _, s := range a.shards {
		s.mu.Unlock()
	}
}

// isAllocated reports whether bn's bitmap bit is set in the mirror. Callers
// must hold the owning shard's lock or guarantee quiescence.
func (a *allocator) isAllocated(bn int64) bool {
	return a.words[bn/64]&(1<<uint(bn%64)) != 0
}

// format marks all metadata blocks allocated and persists the bitmap.
func (a *allocator) format() {
	for bn := int64(0); bn < a.firstBlock; bn++ {
		a.words[bn/64] |= 1 << uint(bn%64)
	}
	buf := make([]byte, len(a.words)*8)
	for i, w := range a.words {
		binary.LittleEndian.PutUint64(buf[i*8:], w)
	}
	a.dev.Write(buf, a.bitmapStart)
	a.dev.Flush(a.bitmapStart, len(buf))
	a.dev.Fence()
	a.recount()
}

// load reads the bitmap mirror from the device at mount time.
func (a *allocator) load() {
	buf := make([]byte, len(a.words)*8)
	a.dev.Read(buf, a.bitmapStart)
	for i := range a.words {
		a.words[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	a.recount()
}

// rebuild overwrites the mirror and the persistent bitmap with want
// (recoverRebuild's reachability truth), then recomputes shard state. It
// returns the number of words that disagreed. Flushes are issued but not
// fenced; the caller fences.
func (a *allocator) rebuild(want []uint64) (wordsFixed int) {
	a.lockAll()
	defer a.unlockAll()
	var buf [8]byte
	for i := range want {
		if want[i] != a.words[i] {
			a.words[i] = want[i]
			addr := a.bitmapStart + int64(i)*8
			binary.LittleEndian.PutUint64(buf[:], want[i])
			a.dev.Write(buf[:], addr)
			a.dev.Flush(addr, 8)
			wordsFixed++
		}
	}
	a.recount()
	return wordsFixed
}

// applyWords journals, mutates and persists the set of bitmap words
// touched by toggling the given blocks' bits. Grouping by word keeps the
// journal traffic proportional to words, not blocks — PMFS-style extent
// allocation rather than per-block logging. The undo entries are logical
// (the XOR mask applied to each word) rather than physical images:
// bitmap words are shared by unrelated transactions, and with deferred
// commits an uncommitted transaction's physical pre-image could roll a
// later committed transaction's bits back off the word. XOR undos
// commute, so rollback only ever clears this transaction's own toggles.
// Caller holds the owning shard's mutex and all blocks must belong to that
// shard (shard boundaries are word-aligned, so every touched word is
// exclusively owned by it).
func (a *allocator) applyWords(tx *journal.Tx, blocks []int64) {
	// Collect the per-word XOR masks in first-touch order. A write touches
	// a word or two, so the list lives on the stack and is searched
	// linearly; only a large free spills it to the heap.
	type wordMask struct {
		w    int64
		mask uint64
	}
	var wbuf [8]wordMask
	words := wbuf[:0]
	for _, bn := range blocks {
		w := bn / 64
		i := 0
		for i < len(words) && words[i].w != w {
			i++
		}
		if i == len(words) {
			words = append(words, wordMask{w: w})
		}
		words[i].mask ^= 1 << uint(bn%64)
	}
	for _, wm := range words {
		tx.LogBitmap(a.bitmapStart+wm.w*8, wm.mask)
	}
	var buf [8]byte
	for _, wm := range words {
		a.words[wm.w] ^= wm.mask
		addr := a.bitmapStart + wm.w*8
		binary.LittleEndian.PutUint64(buf[:], a.words[wm.w])
		a.dev.Write(buf[:], addr)
		a.dev.Flush(addr, 8)
	}
	a.dev.Fence()
}

// allocFromShard takes up to want free blocks from s and appends them to
// dst, journaling and persisting the bitmap change under s's lock. The scan
// walks whole mirror words from the shard's hint (wrapping within the
// shard), skipping full words in one test — words examined are counted as
// the hint-quality metric.
func (a *allocator) allocFromShard(tx *journal.Tx, s *allocShard, want int, dst []int64) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.free == 0 || s.lo >= s.hi {
		return dst
	}
	if int64(want) > s.free {
		want = int(s.free)
	}
	have := len(dst)
	want += have
	out := dst
	loW, hiW := s.lo/64, (s.hi+63)/64
	nW := hiW - loW
	hint := s.hint
	if hint < s.lo || hint >= s.hi {
		hint = s.lo
	}
	scanned := int64(0)
	for i := int64(0); i <= nW && len(out) < want; i++ {
		w := hint/64 + i
		if w >= hiW {
			w -= nW
		}
		base := w * 64
		avail := ^a.words[w]
		// Mask bits outside [lo, hi) and, on the first word, below the hint
		// (those are revisited by the wrap iteration if needed).
		if i == 0 && hint > base {
			avail &= ^uint64(0) << uint(hint-base)
		}
		if base < s.lo {
			avail &= ^uint64(0) << uint(s.lo-base)
		}
		if s.hi-base < 64 {
			avail &= 1<<uint(s.hi-base) - 1
		}
		scanned++
		for avail != 0 && len(out) < want {
			b := int64(bits.TrailingZeros64(avail))
			out = append(out, base+b)
			avail &= avail - 1
		}
	}
	a.wordsScanned.Add(scanned)
	a.col.Load().Add(obs.CtrAllocWordsScanned, scanned)
	if len(out) < want {
		// free said the blocks were here; the scan is exhaustive under mu.
		panic("pmfs: shard free count inconsistent with bitmap")
	}
	if got := out[have:]; len(got) > 0 {
		s.free -= int64(len(got))
		s.hint = got[len(got)-1] + 1
		a.applyWords(tx, got)
	}
	return out
}

// alloc allocates n blocks and appends their block numbers (contiguous where
// possible) to dst, which lets a caller keep a small request's result on its
// stack. The blocks are not zeroed. It returns vfs.ErrNoSpace if fewer than
// n are free.
//
// Space is reserved globally first (CAS on freeTotal), so the result is
// all-or-nothing; the shard walk then gathers the reserved blocks starting
// at a round-robin home shard and stealing from the others as needed. A
// single sweep can transiently find fewer than n blocks (a release that
// already published to a swept shard's mirror but not yet to freeTotal
// races with this reservation), so the sweep loops, yielding between empty
// passes.
func (a *allocator) alloc(tx *journal.Tx, n int, dst []int64) ([]int64, error) {
	if n <= 0 {
		return dst, nil
	}
	for {
		f := a.freeTotal.Load()
		if f < int64(n) {
			return dst, vfs.ErrNoSpace
		}
		if a.freeTotal.CompareAndSwap(f, f-int64(n)) {
			break
		}
	}
	out := dst
	n += len(dst)
	home := int(a.nextShard.Add(1) % uint64(len(a.shards)))
	idle := 0
	for len(out) < n {
		progress := false
		for off := 0; off < len(a.shards) && len(out) < n; off++ {
			s := a.shards[(home+off)%len(a.shards)]
			before := len(out)
			out = a.allocFromShard(tx, s, n-len(out), out)
			if len(out) > before {
				progress = true
				if off != 0 {
					a.steals.Add(1)
					a.col.Load().Add(obs.CtrAllocShardSteals, 1)
				}
			}
		}
		if len(out) < n && !progress {
			idle++
			if idle > 1<<20 {
				panic("pmfs: allocator free count inconsistent with bitmap")
			}
			runtime.Gosched()
		} else {
			idle = 0
		}
	}
	return out, nil
}

// allocOne allocates a single block.
func (a *allocator) allocOne(tx *journal.Tx) (int64, error) {
	var b [1]int64
	out, err := a.alloc(tx, 1, b[:0])
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// release frees the given blocks, rewinding each shard's hint toward the
// lowest freed block so the next scan finds the hole instead of walking
// the rest of the shard.
func (a *allocator) release(tx *journal.Tx, blocks []int64) {
	// Run by run of blocks owned by one shard: a tree's blocks were
	// allocated shard by shard, so its free list is a few long runs.
	for lo := 0; lo < len(blocks); {
		i := a.shardOf(blocks[lo])
		hi := lo + 1
		for hi < len(blocks) && a.shardOf(blocks[hi]) == i {
			hi++
		}
		s, g := a.shards[i], blocks[lo:hi]
		s.mu.Lock()
		for _, bn := range g {
			if a.words[bn/64]&(1<<uint(bn%64)) == 0 {
				s.mu.Unlock()
				panic("pmfs: double free of block")
			}
		}
		a.applyWords(tx, g)
		s.free += int64(len(g))
		for _, bn := range g {
			if bn < s.hint {
				s.hint = bn
			}
		}
		s.mu.Unlock()
		lo = hi
	}
	// Publish after the mirror bits are cleared: see freeTotal's invariant.
	a.freeTotal.Add(int64(len(blocks)))
}

// freeBlocks returns the number of free data blocks.
func (a *allocator) freeBlocks() int64 {
	return a.freeTotal.Load()
}

// AllocStats reports allocator activity counters.
type AllocStats struct {
	Shards       int
	Steals       int64
	WordsScanned int64
}

func (a *allocator) stats() AllocStats {
	return AllocStats{
		Shards:       len(a.shards),
		Steals:       a.steals.Load(),
		WordsScanned: a.wordsScanned.Load(),
	}
}
