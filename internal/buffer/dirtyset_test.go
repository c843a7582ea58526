package buffer

import (
	"bytes"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hinfs/internal/clock"
	"hinfs/internal/journal"
	"hinfs/internal/nvmm"
)

// has reports membership.
func (s *dirtySet) has(idx int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := s.find(idx >> 6)
	return ok && s.words[i].bits&(1<<(uint64(idx)&63)) != 0
}

// len returns the number of members.
func (s *dirtySet) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w.bits)
	}
	return n
}

// members drains the set through from() in batches of batch.
func (s *dirtySet) members(batch int) []int64 {
	var out []int64
	buf := make([]int64, batch)
	for next := int64(0); ; {
		n := s.from(next, buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
		next = buf[n-1] + 1
	}
}

// TestDirtySetMatchesReference drives the ordered set with random adds and
// removes — dense runs, sparse far-apart indices, repeats — against a map
// and checks membership, size and the ascending iteration at batch sizes
// that split words and that straddle them.
func TestDirtySetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s dirtySet
	ref := make(map[int64]bool)
	pick := func() int64 {
		switch rng.Intn(3) {
		case 0:
			return int64(rng.Intn(200)) // dense, shares words
		case 1:
			return int64(rng.Intn(1 << 20)) // sparse
		default:
			return int64(63 + 64*rng.Intn(4) + rng.Intn(3)) // word boundaries
		}
	}
	for op := 0; op < 20000; op++ {
		idx := pick()
		if rng.Intn(5) < 3 {
			s.add(idx)
			ref[idx] = true
		} else {
			s.remove(idx)
			delete(ref, idx)
		}
		if s.has(idx) != ref[idx] {
			t.Fatalf("op %d: has(%d) = %v, want %v", op, idx, s.has(idx), ref[idx])
		}
		if op%500 != 0 {
			continue
		}
		want := make([]int64, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		slices.Sort(want)
		for _, batch := range []int{1, 7, 32, 100} {
			if got := s.members(batch); !slices.Equal(got, want) {
				t.Fatalf("op %d batch %d: members %v, want %v", op, batch, got, want)
			}
		}
		if s.len() != len(want) {
			t.Fatalf("op %d: len %d, want %d", op, s.len(), len(want))
		}
		for _, w := range s.words {
			if w.bits == 0 {
				t.Fatalf("op %d: empty word kept at base %d", op, w.base)
			}
		}
	}
}

// checkDirtySuperset asserts the dirty-set invariant for blocks [0, n):
// every block with dirty lines is a member. The caller is the only writer.
// Membership is read first: a writeback thread may clean the block and
// remove it between the two reads, but nothing can dirty a non-member.
func checkDirtySuperset(t *testing.T, fb *FileBuf, n int64, when string) {
	t.Helper()
	for idx := int64(0); idx < n; idx++ {
		if !fb.dirty.has(idx) && fb.DirtyLines(idx) > 0 {
			t.Fatalf("%s: block %d has dirty lines but is not in the dirty set", when, idx)
		}
	}
}

// TestDirtySetInvariantUnderFaultsAndWriteback is the dirty-set property
// under everything that moves a dirty map: one foreground client (standing
// in for the inode lock) issues random Write / Flush / Invalidate /
// EvictBlock / DropBlock / Drop on a pool small enough to reclaim, while
// the background writeback threads reclaim and age blocks. After every
// foreground op the set ⊇ {idx : DirtyLines(idx) > 0}; a Flush leaves the
// set empty; and a final Flush brings NVMM level with a shadow copy, so no
// dirty block was lost from the set.
func TestDirtySetInvariantUnderFaultsAndWriteback(t *testing.T) {
	dev, err := nvmm.New(nvmm.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(dev, clock.Real{}, Config{
		Blocks: 24, Shards: 3, CLFW: true,
		FlushPeriod: 200 * time.Microsecond, MaxDirtyAge: 100 * time.Microsecond,
	})
	defer p.Close()
	const nBlocks = 160 // many times the pool: allocation stalls and reclaims
	base := int64(1 << 20)
	addr := func(idx int64) int64 { return base + idx*BlockSize }
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, BlockSize)
	shadow := make([]byte, nBlocks*BlockSize)
	fb := p.NewFile()

	for op := 0; op < 6000; op++ {
		idx := int64(rng.Intn(nBlocks))
		switch r := rng.Intn(100); {
		case r < 60:
			off := rng.Intn(BlockSize)
			n := 1 + rng.Intn(BlockSize-off)
			rng.Read(buf[:n])
			fb.Write(idx, off, buf[:n], addr(idx), true)
			copy(shadow[idx*BlockSize+int64(off):], buf[:n])
		case r < 70:
			if _, err := fb.Flush(); err != nil {
				t.Fatal(err)
			}
			if n := fb.dirty.len(); n != 0 {
				t.Fatalf("op %d: %d members after a Flush with no writer", op, n)
			}
		case r < 80:
			off := rng.Intn(BlockSize)
			fb.Invalidate(idx, off, 1+rng.Intn(BlockSize-off))
		case r < 88:
			fb.EvictBlock(idx)
		case r < 98:
			// Truncate's drop: the dirty data is discarded, so is the shadow.
			fb.DropBlock(idx)
			dev.Read(shadow[idx*BlockSize:(idx+1)*BlockSize], addr(idx))
		default:
			fb.Drop()
			if n := fb.dirty.len(); n != 0 {
				t.Fatalf("op %d: %d members after Drop", op, n)
			}
			dev.Read(shadow, base)
		}
		checkDirtySuperset(t, fb, nBlocks, "after op")
	}

	if st := p.Stats(); st.WritebackBlocks == 0 || st.Evictions == 0 {
		t.Fatalf("the run never exercised background writeback or eviction: %+v", st)
	}
	if _, err := fb.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := fb.dirty.len(); n != 0 {
		t.Fatalf("%d members after the final Flush", n)
	}
	got := make([]byte, BlockSize)
	for idx := int64(0); idx < nBlocks; idx++ {
		if fb.DirtyLines(idx) != 0 {
			t.Fatalf("block %d still dirty after the final Flush", idx)
		}
		dev.Read(got, addr(idx))
		if !bytes.Equal(got, shadow[idx*BlockSize:(idx+1)*BlockSize]) {
			t.Fatalf("block %d on NVMM differs from the shadow after the final Flush", idx)
		}
	}
}

// dropPool is a pool on a zero-latency device with no background threads.
func dropPool(t testing.TB, blocks, shards int) (*Pool, *nvmm.Device) {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: int64(blocks)*BlockSize + 4<<20})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(dev, clock.Real{}, Config{Blocks: blocks, Shards: shards, WritebackThreads: -1, CLFW: true})
	t.Cleanup(p.Close)
	return p, dev
}

// TestDropScalesLinearly: unlinking a fully buffered file is one ordered
// pass per shard. Drop used to rescan the shard's map once per block —
// 8 × the blocks cost ≈ 60 × the time; the gate sits between the two.
func TestDropScalesLinearly(t *testing.T) {
	p, _ := dropPool(t, 4096, 2)
	line := make([]byte, 64)
	timeDrop := func(n int) time.Duration {
		best := time.Duration(1 << 62)
		for round := 0; round < 5; round++ {
			fb := p.NewFile()
			for i := 0; i < n; i++ {
				fb.Write(int64(i), 0, line, int64(i)*BlockSize, false)
			}
			before := p.Stats().Drops
			t0 := time.Now()
			fb.Drop()
			d := time.Since(t0)
			if got := p.Stats().Drops - before; got != int64(n) {
				t.Fatalf("Drop of %d dirty blocks counted %d drops", n, got)
			}
			if free := p.FreeBlocks(); free != p.Capacity() {
				t.Fatalf("%d of %d blocks free after Drop", free, p.Capacity())
			}
			if d < best {
				best = d
			}
		}
		return best
	}
	small, large := timeDrop(512), timeDrop(4096)
	t.Logf("Drop: %v for 512 blocks, %v for 4096", small, large)
	if large > 16*small {
		t.Fatalf("Drop of 4096 blocks took %v, of 512 %v (> 16x for 8x the blocks)", large, small)
	}
}

// TestDropReleasesGatedTxsInOrder pins Drop's release order of ordered-mode
// transactions: shard by shard, lowest block index first within a shard.
// Commit order is visible because a transaction's commit is requested
// before its record's first persist event.
func TestDropReleasesGatedTxsInOrder(t *testing.T) {
	p, dev := dropPool(t, 256, 4)
	const jbase, jsize, dbase = 1 << 20, 64 * BlockSize, 2 << 20
	j, err := journal.NewLanes(dev, jbase, jsize, 1)
	if err != nil {
		t.Fatal(err)
	}
	fb := p.NewFile()
	const n = 96
	txs := make([]*journal.Tx, n)
	for _, i := range rand.New(rand.NewSource(5)).Perm(n) {
		tx := j.Begin()
		fb.Write(int64(i), 0, []byte{byte(i)}, dbase+int64(i)*BlockSize, false, tx)
		tx.AddPending(1)
		tx.Seal()
		txs[i] = tx
	}
	var want []int64
	for _, sh := range p.shards {
		for i := int64(0); i < n; i++ {
			if p.shardFor(fb, i) == sh {
				want = append(want, i)
			}
		}
	}
	var got []int64
	seen := make([]bool, n)
	dev.SetCrashPlan(func(int64, nvmm.EventKind) {
		for i, tx := range txs {
			if !seen[i] && tx.Committed() {
				seen[i] = true
				got = append(got, int64(i))
			}
		}
	})
	before := p.Stats().Drops
	fb.Drop()
	dev.SetCrashPlan(nil)
	if !slices.Equal(got, want) {
		t.Fatalf("gated transactions released in order %v, want %v", got, want)
	}
	if d := p.Stats().Drops - before; d != n {
		t.Fatalf("Drops = %d, want %d", d, n)
	}
	if c := j.Stats().Commits; c != n {
		t.Fatalf("%d commits, want %d", c, n)
	}
}

// TestFlushCommitsGatedTxsInBlockOrder pins Flush's write-back order:
// ascending file block index across the whole file, whatever shard each
// block lives in, so the fsync's persist-event stream is a function of the
// op sequence. Each block gates its own transaction, which commits once
// the block is written back; commit order is read off the persist events.
func TestFlushCommitsGatedTxsInBlockOrder(t *testing.T) {
	p, dev := dropPool(t, 256, 4)
	const jbase, jsize, dbase = 1 << 20, 64 * BlockSize, 2 << 20
	j, err := journal.NewLanes(dev, jbase, jsize, 1)
	if err != nil {
		t.Fatal(err)
	}
	fb := p.NewFile()
	const n = 96
	txs := make([]*journal.Tx, n)
	for _, i := range rand.New(rand.NewSource(6)).Perm(n) {
		tx := j.Begin()
		fb.Write(int64(i), 0, []byte{byte(i)}, dbase+int64(i)*BlockSize, false, tx)
		tx.AddPending(1)
		tx.Seal()
		txs[i] = tx
	}
	var got []int64
	seen := make([]bool, n)
	dev.SetCrashPlan(func(int64, nvmm.EventKind) {
		for i, tx := range txs {
			if !seen[i] && tx.Committed() {
				seen[i] = true
				got = append(got, int64(i))
			}
		}
	})
	lines, err := fb.Flush()
	dev.SetCrashPlan(nil)
	if err != nil || lines != n {
		t.Fatalf("Flush = %d, %v; want %d lines", lines, err, n)
	}
	want := make([]int64, n)
	for i := range want {
		want[i] = int64(i)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("gated transactions committed in order %v, want ascending", got)
	}
}

// TestBufferHotPathsAllocateNothing: a buffered read, a write hit that
// fetches a partial line, and the flush of a clean file stay off the heap.
func TestBufferHotPathsAllocateNothing(t *testing.T) {
	p, _ := dropPool(t, 64, 2)
	fb := p.NewFile()
	const addr = 1 << 20
	blk := bytes.Repeat([]byte{7}, BlockSize)
	fb.Write(0, 0, blk, addr, true)
	if _, err := fb.Flush(); err != nil {
		t.Fatal(err)
	}
	// Leave every other pair of lines invalid so the read merges runs from
	// both DRAM and NVMM.
	for l := 0; l < 64; l += 4 {
		fb.Invalidate(0, l*64, 128)
	}
	dst := make([]byte, BlockSize)
	if n := testing.AllocsPerRun(200, func() {
		if !fb.ReadMerge(0, 0, dst, addr) {
			t.Fatal("block not buffered")
		}
	}); n != 0 {
		t.Fatalf("ReadMerge on a hit allocates %v times", n)
	}
	if !bytes.Equal(dst, blk) {
		t.Fatal("merged read differs from what was written")
	}
	if n := testing.AllocsPerRun(200, func() {
		if m, err := fb.Flush(); m != 0 || err != nil {
			t.Fatalf("Flush of a clean file = %d, %v", m, err)
		}
	}); n != 0 {
		t.Fatalf("Flush of a clean file allocates %v times", n)
	}
	// Each run: an unaligned write into invalid line 0 (CLFW fetches it)
	// on a buffered block, then the line is flushed and invalidated again.
	fetched := p.Stats().LinesFetched
	hits := p.Stats().WriteHits
	if n := testing.AllocsPerRun(200, func() {
		fb.Write(0, 10, blk[:20], addr, true)
		fb.Invalidate(0, 0, 64)
	}); n != 0 {
		t.Fatalf("write hit with a partial-line fetch allocates %v times", n)
	}
	if st := p.Stats(); st.LinesFetched-fetched < 200 || st.WriteHits-hits < 200 {
		t.Fatalf("the write did not hit and fetch: +%d fetched, +%d hits", st.LinesFetched-fetched, st.WriteHits-hits)
	}
}
