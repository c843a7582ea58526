package buffer

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"hinfs/internal/clock"
	"hinfs/internal/nvmm"
)

func shardedPool(t testing.TB, blocks, shards int) (*Pool, *nvmm.Device) {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(dev, clock.Real{}, Config{Blocks: blocks, Shards: shards, CLFW: true})
	t.Cleanup(p.Close)
	return p, dev
}

func TestShardCountDefaults(t *testing.T) {
	cases := []struct {
		blocks, shards int
		min, max       int
	}{
		{blocks: 8, shards: 0, min: 1, max: 1},       // tiny pool: auto = 1
		{blocks: 8, shards: 16, min: 8, max: 8},      // explicit, clamped to blocks
		{blocks: 4096, shards: 3, min: 3, max: 3},    // explicit, honoured
		{blocks: 4096, shards: 0, min: 1, max: 4096}, // auto = GOMAXPROCS-ish
	}
	for _, c := range cases {
		p, _ := shardedPool(t, c.blocks, c.shards)
		if n := p.ShardCount(); n < c.min || n > c.max {
			t.Fatalf("Blocks=%d Shards=%d: got %d shards, want in [%d,%d]",
				c.blocks, c.shards, n, c.min, c.max)
		}
		if got := p.Config().Shards; got != p.ShardCount() {
			t.Fatalf("Config().Shards=%d != ShardCount()=%d", got, p.ShardCount())
		}
	}
}

func TestShardCapacityPartition(t *testing.T) {
	p, _ := shardedPool(t, 10, 4)
	st := p.Stats()
	if len(st.Shards) != 4 {
		t.Fatalf("shard stats len = %d", len(st.Shards))
	}
	total, free := 0, 0
	for _, s := range st.Shards {
		if s.Capacity < 2 || s.Capacity > 3 {
			t.Fatalf("uneven shard capacity %d", s.Capacity)
		}
		total += s.Capacity
		free += s.Free
	}
	if total != 10 || free != 10 {
		t.Fatalf("capacity=%d free=%d, want 10/10", total, free)
	}
	if p.FreeBlocks() != 10 {
		t.Fatalf("FreeBlocks = %d", p.FreeBlocks())
	}
}

func TestShardedWriteReadFlushAcrossFiles(t *testing.T) {
	p, dev := shardedPool(t, 64, 4)
	const nFiles, nBlocks = 5, 6
	fbs := make([]*FileBuf, nFiles)
	for i := range fbs {
		fbs[i] = p.NewFile()
	}
	addr := func(f, blk int) int64 { return int64(1<<20) + int64(f*nBlocks+blk)*BlockSize }
	for f, fb := range fbs {
		for blk := 0; blk < nBlocks; blk++ {
			data := bytes.Repeat([]byte{byte(16*f + blk + 1)}, BlockSize)
			fb.Write(int64(blk), 0, data, addr(f, blk), false)
		}
	}
	if n := p.FlushAll(); n == 0 {
		t.Fatal("FlushAll flushed nothing")
	}
	if p.DirtyBlocks() != 0 {
		t.Fatalf("dirty after FlushAll = %d", p.DirtyBlocks())
	}
	// Every block readable with the right contents, buffered or from NVMM.
	for f, fb := range fbs {
		for blk := 0; blk < nBlocks; blk++ {
			got := make([]byte, BlockSize)
			if !fb.ReadMerge(int64(blk), 0, got, addr(f, blk)) {
				dev.Read(got, addr(f, blk))
			}
			want := byte(16*f + blk + 1)
			if got[0] != want || got[BlockSize-1] != want {
				t.Fatalf("file %d block %d = %#x, want %#x", f, blk, got[0], want)
			}
		}
	}
}

// TestSmallPoolWatermarksClamped is the regression for the truncated
// watermarks: pools under 20 blocks used to compute Low_f = High_f = 0, so
// background reclamation never armed and every foreground write stalled on
// the inline-evict path. With the clamp, an 8-block pool must arm its
// writeback threads and bring free space back above the high watermark.
func TestSmallPoolWatermarksClamped(t *testing.T) {
	p, _ := shardedPool(t, 8, 1)
	sh := p.shards[0]
	if sh.low < 1 {
		t.Fatalf("low watermark = %d, want >= 1", sh.low)
	}
	if sh.high <= sh.low {
		t.Fatalf("high watermark = %d, want > low (%d)", sh.high, sh.low)
	}
	fb := p.NewFile()
	for i := int64(0); i < 8; i++ {
		fb.Write(i, 0, []byte{byte(i + 1)}, (1<<20)+i*BlockSize, false)
	}
	// The final allocation left free < Low_f and kicked the writeback
	// threads; they must reclaim up to the high watermark on their own.
	deadline := time.Now().Add(2 * time.Second)
	for p.FreeBlocks() < sh.high {
		if time.Now().After(deadline) {
			t.Fatalf("background reclaim never armed: free=%d high=%d",
				p.FreeBlocks(), sh.high)
		}
		p.Kick()
		time.Sleep(time.Millisecond)
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

// TestFlushAllFlushesPinnedBlocks is the sync-durability regression: a
// concurrent reader's pin (here simulated with lookupPin) used to make
// FlushAll skip the block entirely, so sync(2) returned with dirty data
// still in DRAM.
func TestFlushAllFlushesPinnedBlocks(t *testing.T) {
	p, dev := shardedPool(t, 16, 1)
	fb := p.NewFile()
	const addr = 1 << 20
	fb.Write(0, 0, bytes.Repeat([]byte{0xD1}, BlockSize), addr, false)
	b := fb.lookupPin(0, false) // a reader holds the block pinned
	defer b.pins.Add(-1)
	if n := p.FlushAll(); n == 0 {
		t.Fatal("FlushAll skipped the pinned dirty block")
	}
	if p.DirtyBlocks() != 0 {
		t.Fatalf("dirty after FlushAll = %d, want 0", p.DirtyBlocks())
	}
	got := make([]byte, BlockSize)
	dev.Read(got, addr)
	if got[0] != 0xD1 || got[BlockSize-1] != 0xD1 {
		t.Fatal("pinned block's data never reached NVMM")
	}
}

// TestFlushAllVsReadMergeRace races sync(2) against concurrent readers:
// after every FlushAll (with no concurrent writers) the pool must hold
// zero dirty lines. Same-file writer/reader exclusion is the owning file
// system's job (the inode lock), so the test provides it with an RWMutex;
// FlushAll itself runs outside that lock, racing the readers.
func TestFlushAllVsReadMergeRace(t *testing.T) {
	p, _ := shardedPool(t, 32, 2)
	const nBlocks = 8
	fb := p.NewFile()
	addr := func(blk int64) int64 { return 1<<20 + blk*BlockSize }
	var ino sync.RWMutex // stand-in for the owning inode lock
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, BlockSize)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				blk := int64(i % nBlocks)
				ino.RLock()
				fb.ReadMerge(blk, 0, buf, addr(blk))
				ino.RUnlock()
			}
		}()
	}
	for round := 0; round < 100; round++ {
		for blk := int64(0); blk < nBlocks; blk++ {
			ino.Lock()
			fb.Write(blk, 0, []byte{byte(round)}, addr(blk), round > 0)
			ino.Unlock()
		}
		p.FlushAll()
		if n := p.DirtyBlocks(); n != 0 {
			close(stop)
			wg.Wait()
			t.Fatalf("round %d: %d dirty blocks survived FlushAll", round, n)
		}
	}
	close(stop)
	wg.Wait()
}

// TestAllocStallUsesInjectedClock pins the only block of a one-shard pool
// so a second allocation must take the stall path; the wait has to run on
// the injected clock (a fake here) and be accounted in StallNanos. Before
// the fix the stall was a real time.Sleep, so simulated-clock runs mixed
// wall time into their results.
func TestAllocStallUsesInjectedClock(t *testing.T) {
	fk := clock.NewFake(time.Unix(0, 0))
	dev, err := nvmm.New(nvmm.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(dev, fk, Config{Blocks: 1, Shards: 1, WritebackThreads: -1, CLFW: true})
	fb := p.NewFile()
	fb.Write(0, 0, []byte{1}, 1<<20, false)
	b := fb.lookupPin(0, false) // all blocks pinned: no inline victim
	done := make(chan struct{})
	go func() {
		fb.Write(1, 0, []byte{2}, 2<<20, false)
		close(done)
	}()
	// The writer is stalled on clk.After; advancing the fake clock lets it
	// retry. Unpin after a few spins so a victim becomes available.
	deadline := time.Now().Add(2 * time.Second)
	finished := false
	for i := 0; !finished; i++ {
		if i == 10 {
			b.pins.Add(-1)
		}
		fk.Advance(stallBackoff)
		select {
		case <-done:
			finished = true
		case <-time.After(time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("stalled write never completed under the fake clock")
			}
		}
	}
	st := p.Stats()
	if st.Stalls == 0 {
		t.Fatal("stall episode not counted")
	}
	if st.StallNanos == 0 {
		t.Fatal("stall duration not accounted (StallNanos = 0)")
	}
	p.Close()
}

// TestAllocStealsFromOtherShards exhausts one shard while its neighbours
// are idle: the allocation must migrate a free block instead of evicting.
func TestAllocStealsFromOtherShards(t *testing.T) {
	dev, err := nvmm.New(nvmm.Config{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(dev, clock.Real{}, Config{
		Blocks: 8, Shards: 4, WritebackThreads: -1, CLFW: true})
	defer p.Close()
	fb := p.NewFile()
	// Find 4 block indices that all hash to the same 2-block shard.
	target := p.shardFor(fb, 0)
	indices := []int64{0}
	for idx := int64(1); len(indices) < 4 && idx < 1<<20; idx++ {
		if p.shardFor(fb, idx) == target {
			indices = append(indices, idx)
		}
	}
	if len(indices) < 4 {
		t.Skip("hash never collided (astronomically unlikely)")
	}
	for _, idx := range indices {
		fb.Write(idx, 0, []byte{byte(idx + 1)}, (1<<20)+idx*BlockSize, false)
	}
	for _, idx := range indices {
		if !fb.Buffered(idx) {
			t.Fatalf("block %d evicted despite free blocks elsewhere", idx)
		}
	}
	if p.Stats().Evictions != 0 {
		t.Fatalf("evicted %d blocks instead of stealing", p.Stats().Evictions)
	}
}
