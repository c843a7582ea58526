package buffer

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"hinfs/internal/cacheline"
	"hinfs/internal/clock"
	"hinfs/internal/journal"
	"hinfs/internal/nvmm"
)

func testPool(t testing.TB, blocks int, clfw bool) (*Pool, *nvmm.Device) {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(dev, clock.Real{}, Config{Blocks: blocks, CLFW: clfw})
	t.Cleanup(p.Close)
	return p, dev
}

// lrwPool builds a pool whose eviction order is fully deterministic:
// one shard (a single LRW list) and no background writeback threads, so
// every eviction happens inline in the foreground allocation path.
func lrwPool(t testing.TB, blocks int) *Pool {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(dev, clock.Real{}, Config{
		Blocks: blocks, Shards: 1, WritebackThreads: -1, CLFW: true})
	t.Cleanup(p.Close)
	return p
}

func TestWriteThenReadMerge(t *testing.T) {
	p, _ := testPool(t, 8, true)
	fb := p.NewFile()
	const addr = 1 << 20
	data := []byte("hello buffer")
	fb.Write(0, 0, data, addr, false)
	got := make([]byte, len(data))
	if !fb.ReadMerge(0, 0, got, addr) {
		t.Fatal("block not buffered")
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestCLFWFetchesOnlyPartialLines(t *testing.T) {
	p, dev := testPool(t, 8, true)
	// Pre-populate NVMM block.
	const addr = 1 << 20
	nv := bytes.Repeat([]byte{0xBB}, BlockSize)
	dev.Write(nv, addr)
	fb := p.NewFile()
	// Write 0..112: line 0 fully covered (no fetch), line 1 partially
	// covered (fetch). This is the paper's §3.2.1 example.
	fb.Write(0, 0, make([]byte, 112), addr, true)
	if got := p.Stats().LinesFetched; got != 1 {
		t.Fatalf("fetched %d lines, want 1", got)
	}
	// The merged read of line 1 must combine the write and the fetched
	// NVMM bytes.
	got := make([]byte, 128)
	fb.ReadMerge(0, 0, got, addr)
	for i := 0; i < 112; i++ {
		if got[i] != 0 {
			t.Fatalf("written byte %d = %#x", i, got[i])
		}
	}
	for i := 112; i < 128; i++ {
		if got[i] != 0xBB {
			t.Fatalf("fetched byte %d = %#x, want 0xBB", i, got[i])
		}
	}
}

func TestNCLFWFetchesWholeBlock(t *testing.T) {
	p, dev := testPool(t, 8, false)
	const addr = 1 << 20
	dev.Write(bytes.Repeat([]byte{0xCC}, BlockSize), addr)
	fb := p.NewFile()
	fb.Write(0, 0, []byte("x"), addr, true)
	if got := p.Stats().LinesFetched; got != cacheline.PerBlock-1 && got != cacheline.PerBlock {
		t.Fatalf("fetched %d lines, want whole block", got)
	}
}

func TestReadMergeUnbufferedLinesFromNVMM(t *testing.T) {
	p, dev := testPool(t, 8, true)
	const addr = 2 << 20
	dev.Write(bytes.Repeat([]byte{0x55}, BlockSize), addr)
	fb := p.NewFile()
	// Buffer only lines 4..7 (aligned write).
	patch := bytes.Repeat([]byte{0x66}, 4*cacheline.Size)
	fb.Write(0, 4*cacheline.Size, patch, addr, true)
	got := make([]byte, BlockSize)
	fb.ReadMerge(0, 0, got, addr)
	for i := 0; i < BlockSize; i++ {
		want := byte(0x55)
		if i >= 4*cacheline.Size && i < 8*cacheline.Size {
			want = 0x66
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestFlushWritesOnlyDirtyRuns(t *testing.T) {
	p, dev := testPool(t, 8, true)
	fb := p.NewFile()
	const addr = 1 << 20
	// Two aligned single-line writes far apart.
	fb.Write(0, 0, make([]byte, cacheline.Size), addr, false)
	fb.Write(0, 32*cacheline.Size, make([]byte, cacheline.Size), addr, false)
	dev.ResetStats()
	n, _ := fb.Flush()
	if n != 2 {
		t.Fatalf("flushed %d lines, want 2", n)
	}
	if got := dev.Stats().BytesFlushed; got != 2*cacheline.Size {
		t.Fatalf("device flushed %d bytes, want %d", got, 2*cacheline.Size)
	}
	// Second flush is a no-op.
	if n, _ := fb.Flush(); n != 0 {
		t.Fatalf("re-flush wrote %d lines", n)
	}
}

func TestEvictionWritesBackAndFrees(t *testing.T) {
	p, dev := testPool(t, 4, true)
	fb := p.NewFile()
	// Overcommit the pool: 16 distinct blocks through 4 slots.
	for i := int64(0); i < 16; i++ {
		fb.Write(i, 0, bytes.Repeat([]byte{byte(i + 1)}, BlockSize), (1<<20)+i*BlockSize, false)
	}
	if p.Stats().Evictions == 0 {
		t.Fatal("no evictions")
	}
	// Every block's data must be readable: buffered or already on NVMM.
	for i := int64(0); i < 16; i++ {
		got := make([]byte, BlockSize)
		addr := int64(1<<20) + i*BlockSize
		if !fb.ReadMerge(i, 0, got, addr) {
			dev.Read(got, addr)
		}
		if got[0] != byte(i+1) || got[BlockSize-1] != byte(i+1) {
			t.Fatalf("block %d lost: %#x", i, got[0])
		}
	}
}

// TestDropDiscardsDirtyData: dropping a dirty block on truncate (DropBlock)
// never writes its data back. A block buffered over an existing NVMM block
// is dropped for free; a fresh one (its NVMM block was allocated by the
// buffered write, so pmfs left the covered bytes un-zeroed) costs one pass
// of zeroes over exactly its dirty lines — what pmfs's whole-block zeroing
// used to cost before the write — and nothing else.
func TestDropDiscardsDirtyData(t *testing.T) {
	p, dev := testPool(t, 8, true)
	const addr = 1 << 20
	stale := bytes.Repeat([]byte{0xEE}, BlockSize)
	nvmmBlock := func() []byte {
		got := make([]byte, BlockSize)
		dev.Read(got, addr)
		return got
	}
	cases := []struct {
		name        string
		blockExists bool
		off, n      int
		wantFlushed int64 // bytes
	}{
		{"overwrite of an existing block", true, 0, BlockSize, 0},
		{"fresh block, fully covered", false, 0, BlockSize, BlockSize},
		{"fresh block, lines 3-5 partly covered", false, 3*cacheline.Size + 7, 2 * cacheline.Size, 3 * cacheline.Size},
	}
	for _, c := range cases {
		dev.Write(stale, addr)
		fb := p.NewFile()
		drops := p.Stats().Drops
		dev.ResetStats() // measured from before the write
		fb.Write(0, c.off, bytes.Repeat([]byte{0x2D}, c.n), addr, c.blockExists)
		fb.DropBlock(0)
		if got := dev.Stats().BytesFlushed; got != c.wantFlushed {
			t.Errorf("%s: write + drop flushed %d bytes, want %d", c.name, got, c.wantFlushed)
		}
		if got := p.Stats().Drops - drops; got != 1 {
			t.Errorf("%s: drops = %d, want 1", c.name, got)
		}
		if p.FreeBlocks() != 8 {
			t.Errorf("%s: free = %d, want 8", c.name, p.FreeBlocks())
		}
		// The dirty lines of a fresh block read zero on NVMM, every other
		// byte is untouched (pmfs, not the buffer, owns the uncovered ones);
		// the data itself never arrives.
		want := append([]byte(nil), stale...)
		if !c.blockExists {
			first, last := cacheline.LinesCovering(c.off, c.n)
			zero(want[first*cacheline.Size : (last+1)*cacheline.Size])
		}
		if !bytes.Equal(nvmmBlock(), want) {
			t.Errorf("%s: NVMM block after drop is not stale bytes with zeroed dirty lines", c.name)
		}
	}
}

// TestDropZeroesGatedLines: a block over an existing NVMM block that gates
// an uncommitted transaction holds an append past the tail pmfs left as
// allocated. Dropping it on truncate releases the transaction, which
// commits the extension before the truncate that dropped the block does, so
// its dirty lines are zeroed on NVMM first: the window shows zeroes past the
// old EOF, never the block's previous owner.
func TestDropZeroesGatedLines(t *testing.T) {
	p, dev := testPool(t, 8, true)
	const addr, jbase = 1 << 20, 2 << 20
	j, err := journal.NewLanes(dev, jbase, 2*BlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	stale := bytes.Repeat([]byte{0xEE}, BlockSize)
	dev.Write(stale, addr)
	tx := j.Begin()
	tx.AddPending(1)
	tx.Seal()
	fb := p.NewFile()
	fb.Write(0, 3*cacheline.Size+7, bytes.Repeat([]byte{0x2D}, 2*cacheline.Size), addr, true, tx)
	fb.DropBlock(0)
	if !tx.Committed() {
		t.Fatal("the drop did not release the gated transaction")
	}
	want := append([]byte(nil), stale...)
	zero(want[3*cacheline.Size : 6*cacheline.Size])
	got := make([]byte, BlockSize)
	dev.Read(got, addr)
	if !bytes.Equal(got, want) {
		t.Fatal("NVMM block after the drop is not stale bytes with zeroed dirty lines")
	}
}

// TestFreshBitClearsOnSuccessfulFlushOnly: the zero-on-truncate obligation
// ends when the block's data has reached NVMM, and not before — a block
// DropBlock discards before any flush still owes its zeroes.
func TestFreshBitClearsOnSuccessfulFlushOnly(t *testing.T) {
	dev, err := nvmm.New(nvmm.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(dev, clock.Real{}, Config{Blocks: 8, CLFW: true, WritebackThreads: -1})
	t.Cleanup(p.Close)
	const addr = 1 << 20
	dev.Write(bytes.Repeat([]byte{0xEE}, BlockSize), addr)
	payload := bytes.Repeat([]byte{0x2D}, BlockSize)

	// Never flushed: the block is still fresh, so the drop zeroes it.
	fb := p.NewFile()
	fb.Write(0, 0, payload, addr, false)
	dev.ResetStats()
	fb.DropBlock(0)
	if got := dev.Stats().BytesFlushed; got != BlockSize {
		t.Fatalf("drop of an unflushed fresh block flushed %d bytes, want one block of zeroes", got)
	}
	got := make([]byte, BlockSize)
	dev.Read(got, addr)
	if !bytes.Equal(got, make([]byte, BlockSize)) {
		t.Fatal("NVMM block not zeroed by the drop")
	}

	// Flushed: the data is on NVMM and owned by the file; a later
	// overwrite that dies in the buffer costs nothing and disturbs nothing.
	fb = p.NewFile()
	fb.Write(0, 0, payload, addr, false)
	if _, err := fb.Flush(); err != nil {
		t.Fatal(err)
	}
	fb.Write(0, 0, bytes.Repeat([]byte{0x3C}, BlockSize), addr, true)
	dev.ResetStats()
	fb.DropBlock(0)
	if got := dev.Stats().BytesFlushed; got != 0 {
		t.Fatalf("drop of a written-back block flushed %d bytes", got)
	}
	dev.Read(got, addr)
	if !bytes.Equal(got, payload) {
		t.Fatal("drop disturbed data that had been written back")
	}
}

// TestDropWritesNothing: the reclaim hook's Drop runs after the file's
// dentry removal committed, so neither a fresh block nor one gating a
// transaction owes zeroes: the drop flushes no block line, leaves every
// NVMM byte as it was and still releases the transaction, whose commit
// record is the one line that reaches the device.
func TestDropWritesNothing(t *testing.T) {
	p, dev := testPool(t, 8, true)
	const addr, jbase = 1 << 20, 2 << 20
	j, err := journal.NewLanes(dev, jbase, 2*BlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	stale := bytes.Repeat([]byte{0xEE}, 2*BlockSize)
	dev.Write(stale, addr)
	tx := j.Begin()
	tx.AddPending(1)
	tx.Seal()
	fb := p.NewFile()
	data := bytes.Repeat([]byte{0x2D}, BlockSize)
	fb.Write(0, 0, data, addr, false)                                                  // fresh
	fb.Write(1, 3*cacheline.Size+7, data[:2*cacheline.Size], addr+BlockSize, true, tx) // gated
	dev.ResetStats()
	fb.Drop()
	if got := dev.Stats().BytesFlushed; got != journal.EntrySize {
		t.Errorf("drop flushed %d bytes, want only the %d-byte commit record", got, journal.EntrySize)
	}
	if got := p.Stats().LinesFlushed; got != 0 {
		t.Errorf("drop flushed %d buffered lines, want 0", got)
	}
	if got := p.Stats().Drops; got != 2 {
		t.Errorf("drops = %d, want 2", got)
	}
	if !tx.Committed() {
		t.Error("the drop did not release the gated transaction")
	}
	got := make([]byte, len(stale))
	dev.Read(got, addr)
	if !bytes.Equal(got, stale) {
		t.Error("drop changed NVMM bytes")
	}
	if p.FreeBlocks() != 8 || len(fb.BlockIndices()) != 0 {
		t.Errorf("free = %d, buffered = %v after drop", p.FreeBlocks(), fb.BlockIndices())
	}
}

// TestNudgeDrainFlushesOnlyOlderGates: the journal-pressure drain writes
// back exactly the blocks that gate a transaction begun before its bound — a
// block gating an older and a newer one included — and leaves dirty the
// blocks that gate only newer transactions or none. A stall's bound (past
// every txid handed out) releases every gated transaction; only a block that
// gates nothing is left for sync.
func TestNudgeDrainFlushesOnlyOlderGates(t *testing.T) {
	p, dev := testPool(t, 8, true)
	const addr, jbase = 1 << 20, 2 << 20
	j, err := journal.NewLanes(dev, jbase, 2*BlockSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	old1, old2, young := j.Begin(), j.Begin(), j.Begin()
	fb := p.NewFile()
	data := bytes.Repeat([]byte{0x2D}, BlockSize)
	fb.Write(0, 0, data, addr, false, old1)
	fb.Write(1, 0, data, addr+BlockSize, false, young)
	fb.Write(2, 0, data, addr+2*BlockSize, false, old2, young)
	fb.Write(3, 0, data, addr+3*BlockSize, true) // an overwrite gates nothing
	old1.AddPending(1)
	old2.AddPending(1)
	young.AddPending(2)
	for _, tx := range []*journal.Tx{old1, old2, young} {
		tx.Seal()
	}
	dirty := func() (d []int64) {
		for i := int64(0); i < 4; i++ {
			if fb.DirtyLines(i) > 0 {
				d = append(d, i)
			}
		}
		return d
	}

	if got := p.DrainBefore(young.ID()); got != 2*cacheline.PerBlock {
		t.Errorf("nudge drain flushed %d lines, want %d", got, 2*cacheline.PerBlock)
	}
	if !old1.Committed() || !old2.Committed() || young.Committed() {
		t.Errorf("after the nudge drain: committed old1 %v old2 %v young %v, want true true false",
			old1.Committed(), old2.Committed(), young.Committed())
	}
	if d := dirty(); !slices.Equal(d, []int64{1, 3}) {
		t.Errorf("dirty after the nudge drain: %v, want [1 3]", d)
	}

	if got := p.DrainBefore(young.ID() + 1); got != cacheline.PerBlock {
		t.Errorf("stall drain flushed %d lines, want %d", got, cacheline.PerBlock)
	}
	if !young.Committed() {
		t.Error("the stall drain did not release every gated transaction")
	}
	if d := dirty(); !slices.Equal(d, []int64{3}) {
		t.Errorf("dirty after the stall drain: %v, want [3]", d)
	}
}

func TestInvalidateFlushesDirtyBeforeDropping(t *testing.T) {
	p, dev := testPool(t, 8, true)
	fb := p.NewFile()
	const addr = 1 << 20
	fb.Write(0, 0, bytes.Repeat([]byte{0x77}, 2*cacheline.Size), addr, false)
	fb.Invalidate(0, 0, cacheline.Size)
	// The dirty covered line was flushed to NVMM before invalidation.
	got := make([]byte, cacheline.Size)
	dev.Read(got, addr)
	if got[0] != 0x77 {
		t.Fatal("invalidate lost dirty data")
	}
	// Line 0 now reads from NVMM (invalid in DRAM); line 1 still DRAM.
	buf := make([]byte, 2*cacheline.Size)
	if !fb.ReadMerge(0, 0, buf, addr) {
		t.Fatal("block gone entirely")
	}
	if buf[0] != 0x77 || buf[cacheline.Size] != 0x77 {
		t.Fatal("merge after invalidate broken")
	}
}

func TestLRWOrderEvictsOldestWritten(t *testing.T) {
	p := lrwPool(t, 4)
	fb := p.NewFile()
	base := int64(1 << 20)
	for i := int64(0); i < 4; i++ {
		fb.Write(i, 0, []byte{1}, base+i*BlockSize, false)
	}
	// Rewrite block 0 → it becomes MRW; block 1 is now LRW.
	fb.Write(0, 64, []byte{2}, base, false)
	// Force one eviction.
	fb.Write(4, 0, []byte{3}, base+4*BlockSize, false)
	if fb.Buffered(1) {
		// Block 1 should have been the LRW victim.
		t.Fatal("LRW policy evicted the wrong block")
	}
	if !fb.Buffered(0) {
		t.Fatal("recently rewritten block was evicted")
	}
}

func TestWriteStallsWaitForReclaim(t *testing.T) {
	p, _ := testPool(t, 2, true)
	fb := p.NewFile()
	for i := int64(0); i < 50; i++ {
		fb.Write(i, 0, []byte{byte(i)}, (1<<20)+i*BlockSize, false)
	}
	if p.Stats().Stalls == 0 {
		t.Skip("no stall observed (writeback kept up); nothing to assert")
	}
}

func TestFlushAll(t *testing.T) {
	p, _ := testPool(t, 16, true)
	fa := p.NewFile()
	fbb := p.NewFile()
	fa.Write(0, 0, []byte{1}, 1<<20, false)
	fbb.Write(0, 0, []byte{2}, 2<<20, false)
	if n := p.FlushAll(); n != 2 {
		t.Fatalf("FlushAll flushed %d lines, want 2", n)
	}
	if p.DirtyBlocks() != 0 {
		t.Fatal("dirty blocks remain")
	}
}

func TestAgedFlushWithFakeClock(t *testing.T) {
	fk := clock.NewFake(time.Unix(0, 0))
	dev, _ := nvmm.New(nvmm.Config{Size: 16 << 20})
	p := NewPool(dev, fk, Config{Blocks: 8, CLFW: true,
		FlushPeriod: 5 * time.Second, MaxDirtyAge: 30 * time.Second})
	defer p.Close()
	fb := p.NewFile()
	fb.Write(0, 0, []byte{9}, 1<<20, false)
	// Before the age threshold, periodic wakeups must not flush.
	fk.Advance(10 * time.Second)
	time.Sleep(20 * time.Millisecond)
	if p.DirtyBlocks() != 1 {
		t.Fatal("young block flushed early")
	}
	for i := 0; i < 10; i++ {
		fk.Advance(5 * time.Second)
		time.Sleep(5 * time.Millisecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for p.DirtyBlocks() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("aged block never flushed")
		}
		fk.Advance(5 * time.Second)
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBlockIndices(t *testing.T) {
	p, _ := testPool(t, 8, true)
	fb := p.NewFile()
	for _, i := range []int64{5, 1, 3} {
		fb.Write(i, 0, []byte{1}, (1<<20)+i*BlockSize, false)
	}
	got := fb.BlockIndices()
	want := []int64{1, 3, 5}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("indices %v", got)
	}
}

func TestDirtyLines(t *testing.T) {
	p, _ := testPool(t, 8, true)
	fb := p.NewFile()
	fb.Write(0, 0, make([]byte, 3*cacheline.Size), 1<<20, false)
	if got := fb.DirtyLines(0); got != 3 {
		t.Fatalf("dirty lines = %d, want 3", got)
	}
	if got := fb.DirtyLines(9); got != 0 {
		t.Fatalf("missing block dirty lines = %d", got)
	}
}
