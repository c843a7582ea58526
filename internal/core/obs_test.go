package core

import (
	"testing"
	"time"

	"hinfs/internal/obs"
	"hinfs/internal/vfs"
)

// TestObsInstrumentation drives every instrumented HiNFS decision path
// and checks the collector saw it: lazy and eager writes, buffered and
// direct reads, routing counters and flush latencies.
func TestObsInstrumentation(t *testing.T) {
	col := obs.New()
	fs, _ := testFS(t, Options{Obs: col})

	// Lazy write: plain WriteAt lands in DRAM.
	f, err := fs.Create("/lazy")
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 8192)
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Buffered read: the blocks are dirty in DRAM.
	if _, err := f.ReadAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	// Fsync flushes the buffered blocks (benefit sync).
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Eager write: O_SYNC forces the direct-to-NVMM path.
	g, err := fs.Open("/eager", vfs.OCreate|vfs.ORdwr|vfs.OSync)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// Direct read: after Sync nothing of /eager is in DRAM.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ReadAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	// Overrun the 512-block DRAM buffer so background reclaim kicks in
	// and records writeback batches (and possibly foreground stalls).
	big, err := fs.Create("/big")
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 64<<10)
	for off := int64(0); off < 3<<20; off += int64(len(chunk)) {
		if _, err := big.WriteAt(chunk, off); err != nil {
			t.Fatal(err)
		}
	}
	if err := big.Close(); err != nil {
		t.Fatal(err)
	}
	// Reclaim runs on the background writeback threads: nudge them and
	// wait for the batch to be recorded.
	deadline := time.Now().Add(5 * time.Second)
	for col.Snapshot().Path(obs.PathWriteback).Count == 0 {
		if time.Now().After(deadline) {
			break // the assertion below reports the failure
		}
		fs.Pool().Kick()
		time.Sleep(time.Millisecond)
	}

	s := col.Snapshot()
	for _, p := range []obs.Path{
		obs.PathLazyWrite, obs.PathEagerWrite,
		obs.PathBufferedRead, obs.PathDirectRead,
		obs.PathWriteback, obs.PathNVMMFlush,
	} {
		if s.Path(p).Count == 0 {
			t.Errorf("path %s not recorded", p)
		}
	}
	if eb := s.Counter(obs.CtrEagerBlocks); eb != 2 {
		t.Errorf("eager blocks %d, want 2 (the O_SYNC file only)", eb)
	}
	if lb := s.Counter(obs.CtrLazyBlocks); lb < 2 {
		t.Errorf("lazy blocks %d, want >= 2", lb)
	}
	// The benefit model ran at the fsync.
	if s.Counter(obs.CtrBenefitEager)+s.Counter(obs.CtrBenefitLazy) == 0 {
		t.Error("benefit verdict counters empty")
	}
}

// TestObsDisabledIsInert checks the nil-collector default records
// nothing and changes nothing.
func TestObsDisabledIsInert(t *testing.T) {
	fs, _ := testFS(t, Options{})
	f, err := fs.Create("/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// No collector anywhere: Snapshot of a nil collector is empty.
	var c *obs.Collector
	if s := c.Snapshot(); len(s.Paths) != 0 {
		t.Fatal("nil collector recorded")
	}
}
