package core

import (
	"bytes"
	"testing"
	"time"

	"hinfs/internal/clock"
	"hinfs/internal/nvmm"
	"hinfs/internal/pmfs"
	"hinfs/internal/vfs"
)

func TestOpenFlagsMatrix(t *testing.T) {
	fs, _ := testFS(t, Options{})
	if _, err := fs.Open("/missing", vfs.ORdonly); err != vfs.ErrNotExist {
		t.Fatalf("open missing = %v", err)
	}
	f, err := fs.Open("/made", vfs.OCreate|vfs.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("abcdef"), 0)
	f.Close()
	// O_TRUNC empties it.
	g, err := fs.Open("/made", vfs.ORdwr|vfs.OTrunc)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 0 {
		t.Fatalf("size after O_TRUNC = %d", g.Size())
	}
	g.Close()
	// Opening a directory as a file fails.
	fs.Mkdir("/adir")
	if _, err := fs.Open("/adir", vfs.ORdonly); err != vfs.ErrIsDir {
		t.Fatalf("open dir = %v", err)
	}
}

func TestRenameReplacesBufferedTarget(t *testing.T) {
	fs, _ := testFS(t, Options{})
	src, _ := fs.Create("/src")
	src.WriteAt([]byte("source-data"), 0)
	src.Close()
	dst, _ := fs.Create("/dst")
	dst.WriteAt(bytes.Repeat([]byte{0xDD}, 3*BlockSize), 0) // buffered dirty
	dst.Close()
	if err := fs.Rename("/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open("/dst", vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	buf := make([]byte, 11)
	g.ReadAt(buf, 0)
	if string(buf) != "source-data" {
		t.Fatalf("got %q", buf)
	}
	if g.Size() != 11 {
		t.Fatalf("size %d", g.Size())
	}
	fs.Sync()
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatalf("inconsistent after replace-rename: %v", errs)
	}
}

func TestUnlinkThenRecreateSameName(t *testing.T) {
	fs, _ := testFS(t, Options{})
	for i := 0; i < 5; i++ {
		f, err := fs.Create("/cycle")
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt(bytes.Repeat([]byte{byte(i + 1)}, 2*BlockSize), 0)
		f.Close()
		g, _ := fs.Open("/cycle", vfs.ORdonly)
		buf := make([]byte, 1)
		g.ReadAt(buf, BlockSize)
		g.Close()
		if buf[0] != byte(i+1) {
			t.Fatalf("round %d read %#x", i, buf[0])
		}
		if err := fs.Unlink("/cycle"); err != nil {
			t.Fatal(err)
		}
	}
	fs.Sync()
	if errs := fs.Fsck(); len(errs) != 0 {
		t.Fatalf("inconsistent after churn: %v", errs)
	}
}

func TestHiNFSRemountCycle(t *testing.T) {
	d, err := nvmm.New(nvmm.Config{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fs1, err := Mkfs(d, Options{BufferBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs1.Create("/survivor")
	f.WriteAt([]byte("generation 1"), 0)
	f.Close()
	fs1.Unmount()

	fs2, err := Mount(d, Options{BufferBlocks: 256})
	if err != nil {
		t.Fatal(err)
	}
	g, err := fs2.Open("/survivor", vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 12)
	g.ReadAt(buf, 0)
	if string(buf) != "generation 1" {
		t.Fatalf("got %q", buf)
	}
	// Write through the remounted instance and verify.
	h, _ := fs2.Create("/gen2")
	h.WriteAt([]byte("generation 2"), 0)
	h.Close()
	g.Close()
	if err := fs2.Unmount(); err != nil {
		t.Fatal(err)
	}
}

func TestWBVariantDropsOnDeleteToo(t *testing.T) {
	// Even HiNFS-WB (buffer everything) keeps the delete-absorption win.
	fs, dev := testFS(t, Options{DisableEagerChecker: true})
	const blocks = 8
	before := dev.Stats().BytesFlushed
	f, _ := fs.Create("/doomed")
	f.WriteAt(make([]byte, blocks*BlockSize), 0)
	f.Close()
	fs.Unlink("/doomed")
	fs.Sync()
	// Metadata only: the dropped blocks owe no zeroes.
	if delta := dev.Stats().BytesFlushed - before; delta > 11136 {
		t.Fatalf("WB variant flushed deleted data: %d bytes for %d fresh blocks, want at most the 11136 of metadata", delta, blocks)
	}
	if got := fs.Pool().Stats().Drops; got != blocks {
		t.Fatalf("drops = %d, want %d", got, blocks)
	}

	// An overwrite of blocks that are already on NVMM owes them nothing
	// when it dies in the buffer: the unlink flushes metadata only.
	f, _ = fs.Create("/rewritten")
	f.WriteAt(make([]byte, blocks*BlockSize), 0)
	fs.Sync()
	before = dev.Stats().BytesFlushed
	f.WriteAt(bytes.Repeat([]byte{1}, blocks*BlockSize), 0)
	f.Close()
	fs.Unlink("/rewritten")
	fs.Sync()
	if delta := dev.Stats().BytesFlushed - before; delta >= 2*BlockSize {
		t.Fatalf("dropping an overwrite of existing blocks flushed %d bytes", delta)
	}
	if got := fs.Pool().Stats().Drops; got != 2*blocks {
		t.Fatalf("drops = %d, want %d", got, 2*blocks)
	}
}

func TestSyncMountStillReadsCorrectly(t *testing.T) {
	fs, _ := testFS(t, Options{SyncMount: true})
	f, _ := fs.Create("/s")
	defer f.Close()
	data := bytes.Repeat([]byte{0x42}, 3*BlockSize+99)
	f.WriteAt(data, 17)
	got := make([]byte, len(data))
	f.ReadAt(got, 17)
	if !bytes.Equal(got, data) {
		t.Fatal("sync-mount round trip failed")
	}
}

func TestWritebackThreadCommitsOrderedTx(t *testing.T) {
	// A lazy write's deferred commit must eventually be written by the
	// background writeback (not only by fsync): force eviction via a tiny
	// pool and watch the journal commit counter.
	fs, _ := testFS(t, Options{BufferBlocks: 8})
	before := fs.Journal().Stats().Commits
	f, _ := fs.Create("/bg")
	defer f.Close()
	for i := 0; i < 64; i++ {
		f.WriteAt(make([]byte, BlockSize), int64(i)*BlockSize)
	}
	deadline := time.Now().Add(3 * time.Second)
	for fs.Journal().Stats().Commits <= before+32 {
		if time.Now().After(deadline) {
			t.Fatalf("background writeback committed too few txs: %d -> %d",
				before, fs.Journal().Stats().Commits)
		}
		time.Sleep(5 * time.Millisecond)
		fs.Pool().Kick()
	}
}

func TestReadAtNegativeOffset(t *testing.T) {
	fs, _ := testFS(t, Options{})
	f, _ := fs.Create("/neg")
	defer f.Close()
	if _, err := f.ReadAt(make([]byte, 4), -1); err != vfs.ErrInvalid {
		t.Fatalf("negative read = %v", err)
	}
	if _, err := f.WriteAt(make([]byte, 4), -1); err != vfs.ErrInvalid {
		t.Fatalf("negative write = %v", err)
	}
	if err := f.Truncate(-5); err != vfs.ErrInvalid {
		t.Fatalf("negative truncate = %v", err)
	}
}

// TestBenefitModelWiring checks the mount sizes the ghost buffer like the
// DRAM buffer and takes L_nvmm from the device, falling back to the
// model's 200 ns default on a device with no write latency.
func TestBenefitModelWiring(t *testing.T) {
	for _, tc := range []struct {
		lat, want time.Duration
	}{
		{300 * time.Nanosecond, 300 * time.Nanosecond},
		{0, 200 * time.Nanosecond},
	} {
		dev, err := nvmm.New(nvmm.Config{Size: 16 << 20, WriteLatency: tc.lat})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := Mkfs(dev, Options{BufferBlocks: 96, PMFS: pmfs.Options{MaxInodes: 64}})
		if err != nil {
			t.Fatal(err)
		}
		c := fs.Model().Config()
		if c.GhostBlocks != 96 || c.NVMMWriteLatency != tc.want {
			t.Errorf("device latency %v: ghost %d, L_nvmm %v; want 96, %v",
				tc.lat, c.GhostBlocks, c.NVMMWriteLatency, tc.want)
		}
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFakeClockDoesNotLeakIntoMetadata(t *testing.T) {
	// Ensure fake-clock mounts produce valid mtimes (no panics, sane stat).
	fk := clock.NewFake(time.Unix(1234, 0))
	fs, _ := testFS(t, Options{Clock: fk})
	f, _ := fs.Create("/t")
	f.WriteAt([]byte("x"), 0)
	f.Close()
	if _, err := fs.Stat("/t"); err != nil {
		t.Fatal(err)
	}
}
