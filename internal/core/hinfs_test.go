package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hinfs/internal/buffer"
	"hinfs/internal/clock"
	"hinfs/internal/nvmm"
	"hinfs/internal/pmfs"
	"hinfs/internal/vfs"
)

func testFS(t testing.TB, opts Options) (*FS, *nvmm.Device) {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if opts.BufferBlocks == 0 {
		opts.BufferBlocks = 512
	}
	opts.PMFS.MaxInodes = 1024
	fs, err := Mkfs(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Unmount() })
	return fs, dev
}

// mustFile creates path and returns the concrete HiNFS file handle.
func mustFile(t *testing.T, fs *FS, path string) *File {
	t.Helper()
	v, err := fs.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return v.(*File)
}

func TestBufferedWriteReadBack(t *testing.T) {
	fs, _ := testFS(t, Options{})
	f, err := fs.Create("/a")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := []byte("buffered in DRAM")
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	// The write must be in DRAM, not yet flushed.
	if fs.Pool().DirtyBlocks() == 0 {
		t.Fatal("lazy write did not land in the DRAM buffer")
	}
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestReadMergesDRAMAndNVMM(t *testing.T) {
	fs, _ := testFS(t, Options{})
	f, _ := fs.Create("/m")
	defer f.Close()
	// First fill a block and fsync so it is entirely on NVMM and clean.
	base := bytes.Repeat([]byte{0x11}, BlockSize)
	f.WriteAt(base, 0)
	f.Fsync()
	// Overwrite a middle slice; it stays dirty in DRAM.
	patch := bytes.Repeat([]byte{0x22}, 200)
	f.WriteAt(patch, 1000)
	got := make([]byte, BlockSize)
	f.ReadAt(got, 0)
	want := append([]byte(nil), base...)
	copy(want[1000:], patch)
	if !bytes.Equal(got, want) {
		t.Fatal("merged read does not combine DRAM and NVMM data")
	}
}

func TestFsyncPersistsAndCleans(t *testing.T) {
	fs, dev := testFS(t, Options{})
	f, _ := fs.Create("/s")
	defer f.Close()
	f.WriteAt(bytes.Repeat([]byte{7}, 3*BlockSize), 0)
	before := dev.Stats().BytesFlushed
	if err := f.Fsync(); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().BytesFlushed == before {
		t.Fatal("fsync flushed nothing to NVMM")
	}
	if n := fs.Pool().DirtyBlocks(); n != 0 {
		t.Fatalf("%d dirty blocks after fsync", n)
	}
}

func TestUnmountFlushesEverything(t *testing.T) {
	dev, _ := nvmm.New(nvmm.Config{Size: 64 << 20})
	fs, err := Mkfs(dev, Options{BufferBlocks: 512, PMFS: pmfs.Options{MaxInodes: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("/persist")
	payload := bytes.Repeat([]byte("hinfs!"), 1000)
	f.WriteAt(payload, 0)
	f.Close()
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	// Remount with plain PMFS: data must be on NVMM.
	base, err := pmfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	g, err := base.Open("/persist", vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	g.ReadAt(got, 0)
	if !bytes.Equal(got, payload) {
		t.Fatal("buffered data lost at unmount")
	}
}

// TestUnlinkDropsDirtyBuffers: a short-lived file's data never reaches
// NVMM, whichever of the four routes into the reclaim hook frees it: unlink
// or rename-over, with the file closed first or still open until after the
// removal. Measured from before the create, its fresh blocks cost nothing
// on NVMM — the drop runs after the dentry removal committed, so it owes
// no zeroes — and only metadata is flushed: index and directory lines,
// journal entries and commit records, bitmap words. No line of the data is
// on the device afterwards. While a handle is open the blocks stay
// buffered; its last close drops them.
func TestUnlinkDropsDirtyBuffers(t *testing.T) {
	const blocks = 16
	for _, c := range []struct {
		name   string
		rename bool  // rename /src over the file instead of unlinking it
		open   bool  // close the file's handle only after the removal
		meta   int64 // metadata bytes flushed from the create on
	}{
		{"unlink-closed", false, false, 12352},
		{"unlink-open", false, true, 12352},
		{"rename-over-closed", true, false, 8576},
		{"rename-over-open", true, true, 8576},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs, dev := testFS(t, Options{})
			if c.rename {
				mustFile(t, fs, "/src").Close()
			}
			before := dev.Stats().BytesFlushed
			f := mustFile(t, fs, "/shortlived")
			if _, err := f.WriteAt(bytes.Repeat([]byte{9}, blocks*BlockSize), 0); err != nil {
				t.Fatal(err)
			}
			if !c.open {
				f.Close()
			}
			var err error
			if c.rename {
				err = fs.Rename("/src", "/shortlived")
			} else {
				err = fs.Unlink("/shortlived")
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.open {
				if got := fs.Pool().Stats().Drops; got != 0 {
					t.Fatalf("removal dropped %d blocks while a handle was open", got)
				}
				f.Close()
			}
			if got := fs.Pool().Stats().Drops; got != blocks {
				t.Fatalf("dropped %d dirty blocks, want %d", got, blocks)
			}
			// The dropped data must not be flushed afterwards.
			fs.Sync()
			if delta := dev.Stats().BytesFlushed - before; delta > c.meta {
				t.Fatalf("create + lazy write + removal flushed %d bytes for %d blocks, want at most the %d of metadata", delta, blocks, c.meta)
			}
			line := bytes.Repeat([]byte{9}, 64)
			chunk := make([]byte, 1<<20)
			for off := int64(0); off < dev.Size(); off += int64(len(chunk)) {
				dev.Read(chunk, off)
				if i := bytes.Index(chunk, line); i >= 0 {
					t.Fatalf("a line of the dropped data is on the device at %d", off+int64(i))
				}
			}
		})
	}
}

func TestOSyncWritesAreEager(t *testing.T) {
	fs, dev := testFS(t, Options{})
	f, err := fs.Open("/sync", vfs.OCreate|vfs.ORdwr|vfs.OSync)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	before := dev.Stats().BytesFlushed
	f.WriteAt(bytes.Repeat([]byte{1}, BlockSize), 0)
	if dev.Stats().BytesFlushed == before {
		t.Fatal("O_SYNC write not persisted immediately")
	}
	if fs.Pool().DirtyBlocks() != 0 {
		t.Fatal("O_SYNC write left dirty DRAM blocks")
	}
}

func TestSyncMountAllEager(t *testing.T) {
	fs, dev := testFS(t, Options{SyncMount: true})
	f, _ := fs.Create("/f")
	defer f.Close()
	before := dev.Stats().BytesFlushed
	f.WriteAt(make([]byte, BlockSize), 0)
	if dev.Stats().BytesFlushed == before {
		t.Fatal("sync-mount write not persisted immediately")
	}
}

func TestOSyncWriteEvictsBufferedBlock(t *testing.T) {
	fs, _ := testFS(t, Options{})
	// Buffer a block lazily via one handle...
	f, _ := fs.Create("/dual")
	f.WriteAt(bytes.Repeat([]byte{3}, BlockSize), 0)
	// ...then write the same block through an O_SYNC handle (case 1).
	g, err := fs.Open("/dual", vfs.ORdwr|vfs.OSync)
	if err != nil {
		t.Fatal(err)
	}
	g.WriteAt([]byte("sync!"), 100)
	if fs.Pool().DirtyBlocks() != 0 {
		t.Fatal("case-1 write left the block dirty in DRAM")
	}
	// Both writes must be visible.
	got := make([]byte, BlockSize)
	f.ReadAt(got, 0)
	if got[0] != 3 || string(got[100:105]) != "sync!" || got[200] != 3 {
		t.Fatal("case-1 eviction lost data")
	}
	f.Close()
	g.Close()
}

func TestBenefitModelMarksFrequentSyncersEager(t *testing.T) {
	fs, _ := testFS(t, Options{})
	f := mustFile(t, fs, "/db")
	defer f.Close()
	blockData := make([]byte, BlockSize)
	// Write-fsync cycles: every sync flushes all written lines, so
	// N_cf == N_cw and the inequality fails → blocks turn eager.
	for i := 0; i < 3; i++ {
		f.WriteAt(blockData, 0)
		f.Fsync()
	}
	ino := uint64(f.Ino())
	if !fs.Model().IsEager(ino, 0, fs.clk.Now()) {
		t.Fatal("write-fsync block not marked eager-persistent")
	}
	// Subsequent async writes bypass the buffer.
	dirtyBefore := fs.Pool().DirtyBlocks()
	f.WriteAt(blockData, 0)
	if fs.Pool().DirtyBlocks() != dirtyBefore {
		t.Fatal("eager block write went to the DRAM buffer")
	}
}

func TestEagerStateDecaysAfterQuietPeriod(t *testing.T) {
	fk := clock.NewFake(time.Unix(1000, 0))
	fs, _ := testFS(t, Options{Clock: fk})
	f := mustFile(t, fs, "/decay")
	defer f.Close()
	data := make([]byte, BlockSize)
	for i := 0; i < 2; i++ {
		f.WriteAt(data, 0)
		f.Fsync()
	}
	ino := uint64(f.Ino())
	if !fs.Model().IsEager(ino, 0, f.pf.LastSync()) {
		t.Fatal("precondition: block should be eager")
	}
	// After 6 quiet seconds the state decays to lazy (paper: 5 s default).
	fk.Advance(6 * time.Second)
	if fs.Model().IsEager(ino, 0, f.pf.LastSync()) {
		t.Fatal("eager state did not decay")
	}
	f.WriteAt(data, 0)
	if fs.Pool().DirtyBlocks() == 0 {
		t.Fatal("post-decay write was not buffered")
	}
}

func TestWBVariantBuffersEverything(t *testing.T) {
	fs, _ := testFS(t, Options{DisableEagerChecker: true})
	f, _ := fs.Create("/wb")
	defer f.Close()
	data := make([]byte, BlockSize)
	for i := 0; i < 3; i++ {
		f.WriteAt(data, 0)
		f.Fsync()
	}
	// Even with sync-heavy behaviour, HiNFS-WB still buffers.
	f.WriteAt(data, 0)
	if fs.Pool().DirtyBlocks() == 0 {
		t.Fatal("HiNFS-WB write bypassed the buffer")
	}
}

func TestNCLFWWholeBlockTraffic(t *testing.T) {
	mk := func(disable bool) buffer.Stats {
		fs, _ := testFS(t, Options{DisableCLFW: disable})
		f, _ := fs.Create("/x")
		// Small unaligned writes into many blocks.
		for i := 0; i < 32; i++ {
			f.WriteAt([]byte("tiny"), int64(i)*BlockSize+100)
		}
		f.Fsync()
		f.Close()
		st := fs.Pool().Stats()
		return st
	}
	clfw := mk(false)
	nclfw := mk(true)
	if nclfw.LinesFlushed <= clfw.LinesFlushed {
		t.Fatalf("NCLFW flushed %d lines, CLFW %d — CLFW must flush fewer",
			nclfw.LinesFlushed, clfw.LinesFlushed)
	}
}

func TestTruncateDropsBufferedTail(t *testing.T) {
	fs, _ := testFS(t, Options{})
	f, _ := fs.Create("/t")
	defer f.Close()
	f.WriteAt(bytes.Repeat([]byte{0xEE}, 4*BlockSize), 0)
	if err := f.Truncate(BlockSize + 100); err != nil {
		t.Fatal(err)
	}
	if got := f.Size(); got != BlockSize+100 {
		t.Fatalf("size = %d", got)
	}
	// Re-extend: everything past the cut must read zero, even though the
	// old data was buffered in DRAM.
	if err := f.Truncate(3 * BlockSize); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3*BlockSize)
	f.ReadAt(got, 0)
	for i := BlockSize + 100; i < 3*BlockSize; i++ {
		if got[i] != 0 {
			t.Fatalf("stale byte %#x at %d after truncate+extend", got[i], i)
		}
	}
	for i := 0; i < BlockSize+100; i++ {
		if got[i] != 0xEE {
			t.Fatalf("lost byte at %d", i)
		}
	}
}

func TestAppendAcrossBlocks(t *testing.T) {
	fs, _ := testFS(t, Options{})
	f, err := fs.Open("/log", vfs.OCreate|vfs.OWronly|vfs.OAppend)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	line := bytes.Repeat([]byte{0xAA}, 1000)
	for i := 0; i < 10; i++ {
		f.WriteAt(line, 0)
	}
	if f.Size() != 10000 {
		t.Fatalf("size = %d", f.Size())
	}
	got := make([]byte, 10000)
	f2, _ := fs.Open("/log", vfs.ORdonly)
	defer f2.Close()
	f2.ReadAt(got, 0)
	for i, b := range got {
		if b != 0xAA {
			t.Fatalf("byte %d = %#x", i, b)
		}
	}
}

func TestBackgroundWritebackUnderPressure(t *testing.T) {
	// A tiny pool forces eviction-driven writeback.
	fs, dev := testFS(t, Options{BufferBlocks: 16})
	f, _ := fs.Create("/big")
	defer f.Close()
	data := make([]byte, BlockSize)
	for i := 0; i < 256; i++ {
		if _, err := f.WriteAt(data, int64(i)*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
	if fs.Pool().Stats().Evictions == 0 {
		t.Fatal("no evictions despite pool pressure")
	}
	if dev.Stats().BytesFlushed == 0 {
		t.Fatal("evictions flushed nothing")
	}
	// All data still readable.
	got := make([]byte, BlockSize)
	for i := 0; i < 256; i += 37 {
		if _, err := f.ReadAt(got, int64(i)*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPeriodicWritebackWithFakeClock(t *testing.T) {
	fk := clock.NewFake(time.Unix(0, 0))
	fs, _ := testFS(t, Options{Clock: fk, Buffer: buffer.Config{
		FlushPeriod: 5 * time.Second,
		MaxDirtyAge: 30 * time.Second,
	}})
	f, _ := fs.Create("/aged")
	defer f.Close()
	f.WriteAt(make([]byte, BlockSize), 0)
	if fs.Pool().DirtyBlocks() != 1 {
		t.Fatal("write not buffered")
	}
	// Advance past MaxDirtyAge; the periodic thread should flush it. Keep
	// advancing in the wait loop so the writeback threads' re-armed timers
	// fire regardless of goroutine scheduling.
	deadline := time.Now().Add(2 * time.Second)
	for fs.Pool().DirtyBlocks() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("aged dirty block never written back")
		}
		fk.Advance(5 * time.Second)
		time.Sleep(2 * time.Millisecond)
	}
}

func TestOrderedModeCommitWaitsForData(t *testing.T) {
	fs, _ := testFS(t, Options{})
	jnlBefore := fs.Journal().Stats().Commits
	f, _ := fs.Create("/ordered")
	defer f.Close()
	f.WriteAt(make([]byte, BlockSize), 0)
	// The lazy write's transaction must not commit until its data block
	// persists. (Creation committed; the write tx is pending.)
	mid := fs.Journal().Stats()
	f.Fsync()
	after := fs.Journal().Stats()
	if after.Commits <= mid.Commits {
		t.Fatalf("fsync did not commit the deferred transaction (before=%d mid=%d after=%d)",
			jnlBefore, mid.Commits, after.Commits)
	}
}

func TestRandomizedConsistencyAgainstShadow(t *testing.T) {
	// Property-style test: random writes/reads/fsyncs/truncates on HiNFS
	// must always match an in-memory shadow copy.
	fs, _ := testFS(t, Options{BufferBlocks: 64})
	f, _ := fs.Create("/shadow")
	defer f.Close()
	const maxSize = 48 * BlockSize
	shadow := make([]byte, 0, maxSize)
	rng := rand.New(rand.NewSource(42))
	for op := 0; op < 800; op++ {
		switch rng.Intn(10) {
		case 0:
			f.Fsync()
		case 1:
			n := rng.Intn(len(shadow) + 1)
			f.Truncate(int64(n))
			shadow = shadow[:n]
		default:
			off := rng.Intn(maxSize - 1)
			n := 1 + rng.Intn(8000)
			if off+n > maxSize {
				n = maxSize - off
			}
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(rng.Intn(256))
			}
			if _, err := f.WriteAt(data, int64(off)); err != nil {
				t.Fatal(err)
			}
			if off+n > len(shadow) {
				shadow = append(shadow, make([]byte, off+n-len(shadow))...)
			}
			copy(shadow[off:], data)
		}
		if op%50 == 0 {
			if got, want := f.Size(), int64(len(shadow)); got != want {
				t.Fatalf("op %d: size %d, want %d", op, got, want)
			}
			got := make([]byte, len(shadow))
			f.ReadAt(got, 0)
			if !bytes.Equal(got, shadow) {
				for i := range got {
					if got[i] != shadow[i] {
						t.Fatalf("op %d: first mismatch at byte %d (block %d line %d): got %#x want %#x",
							op, i, i/BlockSize, (i%BlockSize)/64, got[i], shadow[i])
					}
				}
			}
		}
	}
}

func TestMmapDirectAccess(t *testing.T) {
	fs, _ := testFS(t, Options{})
	f := mustFile(t, fs, "/mapped")
	defer f.Close()
	f.WriteAt([]byte("before map"), 0)
	// A negative block index is rejected before anything changes: the
	// handle is not marked mapped, so its writes keep their route. Msync
	// is probed at inode height 0 (this file) and 1 (a 5-block file).
	if err := f.Msync(-1); err != vfs.ErrInvalid {
		t.Fatalf("Msync(-1) = %v, want ErrInvalid", err)
	}
	if _, err := f.Mmap(-1); err != vfs.ErrInvalid {
		t.Fatalf("Mmap(-1) = %v, want ErrInvalid", err)
	}
	if f.mapped {
		t.Fatal("Mmap(-1) marked the handle mapped")
	}
	tall := mustFile(t, fs, "/tall")
	defer tall.Close()
	tall.WriteAt(make([]byte, 5*BlockSize), 0)
	if err := tall.Msync(-1); err != vfs.ErrInvalid {
		t.Fatalf("Msync(-1) on a height-1 file = %v, want ErrInvalid", err)
	}
	m, err := f.Mmap(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(m[:10]) != "before map" {
		t.Fatalf("mapped view stale: %q", m[:10])
	}
	copy(m, "direct st!")
	if err := f.Msync(0); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10)
	f.ReadAt(got, 0)
	if string(got) != "direct st!" {
		t.Fatalf("read after mmap store: %q", got)
	}
	if err := f.Munmap(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(fs) // m aliases the device image, which dies with it

	// An index whose byte offset overflows is rejected before anything
	// changes; a huge one that fits marks what the file holds, not an
	// index-long run of blocks (at 1<<46 that slice cannot be allocated).
	h := mustFile(t, fs, "/huge")
	defer h.Close()
	for _, idx := range []int64{1<<52 + 1, pmfs.MaxBlockIndex + 1} {
		if _, err := h.Mmap(idx); err != vfs.ErrInvalid {
			t.Fatalf("Mmap(%d) = %v, want ErrInvalid", idx, err)
		}
	}
	if h.mapped || h.Size() != 0 {
		t.Fatalf("rejected maps left the handle mapped=%v, size %d", h.mapped, h.Size())
	}
	if _, err := h.Mmap(1 << 46); err != nil {
		t.Fatal(err)
	}
	if want := int64(1<<46+1) * BlockSize; h.Size() != want {
		t.Fatalf("Mmap(1<<46) left size %d, want %d", h.Size(), want)
	}

	// Mapping the block that holds EOF, or a block past it, exposes the
	// bytes past the old EOF — a fresh block's tail, or what a truncate cut
	// off, in NVMM and in the buffer. On a poisoned device they must read as
	// zeroes through the mapping and the file, live and after remount.
	dev := poisonedDev(t, 16<<20, false)
	pfs, err := Mkfs(dev, Options{BufferBlocks: 64, PMFS: pmfs.Options{MaxInodes: 64}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		path               string
		flags              int
		written, size, idx int64
	}{
		{"/tail", 0, 100, 100, 0},                                 // fresh tail, the EOF block mapped
		{"/direct", vfs.OSync, 100, 100, 0},                       // the same, not buffered
		{"/cut", 0, 3000, 100, 0},                                 // truncated tail, the EOF block mapped
		{"/past", 0, 2*BlockSize + 100, 2*BlockSize + 100, 3},     // a block past EOF mapped
		{"/cutpast", 0, 2*BlockSize + 3000, 2*BlockSize + 100, 3}, // a truncated block, a block past EOF mapped
	}
	want := map[string][]byte{}
	for _, c := range cases {
		v, err := pfs.Open(c.path, vfs.OCreate|vfs.ORdwr|c.flags)
		if err != nil {
			t.Fatal(err)
		}
		f := v.(*File)
		data := bytes.Repeat([]byte{0x5A}, int(c.written))
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(c.size); err != nil {
			t.Fatal(err)
		}
		m, err := f.Mmap(c.idx)
		if err != nil {
			t.Fatal(err)
		}
		if c.idx == c.size/BlockSize && !bytes.Equal(m[c.size%BlockSize:], make([]byte, BlockSize-c.size%BlockSize)) {
			t.Fatalf("%s: the mapping shows nonzero bytes past the old EOF %d", c.path, c.size)
		}
		got := make([]byte, (c.idx+1)*BlockSize)
		if n, err := f.ReadAt(got, 0); n != len(got) || (err != nil && err != io.EOF) {
			t.Fatalf("%s: read %d of %d bytes: %v", c.path, n, len(got), err)
		}
		if tail := got[c.size:]; !bytes.Equal(tail, make([]byte, len(tail))) {
			t.Fatalf("%s: the bytes past the old EOF %d are not all zero (first poison at %d)", c.path, c.size, firstPoison(tail))
		}
		want[c.path] = got
		f.Close()
		runtime.KeepAlive(pfs) // m aliased pfs's device image
	}
	if err := pfs.Unmount(); err != nil {
		t.Fatal(err)
	}
	base, err := pmfs.Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	for path, w := range want {
		f, err := base.Open(path, vfs.ORdonly)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(w))
		if n, err := f.ReadAt(got, 0); n != len(w) || (err != nil && err != io.EOF) || !bytes.Equal(got, w) {
			t.Fatalf("%s differs after remount (%d of %d bytes, %v)", path, n, len(w), err)
		}
		f.Close()
	}
}

func TestConcurrentFilesUnderSmallPool(t *testing.T) {
	fs, _ := testFS(t, Options{BufferBlocks: 32})
	const workers = 8
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			path := fmt.Sprintf("/c%d", w)
			f, err := fs.Create(path)
			if err != nil {
				errc <- err
				return
			}
			defer f.Close()
			pat := bytes.Repeat([]byte{byte(w + 1)}, BlockSize)
			for i := 0; i < 32; i++ {
				if _, err := f.WriteAt(pat, int64(i)*BlockSize); err != nil {
					errc <- err
					return
				}
			}
			if w%2 == 0 {
				if err := f.Fsync(); err != nil {
					errc <- err
					return
				}
			}
			buf := make([]byte, BlockSize)
			for i := 0; i < 32; i++ {
				f.ReadAt(buf, int64(i)*BlockSize)
				if buf[0] != byte(w+1) || buf[BlockSize-1] != byte(w+1) {
					errc <- fmt.Errorf("worker %d corrupt block %d", w, i)
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestStatSeesBufferedSize(t *testing.T) {
	fs, _ := testFS(t, Options{})
	f, _ := fs.Create("/sz")
	defer f.Close()
	f.WriteAt(make([]byte, 5000), 0)
	fi, err := fs.Stat("/sz")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 5000 {
		t.Fatalf("Stat size %d before flush", fi.Size)
	}
}
