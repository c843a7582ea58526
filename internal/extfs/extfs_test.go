package extfs

import (
	"bytes"
	"fmt"
	"testing"

	"hinfs/internal/nvmm"
	"hinfs/internal/vfs"
)

func testFS(t testing.TB, opts Options) *FS {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	opts.MaxInodes = 1024
	fs, err := Mkfs(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Unmount() })
	return fs
}

func TestExt2RoundTrip(t *testing.T) {
	fs := testFS(t, Options{})
	f, err := fs.Create("/file")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data := make([]byte, 3*BlockSize+500)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if n, err := f.WriteAt(data, 777); err != nil || n != len(data) {
		t.Fatalf("write: %d %v", n, err)
	}
	got := make([]byte, len(data))
	if n, err := f.ReadAt(got, 777); err != nil || n != len(got) {
		t.Fatalf("read: %d %v", n, err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch")
	}
}

func TestExt4DAXRoundTrip(t *testing.T) {
	fs := testFS(t, Options{Journal: true, DAX: true})
	f, _ := fs.Create("/dax")
	defer f.Close()
	data := bytes.Repeat([]byte{0x5A}, 2*BlockSize)
	f.WriteAt(data, 100)
	got := make([]byte, len(data))
	f.ReadAt(got, 100)
	if !bytes.Equal(got, data) {
		t.Fatal("DAX mismatch")
	}
	// DAX reads must not populate the page cache with data pages.
	if misses := fs.Cache().Stats().Misses; misses == 0 {
		t.Log("metadata naturally misses; ok")
	}
}

func TestReadGoesThroughPageCache(t *testing.T) {
	fs := testFS(t, Options{})
	f, _ := fs.Create("/c")
	defer f.Close()
	f.WriteAt(make([]byte, BlockSize), 0)
	f.Fsync()
	h0 := fs.Cache().Stats().Hits
	buf := make([]byte, BlockSize)
	f.ReadAt(buf, 0)
	if fs.Cache().Stats().Hits == h0 {
		t.Fatal("read did not go through the page cache")
	}
}

func TestFsyncWritesThroughBlockLayer(t *testing.T) {
	fs := testFS(t, Options{})
	f, _ := fs.Create("/d")
	defer f.Close()
	f.WriteAt(make([]byte, 4*BlockSize), 0)
	w0 := fs.BlockDevice().Stats().BytesWritten
	f.Fsync()
	if fs.BlockDevice().Stats().BytesWritten-w0 < 4*BlockSize {
		t.Fatal("fsync did not write data blocks to the device")
	}
}

func TestExt4JournalsMetadata(t *testing.T) {
	ext2 := testFS(t, Options{})
	ext4 := testFS(t, Options{Journal: true})
	for _, fs := range []*FS{ext2, ext4} {
		f, _ := fs.Create("/j")
		f.WriteAt(make([]byte, BlockSize), 0)
		f.Fsync()
		f.Close()
	}
	if got := ext2.Stats().JournalBlockWrites; got != 0 {
		t.Fatalf("ext2 journaled %d blocks", got)
	}
	if got := ext4.Stats().JournalBlockWrites; got == 0 {
		t.Fatal("ext4 journaled nothing")
	}
}

func TestDirOpsAndRename(t *testing.T) {
	fs := testFS(t, Options{Journal: true})
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("/d/x")
	f.WriteAt([]byte("v1"), 0)
	f.Close()
	if err := fs.Rename("/d/x", "/d/y"); err != nil {
		t.Fatal(err)
	}
	ents, _ := fs.ReadDir("/d")
	if len(ents) != 1 || ents[0].Name != "y" {
		t.Fatalf("ents %v", ents)
	}
	g, err := fs.Open("/d/y", vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	g.ReadAt(buf, 0)
	g.Close()
	if string(buf) != "v1" {
		t.Fatalf("got %q", buf)
	}
	if err := fs.Unlink("/d/y"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/d"); err != nil {
		t.Fatal(err)
	}
}

func TestUnlinkFreesBlocks(t *testing.T) {
	fs := testFS(t, Options{})
	// Warm the root dir block.
	f, _ := fs.Create("/w")
	f.Close()
	fs.Unlink("/w")
	before := fs.FreeBlocks()
	g, _ := fs.Create("/big")
	g.WriteAt(make([]byte, 64*BlockSize), 0)
	g.Close()
	if fs.FreeBlocks() >= before {
		t.Fatal("no blocks consumed")
	}
	fs.Unlink("/big")
	if got := fs.FreeBlocks(); got != before {
		t.Fatalf("leaked: %d != %d", got, before)
	}
}

func TestIndirectAndDoubleIndirect(t *testing.T) {
	fs := testFS(t, Options{})
	f, _ := fs.Create("/deep")
	defer f.Close()
	// Block indices in the direct, indirect and double-indirect ranges.
	for _, idx := range []int64{0, 9, 10, 100, ptrsDirect + ptrsPerBlock, ptrsDirect + ptrsPerBlock + 600} {
		pat := bytes.Repeat([]byte{byte(idx%250 + 1)}, 64)
		if _, err := f.WriteAt(pat, idx*BlockSize); err != nil {
			t.Fatalf("write idx %d: %v", idx, err)
		}
	}
	for _, idx := range []int64{0, 9, 10, 100, ptrsDirect + ptrsPerBlock, ptrsDirect + ptrsPerBlock + 600} {
		got := make([]byte, 64)
		f.ReadAt(got, idx*BlockSize)
		if got[0] != byte(idx%250+1) {
			t.Fatalf("idx %d: got %#x", idx, got[0])
		}
	}
}

func TestTruncateThenExtendZeros(t *testing.T) {
	fs := testFS(t, Options{})
	f, _ := fs.Create("/t")
	defer f.Close()
	f.WriteAt(bytes.Repeat([]byte{0xFF}, 2*BlockSize), 0)
	f.Truncate(100)
	f.Truncate(BlockSize)
	buf := make([]byte, BlockSize)
	f.ReadAt(buf, 0)
	for i := 100; i < BlockSize; i++ {
		if buf[i] != 0 {
			t.Fatalf("stale byte at %d", i)
		}
	}
}

func TestOSyncFlushesImmediately(t *testing.T) {
	fs := testFS(t, Options{})
	f, err := fs.Open("/s", vfs.OCreate|vfs.ORdwr|vfs.OSync)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w0 := fs.BlockDevice().Stats().BytesWritten
	f.WriteAt(make([]byte, BlockSize), 0)
	if fs.BlockDevice().Stats().BytesWritten == w0 {
		t.Fatal("O_SYNC write stayed in the page cache")
	}
}

func TestCacheEvictionWritesBack(t *testing.T) {
	dev, _ := nvmm.New(nvmm.Config{Size: 64 << 20})
	fs, err := Mkfs(dev, Options{MaxInodes: 256, CachePages: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	f, _ := fs.Create("/spill")
	defer f.Close()
	data := make([]byte, BlockSize)
	for i := 0; i < 128; i++ {
		f.WriteAt(data, int64(i)*BlockSize)
	}
	if fs.Cache().Stats().Evictions == 0 {
		t.Fatal("tiny cache never evicted")
	}
	// Data still correct through cache misses.
	buf := make([]byte, BlockSize)
	for i := 0; i < 128; i += 17 {
		if _, err := f.ReadAt(buf, int64(i)*BlockSize); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentFiles(t *testing.T) {
	fs := testFS(t, Options{Journal: true})
	errc := make(chan error, 6)
	for w := 0; w < 6; w++ {
		go func(w int) {
			f, err := fs.Create(fmt.Sprintf("/c%d", w))
			if err != nil {
				errc <- err
				return
			}
			defer f.Close()
			pat := bytes.Repeat([]byte{byte(w + 1)}, BlockSize)
			for i := 0; i < 16; i++ {
				if _, err := f.WriteAt(pat, int64(i)*BlockSize); err != nil {
					errc <- err
					return
				}
			}
			f.Fsync()
			buf := make([]byte, BlockSize)
			for i := 0; i < 16; i++ {
				f.ReadAt(buf, int64(i)*BlockSize)
				if buf[0] != byte(w+1) {
					errc <- fmt.Errorf("worker %d corrupt", w)
					return
				}
			}
			errc <- nil
		}(w)
	}
	for w := 0; w < 6; w++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRenameToSelfIsNoop(t *testing.T) {
	fs := testFS(t, Options{})
	f, _ := fs.Create("/same")
	f.WriteAt([]byte("keep"), 0)
	f.Close()
	if err := fs.Rename("/same", "/same"); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open("/same", vfs.ORdonly)
	if err != nil {
		t.Fatalf("file vanished after self-rename: %v", err)
	}
	buf := make([]byte, 4)
	g.ReadAt(buf, 0)
	g.Close()
	if string(buf) != "keep" {
		t.Fatalf("content lost: %q", buf)
	}
}

func TestDAXDataBypassesPageCache(t *testing.T) {
	fs := testFS(t, Options{Journal: true, DAX: true})
	f, _ := fs.Create("/direct")
	defer f.Close()
	// Writes go straight to NVMM: durable without fsync, and dirty data
	// pages never accumulate in the cache.
	dirtyBefore := fs.Cache().DirtyPages()
	f.WriteAt(make([]byte, 8*BlockSize), 0)
	// Only metadata pages (inode/bitmap) may be dirty; 8 data blocks must
	// not be.
	if dirty := fs.Cache().DirtyPages(); dirty >= dirtyBefore+8 {
		t.Fatalf("DAX write left %d dirty pages (was %d)", dirty, dirtyBefore)
	}
	w0 := fs.BlockDevice().Stats().BytesWritten
	f.Fsync()
	// fsync must not push data blocks through the block layer (they are
	// already durable); only journal/metadata traffic is allowed.
	if delta := fs.BlockDevice().Stats().BytesWritten - w0; delta >= 8*BlockSize {
		t.Fatalf("DAX fsync rewrote data through the block layer: %d B", delta)
	}
}

func TestDAXWriteIsDurableImmediately(t *testing.T) {
	dev, _ := nvmm.New(nvmm.Config{Size: 64 << 20, TrackPersistence: true})
	fs, err := Mkfs(dev, Options{Journal: true, DAX: true, MaxInodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Create("/d")
	// Make the create durable, then write data via DAX and crash without
	// any fsync: DAX data (like PMFS) must survive.
	fs.Sync()
	f.WriteAt([]byte("dax-durable"), 0)
	dev.Crash()
	got := make([]byte, 11)
	// Read the raw NVMM: find the data by scanning is overkill — instead
	// verify through a fresh handle on the same (still-live) instance,
	// whose page cache was never populated with this data.
	f2, err := fs.Open("/d", vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	f2.ReadAt(got, 0)
	if string(got) != "dax-durable" {
		t.Fatalf("got %q", got)
	}
	f.Close()
	f2.Close()
}

func TestThrottlingBoundsDirtyPages(t *testing.T) {
	dev, _ := nvmm.New(nvmm.Config{Size: 64 << 20})
	fs, err := Mkfs(dev, Options{MaxInodes: 256, CachePages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	f, _ := fs.Create("/stream")
	defer f.Close()
	for i := 0; i < 512; i++ {
		f.WriteAt(make([]byte, BlockSize), int64(i)*BlockSize)
	}
	// Dirty pages must stay near the throttle threshold, not grow without
	// bound (the kernel's dirty_ratio behaviour).
	if dirty := fs.Cache().DirtyPages(); dirty > 100 {
		t.Fatalf("throttling let %d dirty pages accumulate (cap 256)", dirty)
	}
}

func TestStatAndSize(t *testing.T) {
	fs := testFS(t, Options{})
	f, _ := fs.Create("/meta")
	f.WriteAt(make([]byte, 5000), 0)
	if f.Size() != 5000 {
		t.Fatalf("Size = %d", f.Size())
	}
	fi, err := fs.Stat("/meta")
	if err != nil || fi.Size != 5000 || fi.IsDir {
		t.Fatalf("Stat = %+v, %v", fi, err)
	}
	f.Close()
	fs.Mkdir("/md")
	if fi, _ := fs.Stat("/md"); !fi.IsDir {
		t.Fatal("dir not reported")
	}
	if fi, _ := fs.Stat("/"); !fi.IsDir || fi.Name != "/" {
		t.Fatal("root stat")
	}
	if _, err := fs.Stat("/nope"); err != vfs.ErrNotExist {
		t.Fatalf("missing stat = %v", err)
	}
}

func TestDropCachesKeepsData(t *testing.T) {
	fs := testFS(t, Options{Journal: true})
	f, _ := fs.Create("/cold")
	payload := bytes.Repeat([]byte{0x5C}, 3*BlockSize)
	f.WriteAt(payload, 0)
	fs.DropCaches()
	if fs.Cache().Len() != 0 {
		t.Fatalf("cache not empty: %d pages", fs.Cache().Len())
	}
	got := make([]byte, len(payload))
	f.ReadAt(got, 0) // refetches everything from the device
	if !bytes.Equal(got, payload) {
		t.Fatal("data lost across DropCaches")
	}
	f.Close()
}

func TestTruncateIndirectRanges(t *testing.T) {
	fs := testFS(t, Options{})
	f, _ := fs.Create("/wide")
	defer f.Close()
	// Populate direct, indirect and double-indirect blocks, then cut back
	// through all three ranges (exercising clearPtr everywhere).
	idxs := []int64{0, 5, ptrsDirect + 3, ptrsDirect + ptrsPerBlock + 7}
	for _, idx := range idxs {
		f.WriteAt([]byte{0xAA}, idx*BlockSize)
	}
	free0 := fs.FreeBlocks()
	if err := f.Truncate(BlockSize); err != nil {
		t.Fatal(err)
	}
	if fs.FreeBlocks() <= free0 {
		t.Fatal("truncate freed nothing")
	}
	got := make([]byte, 1)
	f.ReadAt(got, 0)
	if got[0] != 0xAA {
		t.Fatal("kept block lost")
	}
	// Extend again: all cut ranges must read zero.
	f.Truncate((ptrsDirect + ptrsPerBlock + 8) * BlockSize)
	for _, idx := range idxs[1:] {
		f.ReadAt(got, idx*BlockSize)
		if got[0] != 0 {
			t.Fatalf("stale data at idx %d", idx)
		}
	}
}

// TestRenameNoSpaceKeepsBothNames: a rename into a full directory on a
// full device fails with ErrNoSpace before it removes anything.
func TestRenameNoSpaceKeepsBothNames(t *testing.T) {
	dev, err := nvmm.New(nvmm.Config{Size: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(dev, Options{MaxInodes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Unmount()
	for _, d := range []string{"/a", "/b", "/fill"} {
		if err := fs.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	create := func(p string) vfs.File {
		t.Helper()
		f, err := fs.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	create("/a/src").Close()
	for i := 0; i < dentriesPerBl; i++ {
		create(fmt.Sprintf("/b/f%d", i)).Close()
	}
	buf := make([]byte, BlockSize)
	for i := 0; fs.FreeBlocks() > 0; i++ {
		f := create(fmt.Sprintf("/fill/%d", i))
		for off := int64(0); ; off += BlockSize {
			if _, err := f.WriteAt(buf, off); err != nil {
				break
			}
		}
		f.Close()
	}
	if err := fs.Rename("/a/src", "/b/dst"); err != vfs.ErrNoSpace {
		t.Fatalf("rename into a full directory on a full device: %v, want ErrNoSpace", err)
	}
	if _, err := fs.Stat("/a/src"); err != nil {
		t.Fatalf("source after the failed rename: %v", err)
	}
	if _, err := fs.Stat("/b/dst"); err != vfs.ErrNotExist {
		t.Fatalf("target after the failed rename: %v, want ErrNotExist", err)
	}
	if err := fs.Rename("/a/src", "/b/f7"); err != nil {
		t.Fatalf("rename over an entry of the full directory: %v", err)
	}
	if ents, _ := fs.ReadDir("/b"); len(ents) != dentriesPerBl {
		t.Fatalf("/b holds %d entries, want %d", len(ents), dentriesPerBl)
	}
}
