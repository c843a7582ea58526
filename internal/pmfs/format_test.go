package pmfs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"hinfs/internal/nvmm"
	"hinfs/internal/vfs"
)

// putSuperWord overwrites one superblock word durably.
func putSuperWord(dev *nvmm.Device, off int64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	dev.Write(b[:], off)
	dev.Flush(off, 8)
	dev.Fence()
}

func TestMkfsWritesFormatWords(t *testing.T) {
	_, dev := testFS(t)
	var b [sbHeaderEnd]byte
	dev.Read(b[:], 0)
	if v := binary.LittleEndian.Uint64(b[sbVersion:]); v != formatVersion {
		t.Errorf("format version %d, want %d", v, formatVersion)
	}
	if f := binary.LittleEndian.Uint64(b[sbIncompat:]); f != incompatDirectPtrs {
		t.Errorf("incompat features %#x, want %#x", f, incompatDirectPtrs)
	}
}

// TestMountRefusesUnknownIncompatFeature: an image that sets an incompatible
// feature bit this code does not know is refused with a typed error, before
// recovery or anything else writes to it.
func TestMountRefusesUnknownIncompatFeature(t *testing.T) {
	fs, dev := testFS(t)
	f, _ := fs.Create("/f")
	f.WriteAt([]byte("kept"), 0)
	f.Close()
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	for _, bit := range []uint64{1 << 1, 1 << 63} {
		putSuperWord(dev, sbIncompat, incompatKnown|bit)
		before := dev.Stats()
		fs2, _, err := MountRecover(dev)
		if !errors.Is(err, ErrIncompatFormat) || fs2 != nil {
			t.Fatalf("bit %#x: mount returned (%v, %v), want ErrIncompatFormat", bit, fs2, err)
		}
		if after := dev.Stats(); after.BytesWritten != before.BytesWritten ||
			after.Flushes != before.Flushes || after.Fences != before.Fences {
			t.Fatalf("bit %#x: the refused mount wrote to the device: %+v -> %+v", bit, before, after)
		}
	}
	// Clearing the bit makes the image mountable again, untouched.
	putSuperWord(dev, sbIncompat, incompatKnown)
	fs2, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, fs2, "/f"); string(got) != "kept" {
		t.Fatalf("read back %q", got)
	}
}

// TestFormatZeroImageMounts: an image formatted before the superblock carried
// a version or feature words reads them as zero. Its inodes are valid under
// the direct-pointer format — a height-0 inode used only the root pointer,
// and every file of two or more blocks was a tree, as a file truncated from
// a tree still is — so it mounts, checks clean, reads back and keeps working.
func TestFormatZeroImageMounts(t *testing.T) {
	fs, dev := testFS(t)
	rng := rand.New(rand.NewSource(3))
	want := map[string][]byte{
		"/one":   payload(rng, 100),
		"/three": payload(rng, 6*BlockSize),
		"/deep":  payload(rng, 9*BlockSize+7),
	}
	for name, data := range want {
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	// A three-block file that is a height-1 tree, as format 0 stored it.
	f, _ := fs.Open("/three", vfs.ORdwr)
	if err := f.Truncate(3*BlockSize - 5); err != nil {
		t.Fatal(err)
	}
	f.Close()
	want["/three"] = want["/three"][:3*BlockSize-5]
	ino, _ := fs.Resolve("/three")
	if rec := fs.loadInode(ino); rec.Height != 1 || rec.Blocks != 3 {
		t.Fatalf("truncated file: height %d blocks %d, want a 3-block tree", rec.Height, rec.Blocks)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	putSuperWord(dev, sbVersion, 0)
	putSuperWord(dev, sbIncompat, 0)

	fs2, err := Mount(dev)
	if err != nil {
		t.Fatalf("format-0 image: %v", err)
	}
	if errs := fs2.Check(); len(errs) != 0 {
		t.Fatalf("format-0 image: check: %v", errs)
	}
	for name, data := range want {
		if got := readAll(t, fs2, name); !bytes.Equal(got, data) {
			t.Fatalf("%s: read back %d bytes, differing from the %d written", name, len(got), len(data))
		}
	}
	// It keeps working: the tree grows, a new small file goes direct.
	f, _ = fs2.Open("/three", vfs.ORdwr)
	more := payload(rng, BlockSize)
	if _, err := f.WriteAt(more, 3*BlockSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	g, _ := fs2.Create("/new")
	if _, err := g.WriteAt(more, 2*BlockSize); err != nil {
		t.Fatal(err)
	}
	g.Close()
	if errs := fs2.Check(); len(errs) != 0 {
		t.Fatalf("after writes: check: %v", errs)
	}
	got := readAll(t, fs2, "/three")
	if !bytes.Equal(got[:len(want["/three"])], want["/three"]) || !bytes.Equal(got[3*BlockSize:], more) {
		t.Fatal("/three: extended content differs")
	}
}
