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
	if f := binary.LittleEndian.Uint64(b[sbIncompat:]); f != incompatDirectPtrs|incompatJournalGen {
		t.Errorf("incompat features %#x, want %#x", f, incompatDirectPtrs|incompatJournalGen)
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
	for _, bit := range []uint64{1 << 2, 1 << 63} {
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

// TestFormatOneCrashImageRollsBack: a format-1 journal had no block headers,
// so its first entry slot was line 0 of a block. An image that crashed with
// a transaction open there mounts, rolls it back under that format's rule —
// every line an entry, live while valid — and reads back the pre-image. The
// mount then marks the image with the current version and feature bits.
func TestFormatOneCrashImageRollsBack(t *testing.T) {
	fs, dev := testFS(t)
	f, _ := fs.Create("/f")
	f.WriteAt([]byte("kept"), 0)
	f.Close()
	ino, _ := fs.Resolve("/f")
	addr := blockAddr(fs.loadInode(ino).Root)
	// A format-1 log held no entries of committed transactions: each
	// cleared its lines when it retired.
	var blk [BlockSize]byte
	for off := fs.l.journalStart; off < fs.l.journalStart+fs.l.journalSize; off += BlockSize {
		dev.Write(blk[:], off)
	}
	dev.Flush(fs.l.journalStart, int(fs.l.journalSize))
	tx := fs.Journal().Begin() // left open
	tx.LogRange(addr, 4)
	dev.Write([]byte("lost"), addr)
	dev.Flush(addr, 4)
	dev.Fence()
	// Its undo entry is the only valid line in the log (the commit slot is
	// reserved, not written). Move it to line 0 of its block, where a
	// format-1 log put the first slot and this format puts the header.
	moved := 0
	for off := fs.l.journalStart; off < fs.l.journalStart+fs.l.journalSize; off += BlockSize {
		dev.Read(blk[:], off)
		for line := 1; line < BlockSize/DentrySize; line++ {
			if e := blk[line*DentrySize : (line+1)*DentrySize]; e[DentrySize-1] == 1 {
				copy(blk[:DentrySize], e)
				clear(e)
				dev.Write(blk[:], off)
				dev.Flush(off, BlockSize)
				dev.Fence()
				moved++
			}
		}
	}
	if moved != 1 {
		t.Fatalf("moved %d valid log lines, want the open transaction's one", moved)
	}
	putSuperWord(dev, sbVersion, 1)
	putSuperWord(dev, sbIncompat, incompatDirectPtrs)

	fs2, rolled, err := MountRecover(dev) // never unmounted: a crash

	if err != nil {
		t.Fatal(err)
	}
	if rolled != 1 {
		t.Fatalf("rolled back %d transactions, want 1", rolled)
	}
	if got := readAll(t, fs2, "/f"); string(got) != "kept" {
		t.Fatalf("read back %q, want the pre-image", got)
	}
	if errs := fs2.Check(); len(errs) != 0 {
		t.Fatalf("check: %v", errs)
	}
	var b [sbHeaderEnd]byte
	dev.Read(b[:], 0)
	if v, f := binary.LittleEndian.Uint64(b[sbVersion:]), binary.LittleEndian.Uint64(b[sbIncompat:]); v != formatVersion || f != incompatKnown {
		t.Fatalf("after mount: version %d features %#x, want %d and %#x", v, f, formatVersion, incompatKnown)
	}
}
