package pmfs

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"hinfs/internal/clock"
	"hinfs/internal/nvmm"
	"hinfs/internal/vfs"
)

// tornSeeds select which pending cachelines a crash image keeps: none, then
// seven pseudo-random halves.
var tornSeeds = []uint64{0, 0x9E3779B97F4A7C15, 0xD6E8FEB86659FD93, 0xBF58476D1CE4E5B9,
	0x94D049BB133111EB, 0x2545F4914F6CDD1D, 0x1, 0xFFFFFFFFFFFFFFFF}

// TestOverwriteCrashImages crashes at every persist event of one overwrite —
// which stamps Mtime in place, outside any transaction — and once more after
// it has returned. Whatever lines the crash tears, the record's first 32
// bytes (type, height, links, size, root, blocks) are bit-for-bit what they
// were, Mtime is the old stamp or the new one, and each data byte is old or
// new; after the write has returned, Mtime and data are new.
func TestOverwriteCrashImages(t *testing.T) {
	const off, n = 100, BlockSize + 100 // the tail of block 0, the head of block 1
	dev, err := nvmm.New(nvmm.Config{Size: 16 << 20, TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(dev, Options{JournalBlocks: 64, MaxInodes: 64})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(time.Unix(1000, 0))
	fs.SetClock(clk)
	v, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	f := v.(*File)
	if _, err := f.WriteAt(bytes.Repeat([]byte{0x11}, 4*BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	ino := f.Ino()
	var before [40]byte
	dev.Read(before[:], fs.l.inodeAddr(ino))
	clk.Advance(time.Second)
	history := dev.Record()
	from := dev.PersistEvents()
	if _, err := f.WriteAt(bytes.Repeat([]byte{0x22}, n), off); err != nil {
		t.Fatal(err)
	}
	dev.Fence() // one more event: a crash just after the write returned
	to := dev.PersistEvents()
	if got := to - from - 1; got != 4 { // the Mtime flush, two WriteNTs, the fence
		t.Fatalf("an overwrite of two blocks spans %d persist events, want 4", got)
	}
	oldStamp := binary.LittleEndian.Uint64(before[inoMtime:])
	newStamp := uint64(time.Unix(1001, 0).UnixNano())
	history.Walk(func(state *nvmm.CrashState) {
		ev := state.Event()
		for _, seed := range tornSeeds {
			dev, err := state.Materialize(seed)
			if err != nil {
				t.Fatal(err)
			}
			fs, rolled, err := MountRecover(dev)
			if err != nil {
				t.Fatalf("event %d seed %#x: recovery: %v", ev, seed, err)
			}
			if rolled != 0 {
				t.Fatalf("event %d seed %#x: recovery rolled back %d transactions of a write that opens none", ev, seed, rolled)
			}
			if errs := fs.Check(); len(errs) != 0 {
				t.Fatalf("event %d seed %#x: check: %v", ev, seed, errs)
			}
			var rec [40]byte
			dev.Read(rec[:], fs.l.inodeAddr(ino))
			if !bytes.Equal(rec[:inoMtime], before[:inoMtime]) {
				t.Fatalf("event %d seed %#x: record bytes 0-31 changed:\n got %x\nwant %x", ev, seed, rec[:inoMtime], before[:inoMtime])
			}
			stamp := binary.LittleEndian.Uint64(rec[inoMtime:])
			returned := ev == to
			if stamp != newStamp && (returned || stamp != oldStamp) {
				t.Fatalf("event %d seed %#x: Mtime %d, want %d (new) or, before the write returns, %d (old)", ev, seed, stamp, newStamp, oldStamp)
			}
			g, err := fs.Open("/f", vfs.ORdonly)
			if err != nil {
				t.Fatalf("event %d seed %#x: %v", ev, seed, err)
			}
			got := make([]byte, 4*BlockSize)
			if m, _ := g.ReadAt(got, 0); m != len(got) {
				t.Fatalf("event %d seed %#x: recovered file has %d bytes, want %d", ev, seed, m, len(got))
			}
			for i, b := range got {
				covered := i >= off && i < off+n
				if b != 0x11 && !(covered && b == 0x22) || returned && covered && b != 0x22 {
					t.Fatalf("event %d seed %#x: byte %d is %#x (covered by the overwrite: %v, write returned: %v)", ev, seed, i, b, covered, returned)
				}
			}
		}
	})
}

// TestEmptyWriteIsANoOp: a zero-length write used to run a whole transaction
// and stamp Mtime; it touches nothing, O_APPEND or not.
func TestEmptyWriteIsANoOp(t *testing.T) {
	fs, dev := testFS(t)
	for _, flags := range []int{0, vfs.OAppend} {
		f := budgetFile(t, fs, "/f", flags)
		before := fs.loadInode(f.Ino())
		got := measure(fs, dev, func() {
			if n, err := f.WriteAt(nil, 100); n != 0 || err != nil {
				t.Fatalf("empty write: %d, %v", n, err)
			}
		})
		if got != (cost{}) {
			t.Errorf("flags %#x: an empty write cost %+v, want nothing", flags, got)
		}
		if after := fs.loadInode(f.Ino()); after != before {
			t.Errorf("flags %#x: an empty write changed the inode: %+v -> %+v", flags, before, after)
		}
	}
}
