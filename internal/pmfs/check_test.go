package pmfs

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"hinfs/internal/vfs"
)

func TestCheckCleanImage(t *testing.T) {
	fs, _ := testFS(t)
	fs.Mkdir("/d")
	f, _ := fs.Create("/d/file")
	f.WriteAt(make([]byte, 3*BlockSize+100), 0)
	f.Close()
	g, _ := fs.Create("/top")
	g.WriteAt([]byte("x"), 600*BlockSize) // deep tree
	g.Close()
	if errs := fs.Check(); len(errs) != 0 {
		t.Fatalf("clean image reported errors: %v", errs)
	}
}

func TestCheckAfterChurn(t *testing.T) {
	fs, _ := testFS(t)
	rng := rand.New(rand.NewSource(9))
	paths := make([]string, 12)
	for i := range paths {
		paths[i] = "/f" + string(rune('a'+i))
	}
	for op := 0; op < 300; op++ {
		p := paths[rng.Intn(len(paths))]
		switch rng.Intn(4) {
		case 0:
			if f, err := fs.Open(p, vfs.OCreate|vfs.ORdwr|vfs.OTrunc); err == nil {
				f.WriteAt(make([]byte, rng.Intn(4*BlockSize)), int64(rng.Intn(2*BlockSize)))
				f.Close()
			}
		case 1:
			fs.Unlink(p)
		case 2:
			if f, err := fs.Open(p, vfs.ORdwr); err == nil {
				f.Truncate(int64(rng.Intn(3 * BlockSize)))
				f.Close()
			}
		case 3:
			fs.Rename(p, paths[rng.Intn(len(paths))])
		}
	}
	if errs := fs.Check(); len(errs) != 0 {
		t.Fatalf("post-churn image inconsistent: %v", errs)
	}
}

func TestCheckUnlinkedOpenFileIsNotALeak(t *testing.T) {
	fs, _ := testFS(t)
	f, _ := fs.Create("/ghost")
	f.WriteAt(make([]byte, 2*BlockSize), 0)
	fs.Unlink("/ghost")
	// Still open: its blocks are live, not leaked.
	if errs := fs.Check(); len(errs) != 0 {
		t.Fatalf("open-unlinked file flagged: %v", errs)
	}
	f.Close()
	if errs := fs.Check(); len(errs) != 0 {
		t.Fatalf("after close: %v", errs)
	}
}

func TestCheckDetectsCorruptPointer(t *testing.T) {
	for _, c := range []struct {
		name   string
		blocks int
		height byte
		addr   func(fs *FS, rec inodeRec, ino Ino) int64
	}{
		// The first leaf slot of a height-1 tree.
		{"leaf slot", 5, 1, func(_ *FS, rec inodeRec, _ Ino) int64 { return blockAddr(rec.Root) }},
		// File block 2's direct word in the inode of a height-0 file.
		{"direct word", 4, 0, func(fs *FS, _ inodeRec, ino Ino) int64 { return fs.l.inodeAddr(ino) + inoDirect + 8 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			fs, dev := testFS(t)
			f, _ := fs.Create("/victim")
			f.WriteAt(make([]byte, c.blocks*BlockSize), 0)
			f.Close()
			ino, _ := fs.Resolve("/victim")
			rec := fs.loadInode(ino)
			if rec.Height != c.height {
				t.Fatalf("a %d-block file has height %d, want %d", c.blocks, rec.Height, c.height)
			}
			// Point it at an out-of-range block.
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(fs.l.totalBlocks+5))
			dev.Write(b[:], c.addr(fs, rec, ino))
			if errs := fs.Check(); len(errs) == 0 {
				t.Fatal("corrupt pointer not detected")
			}
		})
	}
}

// TestCheckDetectsStalePointer: the direct words mean nothing above height
// 0, so a word left set on a tree inode is reported in its own class.
func TestCheckDetectsStalePointer(t *testing.T) {
	fs, dev := testFS(t)
	f, _ := fs.Create("/tree")
	f.WriteAt(make([]byte, 5*BlockSize), 0)
	f.Close()
	ino, _ := fs.Resolve("/tree")
	if rec := fs.loadInode(ino); rec.Height != 1 {
		t.Fatalf("a 5-block file has height %d, want 1", rec.Height)
	}
	if errs := fs.Check(); len(errs) != 0 {
		t.Fatalf("clean image reported errors: %v", errs)
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(fs.l.dataStart+1))
	dev.Write(b[:], fs.l.inodeAddr(ino)+inoDirect+16)
	errs := fs.Check()
	found := false
	for _, err := range errs {
		found = found || errors.Is(err, ErrStalePointer)
	}
	if !found {
		t.Fatalf("stale direct word not reported as ErrStalePointer: %v", errs)
	}
}

func TestCheckDetectsLeakedBlock(t *testing.T) {
	fs, _ := testFS(t)
	// Allocate a block outside any file: leak it deliberately.
	tx := fs.jnl.Begin()
	if _, err := fs.alloc.alloc(tx, 1, nil); err != nil {
		t.Fatal(err, nil)
	}
	tx.Commit()
	errs := fs.Check()
	if len(errs) == 0 {
		t.Fatal("leaked block not detected")
	}
}

func TestCheckDetectsBadBlocksCounter(t *testing.T) {
	fs, _ := testFS(t)
	f, _ := fs.Create("/miscount")
	f.WriteAt(make([]byte, 2*BlockSize), 0)
	f.Close()
	ino, _ := fs.Resolve("/miscount")
	rec := fs.loadInode(ino)
	rec.Blocks += 3
	tx := fs.jnl.Begin()
	fs.storeInode(tx, ino, rec)
	tx.Commit()
	if errs := fs.Check(); len(errs) == 0 {
		t.Fatal("bad Blocks counter not detected")
	}
}
