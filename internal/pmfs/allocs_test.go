package pmfs

import (
	"fmt"
	"testing"
)

// TestLookupAllocatesNothing: dirLookup runs for every component of every
// path; a map lookup keyed by the caller's name and one dentry read must
// not reach the heap.
func TestLookupAllocatesNothing(t *testing.T) {
	fs, _ := testFS(t)
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		f, err := fs.Create(fmt.Sprintf("/d/file-%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	ino, err := fs.Resolve("/d")
	if err != nil {
		t.Fatal(err)
	}
	ix := fs.dirIndexOf(ino, fs.state(ino))
	if n := testing.AllocsPerRun(200, func() {
		if _, d, ok := fs.dirLookup(ix, "file-63"); !ok || d.name != "file-63" {
			t.Fatal("lookup of the last of 64 entries failed")
		}
		if _, _, ok := fs.dirLookup(ix, "file-64"); ok {
			t.Fatal("lookup of a missing name succeeded")
		}
	}); n != 0 {
		t.Errorf("dirLookup in a 64-entry directory: %.0f allocs, want 0", n)
	}
	// Stat splits its path into a stack array and returns a name that is a
	// substring of it: nothing reaches the heap.
	if n := testing.AllocsPerRun(200, func() {
		if fi, err := fs.Stat("/d/file-63"); err != nil || fi.Name != "file-63" {
			t.Fatal("stat failed")
		}
		if _, err := fs.Resolve("/d/file-00"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Stat and Resolve in a 64-entry directory: %.0f allocs, want 0", n)
	}
}

// TestFreshWriteAllocatesOnlyItsTx: a 4-block write that allocates its
// blocks costs the heap its journal.Tx and nothing else.
func TestFreshWriteAllocatesOnlyItsTx(t *testing.T) {
	fs, _ := testFS(t)
	v, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	f := v.(*File)
	defer f.Close()
	buf := make([]byte, 4*BlockSize)
	off := int64(0)
	write := func() {
		if _, err := f.WriteAt(buf, off); err != nil {
			t.Fatal(err)
		}
		off += int64(len(buf))
	}
	write() // the first write also allocates the file's index block
	if n := testing.AllocsPerRun(100, write); n != 1 {
		t.Errorf("4-block write to fresh blocks: %.0f allocs, want 1 (its journal.Tx)", n)
	}
}

// TestOverwriteAllocatesNothing: a 4-block write over existing blocks inside
// the size opens no transaction, so it has nothing left to allocate.
func TestOverwriteAllocatesNothing(t *testing.T) {
	fs, _ := testFS(t)
	f := budgetFile(t, fs, "/f", 0)
	buf := make([]byte, 4*BlockSize)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := f.WriteAt(buf, BlockSize+100); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("4-block overwrite: %.0f allocs, want 0", n)
	}
}

// TestNamespaceOpAllocs pins the heap objects of a create, a
// cross-directory rename and an unlink. Paths split into stack arrays; what
// is left is each op's journal.Tx, the name a create or rename indexes, the
// create's handle and inode state, and the unlink's second transaction (its
// reclaim's) and the inode record that reclaim frees the tree of.
func TestNamespaceOpAllocs(t *testing.T) {
	fs, _ := testFS(t)
	for _, d := range []string{"/d", "/e"} {
		if err := fs.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 200
	var src, dst [runs + 1]string
	for i := range src {
		src[i] = fmt.Sprintf("/d/file-%03d", i)
		dst[i] = fmt.Sprintf("/e/file-%03d", i)
	}
	for _, c := range []struct {
		name string
		want float64
		op   func(i int) error
	}{
		{"create", 5, func(i int) error {
			f, err := fs.Create(src[i])
			if err != nil {
				return err
			}
			return f.Close()
		}},
		{"rename", 2, func(i int) error { return fs.Rename(src[i], dst[i]) }},
		{"unlink", 3, func(i int) error { return fs.Unlink(dst[i]) }},
	} {
		i := 0
		n := testing.AllocsPerRun(runs, func() {
			if err := c.op(i); err != nil {
				t.Fatalf("%s %d: %v", c.name, i, err)
			}
			i++
		})
		if n > c.want {
			t.Errorf("%s: %.0f allocs, want at most %.0f", c.name, n, c.want)
		}
	}
}
