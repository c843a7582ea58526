package obs

import (
	"testing"
	"time"

	"hinfs/internal/vfs"
)

// fakeFS is a do-nothing vfs.FileSystem for exercising the wrapper.
type fakeFS struct{}

type fakeFile struct{}

func (fakeFS) Create(string) (vfs.File, error)         { return fakeFile{}, nil }
func (fakeFS) Open(string, int) (vfs.File, error)      { return fakeFile{}, nil }
func (fakeFS) Mkdir(string) error                      { return nil }
func (fakeFS) Rmdir(string) error                      { return nil }
func (fakeFS) Unlink(string) error                     { return nil }
func (fakeFS) Rename(string, string) error             { return nil }
func (fakeFS) Stat(string) (vfs.FileInfo, error)       { return vfs.FileInfo{}, nil }
func (fakeFS) ReadDir(string) ([]vfs.DirEntry, error)  { return nil, nil }
func (fakeFS) Sync() error                             { return nil }
func (fakeFS) Unmount() error                          { return nil }
func (fakeFile) ReadAt(p []byte, _ int64) (int, error) { return len(p), nil }
func (fakeFile) WriteAt(p []byte, _ int64) (int, error) {
	time.Sleep(time.Millisecond)
	return len(p), nil
}
func (fakeFile) Fsync() error         { return nil }
func (fakeFile) Truncate(int64) error { return nil }
func (fakeFile) Size() int64          { return 0 }
func (fakeFile) Close() error         { return nil }

func TestWrapFSNilPassThrough(t *testing.T) {
	base := fakeFS{}
	if got := WrapFS(base, nil); got != vfs.FileSystem(base) {
		t.Fatal("nil collector must return fs unchanged")
	}
}

func TestWrapFSRecordsOpClasses(t *testing.T) {
	c := New()
	fs := WrapFS(fakeFS{}, c)

	f, err := fs.Create("/a")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt(make([]byte, 8), 0)
	f.ReadAt(make([]byte, 8), 0)
	f.Fsync()
	f.Truncate(0)
	f.Close() // handle lifecycle: not timed
	fs.Unlink("/a")
	fs.Mkdir("/d")
	fs.Stat("/d")
	fs.Sync()
	// Open with OCreate counts as create; without, as meta-ish open
	// surfaces under create class only when creating.
	fs.Open("/a", vfs.OCreate|vfs.ORdwr)

	s := c.Snapshot()
	want := map[OpClass]int64{
		OpCreate: 2, // Create + Open(OCreate)
		OpWrite:  1,
		OpRead:   1,
		OpFsync:  1,
		OpUnlink: 1,
		OpMeta:   4, // Truncate, Mkdir, Stat, Sync
	}
	for op, n := range want {
		if got := s.Op(op).Count; got != n {
			t.Errorf("%s count = %d, want %d", op, got, n)
		}
	}
	// The slow write must dominate the write histogram's magnitude.
	if p50 := s.Op(OpWrite).Quantile(0.5); p50 < int64(100*time.Microsecond) {
		t.Errorf("write p50 %d ns implausibly fast for a 1ms op", p50)
	}
}

// recordingFS notes the paths it is asked for, so composition tests can
// check both that the wrapper observed and that the inner layer ran.
type recordingFS struct {
	fakeFS
	paths []string
}

func (r *recordingFS) Create(path string) (vfs.File, error) {
	r.paths = append(r.paths, path)
	return r.fakeFS.Create(path)
}

// TestWrapFSCoversSub checks the wrapper still observes when layered
// over a vfs.Sub view — the composition every server tenant runs under
// (obs outermost, Sub re-anchoring paths beneath it).
func TestWrapFSCoversSub(t *testing.T) {
	base := &recordingFS{}
	sub, err := vfs.Sub(base, "/tenant")
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	fs := WrapFS(sub, c)
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	if s.Op(OpCreate).Count != 1 || s.Op(OpWrite).Count != 1 {
		t.Fatalf("sub-view ops not observed: create=%d write=%d",
			s.Op(OpCreate).Count, s.Op(OpWrite).Count)
	}
	// And the create really went through the Sub re-anchoring.
	if len(base.paths) != 1 || base.paths[0] != "/tenant/f" {
		t.Fatalf("inner create paths = %v, want [/tenant/f]", base.paths)
	}
}
