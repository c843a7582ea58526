package vfs

import (
	"strings"
	"testing"
)

func TestSplitPath(t *testing.T) {
	cases := []struct {
		in   string
		want []string
		err  error
	}{
		{"/", []string{}, nil},
		{"", nil, ErrInvalid},
		{"/a/b/c", []string{"a", "b", "c"}, nil},
		{"//a///b/", []string{"a", "b"}, nil},
		{"a/b", []string{"a", "b"}, nil},
		{"/a/./b", []string{"a", "b"}, nil},
		{"/a/../b", nil, ErrInvalid},
		// Hardening: every escape/abuse shape an untrusted client can send.
		{"..", nil, ErrInvalid},
		{"/..", nil, ErrInvalid},
		{"/../", nil, ErrInvalid},
		{"/a/..", nil, ErrInvalid},
		{"/a/b/../../..", nil, ErrInvalid},
		{"/./../a", nil, ErrInvalid},
		{"//..//a", nil, ErrInvalid},
		{"/a/\x00b", nil, ErrInvalid},
		{"/\x00", nil, ErrInvalid},
		{"/.", []string{}, nil},
		{"///", []string{}, nil},
		{"/a//", []string{"a"}, nil},
		{"/a/./././b///", []string{"a", "b"}, nil},
		// "..." and ".hidden" are ordinary names, not traversal.
		{"/...", []string{"..."}, nil},
		{"/..x/.y", []string{"..x", ".y"}, nil},
		// Length limits.
		{"/" + strings.Repeat("a", MaxComponentLen), []string{strings.Repeat("a", MaxComponentLen)}, nil},
		{"/" + strings.Repeat("a", MaxComponentLen+1), nil, ErrNameTooLon},
		{strings.Repeat("/a", MaxPathComponents+1), nil, ErrInvalid},
		{"/" + strings.Repeat("x/", MaxPathLen), nil, ErrInvalid},
	}
	for _, c := range cases {
		got, err := SplitPath(nil, c.in)
		if err != c.err {
			t.Errorf("SplitPath(%.40q) err = %v, want %v", c.in, err, c.err)
			continue
		}
		if err != nil {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("SplitPath(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("SplitPath(%q)[%d] = %q", c.in, i, got[i])
			}
		}
	}
}

func TestSplitPathDepthLimit(t *testing.T) {
	// Exactly MaxPathComponents is fine; one more is not.
	ok := strings.Repeat("/a", MaxPathComponents)
	if _, err := SplitPath(nil, ok); err != nil {
		t.Fatalf("depth %d rejected: %v", MaxPathComponents, err)
	}
	if _, err := SplitPath(nil, ok+"/a"); err != ErrInvalid {
		t.Fatalf("depth %d accepted: %v", MaxPathComponents+1, err)
	}
}

// TestSplitPathAppends: SplitPath appends to the caller's slice and keeps
// what was there, grows past a stack array for deep paths, and splits
// into a stack array without allocating.
func TestSplitPathAppends(t *testing.T) {
	got, err := SplitPath([]string{"x"}, "/a/b")
	if err != nil || len(got) != 3 || got[0] != "x" || got[1] != "a" || got[2] != "b" {
		t.Fatalf("SplitPath onto [x] = %v, %v", got, err)
	}
	var buf [16]string
	got, err = SplitPath(buf[:0], strings.Repeat("/d", 40))
	if err != nil || len(got) != 40 {
		t.Fatalf("40-deep path split into %d components, %v", len(got), err)
	}
	if n := testing.AllocsPerRun(100, func() {
		var buf [16]string
		if _, err := SplitPath(buf[:0], "/a/./b//c/"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SplitPath into a stack array allocates %.0f objects", n)
	}
}

func TestIsCanonical(t *testing.T) {
	for path, want := range map[string]bool{
		"/a": true, "/a/b": true, "/abc/de": true,
		"/a/": false, "//a": false, "/a//b": false, "/./a": false, "/a/.": false,
		"a": false, "a/b": false, "a//b": false,
	} {
		parts, err := SplitPath(nil, path)
		if err != nil {
			t.Fatal(err)
		}
		if got := isCanonical(path, parts); got != want {
			t.Errorf("isCanonical(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestSplitDirBase(t *testing.T) {
	dir, base, err := SplitDirBase(nil, "/a/b/c")
	if err != nil || base != "c" || len(dir) != 2 || dir[0] != "a" || dir[1] != "b" {
		t.Fatalf("got %v %q %v", dir, base, err)
	}
	if all := dir[:len(dir)+1]; all[2] != "c" {
		t.Fatalf("base not in place after the parent parts: %v", all)
	}
	if _, _, err := SplitDirBase(nil, "/"); err != ErrInvalid {
		t.Fatalf("root SplitDirBase err = %v", err)
	}
	if _, _, err := SplitDirBase([]string{"x"}, "/"); err != ErrInvalid {
		t.Fatalf("root SplitDirBase onto [x] err = %v", err)
	}
	dir, base, err = SplitDirBase(nil, "/top")
	if err != nil || base != "top" || len(dir) != 0 {
		t.Fatalf("got %v %q %v", dir, base, err)
	}
	// Into a stack array, the split reaches the heap not at all.
	var buf [16]string
	if n := testing.AllocsPerRun(100, func() {
		if _, base, err := SplitDirBase(buf[:0], "/a/b/c"); err != nil || base != "c" {
			t.Fatal("split failed")
		}
	}); n != 0 {
		t.Fatalf("SplitDirBase into a stack array allocates %.0f objects", n)
	}
}

func TestJoinPath(t *testing.T) {
	if got := JoinPath(nil); got != "/" {
		t.Fatalf("JoinPath(nil) = %q", got)
	}
	if got := JoinPath([]string{"a", "b"}); got != "/a/b" {
		t.Fatalf("JoinPath = %q", got)
	}
}

// recordFS is a fake FileSystem that records every path it is handed, so
// Sub's re-anchoring can be asserted exactly.
type recordFS struct {
	paths []string
}

func (r *recordFS) note(p string) { r.paths = append(r.paths, p) }

func (r *recordFS) Create(p string) (File, error)        { r.note(p); return nil, nil }
func (r *recordFS) Open(p string, f int) (File, error)   { r.note(p); return nil, nil }
func (r *recordFS) Mkdir(p string) error                 { r.note(p); return nil }
func (r *recordFS) Rmdir(p string) error                 { r.note(p); return nil }
func (r *recordFS) Unlink(p string) error                { r.note(p); return nil }
func (r *recordFS) Rename(o, n string) error             { r.note(o); r.note(n); return nil }
func (r *recordFS) Stat(p string) (FileInfo, error)      { r.note(p); return FileInfo{IsDir: true}, nil }
func (r *recordFS) ReadDir(p string) ([]DirEntry, error) { r.note(p); return nil, nil }
func (r *recordFS) Sync() error                          { return nil }
func (r *recordFS) Unmount() error                       { return nil }

func TestSubResolvesUnderRoot(t *testing.T) {
	inner := &recordFS{}
	sub, err := Sub(inner, "/tenants/t1")
	if err != nil {
		t.Fatal(err)
	}
	inner.paths = nil // drop the Stat from Sub itself

	cases := []struct {
		give string
		want string
	}{
		{"/", "/tenants/t1"},
		{"/f", "/tenants/t1/f"},
		{"/a/b/c", "/tenants/t1/a/b/c"},
		{"//f//", "/tenants/t1/f"},
		{"/./a/./b", "/tenants/t1/a/b"},
		{"relative/name", "/tenants/t1/relative/name"},
	}
	for _, c := range cases {
		inner.paths = nil
		if _, err := sub.Stat(c.give); err != nil {
			t.Fatalf("Stat(%q): %v", c.give, err)
		}
		if len(inner.paths) != 1 || inner.paths[0] != c.want {
			t.Errorf("Stat(%q) reached %v, want [%s]", c.give, inner.paths, c.want)
		}
	}

	inner.paths = nil
	if err := sub.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	if len(inner.paths) != 2 || inner.paths[0] != "/tenants/t1/a" || inner.paths[1] != "/tenants/t1/b" {
		t.Errorf("Rename reached %v", inner.paths)
	}
}

func TestSubRejectsEscapes(t *testing.T) {
	inner := &recordFS{}
	sub, err := Sub(inner, "/jail")
	if err != nil {
		t.Fatal(err)
	}
	inner.paths = nil
	for _, p := range []string{"..", "/..", "/../", "/../../etc", "/a/../..", "", "/\x00"} {
		if _, err := sub.Stat(p); err != ErrInvalid {
			t.Errorf("Stat(%q) = %v, want ErrInvalid", p, err)
		}
		if err := sub.Mkdir(p); err != ErrInvalid {
			t.Errorf("Mkdir(%q) = %v, want ErrInvalid", p, err)
		}
		if err := sub.Rename(p, "/ok"); err != ErrInvalid {
			t.Errorf("Rename(%q, ok) = %v, want ErrInvalid", p, err)
		}
		if err := sub.Rename("/ok", p); err != ErrInvalid {
			t.Errorf("Rename(ok, %q) = %v, want ErrInvalid", p, err)
		}
	}
	if len(inner.paths) != 0 {
		t.Fatalf("escape attempts reached the inner fs: %v", inner.paths)
	}
	if err := sub.Unmount(); err != ErrInvalid {
		t.Fatalf("Unmount on a view = %v, want ErrInvalid", err)
	}
}

func TestSubRootValidation(t *testing.T) {
	inner := &recordFS{}
	if _, err := Sub(inner, "/../x"); err != ErrInvalid {
		t.Fatalf("Sub with traversal root = %v", err)
	}
	sub, err := Sub(inner, "/")
	if err != nil {
		t.Fatal(err)
	}
	inner.paths = nil
	sub.Stat("/f")
	if len(inner.paths) != 1 || inner.paths[0] != "/f" {
		t.Fatalf("root view reached %v", inner.paths)
	}
}

// capFile layers: base implements BlockMmapper, wrap decorates it.
type baseFile struct{ File }

func (baseFile) Mmap(index int64) ([]byte, error) { return nil, nil }
func (baseFile) Msync(index int64) error          { return nil }
func (baseFile) Munmap() error                    { return nil }

type wrapFile struct {
	File
	inner File
}

func (w wrapFile) Unwrap() File { return w.inner }

type plainFile struct{ File }

func TestFileAs(t *testing.T) {
	b := baseFile{}
	if !HasBlockMmap(b) {
		t.Fatal("base handle not discovered directly")
	}
	// Capability survives one and two layers of decoration.
	if !HasBlockMmap(wrapFile{inner: b}) {
		t.Fatal("capability lost through one decorator")
	}
	if !HasBlockMmap(wrapFile{inner: wrapFile{inner: b}}) {
		t.Fatal("capability lost through two decorators")
	}
	// A chain ending in a plain handle reports no capability.
	if HasBlockMmap(plainFile{}) || HasBlockMmap(wrapFile{inner: plainFile{}}) {
		t.Fatal("capability invented")
	}
	if HasBlockMmap(nil) {
		t.Fatal("nil handle has capability")
	}
	// FileAs returns the first matching layer.
	m, ok := FileAs[BlockMmapper](wrapFile{inner: b})
	if !ok || m == nil {
		t.Fatal("FileAs failed")
	}
}
