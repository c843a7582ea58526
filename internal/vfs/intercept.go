package vfs

import "time"

// Observer is told about every operation that crosses an Intercept
// decorator. Both methods run on the calling goroutine and may be called
// concurrently from many of them.
type Observer interface {
	// Begin runs before the operation is passed on.
	Begin(op Op)
	// End runs after it returned. The Call is passed by value so that
	// observing the data plane allocates nothing.
	End(c Call)
}

// Call describes one completed operation. Fields an operation has no
// value for are zero.
type Call struct {
	Op Op
	// Start is when the operation was passed on (after Begin returned).
	Start time.Time
	// Flags are Open's flags.
	Flags int
	// Ino is the inode number of the handle operated on or just opened;
	// 0 when the backend has none (see InodeNumberer).
	Ino uint64
	// Off is the offset of a read or write, the new size of a truncate.
	Off int64
	// N counts bytes read or written, or entries listed by ReadDir.
	N   int
	Err error
}

// Intercept decorates fs so that o observes every operation on it and on
// the handles it opens: one Begin/End pair per call, on any system, since
// the decorator works on the interfaces alone. Two methods are passed
// through unobserved: Unmount (teardown, not a workload op) and File.Size
// (a local metadata read, no I/O). Optional capabilities of the decorated
// handles stay discoverable through FileAs.
func Intercept(fs FileSystem, o Observer) FileSystem {
	return &interceptFS{inner: fs, o: o}
}

type interceptFS struct {
	inner FileSystem
	o     Observer
}

// begin opens a Call on a handle with inode number ino (0 for namespace
// operations).
func begin(o Observer, op Op, ino uint64) Call {
	o.Begin(op)
	return Call{Op: op, Start: time.Now(), Ino: ino}
}

// end closes c with the operation's error and hands the error back.
func end(o Observer, c Call, err error) error {
	c.Err = err
	o.End(c)
	return err
}

// opened ends an Open or Create call and decorates the new handle. The
// inode number is resolved here, once, so stamping it into every later
// Call on the handle costs nothing per I/O.
func (i *interceptFS) opened(c Call, f File, err error) (File, error) {
	if err != nil {
		return nil, end(i.o, c, err)
	}
	c.Ino = InodeOf(f)
	return &interceptFile{inner: f, o: i.o, ino: c.Ino}, end(i.o, c, nil)
}

func (i *interceptFS) Create(path string) (File, error) {
	c := begin(i.o, OpCreate, 0)
	f, err := i.inner.Create(path)
	return i.opened(c, f, err)
}

func (i *interceptFS) Open(path string, flags int) (File, error) {
	c := begin(i.o, OpOpen, 0)
	c.Flags = flags
	f, err := i.inner.Open(path, flags)
	return i.opened(c, f, err)
}

func (i *interceptFS) Mkdir(path string) error {
	c := begin(i.o, OpMkdir, 0)
	return end(i.o, c, i.inner.Mkdir(path))
}

func (i *interceptFS) Rmdir(path string) error {
	c := begin(i.o, OpRmdir, 0)
	return end(i.o, c, i.inner.Rmdir(path))
}

func (i *interceptFS) Unlink(path string) error {
	c := begin(i.o, OpUnlink, 0)
	return end(i.o, c, i.inner.Unlink(path))
}

func (i *interceptFS) Rename(oldpath, newpath string) error {
	c := begin(i.o, OpRename, 0)
	return end(i.o, c, i.inner.Rename(oldpath, newpath))
}

func (i *interceptFS) Stat(path string) (FileInfo, error) {
	c := begin(i.o, OpStat, 0)
	fi, err := i.inner.Stat(path)
	return fi, end(i.o, c, err)
}

func (i *interceptFS) ReadDir(path string) ([]DirEntry, error) {
	c := begin(i.o, OpReadDir, 0)
	ents, err := i.inner.ReadDir(path)
	c.N = len(ents)
	return ents, end(i.o, c, err)
}

func (i *interceptFS) Sync() error {
	c := begin(i.o, OpSync, 0)
	return end(i.o, c, i.inner.Sync())
}

func (i *interceptFS) Unmount() error { return i.inner.Unmount() }

type interceptFile struct {
	inner File
	o     Observer
	ino   uint64
}

func (f *interceptFile) ReadAt(p []byte, off int64) (int, error) {
	c := begin(f.o, OpRead, f.ino)
	c.Off = off
	c.N, c.Err = f.inner.ReadAt(p, off)
	f.o.End(c)
	return c.N, c.Err
}

func (f *interceptFile) WriteAt(p []byte, off int64) (int, error) {
	c := begin(f.o, OpWrite, f.ino)
	c.Off = off
	c.N, c.Err = f.inner.WriteAt(p, off)
	f.o.End(c)
	return c.N, c.Err
}

func (f *interceptFile) Fsync() error {
	c := begin(f.o, OpFsync, f.ino)
	return end(f.o, c, f.inner.Fsync())
}

func (f *interceptFile) Truncate(size int64) error {
	c := begin(f.o, OpTruncate, f.ino)
	c.Off = size
	return end(f.o, c, f.inner.Truncate(size))
}

func (f *interceptFile) Size() int64 { return f.inner.Size() }

func (f *interceptFile) Close() error {
	c := begin(f.o, OpClose, f.ino)
	return end(f.o, c, f.inner.Close())
}

// Unwrap exposes the decorated handle for FileAs capability probes.
func (f *interceptFile) Unwrap() File { return f.inner }
