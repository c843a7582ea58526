package vfs_test

import (
	"errors"
	"reflect"
	"testing"

	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
	"hinfs/internal/obs/flight"
	"hinfs/internal/vfs"
)

// nopFS is a do-nothing file system whose handles have an inode number
// and fail Truncate, so the test can see arguments and results reach the
// observer.
type nopFS struct{}

type nopFile struct{}

var errTruncate = errors.New("nopFile: truncate refused")

func (nopFS) Create(string) (vfs.File, error)        { return nopFile{}, nil }
func (nopFS) Open(string, int) (vfs.File, error)     { return nopFile{}, nil }
func (nopFS) Mkdir(string) error                     { return nil }
func (nopFS) Rmdir(string) error                     { return nil }
func (nopFS) Unlink(string) error                    { return nil }
func (nopFS) Rename(string, string) error            { return nil }
func (nopFS) Stat(string) (vfs.FileInfo, error)      { return vfs.FileInfo{}, nil }
func (nopFS) ReadDir(string) ([]vfs.DirEntry, error) { return make([]vfs.DirEntry, 3), nil }
func (nopFS) Sync() error                            { return nil }
func (nopFS) Unmount() error                         { return nil }

func (nopFile) ReadAt(p []byte, _ int64) (int, error)  { return len(p), nil }
func (nopFile) WriteAt(p []byte, _ int64) (int, error) { return len(p), nil }
func (nopFile) Fsync() error                           { return nil }
func (nopFile) Truncate(int64) error                   { return errTruncate }
func (nopFile) Size() int64                            { return 0 }
func (nopFile) Close() error                           { return nil }
func (nopFile) InodeNumber() uint64                    { return 77 }

// callLog is an Observer that writes down what it is told.
type callLog struct {
	begun []vfs.Op
	ended []vfs.Call
}

func (l *callLog) Begin(op vfs.Op) { l.begun = append(l.begun, op) }
func (l *callLog) End(c vfs.Call)  { l.ended = append(l.ended, c) }

// TestInterceptObservesEveryMethod calls every method of vfs.FileSystem
// and vfs.File through Intercept. Each must produce exactly one
// Begin/End pair carrying the expected Op and arguments, or be listed as
// passed through unobserved, with the reason. A method added to either
// interface without a row here fails the test.
func TestInterceptObservesEveryMethod(t *testing.T) {
	log := &callLog{}
	fs := vfs.Intercept(nopFS{}, log)
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)

	type row struct {
		call func()
		want vfs.Call // Start is not compared
		// unobserved is why the method produces no Begin/End pair.
		unobserved string
	}
	fsRows := map[string]row{
		"Create":  {call: func() { fs.Create("/a") }, want: vfs.Call{Op: vfs.OpCreate, Ino: 77}},
		"Open":    {call: func() { fs.Open("/a", vfs.ORdwr) }, want: vfs.Call{Op: vfs.OpOpen, Flags: vfs.ORdwr, Ino: 77}},
		"Mkdir":   {call: func() { fs.Mkdir("/d") }, want: vfs.Call{Op: vfs.OpMkdir}},
		"Rmdir":   {call: func() { fs.Rmdir("/d") }, want: vfs.Call{Op: vfs.OpRmdir}},
		"Unlink":  {call: func() { fs.Unlink("/a") }, want: vfs.Call{Op: vfs.OpUnlink}},
		"Rename":  {call: func() { fs.Rename("/a", "/b") }, want: vfs.Call{Op: vfs.OpRename}},
		"Stat":    {call: func() { fs.Stat("/a") }, want: vfs.Call{Op: vfs.OpStat}},
		"ReadDir": {call: func() { fs.ReadDir("/") }, want: vfs.Call{Op: vfs.OpReadDir, N: 3}},
		"Sync":    {call: func() { fs.Sync() }, want: vfs.Call{Op: vfs.OpSync}},
		"Unmount": {call: func() { fs.Unmount() }, unobserved: "teardown, not a workload op"},
	}
	fileRows := map[string]row{
		"ReadAt":   {call: func() { f.ReadAt(buf, 16) }, want: vfs.Call{Op: vfs.OpRead, Ino: 77, Off: 16, N: 8}},
		"WriteAt":  {call: func() { f.WriteAt(buf, 32) }, want: vfs.Call{Op: vfs.OpWrite, Ino: 77, Off: 32, N: 8}},
		"Fsync":    {call: func() { f.Fsync() }, want: vfs.Call{Op: vfs.OpFsync, Ino: 77}},
		"Truncate": {call: func() { f.Truncate(5) }, want: vfs.Call{Op: vfs.OpTruncate, Ino: 77, Off: 5, Err: errTruncate}},
		"Size":     {call: func() { f.Size() }, unobserved: "local metadata read, no I/O"},
		"Close":    {call: func() { f.Close() }, want: vfs.Call{Op: vfs.OpClose, Ino: 77}},
	}

	for _, tc := range []struct {
		iface reflect.Type
		rows  map[string]row
	}{
		{reflect.TypeOf((*vfs.FileSystem)(nil)).Elem(), fsRows},
		{reflect.TypeOf((*vfs.File)(nil)).Elem(), fileRows},
	} {
		for i := 0; i < tc.iface.NumMethod(); i++ {
			name := tc.iface.Method(i).Name
			r, ok := tc.rows[name]
			if !ok {
				t.Errorf("%s.%s has no row: observe it in Intercept or list why not", tc.iface.Name(), name)
				continue
			}
			log.begun, log.ended = log.begun[:0], log.ended[:0]
			r.call()
			if r.unobserved != "" {
				if len(log.begun)+len(log.ended) != 0 {
					t.Errorf("%s is passed through (%s) but was observed", name, r.unobserved)
				}
				continue
			}
			if len(log.begun) != 1 || len(log.ended) != 1 {
				t.Errorf("%s: %d Begin, %d End; want one pair", name, len(log.begun), len(log.ended))
				continue
			}
			got := log.ended[0]
			if got.Start.IsZero() {
				t.Errorf("%s: Call has no Start", name)
			}
			got.Start = r.want.Start
			if log.begun[0] != r.want.Op || got != r.want {
				t.Errorf("%s: Begin(%s), End(%+v); want %+v", name, log.begun[0], got, r.want)
			}
		}
	}
}

// TestInterceptKeepsCapabilities: a capability of the decorated handle
// stays discoverable through the interceptor's handle.
func TestInterceptKeepsCapabilities(t *testing.T) {
	f, err := vfs.Intercept(nopFS{}, &callLog{}).Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	n, ok := vfs.FileAs[vfs.InodeNumberer](f)
	if !ok || n.InodeNumber() != 77 {
		t.Fatalf("FileAs through the interceptor = %v, %v", n, ok)
	}
}

const ringSize = 8192

func newRing(t *testing.T) (*flight.Recorder, *nvmm.Device) {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: ringSize})
	if err != nil {
		t.Fatal(err)
	}
	if err := flight.Format(dev, 0, ringSize); err != nil {
		t.Fatal(err)
	}
	rec, err := flight.Attach(dev, 0, ringSize)
	if err != nil {
		t.Fatal(err)
	}
	return rec, dev
}

// TestFlightWrapFSRecords: the library recording path turns each call
// into one record carrying the op, inode, offset, length and a 0/1
// result.
func TestFlightWrapFSRecords(t *testing.T) {
	rec, dev := newRing(t)
	fs := flight.WrapFS(nopFS{}, rec, "bench")
	f, _ := fs.Create("/f")
	f.WriteAt(make([]byte, 8), 32)
	f.Truncate(5) // refused by nopFile
	fs.ReadDir("/")
	f.Size() // not recorded
	log, err := flight.Decode(dev, 0, ringSize)
	if err != nil {
		t.Fatal(err)
	}
	want := []flight.Record{
		{Op: vfs.OpCreate, Ino: 77},
		{Op: vfs.OpWrite, Ino: 77, Off: 32, Len: 8},
		{Op: vfs.OpTruncate, Ino: 77, Off: 5, Result: 1},
		{Op: vfs.OpReadDir, Len: 3},
	}
	if len(log.Records) != len(want) {
		t.Fatalf("%d records, want %d", len(log.Records), len(want))
	}
	for i, w := range want {
		got := log.Records[i]
		if got.Start == 0 || got.Tenant != "bench" {
			t.Errorf("record %d: start %d tenant %q", i, got.Start, got.Tenant)
		}
		w.Seq, w.Start, w.Tenant = got.Seq, got.Start, got.Tenant
		if got != w {
			t.Errorf("record %d = %+v, want %+v", i, got, w)
		}
	}
}

// TestObserversDoNotAllocate holds the two production observers to the
// data plane's zero-allocation contract.
func TestObserversDoNotAllocate(t *testing.T) {
	rec, _ := newRing(t)
	for name, fs := range map[string]vfs.FileSystem{
		"obs.WrapFS":    obs.WrapFS(nopFS{}, obs.New()),
		"flight.WrapFS": flight.WrapFS(nopFS{}, rec, "bench"),
	} {
		f, err := fs.Create("/f")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 64)
		if n := testing.AllocsPerRun(200, func() {
			f.WriteAt(buf, 0)
			f.ReadAt(buf, 0)
			f.Fsync()
		}); n != 0 {
			t.Errorf("%s: ReadAt+WriteAt+Fsync allocate %.1f per round, want 0", name, n)
		}
	}
}
