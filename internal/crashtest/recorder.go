// Package crashtest explores HiNFS crash consistency systematically.
//
// An exploration has three phases:
//
//  1. Record: run a deterministic workload once against a fresh HiNFS
//     instance on a persistence-tracking device, stamping every
//     state-changing VFS call with the device's persist-event ordinal
//     (internal/nvmm's monotonic counter over Flush/WriteNT/Fence), while
//     the device records its persist history from the end of Setup.
//  2. Walk: replay that history once, in event order; at each chosen
//     crash point it yields the durable image plus the pending
//     (stored-but-unflushed) cachelines just before the event.
//  3. Verify: materialize several torn-subset images per point (seed 0
//     drops every pending line; other seeds keep pseudo-random halves),
//     remount each through journal recovery, run the metadata checker,
//     and verify an application-level oracle built from the recorded
//     operation stream.
//
// The oracle asserts the paper's §4.1 contract: fsynced data survives
// with correct contents, a lazy write is visible wholly or not at all
// (the recovered size is a prefix boundary of the recorded write
// sequence and the bytes below it match), and namespace operations are
// atomic. Operations in flight at the crash point are allowed either
// their before- or after-state.
//
// Workloads run single threaded on a single-shard pool with inline-only
// writeback and a fake clock, so the persist-event schedule is a pure
// function of the op stream: a printed "event N seed S" repro names the
// same crash image when Forensics re-runs the workload.
package crashtest

import (
	"bytes"
	"sync"

	"hinfs/internal/nvmm"
	"hinfs/internal/obs/flight"
	"hinfs/internal/vfs"
)

// opKind classifies a recorded operation.
type opKind uint8

const (
	opMkdir opKind = iota
	opRmdir
	opCreate
	opWrite
	opFsync
	opUnlink
	// opUntrack marks a path whose state the oracle stops modelling
	// (truncate and rename are not used by the crash workloads; rather
	// than model them half-right, the oracle skips such paths until a
	// later unlink or create re-establishes a known state).
	opUntrack
)

// opRecord is one state-changing operation, stamped with the device's
// persist-event counter at call entry (startEv) and return (ev). An
// operation completed before crash event e iff ev < e; it was in flight
// iff startEv < e <= ev.
type opRecord struct {
	kind    opKind
	path    string
	off     int64
	data    []byte
	startEv int64
	ev      int64
	// osync, for opWrite records, marks a write through an O_SYNC handle:
	// durable when it returned, with no fsync.
	osync bool
	// Flight-recorder stamps (zero when the run records no flight ring):
	// the sequence number the op's flight record was appended under, the
	// canonical op code it carried, and the persist-event ordinal of the
	// record's own WriteNT. The record is durable in a crash image iff
	// the crash event is strictly greater than flightEv (WriteNT commits
	// its lines right after its fault point); at exactly flightEv the
	// record's two cachelines are pending — the torn-tail case.
	flightSeq uint64
	flightOp  vfs.Op
	flightEv  int64
	// synced, for opFsync records, is the file size the completed fsync
	// made durable — the floor the flight-forensics invariant asserts.
	synced int64
}

// recorder wraps a FileSystem, logging every state-changing call with
// persist-event stamps. Read-only calls are never recorded; fs.Sync is
// passed through unrecorded, which is sound — modelling it could only
// make the oracle stricter, never looser.
type recorder struct {
	fs  vfs.FileSystem
	dev *nvmm.Device
	// flt, when set, appends one flight record per mutating op — the
	// persisted black box the chaos invariants cross-check after a crash.
	flt *flight.Recorder
	// between, when set, runs after every recorded op.
	between func()

	mu   sync.Mutex
	recs []opRecord
}

func (r *recorder) events() int64 { return r.dev.PersistEvents() }

// log stamps one completed op's records with the persist event it
// returned at, appends its flight record (stamped on recs[0]) when the
// run keeps a flight ring, and appends them to the log. The flight
// record's WriteNT is a persist event, and a crash point like any other.
func (r *recorder) log(op vfs.Op, ino uint64, off int64, n int, recs ...opRecord) {
	if r.flt != nil {
		recs[0].flightSeq = r.flt.Record(&flight.Record{Ino: ino, Off: off, Len: uint32(n), Op: op})
		// The record's NT store is the LAST persist event Record fired —
		// but not necessarily the only one: under a fence-elision scope
		// (batchfence) the store first materializes any pending elided
		// fence, so counting events()+1 up front would stamp the record
		// one event early and break the durability line verifyFlight
		// draws.
		recs[0].flightOp, recs[0].flightEv = op, r.events()
	}
	ev := r.events()
	for i := range recs {
		recs[i].ev = ev
	}
	if r.between != nil {
		r.between()
	}
	r.mu.Lock()
	r.recs = append(r.recs, recs...)
	r.mu.Unlock()
}

// Create implements vfs.FileSystem.
func (r *recorder) Create(path string) (vfs.File, error) {
	start := r.events()
	f, err := r.fs.Create(path)
	if err != nil {
		return nil, err
	}
	ino := vfs.InodeOf(f)
	r.log(vfs.OpCreate, ino, 0, 0, opRecord{kind: opCreate, path: path, startEv: start})
	return &recFile{r: r, f: f, path: path, ino: ino}, nil
}

// Open implements vfs.FileSystem. An OCreate open of a missing path is
// recorded as a creation (the pre-existence probe is a read and emits no
// persist events).
func (r *recorder) Open(path string, flags int) (vfs.File, error) {
	start := r.events()
	creating := false
	if flags&vfs.OCreate != 0 {
		_, serr := r.fs.Stat(path)
		creating = serr != nil
	}
	f, err := r.fs.Open(path, flags)
	if err != nil {
		return nil, err
	}
	ino := vfs.InodeOf(f)
	if creating {
		r.log(vfs.OpCreate, ino, 0, 0, opRecord{kind: opCreate, path: path, startEv: start})
	} else if flags&vfs.OTrunc != 0 {
		r.log(vfs.OpTruncate, ino, 0, 0, opRecord{kind: opUntrack, path: path, startEv: start})
	}
	return &recFile{r: r, f: f, path: path, ino: ino, app: flags&vfs.OAppend != 0, osync: flags&vfs.OSync != 0}, nil
}

// Mkdir implements vfs.FileSystem.
func (r *recorder) Mkdir(path string) error {
	start := r.events()
	err := r.fs.Mkdir(path)
	if err == nil {
		r.log(vfs.OpMkdir, 0, 0, 0, opRecord{kind: opMkdir, path: path, startEv: start})
	}
	return err
}

// Rmdir implements vfs.FileSystem.
func (r *recorder) Rmdir(path string) error {
	start := r.events()
	err := r.fs.Rmdir(path)
	if err == nil {
		r.log(vfs.OpRmdir, 0, 0, 0, opRecord{kind: opRmdir, path: path, startEv: start})
	}
	return err
}

// Unlink implements vfs.FileSystem.
func (r *recorder) Unlink(path string) error {
	start := r.events()
	err := r.fs.Unlink(path)
	if err == nil {
		r.log(vfs.OpUnlink, 0, 0, 0, opRecord{kind: opUnlink, path: path, startEv: start})
	}
	return err
}

// Rename implements vfs.FileSystem. Both endpoints leave the tracked
// set; the crash workloads do not rename.
func (r *recorder) Rename(oldpath, newpath string) error {
	start := r.events()
	err := r.fs.Rename(oldpath, newpath)
	if err == nil {
		r.log(vfs.OpRename, 0, 0, 0, opRecord{kind: opUntrack, path: oldpath, startEv: start},
			opRecord{kind: opUntrack, path: newpath, startEv: start})
	}
	return err
}

// Stat implements vfs.FileSystem.
func (r *recorder) Stat(path string) (vfs.FileInfo, error) { return r.fs.Stat(path) }

// ReadDir implements vfs.FileSystem.
func (r *recorder) ReadDir(path string) ([]vfs.DirEntry, error) { return r.fs.ReadDir(path) }

// Sync implements vfs.FileSystem.
func (r *recorder) Sync() error { return r.fs.Sync() }

// Unmount implements vfs.FileSystem.
func (r *recorder) Unmount() error { return r.fs.Unmount() }

// recFile wraps an open handle, recording writes (with a private copy of
// the data — the oracle replays it as the content mirror), fsyncs and
// truncates.
type recFile struct {
	r    *recorder
	f    vfs.File
	path string
	ino  uint64
	app  bool
	// osync marks an O_SYNC handle.
	osync bool
}

// ReadAt implements vfs.File.
func (f *recFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }

// WriteAt implements vfs.File. For OAppend handles the recorded offset
// is the actual append position (size after the write minus the bytes
// written), not the ignored caller offset.
func (f *recFile) WriteAt(p []byte, off int64) (int, error) {
	start := f.r.events()
	n, err := f.f.WriteAt(p, off)
	if n > 0 {
		at := off
		if f.app {
			at = f.f.Size() - int64(n)
		}
		f.r.log(vfs.OpWrite, f.ino, at, n,
			opRecord{kind: opWrite, path: f.path, off: at, data: bytes.Clone(p[:n]), startEv: start, osync: f.osync})
	}
	return n, err
}

// Fsync implements vfs.File.
func (f *recFile) Fsync() error {
	start := f.r.events()
	err := f.f.Fsync()
	if err == nil {
		f.r.log(vfs.OpFsync, f.ino, 0, 0, opRecord{kind: opFsync, path: f.path, startEv: start, synced: f.f.Size()})
	}
	return err
}

// Truncate implements vfs.File.
func (f *recFile) Truncate(size int64) error {
	start := f.r.events()
	err := f.f.Truncate(size)
	if err == nil {
		f.r.log(vfs.OpTruncate, f.ino, size, 0, opRecord{kind: opUntrack, path: f.path, startEv: start})
	}
	return err
}

// Size implements vfs.File.
func (f *recFile) Size() int64 { return f.f.Size() }

// Close implements vfs.File.
func (f *recFile) Close() error { return f.f.Close() }
