// Package crashtest explores HiNFS crash consistency systematically.
//
// An exploration has three phases:
//
//  1. Record: run a deterministic workload once against a fresh HiNFS
//     instance on a persistence-tracking device, stamping every
//     state-changing VFS call with the device's persist-event ordinal
//     (internal/nvmm's monotonic counter over Flush/WriteNT/Fence).
//  2. Crash: for each chosen crash point, replay the identical workload
//     with a CrashPlan armed at that event; the device captures the
//     durable image plus the pending (stored-but-unflushed) cachelines.
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
// Everything is deterministic by construction: workloads run single
// threaded on a single-shard pool with inline-only writeback and a fake
// clock, so the replay's persist-event schedule is identical to the
// recording's — the explorer asserts this and fails loudly otherwise.
package crashtest

import (
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
// persist-event stamps. With keep=false it is a transparent passthrough
// (crash replays re-run the identical op stream but do not need a second
// copy of the log). Read-only calls are never recorded; fs.Sync is
// passed through unrecorded, which is sound — modelling it could only
// make the oracle stricter, never looser.
type recorder struct {
	fs   vfs.FileSystem
	dev  *nvmm.Device
	keep bool
	// flt, when set, appends one flight record per mutating op — the
	// persisted black box the chaos invariants cross-check after a crash.
	flt *flight.Recorder
	// between, when set, runs after every recorded op, in replays too:
	// add is called for every op in both modes.
	between func()

	mu   sync.Mutex
	recs []opRecord
}

func (r *recorder) events() int64 { return r.dev.PersistEvents() }

// flightNote appends the flight record for one completed op and returns
// its (seq, persist-event) stamps. It runs in BOTH record and replay
// runs: the record's WriteNT is a persist event, so skipping it in
// replays would desynchronize the two schedules the explorer compares.
func (r *recorder) flightNote(op vfs.Op, ino uint64, off int64, n int) (uint64, int64) {
	if r.flt == nil {
		return 0, 0
	}
	seq := r.flt.Record(&flight.Record{Ino: ino, Off: off, Len: uint32(n), Op: op})
	// The record's NT store is the LAST persist event Record fired — but
	// not necessarily the only one: under a fence-elision scope
	// (batchfence) the store first materializes any pending elided
	// fence, so counting events()+1 up front would stamp the record one
	// event early and break the durability line verifyFlight draws.
	return seq, r.events()
}

func (r *recorder) add(rec opRecord) {
	if r.between != nil {
		r.between()
	}
	if !r.keep {
		return
	}
	r.mu.Lock()
	r.recs = append(r.recs, rec)
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
	seq, fev := r.flightNote(vfs.OpCreate, ino, 0, 0)
	r.add(opRecord{kind: opCreate, path: path, startEv: start, ev: r.events(),
		flightSeq: seq, flightOp: vfs.OpCreate, flightEv: fev})
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
		seq, fev := r.flightNote(vfs.OpCreate, ino, 0, 0)
		r.add(opRecord{kind: opCreate, path: path, startEv: start, ev: r.events(),
			flightSeq: seq, flightOp: vfs.OpCreate, flightEv: fev})
	} else if flags&vfs.OTrunc != 0 {
		seq, fev := r.flightNote(vfs.OpTruncate, ino, 0, 0)
		r.add(opRecord{kind: opUntrack, path: path, startEv: start, ev: r.events(),
			flightSeq: seq, flightOp: vfs.OpTruncate, flightEv: fev})
	}
	return &recFile{r: r, f: f, path: path, ino: ino, app: flags&vfs.OAppend != 0, osync: flags&vfs.OSync != 0}, nil
}

// Mkdir implements vfs.FileSystem.
func (r *recorder) Mkdir(path string) error {
	start := r.events()
	err := r.fs.Mkdir(path)
	if err == nil {
		seq, fev := r.flightNote(vfs.OpMkdir, 0, 0, 0)
		r.add(opRecord{kind: opMkdir, path: path, startEv: start, ev: r.events(),
			flightSeq: seq, flightOp: vfs.OpMkdir, flightEv: fev})
	}
	return err
}

// Rmdir implements vfs.FileSystem.
func (r *recorder) Rmdir(path string) error {
	start := r.events()
	err := r.fs.Rmdir(path)
	if err == nil {
		seq, fev := r.flightNote(vfs.OpRmdir, 0, 0, 0)
		r.add(opRecord{kind: opRmdir, path: path, startEv: start, ev: r.events(),
			flightSeq: seq, flightOp: vfs.OpRmdir, flightEv: fev})
	}
	return err
}

// Unlink implements vfs.FileSystem.
func (r *recorder) Unlink(path string) error {
	start := r.events()
	err := r.fs.Unlink(path)
	if err == nil {
		seq, fev := r.flightNote(vfs.OpUnlink, 0, 0, 0)
		r.add(opRecord{kind: opUnlink, path: path, startEv: start, ev: r.events(),
			flightSeq: seq, flightOp: vfs.OpUnlink, flightEv: fev})
	}
	return err
}

// Rename implements vfs.FileSystem. Both endpoints leave the tracked
// set; the crash workloads do not rename.
func (r *recorder) Rename(oldpath, newpath string) error {
	start := r.events()
	err := r.fs.Rename(oldpath, newpath)
	if err == nil {
		seq, fev := r.flightNote(vfs.OpRename, 0, 0, 0)
		ev := r.events()
		r.add(opRecord{kind: opUntrack, path: oldpath, startEv: start, ev: ev,
			flightSeq: seq, flightOp: vfs.OpRename, flightEv: fev})
		r.add(opRecord{kind: opUntrack, path: newpath, startEv: start, ev: ev})
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
		seq, fev := f.r.flightNote(vfs.OpWrite, f.ino, at, n)
		var data []byte
		if f.r.keep {
			data = make([]byte, n)
			copy(data, p[:n])
		}
		f.r.add(opRecord{kind: opWrite, path: f.path, off: at, data: data, startEv: start, ev: f.r.events(), osync: f.osync,
			flightSeq: seq, flightOp: vfs.OpWrite, flightEv: fev})
	}
	return n, err
}

// Fsync implements vfs.File.
func (f *recFile) Fsync() error {
	start := f.r.events()
	err := f.f.Fsync()
	if err == nil {
		seq, fev := f.r.flightNote(vfs.OpFsync, f.ino, 0, 0)
		f.r.add(opRecord{kind: opFsync, path: f.path, startEv: start, ev: f.r.events(),
			flightSeq: seq, flightOp: vfs.OpFsync, flightEv: fev, synced: f.f.Size()})
	}
	return err
}

// Truncate implements vfs.File.
func (f *recFile) Truncate(size int64) error {
	start := f.r.events()
	err := f.f.Truncate(size)
	if err == nil {
		seq, fev := f.r.flightNote(vfs.OpTruncate, f.ino, size, 0)
		f.r.add(opRecord{kind: opUntrack, path: f.path, startEv: start, ev: f.r.events(),
			flightSeq: seq, flightOp: vfs.OpTruncate, flightEv: fev})
	}
	return err
}

// Size implements vfs.File.
func (f *recFile) Size() int64 { return f.f.Size() }

// Close implements vfs.File.
func (f *recFile) Close() error { return f.f.Close() }
