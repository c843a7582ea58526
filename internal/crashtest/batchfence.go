package crashtest

import (
	"fmt"

	"hinfs/internal/nvmm"
	"hinfs/internal/vfs"
	"hinfs/internal/workload"
)

// BatchFence is a crash-test workload personality that drives the
// fence-coalescing path the pipelined server uses: ops are issued in
// groups bracketed by an nvmm.FenceScope with an OpBoundary between
// ops, exactly how a session reader runs a grouped dispatch. Each
// group's trailing fences collapse into one ordering point at scope
// close, so the explorer's crash points land on the *production*
// persist-event schedule of batched execution — fewer, later fences —
// and verify that recovery, fsck and the content oracle still hold at
// every one of them.
type BatchFence struct {
	// Dev is the device under the file system; the explorer injects it
	// (the scope API is a device API, deliberately below the VFS).
	Dev *nvmm.Device

	Files     int // default 8
	BatchOps  int // ops per fence scope; default 6
	WriteSize int // max write length; default 3 KB (unaligned tails)
	SyncEvery int // fsync every Nth op; default 4
}

func (w *BatchFence) fill() {
	if w.Files == 0 {
		w.Files = 8
	}
	if w.BatchOps == 0 {
		w.BatchOps = 6
	}
	if w.WriteSize == 0 {
		w.WriteSize = 3 << 10
	}
	if w.SyncEvery == 0 {
		w.SyncEvery = 4
	}
}

func (w *BatchFence) path(i int) string { return fmt.Sprintf("/bat/f%d", i) }

// Name implements workload.Workload.
func (w *BatchFence) Name() string { return "batchfence" }

// Setup implements workload.Workload.
func (w *BatchFence) Setup(fs vfs.FileSystem) error {
	w.fill()
	if err := fs.Mkdir("/bat"); err != nil && err != vfs.ErrExist {
		return err
	}
	for i := 0; i < w.Files; i++ {
		f, err := fs.Create(w.path(i))
		if err != nil {
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Run implements workload.Workload: ops groups of BatchOps appends, each
// group under one fence scope. Single-goroutine and seeded, so the
// persist-event schedule — including which fences coalesce — is a pure
// function of the op stream, as the explorer requires.
func (w *BatchFence) Run(fs vfs.FileSystem, threads, ops int) (workload.Result, error) {
	w.fill()
	if w.Dev == nil {
		return workload.Result{}, fmt.Errorf("batchfence: no device injected")
	}
	if threads <= 0 {
		threads = 1
	}
	var res workload.Result
	rng := workload.NewRand(0xBA7C4F)
	buf := make([]byte, w.WriteSize)
	runOp := func(op int) error {
		i := rng.Intn(w.Files)
		f, err := fs.Open(w.path(i), vfs.ORdwr|vfs.OAppend)
		if err != nil {
			return err
		}
		defer f.Close()
		n := 1 + rng.Intn(w.WriteSize)
		for j := 0; j < n; j++ {
			buf[j] = byte(rng.Uint64())
		}
		wn, werr := f.WriteAt(buf[:n], 0)
		res.BytesWritten += int64(wn)
		if werr != nil {
			return werr
		}
		if op%w.SyncEvery == w.SyncEvery-1 {
			if err := f.Fsync(); err != nil {
				return err
			}
			res.Fsyncs++
			res.FsyncBytes += int64(wn)
		}
		res.Ops++
		return nil
	}
	total := ops * threads
	for op := 0; op < total; {
		group := w.BatchOps
		if rest := total - op; group > rest {
			group = rest
		}
		scope := w.Dev.EnterFenceScope()
		var err error
		for g := 0; g < group; g++ {
			if g > 0 {
				scope.OpBoundary()
			}
			if err = runOp(op); err != nil {
				break
			}
			op++
		}
		scope.Close()
		if err != nil {
			return res, err
		}
	}
	return res, nil
}
