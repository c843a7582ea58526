package crashtest

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"hinfs/internal/vfs"
	"hinfs/internal/workload"
)

// Reuse is the crash-test personality for freed-block reuse. Setup fills
// and fsyncs "poison" files whose every byte has the high bit set, then
// unlinks them, so the allocator's rewound hints hand those blocks out
// again; Run writes payload whose every byte has the high bit clear and
// carries, in its upper bits, a tag of the file it was written to (reuseTag)
// — the run recycles its own freed blocks far more often than it reaches a
// poisoned one, and the tag makes another live file's bytes as recognisable
// as poison. A byte of a data block is zeroed when the file's size first
// covers it and no write does — by the allocating write below EOF (pmfs
// zeroEdges), or by the extension that exposes it past the old EOF (pmfs
// zeroGap, and core in the block's buffered copy) — and a buffered block
// that dies before write-back is zeroed on drop (buffer.DropBlock), so the
// workload leans on all of them: unaligned and sub-cacheline writes, sparse
// writes past EOF inside a block, a mix of fsync and no fsync, and unlink,
// rename-over and truncate of data that was never written back.
//
// Three file groups keep the content oracle useful: the "a" files only
// append (the oracle's prefix model holds for them, gaps included); the
// "t" files are overwritten and truncated and the "r" files replaced by
// rename, which the oracle does not model. The stale-bytes invariant
// (staleBytes) covers all of them: every byte of every recovered file,
// tracked or not, is zero or carries that file's tag — in particular none
// has the high bit set.
type Reuse struct{}

const (
	reuseBlock = 4096
	// 64 poison files of 8 blocks: 64 blocks at the rewound hint of each of
	// the 8 allocator shards, several times what a 120-op run allocates.
	reusePoisonFiles  = 64
	reusePoisonBlocks = 8
	reuseFiles        = 4 // files per group
)

// Name implements workload.Workload.
func (w *Reuse) Name() string { return "reuse" }

// Setup implements workload.Workload.
func (w *Reuse) Setup(fs vfs.FileSystem) error {
	if err := fs.Mkdir("/reuse"); err != nil && err != vfs.ErrExist {
		return err
	}
	rng := workload.NewRand(0x9015011)
	buf := make([]byte, reusePoisonBlocks*reuseBlock)
	for i := 0; i < reusePoisonFiles; i++ {
		f, err := fs.Create(fmt.Sprintf("/reuse/poison%d", i))
		if err != nil {
			return err
		}
		for j := range buf {
			buf[j] = byte(rng.Uint64()) | 0x80
		}
		if _, err := f.WriteAt(buf, 0); err != nil {
			f.Close()
			return err
		}
		if err := f.Fsync(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	for i := 0; i < reusePoisonFiles; i++ {
		if err := fs.Unlink(fmt.Sprintf("/reuse/poison%d", i)); err != nil {
			return err
		}
	}
	return nil
}

// Run implements workload.Workload. Single-threaded and seeded, as the
// explorer requires.
func (w *Reuse) Run(fs vfs.FileSystem, threads, ops int) (workload.Result, error) {
	if threads <= 0 {
		threads = 1
	}
	r := &reuseRun{fs: fs, rng: workload.NewRand(0x2E05E), buf: make([]byte, 2*reuseBlock), live: make(map[string]bool)}
	for op := 0; op < ops*threads; op++ {
		i := r.rng.Intn(reuseFiles)
		var err error
		switch k := r.rng.Intn(10); {
		case k < 6:
			err = r.appendOp(fmt.Sprintf("/reuse/a%d", i))
		case k < 8:
			err = r.truncateOp(fmt.Sprintf("/reuse/t%d", i))
		default:
			err = r.renameOp(fmt.Sprintf("/reuse/r%d", i))
		}
		if err != nil {
			return r.res, err
		}
		r.res.Ops++
	}
	return r.res, nil
}

// reuseRun is the state of one Run.
type reuseRun struct {
	fs   vfs.FileSystem
	rng  *workload.Rand
	buf  []byte
	live map[string]bool // paths the run has created and not unlinked or renamed away
	res  workload.Result
}

// open returns a handle on path, creating the file if the workload has not
// got it.
func (r *reuseRun) open(path string) (vfs.File, error) {
	if r.live[path] {
		return r.fs.Open(path, vfs.ORdwr)
	}
	r.live[path] = true
	return r.fs.Create(path)
}

// write writes n payload bytes at off of f, the file at (or about to be
// renamed to) path: path's tag above three random bits.
func (r *reuseRun) write(f vfs.File, path string, n int, off int64) error {
	tag := reuseTag(path) << 3
	for j := 0; j < n; j++ {
		r.buf[j] = tag | byte(r.rng.Uint64())&7
	}
	wn, err := f.WriteAt(r.buf[:n], off)
	r.res.BytesWritten += int64(wn)
	return err
}

// length draws a write length: sub-cacheline a third of the time, otherwise
// anything up to max, so nearly every write starts and ends mid-line.
func (r *reuseRun) length(max int) int {
	if r.rng.Intn(3) == 0 {
		return 1 + r.rng.Intn(63)
	}
	return 1 + r.rng.Intn(max)
}

// appendOp extends an "a" file — at EOF, or past it leaving a gap that must
// read zero, mostly inside the block EOF sits in — fsyncs it one time in
// three and unlinks it one time in eight, fsynced or not.
func (r *reuseRun) appendOp(path string) error {
	f, err := r.open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	off := f.Size()
	if r.rng.Intn(3) == 0 {
		off += 1 + r.rng.Int63n(reuseBlock-1)
	}
	if err := r.write(f, path, r.length(3000), off); err != nil {
		return err
	}
	if r.rng.Intn(3) == 0 {
		if err := f.Fsync(); err != nil {
			return err
		}
		r.res.Fsyncs++
	}
	if r.rng.Intn(8) == 0 {
		delete(r.live, path)
		return r.fs.Unlink(path)
	}
	return nil
}

// truncateOp works a "t" file: an unaligned write — past EOF two times in
// three, so into fresh blocks, otherwise anywhere (overwrites included) —
// then a sync(2) one time in four, or else a truncate two times in three:
// back to somewhere inside the old file (which drops the blocks the write
// just allocated before they were ever written back) or to anywhere up to a
// block past EOF. A truncate that drops every block of an unsynced write
// lets that write's transaction commit ahead of the truncate's own, and a
// crash in between shows the dropped blocks in the file. The sync is a
// sync and not an fsync because an fsync would teach the benefit model to
// route the file's next writes eager (the explorer's clock never advances,
// so the decision never decays), and an eager write leaves nothing to drop.
// A new file is truncated at once (a no-op), which takes the path out of
// the content oracle before the first overwrite.
func (r *reuseRun) truncateOp(path string) error {
	fresh := !r.live[path]
	f, err := r.open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if fresh {
		if err := f.Truncate(0); err != nil {
			return err
		}
	}
	old := f.Size()
	off := r.rng.Int63n(old + reuseBlock)
	if r.rng.Intn(3) != 0 {
		off = old + r.rng.Int63n(reuseBlock)
	}
	if err := r.write(f, path, r.length(2*reuseBlock), off); err != nil {
		return err
	}
	switch r.rng.Intn(12) {
	case 0, 1, 2:
		return r.fs.Sync()
	case 3, 4, 5, 6:
		return f.Truncate(r.rng.Int63n(old + 1))
	case 7, 8:
		return f.Truncate(r.rng.Int63n(f.Size() + reuseBlock))
	}
	return nil
}

// renameOp writes a new, never-fsynced file and renames it over an "r" file
// that was itself never fsynced.
func (r *reuseRun) renameOp(path string) error {
	tmp := path + ".new"
	f, err := r.open(tmp)
	if err != nil {
		return err
	}
	err = r.write(f, path, r.length(2*reuseBlock), int64(r.length(reuseBlock)))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	delete(r.live, tmp)
	r.live[path] = true
	return r.fs.Rename(tmp, path)
}

// reuseTag maps a path of the run to its payload tag, 1..15 (a ".new" file
// carries the tag of the name it will be renamed to). Every payload byte is
// tag<<3 plus three random bits: never zero, never with the high bit set.
func reuseTag(path string) byte {
	h := fnv.New32a()
	h.Write([]byte(strings.TrimSuffix(path, ".new")))
	return byte(1 + h.Sum32()%15)
}

// staleBytes is the reuse workload's invariant: it reads every file of the
// recovered file system, tracked by the oracle or not, and reports each one
// holding a byte that is neither zero nor tagged as the file's own — a byte
// no write to this file produced, so one a previous owner of the block left
// behind: setup's poison (high bit set) or another file of the run.
func staleBytes(fs vfs.FileSystem) []oracleViolation {
	var out []oracleViolation
	unreadable := func(path string, err error) {
		out = append(out, oracleViolation{path: path, invariant: "unreadable", detail: err.Error()})
	}
	var walk func(dir string)
	walk = func(dir string) {
		ents, err := fs.ReadDir(dir)
		if err != nil {
			unreadable(dir, err)
			return
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
		for _, e := range ents {
			path := strings.TrimSuffix(dir, "/") + "/" + e.Name
			if e.IsDir {
				walk(path)
				continue
			}
			fi, err := fs.Stat(path)
			if err != nil {
				unreadable(path, err)
				continue
			}
			content, err := readBack(fs, path, fi.Size)
			if err != nil {
				unreadable(path, err)
				continue
			}
			tag := reuseTag(path)
			for off, b := range content {
				if b != 0 && b>>3 != tag {
					out = append(out, oracleViolation{path: path, invariant: "stale-bytes",
						detail: fmt.Sprintf("byte %d of %d is %#02x, neither zero nor tagged %d<<3 as this file's writes are: left by the block's previous owner", off, len(content), b, tag)})
					break
				}
			}
		}
	}
	walk("/")
	return out
}
