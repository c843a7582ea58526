package crashtest

import (
	"fmt"
	"slices"

	"hinfs/internal/vfs"
	"hinfs/internal/workload"
)

// Overwrite is the crash-test personality for writes that change no size. An
// overwrite of existing blocks inside the file's size opens no transaction:
// pmfs stamps Mtime in place and the data goes wherever its route takes it —
// a non-temporal store (O_SYNC, or a block the benefit model routes eager) or
// the DRAM buffer, to reach NVMM at write-back or fsync — so nothing but the
// route's own ordering stands between a returned write and a crash.
//
// Setup writes four files and syncs them; every byte of every write, set-up
// included, is owByte(file, version), the version going up by one per write
// to the file (set-up is version 1, so a zero byte is never payload). Run
// overwrites inside the size — sub-cacheline, line-aligned and unaligned, one
// to four blocks — through plain and O_SYNC handles, fsyncs one op in three
// and Stats after every op. Files o2 and o3 are also appended to, through an
// O_APPEND handle, and half their overwrites aim at the tail, so overwrites
// land on blocks whose allocating transaction is still deferred and in-place
// Mtime stores interleave with open undo images of the same inode line.
//
// The content oracle models a file as a prefix of its write mirror, which an
// overwrite is not; Setup takes the files out of it (a no-op truncate) and
// overwriteInvariants checks them instead.
type Overwrite struct{}

const (
	owBlock      = 4096
	owFiles      = 4 // the upper half is appended to
	owSetupSize  = 12 * owBlock
	owMaxVersion = 63
	owDir        = "/overwrite"
)

func owPath(i int) string { return fmt.Sprintf("%s/o%d", owDir, i) }

// owByte is the payload byte of write number version to file i.
func owByte(i, version int) byte { return byte(i)<<6 | byte(version) }

// owAppended reports whether the run appends to file i.
func owAppended(i int) bool { return i >= owFiles/2 }

// Name implements workload.Workload.
func (w *Overwrite) Name() string { return "overwrite" }

// Setup implements workload.Workload. The files are made durable by sync(2),
// not fsync: an fsync would have the benefit model route every block written
// once before it eager, and the explorer's clock never advances to decay that.
func (w *Overwrite) Setup(fs vfs.FileSystem) error {
	if err := fs.Mkdir(owDir); err != nil && err != vfs.ErrExist {
		return err
	}
	buf := make([]byte, owSetupSize)
	for i := 0; i < owFiles; i++ {
		f, err := fs.Create(owPath(i))
		if err != nil {
			return err
		}
		for j := range buf {
			buf[j] = owByte(i, 1)
		}
		_, err = f.WriteAt(buf, 0)
		if err == nil {
			err = f.Truncate(owSetupSize) // a no-op that untracks the path
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return fs.Sync()
}

// Run implements workload.Workload. Single-threaded and seeded, as the
// explorer requires.
func (w *Overwrite) Run(fs vfs.FileSystem, threads, ops int) (workload.Result, error) {
	if threads <= 0 {
		threads = 1
	}
	r := &overwriteRun{fs: fs, rng: workload.NewRand(0x0E2217E), buf: make([]byte, 4*owBlock)}
	for i := range r.size {
		r.size[i], r.version[i] = owSetupSize, 1
	}
	for op := 0; op < ops*threads; op++ {
		i := r.rng.Intn(owFiles)
		var err error
		switch k := r.rng.Intn(10); {
		case k < 3 && owAppended(i):
			err = r.write(i, vfs.OAppend, r.size[i], r.length())
		case k < 7:
			err = r.overwrite(i, 0)
		default:
			err = r.overwrite(i, vfs.OSync)
		}
		if err == nil && r.rng.Intn(3) == 0 {
			err = r.fsync(i)
		}
		if err == nil {
			var fi vfs.FileInfo
			if fi, err = fs.Stat(owPath(i)); err == nil && fi.Size != r.size[i] {
				err = fmt.Errorf("stat of %s says %d bytes, the run wrote %d", owPath(i), fi.Size, r.size[i])
			}
		}
		if err != nil {
			return r.res, err
		}
		r.res.Ops++
	}
	return r.res, nil
}

// overwriteRun is the state of one Run.
type overwriteRun struct {
	fs      vfs.FileSystem
	rng     *workload.Rand
	buf     []byte
	size    [owFiles]int64
	version [owFiles]int
	res     workload.Result
}

// length draws a write length: sub-cacheline, whole lines, or anything, up to
// four blocks.
func (r *overwriteRun) length() int {
	switch r.rng.Intn(3) {
	case 0:
		return 1 + r.rng.Intn(63)
	case 1:
		return 64 * (1 + r.rng.Intn(4*owBlock/64))
	}
	return 1 + r.rng.Intn(4*owBlock)
}

// overwrite writes inside file i's size through a handle opened with flags.
// A line-aligned length gets a line-aligned offset. Half the writes to an
// appended file aim at its last two blocks, and half of those to a fixed one
// at its first two, so some blocks are written several times between fsyncs
// (which keeps the benefit model routing them lazy) and the tail's are
// overwritten while the append that allocated them is uncommitted.
func (r *overwriteRun) overwrite(i, flags int) error {
	n := r.length()
	lo, hi := int64(0), r.size[i]
	if r.rng.Intn(2) == 0 {
		if owAppended(i) {
			lo = hi - 2*owBlock
		} else {
			hi = 2 * owBlock
		}
	}
	if int64(n) > hi-lo {
		lo, hi = 0, r.size[i]
	}
	off := lo + r.rng.Int63n(hi-lo-int64(n)+1)
	if n%64 == 0 {
		off &^= 63
	}
	return r.write(i, flags, off, n)
}

// write issues file i's next version: n bytes at off through a handle opened
// with flags (the offset of an O_APPEND write is where it will land).
func (r *overwriteRun) write(i, flags int, off int64, n int) error {
	f, err := r.fs.Open(owPath(i), vfs.ORdwr|flags)
	if err != nil {
		return err
	}
	if r.version[i] < owMaxVersion {
		r.version[i]++
	}
	for j := 0; j < n; j++ {
		r.buf[j] = owByte(i, r.version[i])
	}
	wn, err := f.WriteAt(r.buf[:n], off)
	r.res.BytesWritten += int64(wn)
	if end := off + int64(wn); end > r.size[i] {
		r.size[i] = end
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (r *overwriteRun) fsync(i int) error {
	f, err := r.fs.Open(owPath(i), vfs.ORdwr)
	if err != nil {
		return err
	}
	err = f.Fsync()
	r.res.Fsyncs++
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// owFileModel is what the recorded ops say about one file at a crash point.
type owFileModel struct {
	// floor[j] and ceil[j] bound the version byte j may carry: no older than
	// the newest write covering it that is known durable — set-up, a
	// returned O_SYNC write, anything before the last returned fsync — and
	// no newer than the newest write covering it that had started.
	floor, ceil []byte
	// unsynced lists the returned writes no fsync has covered yet.
	unsynced []owSpan
	// sizes are the file's admissible sizes: set-up's and each append's end;
	// minSize is the one the last returned fsync made durable.
	sizes   map[int64]bool
	minSize int64
}

type owSpan struct {
	off, end int64
	version  byte
}

// overwriteInvariants checks every file of the overwrite workload on a
// recovered file system against the ops recorded up to crash event e:
//
//   - overwrite-size: a file never appended to has exactly its set-up size;
//     an appended one ends at set-up's or an append's end, no shorter than
//     its last returned fsync left it;
//   - overwrite-bytes: every byte carries its own file's tag and a version
//     inside that byte's [floor, ceil] (see owFileModel).
func overwriteInvariants(fs vfs.FileSystem, recs []opRecord, e, setupEv int64) []oracleViolation {
	var models [owFiles]owFileModel
	var paths [owFiles]string
	for i := range models {
		models[i].sizes = map[int64]bool{}
		paths[i] = owPath(i)
	}
	for k := range recs {
		rec := &recs[k]
		if rec.startEv >= e {
			break
		}
		i := slices.Index(paths[:], rec.path)
		if i < 0 {
			continue
		}
		m := &models[i]
		returned := rec.ev < e
		switch rec.kind {
		case opWrite:
			sp := owSpan{off: rec.off, end: rec.off + int64(len(rec.data)), version: rec.data[0] & owMaxVersion}
			if grow := sp.end - int64(len(m.ceil)); grow > 0 {
				// An append: its bytes are born at this version.
				born := make([]byte, grow)
				for j := range born {
					born[j] = sp.version
				}
				m.floor = append(m.floor, born...)
				m.ceil = append(m.ceil, born...)
				m.sizes[sp.end] = true
			}
			for j := sp.off; j < sp.end; j++ {
				m.ceil[j] = sp.version
			}
			switch {
			case returned && (rec.osync || rec.ev <= setupEv): // set-up ends in a sync
				m.raise(sp)
			case returned:
				m.unsynced = append(m.unsynced, sp)
			}
		case opFsync:
			if returned {
				for _, sp := range m.unsynced {
					m.raise(sp)
				}
				m.unsynced = m.unsynced[:0]
				m.minSize = int64(len(m.ceil))
			}
		}
	}
	var out []oracleViolation
	for i := range models {
		m, path := &models[i], paths[i]
		fi, err := fs.Stat(path)
		if err != nil {
			out = append(out, oracleViolation{path: path, invariant: "missing", detail: "file from set-up is gone: " + err.Error()})
			continue
		}
		switch {
		case !owAppended(i) && fi.Size != owSetupSize:
			out = append(out, oracleViolation{path: path, invariant: "overwrite-size",
				detail: fmt.Sprintf("size %d: the file was only ever overwritten inside its %d bytes", fi.Size, owSetupSize)})
			continue
		case !m.sizes[fi.Size] || fi.Size < m.minSize:
			out = append(out, oracleViolation{path: path, invariant: "overwrite-size",
				detail: fmt.Sprintf("size %d is not set-up's or an append's end at or above the fsync floor %d", fi.Size, m.minSize)})
			continue
		}
		content, err := readBack(fs, path, fi.Size)
		if err != nil || int64(len(content)) != fi.Size {
			out = append(out, oracleViolation{path: path, invariant: "unreadable",
				detail: fmt.Sprintf("read %d of %d bytes: %v", len(content), fi.Size, err)})
			continue
		}
		for j, b := range content {
			if tag, v := int(b>>6), b&owMaxVersion; tag != i || v < m.floor[j] || v > m.ceil[j] {
				out = append(out, oracleViolation{path: path, invariant: "overwrite-bytes",
					detail: fmt.Sprintf("byte %d of %d is %#02x (file %d, version %d), want file %d and a version in [%d, %d]: older than a write made durable, or never written here",
						j, len(content), b, tag, v, i, m.floor[j], m.ceil[j])})
				break
			}
		}
	}
	return out
}

// raise records that the write sp is durable.
func (m *owFileModel) raise(sp owSpan) {
	for j := sp.off; j < sp.end; j++ {
		if m.floor[j] < sp.version {
			m.floor[j] = sp.version
		}
	}
}
