package main

import (
	"bufio"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// span.go is the benchmark's own tracing, recorded from outside the
// program: a FileSystem/File interposer placed at each boundary the stack
// composes through, a preallocated ring the spans land in, and the
// self-time arithmetic over them.
//
// One call in traceStride is traced. The decision is the client's, and it
// travels in the trace ID (bit 62), which the client stamps on the wire:
// an interposer under the server reads it back from the request it runs
// for, so all spans of one call are kept or none.

type layer uint8

const (
	layerClient layer = iota // around the workload's calls
	layerVFS                 // between the server (or the caller) and the decorators
	layerCore                // between the decorators and core.FS
	numLayers
)

var layerNames = [numLayers]string{"client", "vfs", "core"}

const (
	traceStride = 16
	sampledBit  = 1 << 62
	ringSize    = 1 << 18
)

// traceID packs a connection and a per-connection sequence number. A burst
// of n requests takes n consecutive IDs.
func traceID(conn int, seq uint64, sampled bool) uint64 {
	id := uint64(conn+1)<<40 | seq&(1<<40-1)
	if sampled {
		id |= sampledBit
	}
	return id
}

// span is one call seen at one boundary. ops is how many client ops the
// call carried: 1, or a burst's count on its client span.
type span struct {
	trace      uint64
	start, end int64 // ns since the ring's epoch
	bytes      int32
	ops        uint16
	layer      layer
	op         opKind
}

// spanRing holds the most recent ringSize spans.
type spanRing struct {
	epoch time.Time
	buf   []span
	next  atomic.Uint64
	// local carries the current trace ID to the interposers below a local
	// (in-process, single-goroutine) client; across the wire the server's
	// own trace propagation does that.
	local atomic.Uint64
}

func newSpanRing() *spanRing {
	return &spanRing{epoch: time.Now(), buf: make([]span, ringSize)}
}

func (r *spanRing) now() int64 { return int64(time.Since(r.epoch)) }

func (r *spanRing) add(s span) { r.buf[(r.next.Add(1)-1)%ringSize] = s }

func (r *spanRing) reset() { r.next.Store(0) }

// spans returns the retained spans and how many were overwritten.
func (r *spanRing) spans() ([]span, int) {
	n := r.next.Load()
	if n <= ringSize {
		return r.buf[:n], 0
	}
	return r.buf, int(n - ringSize)
}

// current is the trace ID of the call the calling goroutine is serving.
func (r *spanRing) current() uint64 {
	if t := wireTrace(); t != 0 {
		return t
	}
	return r.local.Load()
}

// spanFS records a span around every call through it.
type spanFS struct {
	inner FileSystem
	layer layer
	ring  *spanRing

	// Client layer only: the connection, its call and sequence counters,
	// and how a trace ID is put on the wire (nil for a local client).
	conn     int
	calls    uint64
	seq      uint64
	announce func(id uint64)
	burst    struct {
		id    uint64
		start int64
	}
}

// enter opens a span for a call of rpcs requests; it returns the call's
// trace ID (0 when the call is not traced) and start time.
func (s *spanFS) enter(rpcs int) (uint64, int64) {
	id := s.ring.current()
	if s.layer == layerClient {
		s.calls++
		id = traceID(s.conn, s.seq+1, s.calls%traceStride == 0)
		s.seq += uint64(rpcs)
		if s.announce != nil {
			s.announce(id)
		} else {
			s.ring.local.Store(id)
		}
	}
	if id&sampledBit == 0 {
		return 0, 0
	}
	return id, s.ring.now()
}

func (s *spanFS) exit(id uint64, start int64, op opKind, ops, bytes int) {
	if id != 0 {
		s.ring.add(span{trace: id, start: start, end: s.ring.now(), bytes: int32(bytes), ops: uint16(ops), layer: s.layer, op: op})
	}
}

// beginBurst and endBurst bracket a pipelined burst, which reaches the
// wire through the Batch rather than through this interposer.
func (s *spanFS) beginBurst(rpcs int) { s.burst.id, s.burst.start = s.enter(rpcs) }

func (s *spanFS) endBurst(ops int, bytes int64) {
	s.exit(s.burst.id, s.burst.start, opBurst, ops, int(bytes))
}

func (s *spanFS) wrap(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &spanFile{inner: f, fs: s}, nil
}

func (s *spanFS) Create(path string) (File, error) {
	id, t := s.enter(1)
	f, err := s.inner.Create(path)
	s.exit(id, t, opCreate, 1, 0)
	return s.wrap(f, err)
}

func (s *spanFS) Open(path string, flags int) (File, error) {
	id, t := s.enter(1)
	f, err := s.inner.Open(path, flags)
	s.exit(id, t, opOpen, 1, 0)
	return s.wrap(f, err)
}

func (s *spanFS) Unlink(path string) error {
	id, t := s.enter(1)
	err := s.inner.Unlink(path)
	s.exit(id, t, opUnlink, 1, 0)
	return err
}

func (s *spanFS) Rename(oldpath, newpath string) error {
	id, t := s.enter(1)
	err := s.inner.Rename(oldpath, newpath)
	s.exit(id, t, opRename, 1, 0)
	return err
}

func (s *spanFS) Stat(path string) (FileInfo, error) {
	id, t := s.enter(1)
	fi, err := s.inner.Stat(path)
	s.exit(id, t, opStat, 1, 0)
	return fi, err
}

// The remaining namespace calls are set-up and teardown, not workload ops;
// they pass through unrecorded.
func (s *spanFS) Mkdir(path string) error                 { return s.inner.Mkdir(path) }
func (s *spanFS) Rmdir(path string) error                 { return s.inner.Rmdir(path) }
func (s *spanFS) ReadDir(path string) ([]DirEntry, error) { return s.inner.ReadDir(path) }
func (s *spanFS) Sync() error                             { return s.inner.Sync() }
func (s *spanFS) Unmount() error                          { return s.inner.Unmount() }

type spanFile struct {
	inner File
	fs    *spanFS
}

func (f *spanFile) ReadAt(p []byte, off int64) (int, error) {
	id, t := f.fs.enter(1)
	n, err := f.inner.ReadAt(p, off)
	f.fs.exit(id, t, opRead, 1, n)
	return n, err
}

func (f *spanFile) WriteAt(p []byte, off int64) (int, error) {
	id, t := f.fs.enter(1)
	n, err := f.inner.WriteAt(p, off)
	f.fs.exit(id, t, opWrite, 1, n)
	return n, err
}

func (f *spanFile) Fsync() error {
	id, t := f.fs.enter(1)
	err := f.inner.Fsync()
	f.fs.exit(id, t, opFsync, 1, 0)
	return err
}

func (f *spanFile) Close() error {
	id, t := f.fs.enter(1)
	err := f.inner.Close()
	f.fs.exit(id, t, opClose, 1, 0)
	return err
}

func (f *spanFile) Truncate(size int64) error { return f.inner.Truncate(size) }
func (f *spanFile) Size() int64               { return f.inner.Size() }

// Unwrap keeps the handle's optional capabilities (its inode number, which
// the server stamps into flight records) discoverable.
func (f *spanFile) Unwrap() File { return f.inner }

// linkSpans sorts spans by (layer, trace) and returns, for each, the index
// of its parent: the span one layer out whose trace ID is the greatest not
// above its own — the call, or the burst, that caused it. -1 marks a client
// span or an orphan.
func linkSpans(spans []span) []int {
	sort.Slice(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.layer != b.layer {
			return a.layer < b.layer
		}
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.start < b.start
	})
	var first [numLayers + 1]int
	for l := range first {
		first[l] = sort.Search(len(spans), func(i int) bool { return int(spans[i].layer) >= l })
	}
	parent := make([]int, len(spans))
	for i := range parent {
		parent[i] = -1
	}
	for l := layerVFS; l < numLayers; l++ {
		outer := spans[first[l-1]:first[l]]
		for i := first[l]; i < first[l+1]; i++ {
			c := spans[i]
			// Several outer spans can share a trace (an unlink is a stat
			// and an unlink under the server); the parent is the one
			// that contains the child in time.
			for j := sort.Search(len(outer), func(k int) bool { return outer[k].trace > c.trace }) - 1; j >= 0 && c.trace-outer[j].trace < uint64(max(outer[j].ops, 1)); j-- {
				if c.start >= outer[j].start && c.end <= outer[j].end {
					parent[i] = first[l-1] + j
					break
				}
			}
		}
	}
	return parent
}

// layerTimes is what the spans say about each layer.
type layerTimes struct {
	ops   int64              // client ops the retained client spans carried
	total [numLayers]float64 // summed span time, ns
	self  [numLayers]float64 // summed self time, ns
}

// selfTimes computes each span's self time — its duration minus the part
// of it its child spans cover — and sums by layer.
func selfTimes(spans []span, parent []int) layerTimes {
	var lt layerTimes
	covered := make([]int64, len(spans))
	edge := make([]int64, len(spans)) // end of the child time counted so far
	// Children of one parent are adjacent runs in trace order but may
	// overlap in time (two workers serving one burst), so walk each
	// parent's children by start time.
	order := make([]int, 0, len(spans))
	for i, p := range parent {
		if p >= 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		x, y := order[a], order[b]
		if parent[x] != parent[y] {
			return parent[x] < parent[y]
		}
		return spans[x].start < spans[y].start
	})
	for _, i := range order {
		p := parent[i]
		lo := max(spans[i].start, edge[p])
		if spans[i].end > lo {
			covered[p] += spans[i].end - lo
			edge[p] = spans[i].end
		}
	}
	for i, s := range spans {
		d := s.end - s.start
		lt.total[s.layer] += float64(d)
		lt.self[s.layer] += float64(d - covered[i])
		if s.layer == layerClient {
			lt.ops += int64(max(s.ops, 1))
		}
	}
	return lt
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span, parent []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var b []byte
	for i, s := range spans {
		b = append(b[:0], `{"id":`...)
		b = strconv.AppendInt(b, int64(i), 10)
		b = append(b, `,"layer":"`...)
		b = append(b, layerNames[s.layer]...)
		b = append(b, `","op":"`...)
		b = append(b, s.op.String()...)
		b = append(b, `","trace":"`...)
		b = strconv.AppendUint(b, s.trace, 16)
		b = append(b, `","parent":`...)
		b = strconv.AppendInt(b, int64(parent[i]), 10)
		b = append(b, `,"start_ns":`...)
		b = strconv.AppendInt(b, s.start, 10)
		b = append(b, `,"end_ns":`...)
		b = strconv.AppendInt(b, s.end, 10)
		b = append(b, `,"ops":`...)
		b = strconv.AppendInt(b, int64(max(s.ops, 1)), 10)
		b = append(b, `,"bytes":`...)
		b = strconv.AppendInt(b, int64(s.bytes), 10)
		b = append(b, "}\n"...)
		if _, err := w.Write(b); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
