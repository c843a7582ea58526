package obs

import (
	"sync/atomic"
	"time"
)

// OpClass is a user-visible operation class, recorded at the VFS
// boundary for every system under test (HiNFS and baselines alike).
type OpClass uint8

// The op classes of the per-op latency breakdown.
const (
	OpRead OpClass = iota
	OpWrite
	OpFsync
	OpCreate
	OpUnlink
	OpMeta // mkdir/rmdir/rename/stat/readdir/truncate/sync
	NumOps
)

// String implements fmt.Stringer.
func (c OpClass) String() string {
	switch c {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpFsync:
		return "fsync"
	case OpCreate:
		return "create"
	case OpUnlink:
		return "unlink"
	case OpMeta:
		return "meta"
	}
	return "unknown"
}

// OpClasses lists every op class in display order.
func OpClasses() []OpClass {
	return []OpClass{OpRead, OpWrite, OpFsync, OpCreate, OpUnlink, OpMeta}
}

// Path is a decision path inside the HiNFS stack — which way an
// individual operation was routed. Path histograms record latency in
// nanoseconds except PathWriteback, which records batch sizes in blocks.
type Path uint8

// The instrumented decision paths.
const (
	// PathDirectRead is a read served entirely from NVMM (no DRAM hit).
	PathDirectRead Path = iota
	// PathBufferedRead is a read merged per cacheline from DRAM + NVMM.
	PathBufferedRead
	// PathEagerWrite is a write with at least one eager-persistent block
	// (direct NVMM non-temporal store).
	PathEagerWrite
	// PathLazyWrite is a write buffered entirely in DRAM.
	PathLazyWrite
	// PathStall is a foreground allocation that found its shard
	// exhausted (duration = the stall).
	PathStall
	// PathWriteback is a background writeback batch (value = blocks).
	PathWriteback
	// PathNVMMFlush is one device persist: cacheline flush latency
	// including bandwidth queueing.
	PathNVMMFlush
	NumPaths
)

// String implements fmt.Stringer.
func (p Path) String() string {
	switch p {
	case PathDirectRead:
		return "direct-read"
	case PathBufferedRead:
		return "buffered-read"
	case PathEagerWrite:
		return "eager-write"
	case PathLazyWrite:
		return "lazy-write"
	case PathStall:
		return "stall"
	case PathWriteback:
		return "writeback-batch"
	case PathNVMMFlush:
		return "nvmm-flush"
	}
	return "unknown"
}

// Paths lists every decision path in display order.
func Paths() []Path {
	return []Path{PathDirectRead, PathBufferedRead, PathEagerWrite,
		PathLazyWrite, PathStall, PathWriteback, PathNVMMFlush}
}

// Counter is a plain event counter keyed by name.
type Counter uint8

// The counters.
const (
	// CtrEagerBlocks / CtrLazyBlocks count per-block write routing
	// decisions (the eager/lazy mix, finer than per-op path histograms).
	CtrEagerBlocks Counter = iota
	CtrLazyBlocks
	// CtrBenefitEager / CtrBenefitLazy count the Buffer Benefit Model's
	// ghost-buffer verdicts at synchronization points.
	CtrBenefitEager
	CtrBenefitLazy
	// CtrJournalLaneContended counts journal slot allocations that found
	// their lane's mutex held (metadata hot-path lock contention).
	CtrJournalLaneContended
	// CtrAllocShardSteals counts block allocations that ran their home
	// shard dry and crossed into another shard's range.
	CtrAllocShardSteals
	// CtrAllocWordsScanned counts bitmap words examined by the allocator's
	// free-block scan (the hint-quality metric).
	CtrAllocWordsScanned
	// CtrDirLockContended counts namespace-lock acquisitions that found
	// the per-directory lock held.
	CtrDirLockContended
	NumCounters
)

// String implements fmt.Stringer.
func (c Counter) String() string {
	switch c {
	case CtrEagerBlocks:
		return "eager-blocks"
	case CtrLazyBlocks:
		return "lazy-blocks"
	case CtrBenefitEager:
		return "benefit-eager"
	case CtrBenefitLazy:
		return "benefit-lazy"
	case CtrJournalLaneContended:
		return "journal-lane-contended"
	case CtrAllocShardSteals:
		return "alloc-shard-steals"
	case CtrAllocWordsScanned:
		return "alloc-words-scanned"
	case CtrDirLockContended:
		return "dirlock-contended"
	}
	return "unknown"
}

// Counters lists every counter in display order.
func Counters() []Counter {
	return []Counter{CtrEagerBlocks, CtrLazyBlocks, CtrBenefitEager, CtrBenefitLazy,
		CtrJournalLaneContended, CtrAllocShardSteals, CtrAllocWordsScanned, CtrDirLockContended}
}

// CopyKind attributes one DRAM memory copy of file data to the data
// path that performed it. The paper's §2 argument is a copy count:
// a page-cache write costs two copies (user→page, page→NVMM) plus a
// flush, while a HiNFS lazy write costs one (user→DRAM buffer) on the
// critical path and defers the second to background writeback. These
// kinds let the harness reproduce that attribution per system.
type CopyKind uint8

// The copy kinds. "Foreground" kinds happen inside a write syscall;
// CopySyncFlush happens inside fsync/sync; CopyWriteback happens on
// background threads; the read kinds happen inside a read syscall.
const (
	// CopyUserIn is user data landing in its first destination
	// (DRAM buffer block, page-cache page, or NVMM store).
	CopyUserIn CopyKind = iota
	// CopyWriteFetch is a read-modify-write fetch into the write path's
	// destination (partial-block fill from NVMM or the block device).
	CopyWriteFetch
	// CopyInlineEvict is data pushed to media inside a foreground
	// operation to make room (dirty-page eviction, dirty-ratio
	// throttling, buffer-stall flush) — latency the caller eats.
	CopyInlineEvict
	// CopySyncFlush is data pushed to media by fsync/sync.
	CopySyncFlush
	// CopyWriteback is data pushed to media by background writeback.
	CopyWriteback
	// CopyReadOut is data copied to the caller by a read (from DRAM,
	// a page, or NVMM).
	CopyReadOut
	// CopyReadFill is a read-miss fill from media into a cache page.
	CopyReadFill
	NumCopyKinds
)

// String implements fmt.Stringer.
func (k CopyKind) String() string {
	switch k {
	case CopyUserIn:
		return "user-in"
	case CopyWriteFetch:
		return "write-fetch"
	case CopyInlineEvict:
		return "inline-evict"
	case CopySyncFlush:
		return "sync-flush"
	case CopyWriteback:
		return "writeback"
	case CopyReadOut:
		return "read-out"
	case CopyReadFill:
		return "read-fill"
	}
	return "unknown"
}

// CopyKinds lists every copy kind in display order.
func CopyKinds() []CopyKind {
	return []CopyKind{CopyUserIn, CopyWriteFetch, CopyInlineEvict,
		CopySyncFlush, CopyWriteback, CopyReadOut, CopyReadFill}
}

// Collector aggregates one instance's observability state: an op-class
// histogram per OpClass, a path histogram per Path and the counters.
// Every method is nil-safe, so instrumented code
// paths pass a possibly-nil *Collector and pay one pointer test when
// observability is disabled.
type Collector struct {
	ops       [NumOps]Hist
	paths     [NumPaths]Hist
	ctrs      [NumCounters]atomic.Int64
	copies    [NumCopyKinds]atomic.Int64
	copyBytes [NumCopyKinds]atomic.Int64
}

// New creates an empty collector.
func New() *Collector { return &Collector{} }

// Op records one operation of class op taking d.
func (c *Collector) Op(op OpClass, d time.Duration) {
	if c == nil {
		return
	}
	c.ops[op].Observe(d.Nanoseconds())
}

// OpHist returns the histogram for op (nil on a nil collector).
func (c *Collector) OpHist(op OpClass) *Hist {
	if c == nil {
		return nil
	}
	return &c.ops[op]
}

// Path records value v (nanoseconds, or blocks for PathWriteback) on
// decision path p.
func (c *Collector) Path(p Path, v int64) {
	if c == nil {
		return
	}
	c.paths[p].Observe(v)
}

// PathHist returns the histogram for p (nil on a nil collector).
func (c *Collector) PathHist(p Path) *Hist {
	if c == nil {
		return nil
	}
	return &c.paths[p]
}

// Add increments counter ctr by n.
func (c *Collector) Add(ctr Counter, n int64) {
	if c == nil || n == 0 {
		return
	}
	c.ctrs[ctr].Add(n)
}

// Counter returns the current value of ctr.
func (c *Collector) Counter(ctr Counter) int64 {
	if c == nil {
		return 0
	}
	return c.ctrs[ctr].Load()
}

// Copy records one DRAM memory copy of n bytes of file data attributed
// to kind. Zero-length copies are not recorded.
func (c *Collector) Copy(kind CopyKind, n int) {
	if c == nil || n <= 0 {
		return
	}
	c.copies[kind].Add(1)
	c.copyBytes[kind].Add(int64(n))
}

// CopyBytes returns the bytes copied for kind.
func (c *Collector) CopyBytes(kind CopyKind) int64 {
	if c == nil {
		return 0
	}
	return c.copyBytes[kind].Load()
}

// Reset zeroes histograms and counters. Call at
// quiesced phase boundaries, e.g. between a workload's setup and run.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for i := range c.ops {
		c.ops[i].Reset()
	}
	for i := range c.paths {
		c.paths[i].Reset()
	}
	for i := range c.ctrs {
		c.ctrs[i].Store(0)
	}
	for i := range c.copies {
		c.copies[i].Store(0)
		c.copyBytes[i].Store(0)
	}
}

// CopyStat is one copy kind's aggregate: how many copies and how many
// bytes moved.
type CopyStat struct {
	Copies int64 `json:"copies"`
	Bytes  int64 `json:"bytes"`
}

// Snapshot is an immutable copy of a collector's histograms and
// counters, keyed by the String names — the unit handed to reports,
// harness results and the expvar export.
type Snapshot struct {
	Ops      map[string]HistSnapshot `json:"ops"`
	Paths    map[string]HistSnapshot `json:"paths"`
	Counters map[string]int64        `json:"counters"`
	Copies   map[string]CopyStat     `json:"copies,omitempty"`
}

// Snapshot copies the collector's current state (nil-safe: returns an
// empty snapshot).
func (c *Collector) Snapshot() *Snapshot {
	s := &Snapshot{
		Ops:      make(map[string]HistSnapshot, NumOps),
		Paths:    make(map[string]HistSnapshot, NumPaths),
		Counters: make(map[string]int64, NumCounters),
		Copies:   make(map[string]CopyStat, NumCopyKinds),
	}
	if c == nil {
		return s
	}
	for _, op := range OpClasses() {
		if h := c.ops[op].Snapshot(); h.Count > 0 {
			s.Ops[op.String()] = h
		}
	}
	for _, p := range Paths() {
		if h := c.paths[p].Snapshot(); h.Count > 0 {
			s.Paths[p.String()] = h
		}
	}
	for _, ctr := range Counters() {
		if v := c.ctrs[ctr].Load(); v != 0 {
			s.Counters[ctr.String()] = v
		}
	}
	for _, k := range CopyKinds() {
		if n := c.copies[k].Load(); n != 0 {
			s.Copies[k.String()] = CopyStat{Copies: n, Bytes: c.copyBytes[k].Load()}
		}
	}
	return s
}

// Op returns the snapshot for an op class (zero snapshot if absent).
func (s *Snapshot) Op(op OpClass) HistSnapshot {
	if s == nil {
		return HistSnapshot{}
	}
	return s.Ops[op.String()]
}

// Path returns the snapshot for a decision path (zero if absent).
func (s *Snapshot) Path(p Path) HistSnapshot {
	if s == nil {
		return HistSnapshot{}
	}
	return s.Paths[p.String()]
}

// Counter returns a counter value (0 if absent).
func (s *Snapshot) Counter(ctr Counter) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[ctr.String()]
}

// Copy returns the copy stat for a kind (zero if absent).
func (s *Snapshot) Copy(k CopyKind) CopyStat {
	if s == nil {
		return CopyStat{}
	}
	return s.Copies[k.String()]
}
