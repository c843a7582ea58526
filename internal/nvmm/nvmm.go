// Package nvmm emulates a byte-addressable non-volatile main memory device.
//
// The emulator follows the model in the paper's §5.1: NVMM is backed by
// ordinary (DRAM) memory; loads run at DRAM speed; each store becomes
// durable only when the covering cachelines are flushed, and every flushed
// cacheline pays a configurable extra write latency (200 ns by default).
// Aggregate write bandwidth is capped by bounding the number of concurrent
// flushing threads ("writer slots"), mirroring the paper's
// Nw = B_nvmm / (1/L_nvmm) queueing scheme.
//
// An optional persistence-tracking mode keeps a shadow image holding only
// flushed data, so tests can call Crash and observe exactly the state a
// real NVMM would retain after power loss: stores that were never flushed
// disappear.
//
// The device image is an anonymous private mapping, not a Go allocation:
// the collector paces itself by heap size, and a heap holding a
// half-gigabyte image would let garbage grow by as much again before it
// ran. The mapping is released when the Device becomes unreachable, so a
// window returned by Slice must not outlive its device.
package nvmm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hinfs/internal/cacheline"
	"hinfs/internal/obs"
)

// Config describes the emulated device.
type Config struct {
	// Size is the device capacity in bytes. It must be a positive multiple
	// of the block size.
	Size int64
	// WriteLatency is the extra latency charged per flushed cacheline,
	// emulating NVMM's slow writes (default 200 ns).
	WriteLatency time.Duration
	// ReadLatency is the extra latency charged per cacheline read. The
	// paper assumes NVMM reads run at DRAM speed, so this defaults to 0.
	ReadLatency time.Duration
	// WriteBandwidth caps aggregate write bandwidth in bytes/second by
	// limiting concurrent flushers. Zero means unlimited.
	WriteBandwidth int64
	// TrackPersistence enables the shadow durable image and Crash support.
	// It roughly doubles memory use and serializes flushes, so it is meant
	// for tests, not benchmarks.
	TrackPersistence bool
	// TimeScale multiplies every emulated delay (default 1). Benchmarks on
	// machines with few cores run with TimeScale >> 1 so that delays are
	// long enough to be slept through rather than spun, letting emulated
	// device time overlap across goroutines; all figures report ratios, so
	// scaling cancels out. Nw (the bandwidth cap's concurrent-writer
	// bound) is computed from the unscaled latency and bandwidth.
	TimeScale float64
}

// DefaultConfig returns the paper's Table-2 device: 200 ns write latency
// and 1 GB/s write bandwidth, at the given capacity.
func DefaultConfig(size int64) Config {
	return Config{
		Size:           size,
		WriteLatency:   200 * time.Nanosecond,
		WriteBandwidth: 1 << 30,
	}
}

// Stats aggregates device counters. Times are cumulative across threads,
// so they exceed wall-clock time for concurrent runs.
type Stats struct {
	// BytesRead counts bytes copied out of the device.
	BytesRead int64
	// BytesWritten counts bytes stored into the device.
	BytesWritten int64
	// BytesFlushed counts bytes made durable (cachelines × 64).
	BytesFlushed int64
	// Flushes counts Flush calls.
	Flushes int64
	// Fences counts ordering fences actually issued to the device.
	Fences int64
	// FencesElided counts redundant trailing fences absorbed by
	// FenceScope coalescing: fences requested by the software above but
	// covered by a batch's single closing fence (see fence.go). Fences +
	// FencesElided is what an uncoalesced run would have issued.
	FencesElided int64
	// ReadTime is the cumulative emulated device time charged by Read
	// (read latency per covered cacheline).
	ReadTime time.Duration
	// WriteTime is the cumulative emulated device time charged by
	// persists (write latency per covered cacheline plus bandwidth
	// queueing). Cached stores (Write) charge nothing until flushed,
	// like real stores. Analytic, not wall-clock: it is pure device
	// physics, free of scheduler noise — and free of per-op clock reads.
	WriteTime time.Duration
}

// Device is an emulated NVMM device. All byte ranges are validated;
// overlapping concurrent access to the same range must be prevented by the
// caller (the file systems lock at file/allocation granularity).
type Device struct {
	cfg  Config
	data []byte

	// Write ports model the bandwidth cap: Nw ports, each busy until the
	// stored nanosecond timestamp (relative to base). A flusher claims the
	// earliest-free port via CAS and waits out its own completion time, so
	// aggregate write bandwidth never exceeds Nw cachelines per latency.
	ports []atomic.Int64
	base  time.Time

	effWrite time.Duration // scaled write latency per cacheline
	effRead  time.Duration // scaled read latency per cacheline

	// statsMu serializes whole-snapshot reads (Stats) against whole-set
	// resets (ResetStats): the counters themselves are atomics, but
	// without the lock a snapshot racing a reset could mix pre- and
	// post-reset values.
	statsMu      sync.Mutex
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	bytesFlushed atomic.Int64
	flushes      atomic.Int64
	fences       atomic.Int64
	fencesElided atomic.Int64
	// fencesPending counts this device's fence scopes holding a pending
	// (requested but unissued) fence. It gates materializeFence: stores
	// and flushes only pay the goroutine-ID lookup when some scope might
	// actually need materializing — one atomic load otherwise, which
	// keeps scoped batches from taxing every other goroutine's hot path.
	fencesPending atomic.Int64
	readTime      atomic.Int64
	writeTime     atomic.Int64

	// col, when set, receives per-persist flush latency observations
	// (obs.PathNVMMFlush). Set before concurrent use.
	col atomic.Pointer[obs.Collector]

	// Fault plane (see fault.go): persist-event counter and optional
	// event observer.
	events   atomic.Int64
	observer atomic.Pointer[func(int64, EventKind)]

	// Persistence tracking (TrackPersistence only).
	pmu     sync.Mutex
	durable []byte
	pending map[int64]struct{} // dirty cacheline start offsets
	rec     *Recording         // the active recording, if any
}

// New creates a device from cfg.
func New(cfg Config) (*Device, error) {
	if cfg.Size <= 0 || cfg.Size%cacheline.BlockSize != 0 {
		return nil, fmt.Errorf("nvmm: size %d must be a positive multiple of %d", cfg.Size, cacheline.BlockSize)
	}
	scale := cfg.TimeScale
	if scale == 0 {
		scale = 1
	}
	data, err := syscall.Mmap(-1, 0, int(cfg.Size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("nvmm: map %d-byte image: %w", cfg.Size, err)
	}
	d := &Device{
		cfg:      cfg,
		data:     data,
		base:     time.Now(),
		effWrite: time.Duration(float64(cfg.WriteLatency) * scale),
		effRead:  time.Duration(float64(cfg.ReadLatency) * scale),
	}
	// A failed unmap leaks the range; a cleanup has no one to report to.
	runtime.AddCleanup(d, func(b []byte) { _ = syscall.Munmap(b) }, data)
	if cfg.WriteBandwidth > 0 && cfg.WriteLatency > 0 {
		n := int(cfg.WriteBandwidth * int64(cfg.WriteLatency) / int64(time.Second) / cacheline.Size)
		if n < 1 {
			n = 1
		}
		d.ports = make([]atomic.Int64, n)
	}
	if cfg.TrackPersistence {
		d.durable = make([]byte, cfg.Size)
		d.pending = make(map[int64]struct{})
	}
	return d, nil
}

// MustNew is New for known-good configs; it panics on error.
func MustNew(cfg Config) *Device {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Size returns the device capacity in bytes.
func (d *Device) Size() int64 { return d.cfg.Size }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// WriterSlots returns the number of concurrent writer ports (0 =
// unlimited) — the paper's Nw bandwidth bound.
func (d *Device) WriterSlots() int { return len(d.ports) }

func (d *Device) check(off int64, n int) {
	if off < 0 || n < 0 || off+int64(n) > d.cfg.Size {
		panic(fmt.Sprintf("nvmm: access [%d,%d) outside device of size %d", off, off+int64(n), d.cfg.Size))
	}
}

// Read copies len(dst) bytes at off into dst (an NVMM load).
func (d *Device) Read(dst []byte, off int64) {
	d.check(off, len(dst))
	copy(dst, d.data[off:])
	if d.effRead > 0 {
		cost := time.Duration(cacheline.LineCount(off, len(dst))) * d.effRead
		Wait(cost)
		d.readTime.Add(int64(cost))
	}
	d.bytesRead.Add(int64(len(dst)))
}

// Write stores src at off. Like a CPU store, the data lands in the (cached)
// image immediately but is not durable until Flush covers it. A cached
// store charges no device time — that is the point of the DRAM-speed
// store path — so nothing accrues to Stats.WriteTime here.
func (d *Device) Write(src []byte, off int64) {
	d.store(src, off)
}

// store is the image update every write makes. With persistence tracking,
// the copy and the pending-mark are one pmu section, so a recording
// (faultPoint) or a commit never reads a line while it is being stored.
func (d *Device) store(src []byte, off int64) {
	d.check(off, len(src))
	d.materializeFence()
	if d.cfg.TrackPersistence {
		first := off &^ (cacheline.Size - 1)
		end := off + int64(len(src))
		d.pmu.Lock()
		copy(d.data[off:], src)
		for a := first; a < end; a += cacheline.Size {
			d.pending[a] = struct{}{}
		}
		d.pmu.Unlock()
	} else {
		copy(d.data[off:], src)
	}
	d.bytesWritten.Add(int64(len(src)))
}

// WriteNT stores src at off with a non-temporal (cache-bypassing) store and
// makes it durable, paying the write latency for each covered cacheline.
// This models PMFS's copy_from_user_inatomic_nocache path.
func (d *Device) WriteNT(src []byte, off int64) {
	d.store(src, off)
	d.faultPoint(EvWriteNT)
	d.persist(off, len(src))
}

// WriteNTPosted stores src at off with a non-temporal store that is
// *posted*: durability semantics are identical to WriteNT (the lines
// commit at this persist event, so the crash state just before it still
// holds them pending/torn), but the issuing CPU never waits on the
// media — the store drains from the write-combining buffer in the
// background. This is the honest timing model for a caller that never
// fences the store (the flight recorder): on real hardware an unfenced
// movnti retires immediately; only a subsequent sfence pays the drain.
// Stats count the flush bytes but no synchronous write time accrues.
func (d *Device) WriteNTPosted(src []byte, off int64) {
	d.store(src, off)
	d.faultPoint(EvWriteNT)
	d.flushes.Add(1)
	d.bytesFlushed.Add(int64(cacheline.LineCount(off, len(src))) * cacheline.Size)
	if d.cfg.TrackPersistence {
		d.commitPending(off, len(src))
	}
}

// Flush makes the byte range [off, off+n) durable, paying the write latency
// for each covered cacheline (a clflush loop).
func (d *Device) Flush(off int64, n int) {
	d.check(off, n)
	if n == 0 {
		return
	}
	d.materializeFence()
	d.faultPoint(EvFlush)
	d.persist(off, n)
}

// SetObs attaches a collector receiving flush-latency observations
// (including bandwidth queueing time), or detaches with nil.
func (d *Device) SetObs(c *obs.Collector) { d.col.Store(c) }

// persist charges latency and bandwidth for the covered cachelines and, in
// persistence-tracking mode, copies them to the durable image.
func (d *Device) persist(off int64, n int) {
	lines := cacheline.LineCount(off, n)
	d.flushes.Add(1)
	d.bytesFlushed.Add(int64(lines) * cacheline.Size)
	c := d.col.Load()
	// A server-attached foreground op charges its StageFlush here — the
	// most precise spot: pure emulated device latency including bandwidth
	// queueing. Background writeback goroutines are never attached, so
	// their flushes stay off the per-op breakdown automatically.
	//
	// With a collector attached, the charge is wall time around the wait
	// (the collector wants what the op actually experienced). Without
	// one, the charge is the analytically known device time — latency
	// plus port queueing — which spares the hot path two clock reads per
	// flush; on a flush-heavy path those reads are a measurable tax.
	op := obs.CurrentOp()
	var start time.Time
	if c != nil {
		start = time.Now()
	}
	var devNS int64
	if d.effWrite > 0 {
		cost := int64(lines) * int64(d.effWrite)
		if d.ports == nil {
			devNS = cost
			Wait(time.Duration(cost))
		} else {
			devNS = d.portWait(cost)
		}
	}
	if d.cfg.TrackPersistence {
		d.commitPending(off, n)
	}
	d.writeTime.Add(devNS)
	if c != nil {
		ns := time.Since(start).Nanoseconds()
		c.Path(obs.PathNVMMFlush, ns)
		op.Charge(obs.StageFlush, ns)
	} else {
		op.Charge(obs.StageFlush, devNS)
	}
}

// portWait claims the earliest-free write port, occupies it for cost
// nanoseconds, and waits until the occupation ends, returning the total
// nanoseconds waited (latency plus queueing). Equivalent to the paper's
// "an NVMM writing thread is queued when Nw writers are active".
func (d *Device) portWait(cost int64) int64 {
	for {
		now := int64(time.Since(d.base))
		pi, minBusy := 0, int64(1)<<62
		for i := range d.ports {
			if b := d.ports[i].Load(); b < minBusy {
				minBusy, pi = b, i
			}
		}
		start := minBusy
		if now > start {
			start = now
		}
		end := start + cost
		if d.ports[pi].CompareAndSwap(minBusy, end) {
			Wait(time.Duration(end - now))
			return end - now
		}
	}
}

// Slice returns a window aliasing device memory, emulating direct
// memory-mapped access (mmap). Stores through the slice are not durable
// until Flush covers the range, exactly like stores through a real mapping
// are not durable until msync. Persistence tracking does not observe
// stores made through a slice until the corresponding Flush. The window
// lives only as long as the device: once d is unreachable its image is
// unmapped, and the slice must not be touched after that (hold d, or the
// file system over it, with runtime.KeepAlive where nothing else does).
func (d *Device) Slice(off int64, n int) []byte {
	d.check(off, n)
	return d.data[off : off+int64(n) : off+int64(n)]
}

// Fence is an ordering point (mfence). The Go memory model plus the
// file-system locks already order our operations, so it only counts
// (and feeds the persist-event stream, see fault.go). Inside a
// FenceScope the fence is held pending instead: it materializes before
// the goroutine's next store/flush, or coalesces into the scope's
// single closing fence if it proves trailing (see fence.go).
func (d *Device) Fence() {
	if s := d.fenceScope(); s != nil {
		if !s.pending {
			s.pending = true
			d.fencesPending.Add(1)
		}
		return
	}
	d.fenceReal()
}

func (d *Device) fenceReal() {
	d.faultPoint(EvFence)
	d.fences.Add(1)
}

func (d *Device) commitPending(off int64, n int) {
	first := off &^ (cacheline.Size - 1)
	end := off + int64(n)
	d.pmu.Lock()
	for a := first; a < end; a += cacheline.Size {
		copy(d.durable[a:a+cacheline.Size], d.data[a:])
		delete(d.pending, a)
	}
	if d.rec != nil {
		d.rec.commit(first, end)
	}
	d.pmu.Unlock()
}

// Crash simulates power loss: every store not yet flushed is discarded and
// the device image reverts to the durable state — CrashPartial(0). It
// panics unless the device was created with TrackPersistence.
func (d *Device) Crash() { d.CrashPartial(0) }

// PendingLines returns the number of cachelines stored but not yet flushed.
// It requires TrackPersistence.
func (d *Device) PendingLines() int {
	d.pmu.Lock()
	defer d.pmu.Unlock()
	return len(d.pending)
}

// Stats returns a snapshot of the device counters. It takes the same
// lock as ResetStats, so a snapshot can never observe a half-applied
// reset (it can still straddle an in-flight operation's own updates,
// which touch one counter at a time).
func (d *Device) Stats() Stats {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return Stats{
		BytesRead:    d.bytesRead.Load(),
		BytesWritten: d.bytesWritten.Load(),
		BytesFlushed: d.bytesFlushed.Load(),
		Flushes:      d.flushes.Load(),
		Fences:       d.fences.Load(),
		FencesElided: d.fencesElided.Load(),
		ReadTime:     time.Duration(d.readTime.Load()),
		WriteTime:    time.Duration(d.writeTime.Load()),
	}
}

// ResetStats zeroes the device counters, under the same lock Stats
// takes, so concurrent snapshots see either all-old or all-new values.
func (d *Device) ResetStats() {
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	d.bytesRead.Store(0)
	d.bytesWritten.Store(0)
	d.bytesFlushed.Store(0)
	d.flushes.Store(0)
	d.fences.Store(0)
	d.fencesElided.Store(0)
	d.readTime.Store(0)
	d.writeTime.Store(0)
}

// Wait emulates a device delay of d. Long waits sleep through the bulk of
// the delay (so concurrent emulated operations overlap even on a single
// CPU) and spin the remainder for accuracy; short waits spin.
func Wait(d time.Duration) {
	if d <= 0 {
		return
	}
	start := time.Now()
	if d > 150*time.Microsecond {
		time.Sleep(d - 100*time.Microsecond)
	}
	for time.Since(start) < d {
	}
}
