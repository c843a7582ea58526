package nvmm

import (
	"bytes"

	"hinfs/internal/cacheline"
)

// EventKind classifies a persist event — every point where the emulated
// cache hierarchy interacts with NVMM durability. These are the only
// instants a crash can be scheduled at: between two events the pending
// set does not change (stores only accumulate), so every reachable
// crash state is "the state just before event N, minus an arbitrary
// subset of pending cachelines".
type EventKind uint8

const (
	// EvFlush is a Flush call (clflush loop), observed before any of its
	// cachelines become durable.
	EvFlush EventKind = iota
	// EvWriteNT is a non-temporal store, observed before it persists.
	EvWriteNT
	// EvFence is an ordering fence (mfence).
	EvFence
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EvFlush:
		return "flush"
	case EvWriteNT:
		return "writent"
	case EvFence:
		return "fence"
	}
	return "unknown"
}

// SetCrashPlan installs (or, with nil, removes) an observer of the
// persist-event stream: it is called synchronously on the persisting
// goroutine with the 1-based ordinal and kind of every event, before the
// event's durability effects apply.
func (d *Device) SetCrashPlan(observe func(ev int64, kind EventKind)) {
	if observe == nil {
		d.observer.Store(nil)
		return
	}
	d.observer.Store(&observe)
}

// PersistEvents returns the monotonic persist-event count: one per
// Flush, WriteNT and Fence issued so far.
func (d *Device) PersistEvents() int64 { return d.events.Load() }

// faultPoint advances the persist-event counter, logs the event into an
// active recording and calls the observer. Called before the event's own
// persistence effects are applied. With tracking, the event is numbered
// under pmu, so a recording logs its events in ascending order.
func (d *Device) faultPoint(kind EventKind) {
	var ev int64
	if d.cfg.TrackPersistence {
		d.pmu.Lock()
		ev = d.events.Add(1)
		if d.rec != nil {
			d.rec.mark(ev, kind)
		}
		d.pmu.Unlock()
	} else {
		ev = d.events.Add(1)
	}
	if p := d.observer.Load(); p != nil {
		(*p)(ev, kind)
	}
}

// Recording is the persist history of a tracked device since Record:
// the durable image and pending lines then and, in the order they
// happened, every persist event with the pending lines whose content
// changed since the event before it, and every persist's newly durable
// lines. Walk replays it into the crash state just before each event.
type Recording struct {
	dev     *Device
	durable []byte // the durable image at Record; Walk's working image
	lines   []lineImage
	steps   []recStep
	// last is the content the log last holds for each pending line.
	last map[int64][cacheline.Size]byte
}

type lineImage struct {
	off  int64
	data [cacheline.Size]byte
}

// recStep is one log entry, owning the next n lines: a persist event's
// changed pending lines (ev > 0), the pending lines at Record (ev == 0),
// or the lines a persist made durable, as commitPending copied them
// (ev < 0).
type recStep struct {
	ev   int64
	kind EventKind
	n    int
}

// Record starts logging the device's persist history and returns the
// log. It copies the durable image once, with every pending line and its
// content. Lines stored through a Slice are logged when a persist makes
// them durable, but never join the pending set, as for Crash. It panics
// unless the device was created with TrackPersistence.
func (d *Device) Record() *Recording {
	if !d.cfg.TrackPersistence {
		panic("nvmm: Record requires TrackPersistence")
	}
	d.pmu.Lock()
	defer d.pmu.Unlock()
	r := &Recording{dev: d, durable: bytes.Clone(d.durable), last: make(map[int64][cacheline.Size]byte)}
	r.mark(0, 0)
	d.rec = r
	return r
}

// mark logs event ev: every pending line whose content differs from what
// the log last holds for it. pmu held.
func (r *Recording) mark(ev int64, kind EventKind) {
	n := len(r.lines)
	for off := range r.dev.pending {
		l := lineImage{off: off}
		copy(l.data[:], r.dev.data[off:])
		if prev, ok := r.last[off]; !ok || prev != l.data {
			r.last[off] = l.data
			r.lines = append(r.lines, l)
		}
	}
	r.steps = append(r.steps, recStep{ev: ev, kind: kind, n: len(r.lines) - n})
}

// commit logs the durable lines covering [first, end). pmu held.
func (r *Recording) commit(first, end int64) {
	n := len(r.lines)
	for a := first; a < end; a += cacheline.Size {
		l := lineImage{off: a}
		copy(l.data[:], r.dev.durable[a:])
		r.lines = append(r.lines, l)
		delete(r.last, a)
	}
	r.steps = append(r.steps, recStep{ev: -1, n: len(r.lines) - n})
}

// Walk ends the device's recording and replays it: for each event, in
// ascending order, it rebuilds the crash state just before that event on
// one working image and calls fn with it. The state is valid only during
// the call. Walk consumes the recording; a second Walk sees no events.
func (r *Recording) Walk(fn func(*CrashState)) {
	r.dev.pmu.Lock()
	r.dev.rec = nil
	r.dev.pmu.Unlock()
	s := &CrashState{
		durable: r.durable,
		pending: make(map[int64]*[cacheline.Size]byte),
		nonzero: make([]bool, len(r.durable)/cacheline.BlockSize),
	}
	var zero [cacheline.BlockSize]byte
	for i := range s.nonzero {
		s.nonzero[i] = !bytes.Equal(s.block(i), zero[:])
	}
	lines := r.lines
	for _, st := range r.steps {
		for i := range lines[:st.n] {
			l := &lines[i]
			if st.ev < 0 {
				copy(s.durable[l.off:], l.data[:])
				delete(s.pending, l.off)
				s.nonzero[l.off/cacheline.BlockSize] = true
			} else {
				s.pending[l.off] = &l.data
			}
		}
		lines = lines[st.n:]
		if st.ev > 0 {
			s.event, s.kind = st.ev, st.kind
			fn(s)
		}
	}
	r.durable, r.lines, r.steps = nil, nil, nil
}

// CrashState is the device's durability state just before one persist
// event: the durable image plus the contents of every pending
// (stored-but-unflushed) cacheline. It can materialize any number of
// post-crash device images, one per torn-subset seed.
type CrashState struct {
	event   int64
	kind    EventKind
	durable []byte
	pending map[int64]*[cacheline.Size]byte
	// nonzero marks the blocks of durable that may hold a nonzero byte:
	// the rest need no copy into a fresh, zero-filled device.
	nonzero []bool
}

func (s *CrashState) block(i int) []byte {
	return s.durable[i*cacheline.BlockSize : (i+1)*cacheline.BlockSize]
}

// Event returns the 1-based ordinal of the persist event the state
// precedes.
func (s *CrashState) Event() int64 { return s.event }

// Kind returns the kind of the persist event the state precedes.
func (s *CrashState) Kind() EventKind { return s.kind }

// PendingLines returns the number of cachelines that were stored but not
// yet durable at the crash point — the torn-subset candidates.
func (s *CrashState) PendingLines() int { return len(s.pending) }

// keepLine decides, for one pending cacheline, whether the crash left it
// persisted (true) or dropped (false). Seed 0 is the classic all-drop
// crash; any other seed keeps a pseudo-random ~half of the pending set,
// modelling arbitrary cache eviction order. The choice is a pure
// function of (seed, offset), so a given seed is fully deterministic.
func keepLine(seed uint64, off int64) bool {
	if seed == 0 {
		return false
	}
	x := seed ^ uint64(off)*0x9e3779b97f4a7c15
	// splitmix64 finalizer.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x&1 == 1
}

// Materialize builds a fresh, untracked device holding the post-crash
// image: the durable state plus the pseudo-random subset of pending
// cachelines selected by seed (seed 0 = all dropped). The durable state
// is one copy of its nonzero blocks; the device starts zero-filled.
func (s *CrashState) Materialize(seed uint64) (*Device, error) {
	d, err := New(Config{Size: int64(len(s.durable))})
	if err != nil {
		return nil, err
	}
	for i, nz := range s.nonzero {
		if nz {
			copy(d.data[i*cacheline.BlockSize:], s.block(i))
		}
	}
	for off, data := range s.pending {
		if keepLine(seed, off) {
			copy(d.data[off:], data[:])
		}
	}
	return d, nil
}

// CrashPartial simulates power loss in place, like Crash, but keeps the
// pseudo-random subset of pending cachelines selected by seed (seed 0
// drops all pending lines, equivalent to Crash). Kept lines become part
// of the durable image — exactly as if the cache had evicted them just
// before the power failed. It panics unless the device was created with
// TrackPersistence.
func (d *Device) CrashPartial(seed uint64) {
	if !d.cfg.TrackPersistence {
		panic("nvmm: CrashPartial requires TrackPersistence")
	}
	d.pmu.Lock()
	for off := range d.pending {
		if keepLine(seed, off) {
			copy(d.durable[off:off+cacheline.Size], d.data[off:])
		}
	}
	copy(d.data, d.durable)
	d.pending = make(map[int64]struct{})
	d.pmu.Unlock()
}
