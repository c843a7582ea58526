package goid

import "sync/atomic"

// Local is goroutine-local storage for one *T per goroutine: a
// fixed-size open-addressed table keyed by goroutine ID, with no
// allocation on any path. It exists because deep layers (pmfs directory
// locks, journal lanes, buffer stalls, nvmm persists and fences) sit
// behind interfaces that must not grow context parameters, so the
// executing goroutine carries the per-request state instead: obs keeps
// the attached OpCtx in one, and everything else per-request (nvmm's
// fence scope included) rides on that OpCtx.
//
// A count of live bindings makes Get a single atomic load while nothing
// is bound anywhere — workloads that never attach pay ~nothing. The zero
// value is ready to use; a Local must not be copied.
type Local[T any] struct {
	active atomic.Int64
	tab    [localSlots]localEntry[T]
}

const (
	localSlots    = 1024 // power of two
	localMaxProbe = 16
)

type localEntry[T any] struct {
	gid atomic.Int64
	val atomic.Pointer[T]
	_   [6]uint64 // pad to a cacheline to keep neighbors independent
}

// Slot names the table entry a Set claimed, so Clear is two stores
// instead of a second probe. The zero Slot means "not bound".
type Slot int32

func localHash(gid int64) uint64 { return uint64(gid) * 0x9e3779b97f4a7c15 }

// Set binds v to the calling goroutine, replacing the goroutine's
// earlier binding if it has one (nested use). It returns the zero Slot
// when the probe window is full — a pathological collision; the caller
// runs unbound and loses only what the binding would have bought.
func (l *Local[T]) Set(v *T) Slot { return l.set(ID(), v) }

// set and get take the key explicitly so tests can force collisions.
func (l *Local[T]) set(gid int64, v *T) Slot {
	h := localHash(gid)
	for i := uint64(0); i < localMaxProbe; i++ {
		idx := (h + i) % localSlots
		e := &l.tab[idx]
		if e.gid.CompareAndSwap(0, gid) {
			e.val.Store(v)
			l.active.Add(1)
			return Slot(idx + 1)
		}
		if e.gid.Load() == gid {
			e.val.Store(v)
			return Slot(idx + 1)
		}
	}
	return 0
}

// Clear removes the binding made by the Set that returned s. Clearing
// the zero Slot is a no-op.
func (l *Local[T]) Clear(s Slot) {
	if s == 0 {
		return
	}
	e := &l.tab[s-1]
	e.val.Store(nil)
	e.gid.Store(0)
	l.active.Add(-1)
}

// Get returns the calling goroutine's binding, or nil.
func (l *Local[T]) Get() *T {
	if l.active.Load() == 0 {
		return nil
	}
	return l.get(ID())
}

func (l *Local[T]) get(gid int64) *T {
	h := localHash(gid)
	for i := uint64(0); i < localMaxProbe; i++ {
		e := &l.tab[(h+i)%localSlots]
		if e.gid.Load() == gid {
			return e.val.Load()
		}
	}
	return nil
}
