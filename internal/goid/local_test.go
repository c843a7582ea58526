package goid

import (
	"sync"
	"testing"
)

func TestLocalSetGetClear(t *testing.T) {
	var l Local[int]
	if l.Get() != nil {
		t.Fatal("nothing bound, Get must be nil")
	}
	v := 42
	s := l.Set(&v)
	if s == 0 {
		t.Fatal("Set on an empty table found no slot")
	}
	if got := l.Get(); got != &v {
		t.Fatalf("Get = %p, want %p", got, &v)
	}

	// A different goroutine must not see this goroutine's binding.
	done := make(chan *int)
	go func() { done <- l.Get() }()
	if other := <-done; other != nil {
		t.Fatalf("sibling goroutine sees %p", other)
	}

	l.Clear(s)
	if l.Get() != nil {
		t.Fatal("Get after Clear must be nil")
	}
	if l.active.Load() != 0 {
		t.Fatalf("active = %d after Clear, want 0 (fast path lost)", l.active.Load())
	}
	l.Clear(0) // the zero Slot is a no-op
}

func TestLocalReplaceSameGoroutine(t *testing.T) {
	var l Local[int]
	a, b := 1, 2
	sa := l.Set(&a)
	sb := l.Set(&b) // nested Set on the same goroutine replaces
	if sa != sb {
		t.Fatalf("replace moved slots: %d then %d", sa, sb)
	}
	if got := l.Get(); got != &b {
		t.Fatalf("Get = %v, want the replacement", got)
	}
	l.Clear(sb)
	if l.Get() != nil {
		t.Fatal("Clear after replace must empty the slot")
	}
}

// TestLocalConcurrent exercises the table under -race: many goroutines
// bind, look up and clear in loops, each verifying it only ever sees
// its own value.
func TestLocalConcurrent(t *testing.T) {
	const goroutines = 64
	const rounds = 200
	var l Local[int]
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				v := g<<16 | r
				s := l.Set(&v)
				switch cur := l.Get(); {
				case cur == nil:
					// Probe-window overflow is a documented graceful
					// degradation, but with 64 goroutines in 1024 slots
					// it should be vanishingly rare.
					errs <- "lost binding to probe overflow"
				case cur != &v:
					errs <- "saw another goroutine's binding"
				}
				l.Clear(s)
				if l.Get() != nil {
					errs <- "binding visible after Clear"
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestLocalCollisionOverflow fills one probe window with keys that hash
// to the same slot: the window's worth of bindings all resolve, the next
// one is refused (zero Slot, Get nil) and is admitted once a slot frees.
func TestLocalCollisionOverflow(t *testing.T) {
	var l Local[int]
	// Keys differing by a multiple of localSlots share their low hash
	// bits, hence their home slot.
	key := func(i int) int64 { return 7 + int64(i)*localSlots }
	vals := make([]int, localMaxProbe+1)
	slots := make([]Slot, localMaxProbe)
	for i := 0; i < localMaxProbe; i++ {
		if slots[i] = l.set(key(i), &vals[i]); slots[i] == 0 {
			t.Fatalf("key %d refused with the window not yet full", i)
		}
	}
	for i := 0; i < localMaxProbe; i++ {
		if got := l.get(key(i)); got != &vals[i] {
			t.Fatalf("key %d resolves to %p, want %p", i, got, &vals[i])
		}
	}
	over := key(localMaxProbe)
	if s := l.set(over, &vals[localMaxProbe]); s != 0 {
		t.Fatalf("overflow key took slot %d in a full window", s)
	}
	if l.get(over) != nil {
		t.Fatal("refused key must not resolve")
	}
	l.Clear(slots[3])
	if s := l.set(over, &vals[localMaxProbe]); s != slots[3] {
		t.Fatalf("overflow key took slot %d, want the freed %d", s, slots[3])
	}
}

func TestLocalZeroAllocs(t *testing.T) {
	if !Fast() {
		t.Skip("slow ID path pools its buffer but is not guaranteed alloc-free")
	}
	var l Local[int]
	v := 1
	if n := testing.AllocsPerRun(1000, func() {
		s := l.Set(&v)
		l.Get()
		l.Clear(s)
	}); n != 0 {
		t.Fatalf("Set/Get/Clear allocates %.1f per round", n)
	}
}
