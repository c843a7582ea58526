package goid

import (
	"runtime"
	"sync"
	"testing"
)

// TestIDMatchesStackParse pins the fast path to ground truth: on many
// concurrent goroutines, the two-load ID must equal the ID parsed from
// that goroutine's own runtime.Stack header. On amd64, race builds
// included, the fast path must be the one under test.
func TestIDMatchesStackParse(t *testing.T) {
	if !Fast() {
		if runtime.GOARCH == "amd64" {
			t.Fatal("fast path unavailable on amd64: init found no goid offset")
		}
		t.Log("fast path unavailable; ID uses the stack parse (still correct)")
	}
	var wg sync.WaitGroup
	errs := make(chan int64, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if got, want := ID(), parseID(); got != want {
					errs <- got
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for id := range errs {
		t.Fatalf("ID() = %d disagrees with the runtime.Stack parse", id)
	}
}

// TestIDStableWithinGoroutine: the ID must not change across calls on
// one goroutine (stack growth and thread migration included).
func TestIDStableWithinGoroutine(t *testing.T) {
	first := ID()
	var grow func(n int) int
	grow = func(n int) int {
		var pad [256]byte
		if n == 0 {
			return int(pad[0])
		}
		return grow(n-1) + int(pad[n%256])
	}
	grow(200) // force stack copies
	if got := ID(); got != first {
		t.Fatalf("ID changed across stack growth: %d then %d", first, got)
	}
}

// TestIDZeroAllocs: the fast path must not allocate — it feeds
// per-persist device lookups.
func TestIDZeroAllocs(t *testing.T) {
	if !Fast() {
		t.Skip("slow path pools its buffer but is not guaranteed alloc-free under contention")
	}
	if n := testing.AllocsPerRun(1000, func() { ID() }); n != 0 {
		t.Fatalf("ID allocates %.1f per call", n)
	}
}

func BenchmarkID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ID()
	}
}

func BenchmarkParseID(b *testing.B) {
	for i := 0; i < b.N; i++ {
		parseID()
	}
}
