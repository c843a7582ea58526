package nvmm

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"hinfs/internal/cacheline"
)

func trackedDev(t *testing.T) *Device {
	t.Helper()
	d, err := New(Config{Size: 1 << 20, TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPersistEventCounter(t *testing.T) {
	d := trackedDev(t)
	buf := make([]byte, 128)
	d.Write(buf, 0)
	if got := d.PersistEvents(); got != 0 {
		t.Fatalf("plain Write counted as persist event: %d", got)
	}
	d.Flush(0, 128)
	d.Fence()
	d.WriteNT(buf, 4096)
	if got := d.PersistEvents(); got != 3 {
		t.Fatalf("PersistEvents = %d, want 3 (flush+fence+writent)", got)
	}
}

func TestCrashPlanSnapshotPrePersist(t *testing.T) {
	d := trackedDev(t)
	pattern := bytes.Repeat([]byte{0xab}, cacheline.Size)
	d.Write(pattern, 0)
	// The recording starts with the line pending; the state just before
	// the Flush that makes it durable must still hold it pending.
	rec := d.Record()
	d.Flush(0, cacheline.Size)
	// The device itself carried on: the flush completed.
	if d.PendingLines() != 0 {
		t.Fatalf("device still has %d pending lines after flush", d.PendingLines())
	}
	n := 0
	rec.Walk(func(s *CrashState) {
		n++
		if s.Kind() != EvFlush || s.Event() != 1 {
			t.Fatalf("state at event %d (%s), want event 1 flush", s.Event(), s.Kind())
		}
		if s.PendingLines() != 1 {
			t.Fatalf("PendingLines = %d, want 1 (state taken pre-persist)", s.PendingLines())
		}
		// Seed 0 drops the pending line; a materialized image must not
		// contain the pattern.
		img, err := s.Materialize(0)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, cacheline.Size)
		img.Read(got, 0)
		if bytes.Equal(got, pattern) {
			t.Fatal("seed 0 materialization kept a pending line")
		}
	})
	if n != 1 {
		t.Fatalf("walked %d states, want 1", n)
	}
}

func TestMaterializeDeterministicSubset(t *testing.T) {
	d := trackedDev(t)
	// Dirty 64 distinct cachelines, none flushed.
	line := bytes.Repeat([]byte{0x5a}, cacheline.Size)
	for i := 0; i < 64; i++ {
		d.Write(line, int64(i)*cacheline.Size)
	}
	rec := d.Record()
	d.Fence()
	kept := func(img *Device) []int {
		var ks []int
		got := make([]byte, cacheline.Size)
		for i := 0; i < 64; i++ {
			img.Read(got, int64(i)*cacheline.Size)
			if bytes.Equal(got, line) {
				ks = append(ks, i)
			}
		}
		return ks
	}
	var k1, k2, kb []int
	rec.Walk(func(s *CrashState) {
		if s.PendingLines() != 64 {
			t.Fatalf("state has %d pending lines, want 64", s.PendingLines())
		}
		for _, c := range []struct {
			seed uint64
			ks   *[]int
		}{{42, &k1}, {42, &k2}, {43, &kb}} {
			img, err := s.Materialize(c.seed)
			if err != nil {
				t.Fatal(err)
			}
			*c.ks = kept(img)
		}
	})
	if len(k1) == 0 || len(k1) == 64 {
		t.Fatalf("seed 42 kept %d/64 lines, want a proper subset", len(k1))
	}
	if !equalInts(k1, k2) {
		t.Fatalf("same seed, different subsets: %v vs %v", k1, k2)
	}
	if equalInts(k1, kb) {
		t.Fatalf("different seeds produced identical subsets")
	}
}

func TestCrashPartialInPlace(t *testing.T) {
	d := trackedDev(t)
	line := bytes.Repeat([]byte{0x77}, cacheline.Size)
	for i := 0; i < 32; i++ {
		d.Write(line, int64(i)*cacheline.Size)
	}
	d.CrashPartial(7)
	if d.PendingLines() != 0 {
		t.Fatalf("pending after CrashPartial: %d", d.PendingLines())
	}
	keptN := 0
	got := make([]byte, cacheline.Size)
	for i := 0; i < 32; i++ {
		d.Read(got, int64(i)*cacheline.Size)
		if bytes.Equal(got, line) {
			keptN++
		}
	}
	if keptN == 0 || keptN == 32 {
		t.Fatalf("CrashPartial kept %d/32 lines, want a proper subset", keptN)
	}
	// Seed 0 behaves like Crash: drop everything.
	d2 := trackedDev(t)
	d2.Write(line, 0)
	d2.CrashPartial(0)
	d2.Read(got, 0)
	if bytes.Equal(got, line) {
		t.Fatal("CrashPartial(0) kept a pending line")
	}
}

// TestCrashPlanRearmsAfterTake walks every event a recording logged, in
// order, each state holding exactly the lines pending before its event,
// and logs nothing once the walk has ended the recording.
func TestCrashPlanRearmsAfterTake(t *testing.T) {
	d := trackedDev(t)
	rec := d.Record()
	d.Write([]byte{1}, 0)
	d.Flush(0, 1) // event 1: line 0 pending
	d.Fence()     // event 2: nothing pending
	d.Write([]byte{2}, 64)
	d.Fence()                 // event 3: line 64 pending
	d.WriteNT([]byte{3}, 128) // event 4: lines 64 and 128 pending
	type walked struct {
		ev      int64
		kind    EventKind
		pending int
	}
	var got []walked
	rec.Walk(func(s *CrashState) {
		got = append(got, walked{s.Event(), s.Kind(), s.PendingLines()})
	})
	want := []walked{{1, EvFlush, 1}, {2, EvFence, 0}, {3, EvFence, 1}, {4, EvWriteNT, 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("walked %v, want %v", got, want)
	}
	if d.rec != nil {
		t.Fatal("the walk left the recording attached")
	}
}

// TestRecordingMatchesCrashPartial checks the walk against the in-place
// crash it replaces: for a seeded mix of cached, Slice and non-temporal
// stores, flushes and fences, begun with lines already pending, the image
// each state materializes must equal the same prefix replayed on a fresh
// device, stopped before the event and crashed with CrashPartial.
func TestRecordingMatchesCrashPartial(t *testing.T) {
	const size, span = 64 << 10, 16 << 10 // every op lands in 4 blocks
	type op struct {
		kind   int // 0 Write, 1 Slice store, 2 Flush, 3 WriteNT, 4 WriteNTPosted, 5 Fence
		off, n int64
		fill   byte
	}
	rng := rand.New(rand.NewSource(3))
	ops := make([]op, 400)
	for i := range ops {
		o := op{kind: rng.Intn(6), off: rng.Int63n(span - 200), n: 1 + rng.Int63n(200), fill: byte(i)}
		if i < 40 {
			o.kind = i % 3 // the pre-recording prefix: stores, Slice stores, flushes
		}
		ops[i] = o
	}
	apply := func(d *Device, o op) {
		buf := bytes.Repeat([]byte{o.fill}, int(o.n))
		switch o.kind {
		case 0:
			d.Write(buf, o.off)
		case 1:
			copy(d.Slice(o.off, int(o.n)), buf)
		case 2:
			d.Flush(o.off, int(o.n))
		case 3:
			d.WriteNT(buf, o.off)
		case 4:
			d.WriteNTPosted(buf, o.off)
		case 5:
			d.Fence()
		}
	}
	// reference replays the ops on a fresh device until the next one
	// would fire event ev — a non-temporal store's event fires after its
	// store, so that much of it runs — then crashes it in place.
	reference := func(ev int64, seed uint64) []byte {
		d := MustNew(Config{Size: size, TrackPersistence: true})
		for _, o := range ops {
			if o.kind >= 2 && d.PersistEvents() == ev-1 {
				if o.kind == 3 || o.kind == 4 {
					apply(d, op{kind: 0, off: o.off, n: o.n, fill: o.fill})
				}
				break
			}
			apply(d, o)
		}
		d.CrashPartial(seed)
		img := make([]byte, size)
		d.Read(img, 0)
		return img
	}
	d := MustNew(Config{Size: size, TrackPersistence: true})
	for _, o := range ops[:40] {
		apply(d, o)
	}
	if d.PendingLines() == 0 {
		t.Fatal("no line pending when the recording starts")
	}
	first := d.PersistEvents() + 1
	rec := d.Record()
	for _, o := range ops[40:] {
		apply(d, o)
	}
	next := first
	rec.Walk(func(s *CrashState) {
		if s.Event() != next {
			t.Fatalf("walked event %d, want %d", s.Event(), next)
		}
		next++
		for _, seed := range []uint64{0, 0x9E3779B97F4A7C15, 7} {
			img, err := s.Materialize(seed)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, size)
			img.Read(got, 0)
			if want := reference(s.Event(), seed); !bytes.Equal(got, want) {
				t.Fatalf("event %d (%s) seed %#x: the materialized image differs from CrashPartial's", s.Event(), s.Kind(), seed)
			}
		}
	})
	if next != d.PersistEvents()+1 {
		t.Fatalf("walked events [%d, %d), the device fired %d", first, next, d.PersistEvents())
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
