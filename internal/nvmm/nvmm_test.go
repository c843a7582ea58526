package nvmm

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"

	"hinfs/internal/cacheline"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Size: 0}); err == nil {
		t.Fatal("size 0 accepted")
	}
	if _, err := New(Config{Size: 4097}); err == nil {
		t.Fatal("unaligned size accepted")
	}
	d, err := New(Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != 1<<20 {
		t.Fatalf("size = %d", d.Size())
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := MustNew(Config{Size: 1 << 20})
	data := []byte("hello, persistent world")
	d.Write(data, 4096)
	got := make([]byte, len(data))
	d.Read(got, 4096)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := MustNew(Config{Size: 1 << 20})
	d.Write(make([]byte, 128), 0)
	d.Flush(0, 128)
	d.Read(make([]byte, 64), 0)
	d.Fence()
	s := d.Stats()
	if s.BytesWritten != 128 || s.BytesRead != 64 {
		t.Fatalf("rw bytes: %+v", s)
	}
	if s.BytesFlushed != 128 {
		t.Fatalf("flushed %d, want 128", s.BytesFlushed)
	}
	if s.Flushes != 1 || s.Fences != 1 {
		t.Fatalf("ops: %+v", s)
	}
	d.ResetStats()
	if s := d.Stats(); s.BytesWritten != 0 || s.Flushes != 0 {
		t.Fatalf("reset failed: %+v", s)
	}
}

func TestFlushChargesPerCacheline(t *testing.T) {
	d := MustNew(Config{Size: 1 << 20, WriteLatency: 200 * time.Nanosecond})
	// Flushing one byte spanning a line boundary charges two lines.
	d.Write([]byte{1, 2}, 63)
	d.Flush(63, 2)
	if got := d.Stats().BytesFlushed; got != 2*cacheline.Size {
		t.Fatalf("flushed %d bytes, want %d", got, 2*cacheline.Size)
	}
}

func TestWriteLatencyIsCharged(t *testing.T) {
	lat := 2 * time.Microsecond
	d := MustNew(Config{Size: 1 << 20, WriteLatency: lat})
	const lines = 64
	start := time.Now()
	d.WriteNT(make([]byte, lines*cacheline.Size), 0)
	elapsed := time.Since(start)
	if elapsed < lines*lat {
		t.Fatalf("WriteNT of %d lines took %v, want >= %v", lines, elapsed, lines*lat)
	}
	if wt := d.Stats().WriteTime; wt < lines*lat {
		t.Fatalf("WriteTime %v < %v", wt, lines*lat)
	}
}

func TestReadLatencyIsCharged(t *testing.T) {
	lat := 2 * time.Microsecond
	d := MustNew(Config{Size: 1 << 20, ReadLatency: lat})
	start := time.Now()
	d.Read(make([]byte, 16*cacheline.Size), 0)
	if elapsed := time.Since(start); elapsed < 16*lat {
		t.Fatalf("read took %v, want >= %v", elapsed, 16*lat)
	}
}

func TestBandwidthWriterSlots(t *testing.T) {
	cfg := Config{Size: 1 << 20, WriteLatency: 200 * time.Nanosecond, WriteBandwidth: 1 << 30}
	d := MustNew(cfg)
	// 1 GB/s at 200 ns/line and 64 B lines → 1e9*200e-9/64 = 3 slots.
	if got := d.WriterSlots(); got != 3 {
		t.Fatalf("WriterSlots = %d, want 3", got)
	}
	d2 := MustNew(Config{Size: 1 << 20})
	if d2.WriterSlots() != 0 {
		t.Fatal("unlimited device has slots")
	}
}

func TestBandwidthCapsThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// 8 concurrent writers on a 1-slot device must serialize.
	lat := 10 * time.Microsecond
	d := MustNew(Config{Size: 1 << 20, WriteLatency: lat, WriteBandwidth: cacheline.Size * int64(time.Second/lat)})
	if d.WriterSlots() != 1 {
		t.Fatalf("slots = %d", d.WriterSlots())
	}
	const writers = 8
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.WriteNT(make([]byte, cacheline.Size), int64(i)*4096)
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < writers*lat {
		t.Fatalf("8 writers on 1 slot took %v, want >= %v", elapsed, writers*lat)
	}
}

func TestPersistenceTrackingCrash(t *testing.T) {
	d := MustNew(Config{Size: 1 << 20, TrackPersistence: true})
	d.Write([]byte("durable!"), 0)
	d.Flush(0, 8)
	d.Write([]byte("volatile"), 4096)
	if d.PendingLines() == 0 {
		t.Fatal("no pending lines after unflushed write")
	}
	d.Crash()
	got := make([]byte, 8)
	d.Read(got, 0)
	if string(got) != "durable!" {
		t.Fatalf("flushed data lost: %q", got)
	}
	d.Read(got, 4096)
	if !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("unflushed data survived crash: %q", got)
	}
	if d.PendingLines() != 0 {
		t.Fatal("pending lines survive crash")
	}
}

func TestWriteNTIsImmediatelyDurable(t *testing.T) {
	d := MustNew(Config{Size: 1 << 20, TrackPersistence: true})
	d.WriteNT([]byte("nocache"), 128)
	d.Crash()
	got := make([]byte, 7)
	d.Read(got, 128)
	if string(got) != "nocache" {
		t.Fatalf("WriteNT not durable: %q", got)
	}
}

func TestSliceAliasesDeviceMemory(t *testing.T) {
	d := MustNew(Config{Size: 1 << 20})
	s := d.Slice(8192, 16)
	copy(s, "mapped")
	got := make([]byte, 6)
	d.Read(got, 8192)
	if string(got) != "mapped" {
		t.Fatalf("slice not aliased: %q", got)
	}
	runtime.KeepAlive(d) // s aliases d's image, which dies with d
}

func TestOutOfBoundsPanics(t *testing.T) {
	d := MustNew(Config{Size: 4096})
	for _, f := range []func(){
		func() { d.Read(make([]byte, 8), 4090) },
		func() { d.Write(make([]byte, 8), -1) },
		func() { d.Flush(0, 5000) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on out-of-bounds access")
				}
			}()
			f()
		}()
	}
}

func TestDefaultConfigMatchesPaperTable2(t *testing.T) {
	c := DefaultConfig(1 << 20)
	if c.WriteLatency != 200*time.Nanosecond {
		t.Fatalf("latency %v", c.WriteLatency)
	}
	if c.WriteBandwidth != 1<<30 {
		t.Fatalf("bandwidth %d", c.WriteBandwidth)
	}
}

func TestImageSaveLoadRoundTrip(t *testing.T) {
	d := MustNew(Config{Size: 1 << 20})
	d.WriteNT([]byte("persistent across processes"), 8192)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Size() != 1<<20 {
		t.Fatalf("size %d", d2.Size())
	}
	got := make([]byte, 27)
	d2.Read(got, 8192)
	if string(got) != "persistent across processes" {
		t.Fatalf("got %q", got)
	}
}

func TestImageLoadValidation(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage....")), Config{}); err == nil {
		t.Fatal("garbage accepted")
	}
	d := MustNew(Config{Size: 1 << 20})
	var buf bytes.Buffer
	d.Save(&buf)
	if _, err := Load(&buf, Config{Size: 2 << 20}); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestImageLoadWithPersistenceTracking(t *testing.T) {
	d := MustNew(Config{Size: 1 << 20})
	d.WriteNT([]byte("durable"), 0)
	var buf bytes.Buffer
	d.Save(&buf)
	d2, err := Load(&buf, Config{TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	// The loaded image is the durable baseline: a crash keeps it.
	d2.Crash()
	got := make([]byte, 7)
	d2.Read(got, 0)
	if string(got) != "durable" {
		t.Fatal("loaded image not treated as durable")
	}
}

// TestStatsResetNotTorn checks the satellite fix: a Stats snapshot
// racing ResetStats must see either the full pre-reset counters or the
// full post-reset zeros, never a mix. The device is quiesced, so any
// partially-zero snapshot is a torn read.
func TestStatsResetNotTorn(t *testing.T) {
	d := MustNew(Config{Size: 1 << 20})
	for iter := 0; iter < 200; iter++ {
		// Populate every counter with known values, then quiesce.
		d.Write(make([]byte, 128), 0)
		d.Flush(0, 128)
		d.Read(make([]byte, 64), 0)
		d.Fence()
		want := d.Stats()
		if want.BytesWritten == 0 || want.BytesRead == 0 || want.Fences == 0 {
			t.Fatalf("setup did not populate counters: %+v", want)
		}

		var (
			start = make(chan struct{})
			got   Stats
			wg    sync.WaitGroup
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			got = d.Stats()
		}()
		go func() {
			defer wg.Done()
			<-start
			d.ResetStats()
		}()
		close(start)
		wg.Wait()

		zero := Stats{}
		if got != want && got != zero {
			t.Fatalf("iter %d: torn snapshot %+v (want %+v or zero)", iter, got, want)
		}
		d.ResetStats()
	}
}

// TestStatsConcurrentWithWritersRace exercises Stats/ResetStats under
// live traffic for the race detector.
func TestStatsConcurrentWithWritersRace(t *testing.T) {
	d := MustNew(Config{Size: 1 << 20})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(off int64) {
			defer wg.Done()
			buf := make([]byte, 64)
			for {
				select {
				case <-stop:
					return
				default:
					d.Write(buf, off)
					d.Flush(off, 64)
					d.Read(buf, off)
				}
			}
		}(int64(w) * 4096)
	}
	for i := 0; i < 500; i++ {
		d.Stats()
		if i%10 == 0 {
			d.ResetStats()
		}
	}
	close(stop)
	wg.Wait()
}

// TestCrashSnapshotConcurrentWithStoresRace records while two goroutines
// keep storing to the lines being logged, as the traffic explorer records a
// live server. With persistence tracking a store and its pending-mark are
// one critical section, so under the race detector no event's log reads a
// line mid-store; the walk then yields every event in order.
func TestCrashSnapshotConcurrentWithStoresRace(t *testing.T) {
	d := MustNew(Config{Size: 64 << 10, TrackPersistence: true})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(off int64) {
			defer wg.Done()
			buf := make([]byte, 256)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					buf[0] = byte(i)
					d.Write(buf, off)
					d.WriteNTPosted(buf[:64], off+256)
				}
			}
		}(int64(w) * 4096)
	}
	rec := d.Record()
	for i := 0; i < 200; i++ {
		d.Flush(8192, 64)
	}
	close(stop)
	wg.Wait()
	var prev, n int64
	rec.Walk(func(s *CrashState) {
		if prev != 0 && s.Event() != prev+1 {
			t.Fatalf("walked event %d after %d", s.Event(), prev)
		}
		prev = s.Event()
		if n++; n%50 == 0 {
			if _, err := s.Materialize(uint64(n)); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n < 200 {
		t.Fatalf("walked %d events, want at least the 200 flushes", n)
	}
}
