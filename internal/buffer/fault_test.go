package buffer

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"hinfs/internal/clock"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
)

var errInjected = errors.New("injected writeback fault")

// faultPool builds a single-shard, foreground-only pool whose writeback
// write path consults fail: while fail holds a positive value, each
// attempted device write decrements it and fails.
func faultPool(t testing.TB, blocks int, fail *atomic.Int64, col *obs.Collector) (*Pool, *nvmm.Device) {
	t.Helper()
	dev, err := nvmm.New(nvmm.Config{Size: 16 << 20})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(dev, clock.Real{}, Config{
		Blocks: blocks, Shards: 1, WritebackThreads: -1, CLFW: true,
		FaultBackoff: time.Microsecond, Obs: col,
		WriteFault: func(addr int64, n int) error {
			for {
				v := fail.Load()
				if v <= 0 {
					return nil
				}
				if fail.CompareAndSwap(v, v-1) {
					return errInjected
				}
			}
		},
	})
	t.Cleanup(p.Close)
	return p, dev
}

func TestWritebackTransientFaultRetried(t *testing.T) {
	var fail atomic.Int64
	col := obs.New()
	p, dev := faultPool(t, 8, &fail, col)
	fb := p.NewFile()
	const addr = 1 << 20
	data := []byte("retry me")
	fb.Write(0, 0, data, addr, false)

	fail.Store(2) // first two attempts fail, the third succeeds
	n, err := fb.Flush()
	if err != nil {
		t.Fatalf("Flush after transient fault: %v", err)
	}
	if n == 0 {
		t.Fatal("Flush reported zero lines")
	}
	got := make([]byte, len(data))
	dev.Read(got, addr)
	if !bytes.Equal(got, data) {
		t.Fatalf("NVMM holds %q, want %q", got, data)
	}
	st := p.Stats()
	if st.WritebackFaults != 2 || st.WritebackRetries != 2 || st.WritebackGiveUps != 0 {
		t.Fatalf("stats faults=%d retries=%d giveups=%d, want 2/2/0",
			st.WritebackFaults, st.WritebackRetries, st.WritebackGiveUps)
	}
	if got := col.Counter(obs.CtrWritebackFaults); got != 2 {
		t.Fatalf("obs writeback-faults = %d, want 2", got)
	}
	if got := col.Counter(obs.CtrWritebackRetries); got != 2 {
		t.Fatalf("obs writeback-retries = %d, want 2", got)
	}
}

func TestWritebackPermanentFaultKeepsDirtyData(t *testing.T) {
	var fail atomic.Int64
	p, dev := faultPool(t, 8, &fail, nil)
	fb := p.NewFile()
	const addr = 1 << 20
	data := []byte("must not be lost")
	fb.Write(0, 0, data, addr, false)

	fail.Store(1 << 30) // every attempt fails
	if _, err := fb.Flush(); !errors.Is(err, errInjected) {
		t.Fatalf("Flush error = %v, want injected fault", err)
	}
	st := p.Stats()
	if st.WritebackGiveUps == 0 {
		t.Fatal("no give-up recorded")
	}
	if p.DirtyBlocks() != 1 {
		t.Fatalf("dirty blocks = %d, want 1 (data retained)", p.DirtyBlocks())
	}
	if !fb.dirty.has(0) {
		t.Fatal("failed Flush dropped its block from the dirty set; a retry would skip it")
	}
	// FlushAll fails the same way but must not panic or discard the block.
	if _, err := p.FlushAll(); !errors.Is(err, errInjected) {
		t.Fatalf("FlushAll error = %v, want injected fault", err)
	}
	// The fault clears; the retained dirty data reaches NVMM.
	fail.Store(0)
	if _, err := fb.Flush(); err != nil {
		t.Fatalf("Flush after fault cleared: %v", err)
	}
	if n := fb.dirty.len(); n != 0 {
		t.Fatalf("%d dirty-set members after a successful Flush", n)
	}
	got := make([]byte, len(data))
	dev.Read(got, addr)
	if !bytes.Equal(got, data) {
		t.Fatalf("NVMM holds %q, want %q", got, data)
	}
}

func TestEvictBlockFaultLeavesBlockBuffered(t *testing.T) {
	var fail atomic.Int64
	p, _ := faultPool(t, 8, &fail, nil)
	fb := p.NewFile()
	const addr = 1 << 20
	fb.Write(0, 0, []byte("eager"), addr, false)

	fail.Store(1 << 30)
	if err := fb.EvictBlock(0); !errors.Is(err, errInjected) {
		t.Fatalf("EvictBlock error = %v, want injected fault", err)
	}
	if !fb.Buffered(0) {
		t.Fatal("failed eviction detached the block")
	}
	if fb.DirtyLines(0) == 0 {
		t.Fatal("failed eviction dropped dirty lines")
	}
	fail.Store(0)
	if err := fb.EvictBlock(0); err != nil {
		t.Fatalf("EvictBlock after fault cleared: %v", err)
	}
	if fb.Buffered(0) {
		t.Fatal("block still buffered after successful eviction")
	}
}

// TestInlineEvictionFaultDoesNotLoseBlocks fills a pool whose writeback
// permanently fails, forcing the foreground allocation path through its
// inline-eviction fallback. Allocation must neither panic nor discard a
// dirty block; once the fault clears, every block's data reaches NVMM.
func TestInlineEvictionFaultDoesNotLoseBlocks(t *testing.T) {
	var fail atomic.Int64
	p, dev := faultPool(t, 4, &fail, nil)
	fb := p.NewFile()
	base := int64(1 << 20)

	fail.Store(1 << 30)
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Writes 4..6 need eviction of 0..2; with writeback failing the
		// allocator stalls until the fault clears (quarantine expires).
		for i := int64(0); i < 7; i++ {
			fb.Write(i, 0, []byte{byte('a' + i)}, base+i*BlockSize, false)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	fail.Store(0)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("allocation did not recover after fault cleared")
	}
	if p.Stats().WritebackGiveUps == 0 {
		t.Fatal("inline eviction never recorded a give-up")
	}
	if _, err := fb.Flush(); err != nil {
		t.Fatalf("final flush: %v", err)
	}
	var b [1]byte
	for i := int64(0); i < 7; i++ {
		if ok := fb.ReadMerge(i, 0, b[:], base+i*BlockSize); !ok {
			dev.Read(b[:], base+i*BlockSize)
		}
		if b[0] != byte('a'+i) {
			t.Fatalf("block %d holds %q, want %q", i, b[0], byte('a'+i))
		}
	}
}
