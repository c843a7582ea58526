package journal

import (
	"testing"
	"unsafe"

	"hinfs/internal/nvmm"
)

// TestTxAllocBudget pins the journal hot path's allocation budget: one
// Begin/LogRange/LogBitmap/Commit cycle heap-allocates at most once —
// the Tx itself, which is deliberately not pooled (deferred commits and
// After chains hold *Tx pointers for unbounded time, so reuse would
// alias a live chain). Retiring a transaction writes nothing and
// allocates nothing, which this test guards against regression.
func TestTxAllocBudget(t *testing.T) {
	dev, err := nvmm.New(nvmm.Config{Size: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const (
		base = 4096
		size = 2 << 20
		addr = 6 << 20 // data range well clear of the journal area
	)
	j, err := New(dev, base, size)
	if err != nil {
		t.Fatal(err)
	}
	dev.WriteNT(make([]byte, 64), addr)

	n := testing.AllocsPerRun(400, func() {
		tx := j.Begin()
		tx.LogRange(addr, 40)
		tx.LogBitmap(addr+64, 0xff)
		tx.Commit()
	})
	if n > 1 {
		t.Fatalf("journal tx cycle allocates %.1f objects/op, want <= 1 (the Tx)", n)
	}
}

// TestTxSizeClass keeps the Tx in the 80-byte size class. The Tx is all an
// eager write allocates, and on a mount whose device image sits on the Go
// heap the collector rarely runs, so its size is resident memory per write
// (sync-small's mem_peak_mib).
func TestTxSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Tx{}); sz > 80 {
		t.Fatalf("journal.Tx is %d bytes, want <= 80", sz)
	}
}
