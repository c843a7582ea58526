package pmfs

import (
	"testing"
)

// TestAllocHintRewind is the regression test for the only-advancing hint:
// after blocks at the low end of a shard are freed, the next allocation
// must find them again cheaply. With the rewind, the scan restarts at the
// freed range and touches a handful of bitmap words; without it, the hint
// stays past the high-water mark and the scan walks the rest of the shard
// before wrapping.
func TestAllocHintRewind(t *testing.T) {
	dev := testDev(t, 64<<20)
	fs, err := Mkfs(dev, Options{MaxInodes: 1024, AllocShards: 1})
	if err != nil {
		t.Fatal(err)
	}

	tx := fs.jnl.Begin()
	blocks, err := fs.alloc.alloc(tx, 256, nil)
	if err != nil {
		t.Fatal(err, nil)
	}
	// Free the first word's worth of blocks, then reallocate as many.
	freed := append([]int64(nil), blocks[:64]...)
	fs.alloc.release(tx, freed)

	before := fs.alloc.stats().WordsScanned
	got, err := fs.alloc.alloc(tx, 64, nil)
	if err != nil {
		t.Fatal(err, nil)
	}
	scanned := fs.alloc.stats().WordsScanned - before
	tx.Commit()

	want := make(map[int64]bool, len(freed))
	for _, bn := range freed {
		want[bn] = true
	}
	for _, bn := range got {
		if !want[bn] {
			t.Fatalf("reallocation returned block %d outside the freed range %v", bn, freed)
		}
	}
	// The freed range spans at most three bitmap words (64 blocks, possibly
	// unaligned). Without the rewind the scan walks from the high-water mark
	// to the end of the shard first — hundreds of words on this device.
	if scanned > 4 {
		t.Fatalf("reallocation scanned %d bitmap words, want <= 4 (hint not rewound)", scanned)
	}
}

// TestAllocShardSteal: an allocation larger than the home shard's free
// space must transparently take blocks from other shards and count the
// steal, still all-or-nothing.
func TestAllocShardSteal(t *testing.T) {
	dev := testDev(t, 64<<20)
	fs, err := Mkfs(dev, Options{MaxInodes: 1024, AllocShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.AllocStats().Shards; got != 4 {
		t.Fatalf("AllocStats().Shards = %d, want 4", got)
	}
	free := fs.FreeBlocks()
	tx := fs.jnl.Begin()
	// More than any single shard holds, less than the device: must steal.
	n := int(free/2 + free/4)
	blocks, err := fs.alloc.alloc(tx, n, nil)
	if err != nil {
		t.Fatal(err, nil)
	}
	if len(blocks) != n {
		t.Fatalf("alloc returned %d blocks, want %d", len(blocks), n)
	}
	if fs.AllocStats().Steals == 0 {
		t.Fatal("cross-shard allocation counted no steals")
	}
	seen := make(map[int64]bool, n)
	for _, bn := range blocks {
		if bn < fs.alloc.firstBlock || bn >= fs.alloc.totalBlocks {
			t.Fatalf("allocated block %d outside data region", bn)
		}
		if seen[bn] {
			t.Fatalf("block %d allocated twice", bn)
		}
		seen[bn] = true
	}
	fs.alloc.release(tx, blocks)
	tx.Commit()
	if got := fs.FreeBlocks(); got != free {
		t.Fatalf("free count %d after alloc+release, want %d", got, free)
	}
}

// TestAllocExhaustionAllOrNothing: asking for more blocks than exist must
// fail without reserving anything — a retry at a smaller size succeeds.
func TestAllocExhaustionAllOrNothing(t *testing.T) {
	dev := testDev(t, 64<<20)
	fs, err := Mkfs(dev, Options{MaxInodes: 1024, AllocShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	free := fs.FreeBlocks()
	tx := fs.jnl.Begin()
	if _, err := fs.alloc.alloc(tx, int(free)+1, nil); err == nil {
		t.Fatal("over-allocation succeeded")
	}
	if got := fs.FreeBlocks(); got != free {
		t.Fatalf("failed allocation leaked reservation: free %d, want %d", got, free)
	}
	blocks, err := fs.alloc.alloc(tx, int(free), nil)
	if err != nil {
		t.Fatalf("exact-capacity allocation failed: %v", err)
	}
	fs.alloc.release(tx, blocks)
	tx.Commit()
}
