package pmfs

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestIndexTreeProperty drives the per-file block index with random
// ensure/free sequences and checks it against a map shadow: lookups agree,
// created-flags are truthful, and freeing everything returns the allocator
// to its starting state (no leaks, no double frees — the allocator panics
// on those). Half the seeds keep every index below 8, so most of their
// operations cross the direct-pointer boundary: promotion with holes, and
// frees back to height 0.
func TestIndexTreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		fs, _ := testFS(t)
		free0 := fs.FreeBlocks()
		rng := rand.New(rand.NewSource(seed))
		small := rng.Intn(2) == 0
		span := func(n int) int64 { // an index, or a cut point, below n
			if small {
				return int64(rng.Intn(8))
			}
			return int64(rng.Intn(n))
		}
		rec := inodeRec{Type: typeFile}
		shadow := make(map[int64]int64) // idx → block number

		for op := 0; op < 60; op++ {
			tx := fs.jnl.Begin()
			switch rng.Intn(4) {
			case 0, 1: // ensure a random single index (occasionally deep)
				idx := span(64)
				if !small && rng.Intn(8) == 0 {
					idx = int64(512 + rng.Intn(2000))
				}
				bn, created, err := fs.treeEnsure(tx, &rec, idx)
				if err != nil {
					t.Logf("ensure: %v", err)
					tx.Commit()
					return false
				}
				if prev, ok := shadow[idx]; ok {
					if created || prev != bn {
						t.Logf("idx %d: created=%v bn=%d prev=%d", idx, created, bn, prev)
						tx.Commit()
						return false
					}
				} else if !created {
					t.Logf("idx %d: expected created", idx)
					tx.Commit()
					return false
				}
				shadow[idx] = bn
			case 2: // ensure a contiguous range
				first := span(100)
				count := int64(1 + rng.Intn(40))
				if small {
					count = int64(1 + rng.Intn(4))
				}
				exts, err := fs.treeEnsureRange(tx, &rec, first, count, nil)
				if err != nil {
					t.Logf("range: %v", err)
					tx.Commit()
					return false
				}
				for _, e := range exts {
					bn := e.Addr / BlockSize
					if prev, ok := shadow[e.Index]; ok {
						if e.Created || prev != bn {
							t.Logf("range idx %d inconsistent", e.Index)
							tx.Commit()
							return false
						}
					} else if !e.Created {
						t.Logf("range idx %d: expected created", e.Index)
						tx.Commit()
						return false
					}
					shadow[e.Index] = bn
				}
			case 3: // free from a random cut point
				from := span(128)
				fs.treeFreeFrom(tx, &rec, from)
				for idx := range shadow {
					if idx >= from {
						delete(shadow, idx)
					}
				}
			}
			tx.Commit()
			// Spot-check lookups.
			for k := 0; k < 5; k++ {
				idx := span(128)
				got := fs.treeLookup(rec, idx)
				want := shadow[idx]
				if got != want {
					t.Logf("lookup idx %d: got %d want %d", idx, got, want)
					return false
				}
			}
			if int64(len(shadow)) != rec.Blocks {
				t.Logf("block count %d != shadow %d", rec.Blocks, len(shadow))
				return false
			}
			if rec.Height > 0 && rec.Direct != [directPtrs - 1]int64{} {
				t.Logf("direct words %v left set at height %d", rec.Direct, rec.Height)
				return false
			}
		}
		// Tear down: everything must return to the allocator.
		tx := fs.jnl.Begin()
		fs.treeFreeFrom(tx, &rec, 0)
		tx.Commit()
		if fs.FreeBlocks() != free0 {
			t.Logf("leak: %d != %d", fs.FreeBlocks(), free0)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestCapBlocksAndHeightFor pins the tree geometry: a subtree of height h
// spans 512^h blocks, and an inode of height 0 addresses four directly.
func TestCapBlocksAndHeightFor(t *testing.T) {
	if capBlocks(0) != 1 || capBlocks(1) != 512 || capBlocks(2) != 512*512 {
		t.Fatal("capBlocks wrong")
	}
	if addressable(0) != 4 || addressable(1) != 512 || addressable(2) != 512*512 {
		t.Fatal("addressable wrong")
	}
	cases := []struct {
		idx  int64
		want byte
	}{
		{0, 0}, {3, 0}, {4, 1}, {511, 1}, {512, 2}, {512*512 - 1, 2}, {512 * 512, 3},
	}
	for _, c := range cases {
		if got := heightFor(c.idx); got != c.want {
			t.Errorf("heightFor(%d) = %d, want %d", c.idx, got, c.want)
		}
	}
}
