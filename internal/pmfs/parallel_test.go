package pmfs

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hinfs/internal/vfs"
)

// stressBody churns the namespace from goroutine g inside its private
// directory, with every third file detouring through a shared directory so
// cross-directory renames (the ordered double-lock path) are exercised
// concurrently. Every operation must succeed: names are partitioned by
// goroutine, so the only interactions are on the shared locks themselves.
func stressBody(fs *FS, g, iters int) error {
	dir := fmt.Sprintf("/g%d", g)
	buf := make([]byte, 64)
	for i := 0; i < iters; i++ {
		name := fmt.Sprintf("%s/f%d", dir, i)
		f, err := fs.Create(name)
		if err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
		if _, err := f.WriteAt(buf, 0); err != nil {
			return fmt.Errorf("write %s: %w", name, err)
		}
		if err := f.Fsync(); err != nil {
			return fmt.Errorf("fsync %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", name, err)
		}
		switch {
		case i%3 == 0:
			// Detour through the shared directory: two cross-directory
			// renames plus an unlink in the private dir.
			shared := fmt.Sprintf("/shared/g%d-%d", g, i)
			if err := fs.Rename(name, shared); err != nil {
				return fmt.Errorf("rename %s -> %s: %w", name, shared, err)
			}
			if err := fs.Rename(shared, name); err != nil {
				return fmt.Errorf("rename %s -> %s: %w", shared, name, err)
			}
			if err := fs.Unlink(name); err != nil {
				return fmt.Errorf("unlink %s: %w", name, err)
			}
		case i%3 == 1:
			// Same-directory rename, then unlink under the new name.
			moved := fmt.Sprintf("%s/m%d", dir, i)
			if err := fs.Rename(name, moved); err != nil {
				return fmt.Errorf("rename %s -> %s: %w", name, moved, err)
			}
			if err := fs.Unlink(moved); err != nil {
				return fmt.Errorf("unlink %s: %w", moved, err)
			}
		default:
			if err := fs.Unlink(name); err != nil {
				return fmt.Errorf("unlink %s: %w", name, err)
			}
		}
		if i%5 == 0 {
			sub := fmt.Sprintf("%s/d%d", dir, i)
			if err := fs.Mkdir(sub); err != nil {
				return fmt.Errorf("mkdir %s: %w", sub, err)
			}
			if err := fs.Rmdir(sub); err != nil {
				return fmt.Errorf("rmdir %s: %w", sub, err)
			}
		}
		if i%7 == 0 {
			if _, err := fs.Stat(dir); err != nil {
				return fmt.Errorf("stat %s: %w", dir, err)
			}
			if _, err := fs.ReadDir("/shared"); err != nil {
				return fmt.Errorf("readdir /shared: %w", err)
			}
		}
	}
	return nil
}

// runParallelStress mounts a fresh FS with opts, churns it from
// `goroutines` concurrent workers, and verifies the result with Check and
// a remount. Run under -race this doubles as the data-race gate for the
// sharded namespace/journal/allocator.
func runParallelStress(t *testing.T, opts Options, goroutines, iters int) {
	t.Helper()
	dev := testDev(t, 64<<20)
	fs, err := Mkfs(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/shared"); err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		if err := fs.Mkdir(fmt.Sprintf("/g%d", g)); err != nil {
			t.Fatal(err)
		}
	}
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = stressBody(fs, g, iters)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if cerrs := fs.Check(); len(cerrs) != 0 {
		t.Fatalf("post-stress check: %v", cerrs)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if cerrs := fs2.Check(); len(cerrs) != 0 {
		t.Fatalf("post-remount check: %v", cerrs)
	}
	// Every scratch file was unlinked; only the setup directories remain.
	ents, err := fs2.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != goroutines+1 {
		t.Fatalf("root holds %d entries after stress, want %d", len(ents), goroutines+1)
	}
}

// TestParallelMetadataStress churns create/write/fsync/rename/unlink/
// mkdir/rmdir from 8 goroutines against the sharded metadata path, then
// fscks and remounts. This is the concurrency gate for the per-directory
// locks, journal lanes and allocator shards.
func TestParallelMetadataStress(t *testing.T) {
	iters := 120
	if testing.Short() {
		iters = 30
	}
	runParallelStress(t, Options{MaxInodes: 1024}, 8, iters)
}

// TestParallelMetadataStressSerial runs the same churn with the serial
// namespace and single lane/shard, pinning the baseline configuration the
// metascale report measures against.
func TestParallelMetadataStressSerial(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 20
	}
	runParallelStress(t, Options{
		MaxInodes:       1024,
		SerialNamespace: true,
		JournalLanes:    1,
		AllocShards:     1,
	}, 8, iters)
}

// TestOpenTruncDoesNotHoldDirLock: opening with OTrunc resolves under the
// parent lock but truncates after releasing it. The observable contract is
// functional — the truncate happens, concurrent namespace traffic in the
// same directory proceeds — so hammer one directory with OTrunc opens of a
// multi-block file while a sibling churns creates.
func TestOpenTruncDoesNotHoldDirLock(t *testing.T) {
	fs, _ := testFS(t)
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 64*BlockSize)
	var wg sync.WaitGroup
	var truncErr, churnErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			f, err := fs.Open("/d/victim", vfs.ORdwr|vfs.OCreate)
			if err != nil {
				truncErr = err
				return
			}
			if _, err := f.WriteAt(big, 0); err != nil {
				truncErr = err
				return
			}
			if err := f.Close(); err != nil {
				truncErr = err
				return
			}
			g, err := fs.Open("/d/victim", vfs.ORdwr|vfs.OTrunc)
			if err != nil {
				truncErr = err
				return
			}
			if g.Size() != 0 {
				truncErr = fmt.Errorf("OTrunc left size %d", g.Size())
				g.Close()
				return
			}
			if err := g.Close(); err != nil {
				truncErr = err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			name := fmt.Sprintf("/d/c%d", i)
			f, err := fs.Create(name)
			if err != nil {
				churnErr = err
				return
			}
			if err := f.Close(); err != nil {
				churnErr = err
				return
			}
			if err := fs.Unlink(name); err != nil {
				churnErr = err
				return
			}
		}
	}()
	wg.Wait()
	if truncErr != nil {
		t.Fatalf("truncate loop: %v", truncErr)
	}
	if churnErr != nil {
		t.Fatalf("churn loop: %v", churnErr)
	}
	if errs := fs.Check(); len(errs) != 0 {
		t.Fatalf("post-stress check: %v", errs)
	}
}

// TestRenameCycleRejected: moving a directory into its own subtree must
// fail with ErrInvalid, and moving a path onto itself is a no-op.
func TestRenameCycleRejected(t *testing.T) {
	fs, _ := testFS(t)
	for _, p := range []string{"/a", "/a/b", "/a/b/c"} {
		if err := fs.Mkdir(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Rename("/a", "/a/b/c/a"); err != vfs.ErrInvalid {
		t.Fatalf("cycle rename = %v, want ErrInvalid", err)
	}
	if err := fs.Rename("/a/b", "/a/b"); err != nil {
		t.Fatalf("self rename = %v, want nil", err)
	}
	if errs := fs.Check(); len(errs) != 0 {
		t.Fatalf("check after rejected renames: %v", errs)
	}
}

// TestRenameRacesRmdir: renames from /p/a to /q race mkdir/rmdir of both
// parents, which frees their inode numbers for the other's next mkdir to
// take. Rmdir shares renameMu with rename, so a parent a rename resolved
// cannot be removed, and its number reused, before the rename locks it.
// Every call returns nil or the sentinel its race explains, each file is
// at exactly one of its names until its unlink, and the image checks clean
// live and after a remount.
func TestRenameRacesRmdir(t *testing.T) {
	fs, dev := testFS(t)
	if err := fs.Mkdir("/p"); err != nil {
		t.Fatal(err)
	}
	const movers, cycles = 3, 150
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, movers+2)
	for _, dir := range []string{"/p/a", "/q"} {
		wg.Add(1)
		go func(dir string) {
			defer wg.Done()
			for !stop.Load() {
				if err := fs.Mkdir(dir); err != nil && err != vfs.ErrExist {
					errc <- fmt.Errorf("mkdir %s: %w", dir, err)
					return
				}
				runtime.Gosched()
				if err := fs.Rmdir(dir); err != nil && err != vfs.ErrNotEmpty && err != vfs.ErrNotExist {
					errc <- fmt.Errorf("rmdir %s: %w", dir, err)
					return
				}
			}
		}(dir)
	}
	// Each mover owns its two names. A parent that holds one of them is not
	// empty, so only the create and the rename can meet a missing parent.
	mover := func(g int) error {
		src, dst := fmt.Sprintf("/p/a/x%d", g), fmt.Sprintf("/q/y%d", g)
		for done := 0; done < cycles; {
			f, err := fs.Create(src)
			if err == vfs.ErrNotExist {
				runtime.Gosched()
				continue
			}
			if err != nil {
				return fmt.Errorf("create %s: %w", src, err)
			}
			ino := f.(*File).Ino()
			f.Close()
			at := src
			switch err := fs.Rename(src, dst); err {
			case nil:
				at = dst
				if _, err := fs.Resolve(src); err != vfs.ErrNotExist {
					return fmt.Errorf("%s still resolves (%v) after its rename to %s", src, err, dst)
				}
			case vfs.ErrNotExist:
			default:
				return fmt.Errorf("rename %s -> %s: %w", src, dst, err)
			}
			if got, err := fs.Resolve(at); err != nil || got != ino {
				return fmt.Errorf("%s resolves to %d (%v), want %d", at, got, err, ino)
			}
			if err := fs.Unlink(at); err != nil {
				return fmt.Errorf("unlink %s: %w", at, err)
			}
			done++
		}
		return nil
	}
	var movWG sync.WaitGroup
	for g := 0; g < movers; g++ {
		movWG.Add(1)
		go func(g int) {
			defer movWG.Done()
			if err := mover(g); err != nil {
				errc <- err
			}
		}(g)
	}
	movWG.Wait()
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	for _, dir := range []string{"/p/a", "/q"} {
		if ents, err := fs.ReadDir(dir); err != nil && err != vfs.ErrNotExist || len(ents) != 0 {
			t.Fatalf("%s after every unlink: %v, %v", dir, ents, err)
		}
	}
	checkIndexes(t, fs, "after the race")
	if errs := fs.Check(); len(errs) != 0 {
		t.Fatalf("live check: %v", errs)
	}
	if err := fs.Unmount(); err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(dev)
	if err != nil {
		t.Fatal(err)
	}
	if errs := fs2.Check(); len(errs) != 0 {
		t.Fatalf("check after remount: %v", errs)
	}
}
