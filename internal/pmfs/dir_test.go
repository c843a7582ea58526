package pmfs

import (
	"fmt"
	"math/rand"
	"path"
	"sync"
	"testing"

	"hinfs/internal/nvmm"
	"hinfs/internal/vfs"
)

// checkIndexes compares every built directory index with a full scan of
// its directory's dentries, computed here without the index's own build.
func checkIndexes(t *testing.T, fs *FS, when string) {
	t.Helper()
	fs.states.Range(func(k, v any) bool {
		ix := v.(*inodeState).dirIdx.Load()
		if ix == nil {
			return true
		}
		ino := k.(Ino)
		rec := fs.loadInode(ino)
		blocks := (rec.Size + BlockSize - 1) / BlockSize
		if int64(len(ix.blocks)) != blocks {
			t.Fatalf("%s: dir %d: index has %d blocks, directory %d", when, ino, len(ix.blocks), blocks)
		}
		for bi := range ix.blocks {
			if want := blockAddr(fs.treeLookup(rec, int64(bi))); ix.blocks[bi] != want {
				t.Fatalf("%s: dir %d: index block %d at %d, directory maps %d", when, ino, bi, ix.blocks[bi], want)
			}
		}
		names := make(map[string]int)
		used := make([]uint64, blocks)
		fs.dirScan(rec, func(slot int, d dentry) bool {
			names[d.name] = slot
			used[slot/dentriesPerBlock] |= 1 << uint(slot%dentriesPerBlock)
			return false
		})
		for bi := range used {
			if ix.used[bi] != used[bi] {
				t.Fatalf("%s: dir %d block %d: index used %#x, dentries %#x", when, ino, bi, ix.used[bi], used[bi])
			}
		}
		if len(ix.names) != len(names) {
			t.Fatalf("%s: dir %d: index holds %d names, dentries %d", when, ino, len(ix.names), len(names))
		}
		for name, slot := range names {
			if got, ok := ix.names[name]; !ok || int(got) != slot {
				t.Fatalf("%s: dir %d: %q indexed at %d (%v), dentry in slot %d", when, ino, name, got, ok, slot)
			}
		}
		return true
	})
}

// TestDirIndexMatchesDentries runs random creates, unlinks, renames,
// mkdirs and rmdirs over a few directories, some of which grow past one
// block, and after every operation — failed ones included — requires each
// built index to equal a full scan of its dentries, across a remount too.
func TestDirIndexMatchesDentries(t *testing.T) {
	dev := testDev(t, 64<<20)
	fs, err := Mkfs(dev, Options{MaxInodes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{"/", "/a", "/b", "/a/c"}
	for _, d := range dirs[1:] {
		if err := fs.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	pick := func() string {
		return path.Join(dirs[rng.Intn(len(dirs))], fmt.Sprintf("n%d", rng.Intn(150)))
	}
	const steps = 2400
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			if err := fs.Unmount(); err != nil {
				t.Fatal(err)
			}
			if fs, err = Mount(dev); err != nil {
				t.Fatal(err)
			}
		}
		p := pick()
		var op string
		switch r := rng.Intn(8); {
		case r < 3:
			op = "create " + p
			if f, err := fs.Create(p); err == nil {
				f.Close()
			}
		case r < 4:
			op = "unlink " + p
			fs.Unlink(p)
		case r < 6:
			q := pick()
			op = "rename " + p + " " + q
			fs.Rename(p, q)
		case r < 7:
			op = "mkdir " + p
			fs.Mkdir(p)
		default:
			op = "rmdir " + p
			fs.Rmdir(p)
		}
		when := fmt.Sprintf("step %d (%s)", step, op)
		checkIndexes(t, fs, when)
		if step%100 == 99 {
			if errs := fs.Check(); len(errs) > 0 {
				t.Fatalf("%s: Check: %v", when, errs)
			}
		}
	}
	var grown bool
	fs.states.Range(func(_, v any) bool {
		if ix := v.(*inodeState).dirIdx.Load(); ix != nil && len(ix.blocks) > 1 {
			grown = true
		}
		return true
	})
	if !grown {
		t.Fatal("no directory grew past one block: the run does not reach the extension path")
	}
}

// TestCheckReportsIndexMismatch: Check compares each built index with its
// directory's dentries.
func TestCheckReportsIndexMismatch(t *testing.T) {
	fs, _ := testFS(t)
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("/d/f")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	ino, _ := fs.Resolve("/d")
	ix := fs.state(ino).dirIdx.Load()
	if ix == nil {
		t.Fatal("resolving /d/f built no index for /d")
	}
	if errs := fs.Check(); len(errs) > 0 {
		t.Fatalf("clean image: %v", errs)
	}
	delete(ix.names, "f")
	if errs := fs.Check(); len(errs) != 1 {
		t.Fatalf("Check with a name dropped from the index: %v, want one error", errs)
	}
}

// dirSlots maps each name in dir to the slot its dentry occupies on NVMM.
func dirSlots(t *testing.T, fs *FS, dir string) map[string]int {
	t.Helper()
	ino, err := fs.Resolve(dir)
	if err != nil {
		t.Fatal(err)
	}
	slots := make(map[string]int)
	fs.dirScan(fs.loadInode(ino), func(slot int, d dentry) bool {
		slots[d.name] = slot
		return false
	})
	return slots
}

// TestDirSlotOrderFirstFit: a create takes the lowest free slot, as the
// scan the index replaced did, so persist streams and crash schedules do
// not depend on the order slots were freed in.
func TestDirSlotOrderFirstFit(t *testing.T) {
	fs, _ := testFS(t)
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	create := func(name string) {
		t.Helper()
		f, err := fs.Create("/d/" + name)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	for i := 0; i < dentriesPerBlock; i++ {
		create(fmt.Sprintf("f%02d", i))
	}
	for _, i := range []int{40, 3} {
		if got := dirSlots(t, fs, "/d")[fmt.Sprintf("f%02d", i)]; got != i {
			t.Fatalf("f%02d in slot %d, want %d", i, got, i)
		}
		if err := fs.Unlink(fmt.Sprintf("/d/f%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		slot int
	}{{"x", 3}, {"y", 40}, {"z", dentriesPerBlock}} {
		create(c.name)
		if got := dirSlots(t, fs, "/d")[c.name]; got != c.slot {
			t.Fatalf("%s created in slot %d, want %d", c.name, got, c.slot)
		}
	}
	if errs := fs.Check(); len(errs) > 0 {
		t.Fatal(errs)
	}
}

// TestDirIndexBuildRace runs the first lookups of a freshly mounted
// directory from many goroutines at once, so they race to build its
// index, while creates and unlinks run in other directories. Run it under
// -race.
func TestDirIndexBuildRace(t *testing.T) {
	dev := testDev(t, 64<<20)
	fs, err := Mkfs(dev, Options{MaxInodes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	const files = 100
	for _, d := range []string{"/shared", "/o0", "/o1"} {
		if err := fs.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < files; i++ {
		f, err := fs.Create(fmt.Sprintf("/shared/f%d", i))
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	for round := 0; round < 4; round++ {
		if err := fs.Unmount(); err != nil {
			t.Fatal(err)
		}
		if fs, err = Mount(dev); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errc := make(chan error, 8) // one send at most per goroutine
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < files; i++ {
					p := fmt.Sprintf("/shared/f%d", (g*17+i)%files)
					if _, err := fs.Stat(p); err != nil {
						errc <- fmt.Errorf("stat %s: %w", p, err)
						return
					}
				}
			}(g)
		}
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					p := fmt.Sprintf("/o%d/r%d-%d", g, round, i)
					f, err := fs.Create(p)
					if err != nil {
						errc <- fmt.Errorf("create %s: %w", p, err)
						return
					}
					f.Close()
					if i%2 == 0 {
						if err := fs.Unlink(p); err != nil {
							errc <- fmt.Errorf("unlink %s: %w", p, err)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatal(err)
		}
		checkIndexes(t, fs, fmt.Sprintf("round %d", round))
		if errs := fs.Check(); len(errs) > 0 {
			t.Fatalf("round %d: %v", round, errs)
		}
	}
}

// lookupDirs makes /small with 32 files and /big with 4096 on a
// zero-latency device.
func lookupDirs(tb testing.TB) (*FS, *nvmm.Device) {
	tb.Helper()
	dev := testDev(tb, 64<<20)
	fs, err := Mkfs(dev, Options{MaxInodes: 4200})
	if err != nil {
		tb.Fatal(err)
	}
	for _, d := range []struct {
		dir string
		n   int
	}{{"/small", 32}, {"/big", 4096}} {
		if err := fs.Mkdir(d.dir); err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < d.n; i++ {
			f, err := fs.Create(fmt.Sprintf("%s/f%d", d.dir, i))
			if err != nil {
				tb.Fatal(err)
			}
			f.Close()
		}
	}
	return fs, dev
}

// TestDirLookupCostIgnoresDirSize: resolving a name costs the same NVMM
// reads in a 4096-entry directory as in a 32-entry one, hit or miss — a
// scan reads every dentry ahead of the match, and all of them to miss. With
// the indexes built, a two-component Resolve reads exactly the ino and type
// head of each dentry it finds and no inode record: a hit reads two heads,
// a miss the directory's alone.
func TestDirLookupCostIgnoresDirSize(t *testing.T) {
	fs, dev := lookupDirs(t)
	cost := func(p string, want error) int64 {
		t.Helper()
		before := dev.Stats().BytesRead
		if _, err := fs.Resolve(p); err != want {
			t.Fatalf("resolve %s: %v, want %v", p, err, want)
		}
		return dev.Stats().BytesRead - before
	}
	for _, c := range []struct {
		small, big string
		err        error
		heads      int64
	}{
		{"/small/f31", "/big/f4095", nil, 2},
		{"/small/none", "/big/none", vfs.ErrNotExist, 1},
	} {
		cost(c.small, c.err) // the first lookup builds the index
		cost(c.big, c.err)
		for _, p := range []string{c.small, c.big} {
			if got, want := cost(p, c.err), c.heads*deName; got != want {
				t.Errorf("resolve %s reads %d B, want %d (%d dentry heads)", p, got, want, c.heads)
			}
		}
	}
}

var lookupSink Ino

// BenchmarkDirLookup resolves the last-created name of a 32- and a
// 4096-entry directory.
func BenchmarkDirLookup(b *testing.B) {
	fs, dev := lookupDirs(b)
	for _, c := range []struct {
		entries int
		path    string
	}{{32, "/small/f31"}, {4096, "/big/f4095"}} {
		b.Run(fmt.Sprintf("entries=%d", c.entries), func(b *testing.B) {
			if _, err := fs.Resolve(c.path); err != nil {
				b.Fatal(err)
			}
			before := dev.Stats().BytesRead
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lookupSink, _ = fs.Resolve(c.path)
			}
			b.ReportMetric(float64(dev.Stats().BytesRead-before)/float64(b.N), "B-read/op")
		})
	}
}

// fillDevice allocates every free data block to files under /fill.
func fillDevice(t *testing.T, fs *FS) {
	t.Helper()
	if err := fs.Mkdir("/fill"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, BlockSize)
	for i := 0; fs.FreeBlocks() > 0; i++ {
		f, err := fs.Create(fmt.Sprintf("/fill/%d", i))
		if err != nil {
			t.Fatal(err)
		}
		// A write that needs an index block beside its data block fails
		// with one block left; the next file's first block takes it.
		for off := int64(0); ; off += BlockSize {
			if _, err := f.WriteAt(buf, off); err != nil {
				break
			}
		}
		f.Close()
	}
}

// TestRenameNoSpaceKeepsBothNames: a rename into a full directory on a
// full device fails with ErrNoSpace before it removes anything.
func TestRenameNoSpaceKeepsBothNames(t *testing.T) {
	dev := testDev(t, 8<<20)
	fs, err := Mkfs(dev, Options{MaxInodes: 256, JournalBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"/a", "/b"} {
		if err := fs.Mkdir(d); err != nil {
			t.Fatal(err)
		}
	}
	create := func(p string) {
		t.Helper()
		f, err := fs.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	create("/a/src")
	for i := 0; i < dentriesPerBlock; i++ {
		create(fmt.Sprintf("/b/f%d", i))
	}
	fillDevice(t, fs)
	if err := fs.Rename("/a/src", "/b/dst"); err != vfs.ErrNoSpace {
		t.Fatalf("rename into a full directory on a full device: %v, want ErrNoSpace", err)
	}
	if _, err := fs.Stat("/a/src"); err != nil {
		t.Fatalf("source after the failed rename: %v", err)
	}
	if _, err := fs.Stat("/b/dst"); err != vfs.ErrNotExist {
		t.Fatalf("target after the failed rename: %v, want ErrNotExist", err)
	}
	if errs := fs.Check(); len(errs) > 0 {
		t.Fatal(errs)
	}
	// A rename that frees a slot in the full directory needs no new block.
	if err := fs.Rename("/a/src", "/b/f7"); err != nil {
		t.Fatalf("rename over an entry of the full directory: %v", err)
	}
	if err := fs.Rename("/b/f7", "/b/g"); err != nil {
		t.Fatalf("rename inside the full directory: %v", err)
	}
	if got := dirSlots(t, fs, "/b")["g"]; got != 7 {
		t.Fatalf("renamed entry in slot %d, want 7", got)
	}
	if errs := fs.Check(); len(errs) > 0 {
		t.Fatal(errs)
	}
}

// TestDirGrowNoSpaceLeaksNothing: a directory whose four direct blocks
// are full grows an index block before its fifth data block. With one
// block free, the index block is allocated and the data block is not; the
// failed create, mkdir or rename must keep the index block reachable.
func TestDirGrowNoSpaceLeaksNothing(t *testing.T) {
	dev := testDev(t, 8<<20)
	fs, err := Mkfs(dev, Options{MaxInodes: 1024, JournalBlocks: 64})
	if err != nil {
		t.Fatal(err)
	}
	create := func(p string, blocks int) error {
		f, err := fs.Create(p)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.WriteAt(make([]byte, blocks*BlockSize), 0)
		return err
	}
	ops := []struct {
		name string
		run  func(dir string) error
	}{
		{"create", func(dir string) error { return create(dir+"/new", 0) }},
		{"mkdir", func(dir string) error { return fs.Mkdir(dir + "/new") }},
		{"rename", func(dir string) error { return fs.Rename("/src", dir+"/new") }},
	}
	for i := range ops {
		dir := fmt.Sprintf("/d%d", i)
		if err := fs.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < directPtrs*dentriesPerBlock; j++ {
			if err := create(fmt.Sprintf("%s/f%d", dir, j), 0); err != nil {
				t.Fatal(err)
			}
		}
		if err := create(fmt.Sprintf("/one%d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := create("/src", 0); err != nil {
		t.Fatal(err)
	}
	fillDevice(t, fs)
	for i, op := range ops {
		if err := fs.Unlink(fmt.Sprintf("/one%d", i)); err != nil {
			t.Fatal(err)
		}
		if fs.FreeBlocks() != 1 {
			t.Fatalf("%s: %d blocks free, want 1", op.name, fs.FreeBlocks())
		}
		if err := op.run(fmt.Sprintf("/d%d", i)); err != vfs.ErrNoSpace {
			t.Fatalf("%s into a full directory with one block free: %v, want ErrNoSpace", op.name, err)
		}
		if errs := fs.Check(); len(errs) > 0 {
			t.Fatalf("after the failed %s: %v", op.name, errs)
		}
	}
	if _, err := fs.Stat("/src"); err != nil {
		t.Fatalf("rename source after the failed rename: %v", err)
	}
}
