package crashtest

import (
	"testing"

	"hinfs/internal/core"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs"
	"hinfs/internal/vfs"
)

// TestExploreOverwriteStock: journal-free overwrites — lazy, O_SYNC and
// model-routed eager, beside an appender on the same inode — survive every
// crash point with fsck, the overwrite-size and the overwrite-bytes invariants
// clean. (hinfs-crash -workload overwrite explores 500 points in CI; turning
// the eager route's WriteNT into a plain store, or skipping fsync's buffer
// flush, makes that run report overwrite-bytes violations, see CHANGES.md.)
func TestExploreOverwriteStock(t *testing.T) {
	rep, err := Explore(Config{Workload: "overwrite", Ops: 100, Points: 40, Perms: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recovered != rep.Cases {
		t.Fatalf("only %d of %d cases remounted", rep.Recovered, rep.Cases)
	}
	if len(rep.Violations) != 0 || rep.Suppressed != 0 {
		for i, v := range rep.Violations {
			if i == 10 {
				break
			}
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("%d violations on stock HiNFS (%s)", len(rep.Violations)+rep.Suppressed, rep.Summary())
	}
}

// TestOverwriteExercisesRoutesAndInvariants proves the workload reaches what
// it is for — most of its writes open no transaction, and they take both the
// buffered and the direct route — and that its invariants have teeth: clean
// on the live file system, violated by a byte older than an fsync, by another
// file's byte, by a zero byte and by a changed size.
func TestOverwriteExercisesRoutesAndInvariants(t *testing.T) {
	cfg := Config{Workload: "overwrite"}
	cfg.fill()
	dev, err := nvmm.New(nvmm.Config{Size: cfg.DeviceSize})
	if err != nil {
		t.Fatal(err)
	}
	opts := cfg.fsOpts()
	opts.Obs = obs.New()
	fs, err := core.Mkfs(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Abandon()
	rec := &recorder{fs: fs, dev: dev}
	w := &Overwrite{}
	if err := w.Setup(rec); err != nil {
		t.Fatal(err)
	}
	setupEv := dev.PersistEvents()
	commits := fs.Journal().Stats().Commits
	if _, err := w.Run(rec, 1, 120); err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, r := range rec.recs {
		if r.kind == opWrite && r.startEv >= setupEv {
			writes++
		}
	}
	journaled := int(fs.Journal().Stats().Commits - commits)
	lazy, eager := opts.Obs.Counter(obs.CtrLazyBlocks), opts.Obs.Counter(obs.CtrEagerBlocks)
	t.Logf("%d writes, %d committed transactions, %d lazy and %d eager block writes", writes, journaled, lazy, eager)
	if writes-journaled < writes/2 {
		t.Fatalf("%d of %d writes journaled: the run is not mostly pure overwrites", journaled, writes)
	}
	if lazy < 40 || eager < 40 {
		t.Fatalf("%d lazy and %d eager block writes: one route is barely exercised", lazy, eager)
	}
	end := dev.PersistEvents() + 1 // every recorded op has returned
	check := func() []oracleViolation { return overwriteInvariants(fs, rec.recs, end, setupEv) }
	if vs := check(); len(vs) != 0 {
		t.Fatalf("live file system violates the invariants: %+v", vs[0])
	}
	// Make everything durable and known to be, so each byte's floor is its
	// current version; then damage one byte at a time through the raw handle.
	for i := 0; i < owFiles; i++ {
		f, err := rec.Open(owPath(i), vfs.ORdwr)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Fsync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	end = dev.PersistEvents() + 1
	raw, err := fs.Open(owPath(0), vfs.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var cur [1]byte
	if _, err := raw.ReadAt(cur[:], 5000); err != nil {
		t.Fatal(err)
	}
	for _, b := range []byte{cur[0] - 1, cur[0] ^ 0x40, 0} {
		if _, err := raw.WriteAt([]byte{b}, 5000); err != nil {
			t.Fatal(err)
		}
		vs := check()
		if len(vs) != 1 || vs[0].path != owPath(0) || vs[0].invariant != "overwrite-bytes" {
			t.Fatalf("byte %#x over %#x in %s: violations %+v, want one overwrite-bytes on that path", b, cur[0], owPath(0), vs)
		}
	}
	if _, err := raw.WriteAt(cur[:], 5000); err != nil {
		t.Fatal(err)
	}
	if err := raw.Truncate(owSetupSize - 1); err != nil {
		t.Fatal(err)
	}
	if vs := check(); len(vs) != 1 || vs[0].invariant != "overwrite-size" {
		t.Fatalf("file 0 truncated by a byte: violations %+v, want one overwrite-size", vs)
	}
}
