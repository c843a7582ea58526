package crashtest

import (
	"testing"

	"hinfs/internal/core"
	"hinfs/internal/nvmm"
)

// TestExploreReuseStock: writes into blocks freed by poison-filled files
// and by the run's own unlinks, renames and truncates survive every crash
// point with the content oracle and the stale-bytes invariant clean.
// (hinfs-crash -workload reuse explores 500 points in CI; removing either
// pmfs's edge zeroing or the buffer's zero-on-drop makes that run report
// stale-bytes violations, see CHANGES.md PR 18.)
func TestExploreReuseStock(t *testing.T) {
	rep, err := Explore(Config{Workload: "reuse", Ops: 100, Points: 40, Perms: 3, Seed: 5})
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

// TestReuseExercisesDropsAndInvariant proves the workload reaches what it
// is for — dirty buffered blocks dropped by unlink, rename and truncate —
// and that the invariant it adds has teeth: clean on the live file system,
// violated by a poison byte and by another file's tagged byte.
func TestReuseExercisesDropsAndInvariant(t *testing.T) {
	cfg := Config{Workload: "reuse"}
	cfg.fill()
	dev, err := nvmm.New(nvmm.Config{Size: cfg.DeviceSize})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mkfs(dev, cfg.fsOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Abandon()
	w := &Reuse{}
	if err := w.Setup(fs); err != nil {
		t.Fatal(err)
	}
	free := fs.FreeBlocks()
	if _, err := w.Run(fs, 1, 120); err != nil {
		t.Fatal(err)
	}
	if drops := fs.Pool().Stats().Drops; drops < 10 {
		t.Fatalf("run dropped %d dirty blocks — unlink/rename/truncate of unwritten data was not exercised", drops)
	}
	if used := free - fs.FreeBlocks(); used > reusePoisonFiles*reusePoisonBlocks {
		t.Fatalf("run holds %d blocks, more than the %d poisoned ones", used, reusePoisonFiles*reusePoisonBlocks)
	}
	if vs := staleBytes(fs); len(vs) != 0 {
		t.Fatalf("live file system violates the invariant: %+v", vs[0])
	}
	for _, b := range []byte{0xEE, reuseTag("/reuse/a1")<<3 | 1} {
		f, err := fs.Create("/reuse/a0")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{reuseTag("/reuse/a0") << 3, 0, b}, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
		vs := staleBytes(fs)
		if len(vs) != 1 || vs[0].path != "/reuse/a0" || vs[0].invariant != "stale-bytes" {
			t.Fatalf("byte %#x in /reuse/a0: violations %+v, want one stale-bytes on that path", b, vs)
		}
		if err := fs.Unlink("/reuse/a0"); err != nil {
			t.Fatal(err)
		}
	}
}
