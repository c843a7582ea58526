package crashtest

import (
	"testing"

	"hinfs/internal/core"
	"hinfs/internal/nvmm"
	"hinfs/internal/obs/flight"
	"hinfs/internal/vfs"
)

// TestExploreFlightStock: with the flight recorder wired into the image,
// stock HiNFS passes the chaos exploration under the extended invariant
// set — the recorded suffix always matches the op schedule.
func TestExploreFlightStock(t *testing.T) {
	rep, err := Explore(Config{Workload: "varmail", Ops: 60, Points: 32, Perms: 3, Seed: 42, Flight: true})
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
		t.Fatalf("%d violations with flight recorder on (%s)", len(rep.Violations)+rep.Suppressed, rep.Summary())
	}
}

// TestFlightInvariantsHaveTeeth is the self-test for the flight-*
// invariant class: a hand-built mismatch between the ring contents and
// the op schedule must trigger every check exactly once.
func TestFlightInvariantsHaveTeeth(t *testing.T) {
	cfg := &Config{Flight: true}
	cfg.fill()
	dev, err := nvmm.New(nvmm.Config{Size: cfg.DeviceSize, TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mkfs(dev, cfg.fsOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Abandon()
	flt := fs.Flight()
	if flt == nil {
		t.Fatal("Mkfs with FlightBlocks produced no recorder")
	}
	// Ring contents: seqs 1..4.
	flt.Record(&flight.Record{Op: vfs.OpWrite}) // 1: schedule says written after crash -> phantom
	flt.Record(&flight.Record{Op: vfs.OpFsync}) // 2: fsync floor on a file that is gone -> synced-lost
	flt.Record(&flight.Record{Op: vfs.OpWrite}) // 3: no matching op -> foreign
	flt.Record(&flight.Record{Op: vfs.OpRead})  // 4: schedule issued a write -> mismatch
	const pt = 50
	base := &runResult{recs: []opRecord{
		{kind: opWrite, path: "/a", flightSeq: 1, flightOp: vfs.OpWrite, flightEv: pt + 50},
		{kind: opFsync, path: "/missing", flightSeq: 2, flightOp: vfs.OpFsync, flightEv: 10, synced: 4096},
		{kind: opWrite, path: "/b", flightSeq: 4, flightOp: vfs.OpWrite, flightEv: 10},
		{kind: opWrite, path: "/c", flightSeq: 5, flightOp: vfs.OpWrite, flightEv: 10}, // never reached the ring -> lost
	}}
	rep := &Report{}
	cfg.verifyFlight(rep, base, fs, dev, pt, 0)
	want := map[string]int{
		"flight-phantom": 1, "flight-synced-lost": 1, "flight-foreign": 1,
		"flight-mismatch": 1, "flight-lost": 1,
	}
	got := map[string]int{}
	for _, v := range rep.Violations {
		got[v.Invariant]++
	}
	for inv, n := range want {
		if got[inv] != n {
			t.Errorf("invariant %s: %d violations, want %d", inv, got[inv], n)
		}
	}
	if len(rep.Violations) != 5 {
		for _, v := range rep.Violations {
			t.Logf("violation: %s", v)
		}
		t.Fatalf("%d violations, want 5", len(rep.Violations))
	}
}

// TestFlightSyncedFloorSkipsSuperseded: a surviving fsync record stops
// asserting its size floor once a later namespace op on the path had
// started by the crash.
func TestFlightSyncedFloorSkipsSuperseded(t *testing.T) {
	cfg := &Config{Flight: true}
	cfg.fill()
	dev, err := nvmm.New(nvmm.Config{Size: cfg.DeviceSize, TrackPersistence: true})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := core.Mkfs(dev, cfg.fsOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Abandon()
	fs.Flight().Record(&flight.Record{Op: vfs.OpFsync}) // seq 1
	const pt = 50
	base := &runResult{recs: []opRecord{
		{kind: opFsync, path: "/gone", flightSeq: 1, flightOp: vfs.OpFsync, flightEv: 10, synced: 4096},
		{kind: opUnlink, path: "/gone", startEv: 20, ev: 25}, // started before the crash: floor lifted
	}}
	rep := &Report{}
	cfg.verifyFlight(rep, base, fs, dev, pt, 0)
	if len(rep.Violations) != 0 {
		t.Fatalf("floor asserted despite a later unlink: %s", rep.Violations[0])
	}
}
