package harness

import (
	"strings"
	"testing"
	"time"

	"hinfs/internal/trace"
	"hinfs/internal/workload"
)

// fastCfg keeps harness tests quick: small device, mild scale.
func fastCfg() Config {
	return Config{DeviceSize: 128 << 20, TimeScale: 8}
}

func TestNewInstanceAllSystems(t *testing.T) {
	for _, sys := range []System{HiNFS, HiNFSNCLFW, HiNFSWB, PMFS, EXT4DAX, EXT2NVMMBD, EXT4NVMMBD} {
		inst, err := NewInstance(sys, fastCfg())
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		f, err := inst.FS.Create("/probe")
		if err != nil {
			t.Fatalf("%s create: %v", sys, err)
		}
		if _, err := f.WriteAt([]byte("probe"), 0); err != nil {
			t.Fatalf("%s write: %v", sys, err)
		}
		got := make([]byte, 5)
		if _, err := f.ReadAt(got, 0); err != nil || string(got) != "probe" {
			t.Fatalf("%s read: %q %v", sys, got, err)
		}
		f.Close()
		if err := inst.Close(); err != nil {
			t.Fatalf("%s close: %v", sys, err)
		}
	}
	if _, err := NewInstance(System("btrfs"), fastCfg()); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestRunWorkloadReportsMetrics(t *testing.T) {
	res, err := RunWorkload(HiNFS, fastCfg(), &workload.Fileserver{Files: 16, FileSize: 16 << 10, IOSize: 16 << 10}, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.OpsPerSec == 0 || res.Elapsed == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestSyscallOverheadCharged(t *testing.T) {
	inst, err := NewInstance(PMFS, Config{DeviceSize: 64 << 20, SyscallOverhead: 200 * time.Microsecond, TimeScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	start := time.Now()
	if _, err := inst.FS.Stat("/"); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 200*time.Microsecond {
		t.Fatal("syscall overhead not charged")
	}
}

func TestFigure1Shape(t *testing.T) {
	// Paper: Write Access > 80% at >= 4KB; Others dominant at 64B.
	fig, err := Figure1(fastCfg(), Opts{Quick: true, Ops: 1500})
	if err != nil {
		t.Fatal(err)
	}
	if w := fig.Get("4KB/write"); w < 0.5 {
		t.Fatalf("write access at 4KB = %.2f, want > 0.5", w)
	}
	if o, w := fig.Get("64B/others"), fig.Get("64B/write"); o < w {
		t.Fatalf("at 64B others (%.2f) should dominate write access (%.2f)", o, w)
	}
}

func TestFigure2Shape(t *testing.T) {
	// TPC-C's two threads share one op budget and each checkpoints every 64
	// of its own transactions, so up to 2 × 63 transactions' table pages
	// (32 KB of each one's 34) are unsynced when the run ends, however the
	// scheduler splits the budget: 640 transactions keep that worst case
	// above the 80 % asserted below; at 300 only an even split did.
	fig, err := Figure2(fastCfg(), Opts{Ops: 320})
	if err != nil {
		t.Fatal(err)
	}
	if v := fig.Get("lasr"); v != 0 {
		t.Fatalf("LASR fsync bytes = %.1f%%, want 0", v)
	}
	if v := fig.Get("tpcc"); v < 80 {
		t.Fatalf("TPC-C fsync bytes = %.1f%%, want > 80 (paper: >90)", v)
	}
	if v := fig.Get("varmail"); v < 90 {
		t.Fatalf("varmail fsync bytes = %.1f%%, want > 90", v)
	}
	if v := fig.Get("fileserver"); v != 0 {
		t.Fatalf("fileserver fsync bytes = %.1f%%, want 0", v)
	}
}

func TestFigure6Accuracy(t *testing.T) {
	// Single-threaded for deterministic sync interleavings.
	fig, err := Figure6(fastCfg(), Opts{Ops: 300, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: close to 90% even in the worst case; allow slack at our scale.
	for _, w := range []string{"varmail", "tpcc", "facebook"} {
		if v := fig.Get(w); v < 70 {
			t.Fatalf("%s model accuracy = %.1f%%, want >= 70", w, v)
		}
	}
}

func TestHiNFSBeatsPMFSOnFileserver(t *testing.T) {
	// The headline result (Fig. 7), at reduced scale.
	cfg := fastCfg()
	var tput [2]float64
	for i, sys := range []System{HiNFS, PMFS} {
		res, err := RunWorkload(sys, cfg, &workload.Fileserver{}, 2, 40)
		if err != nil {
			t.Fatal(err)
		}
		tput[i] = res.OpsPerSec
	}
	if tput[0] <= tput[1] {
		t.Fatalf("HiNFS (%.0f ops/s) did not beat PMFS (%.0f ops/s) on fileserver", tput[0], tput[1])
	}
}

func TestCLFWReducesNVMMWriteBytes(t *testing.T) {
	// Fig. 9(b): with sub-block writes, CLFW flushes far fewer bytes.
	cfg := fastCfg()
	cfg.BufferBlocks = 256 // force eviction while blocks are sparsely dirty
	var flushed [2]int64
	for i, sys := range []System{HiNFS, HiNFSNCLFW} {
		w := &workload.Fio{IOSize: 512, FileSize: 16 << 20, ReadPercent: 33}
		res, err := RunWorkload(sys, cfg, w, 2, 800)
		if err != nil {
			t.Fatal(err)
		}
		flushed[i] = res.Dev.BytesFlushed
	}
	if flushed[0] >= flushed[1] {
		t.Fatalf("CLFW flushed %d B >= NCLFW %d B", flushed[0], flushed[1])
	}
}

func TestTraceReplayHiNFSFasterOnUsr0(t *testing.T) {
	// Fig. 12: HiNFS cuts Usr0 replay time versus PMFS.
	cfg := fastCfg()
	var totals [2]time.Duration
	for i, sys := range []System{HiNFS, PMFS} {
		tr := trace.Usr0(6000)
		inst, err := NewInstance(sys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Prepare(inst.FS); err != nil {
			t.Fatal(err)
		}
		res, err := tr.Replay(inst.FS)
		inst.Close()
		if err != nil {
			t.Fatal(err)
		}
		totals[i] = res.Total()
	}
	// Paper: ~37% faster. Require a clear win but leave margin for
	// scheduler noise on small hosts.
	if float64(totals[0]) >= 0.95*float64(totals[1]) {
		t.Fatalf("HiNFS replay %v not clearly faster than PMFS %v on usr0", totals[0], totals[1])
	}
}

func TestTablePrinting(t *testing.T) {
	tb := Table{
		Title:  "Test table",
		Note:   "note",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"3", "4"}},
	}
	s := tb.String()
	for _, want := range []string{"Test table", "note", "a", "bb", "3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table output missing %q:\n%s", want, s)
		}
	}
}

func TestFormattingHelpers(t *testing.T) {
	if got := pct(250*time.Millisecond, time.Second); got != "25.0%" {
		t.Fatalf("pct = %q", got)
	}
	if got := pct(time.Second, 0); got != "0.0%" {
		t.Fatalf("pct zero-base = %q", got)
	}
	if got := ratio(3, 2); got != "1.50" {
		t.Fatalf("ratio = %q", got)
	}
	if got := ratio(1, 0); got != "-" {
		t.Fatalf("ratio zero-base = %q", got)
	}
	if got := mib(3 << 20); got != "3.00" {
		t.Fatalf("mib = %q", got)
	}
	if got := sizeLabel(64); got != "64B" {
		t.Fatalf("sizeLabel = %q", got)
	}
	if got := sizeLabel(4096); got != "4KB" {
		t.Fatalf("sizeLabel = %q", got)
	}
	if got := sizeLabel(1 << 20); got != "1MB" {
		t.Fatalf("sizeLabel = %q", got)
	}
}

func TestCloneWorkloadTypes(t *testing.T) {
	for _, w := range []workload.Workload{
		&workload.Fileserver{}, &workload.Webserver{}, &workload.Webproxy{},
		&workload.Varmail{}, &workload.Postmark{}, &workload.TPCC{},
		&workload.KernelGrep{}, &workload.KernelMake{},
	} {
		c := cloneWorkload(w)
		if c == w {
			t.Fatalf("%s: clone returned the same instance", w.Name())
		}
		if c.Name() != w.Name() {
			t.Fatalf("clone of %s is %s", w.Name(), c.Name())
		}
	}
}
