package harness

import (
	"strings"
	"testing"

	"hinfs/internal/obs"
	"hinfs/internal/workload"
)

func TestFigureLatencyShape(t *testing.T) {
	fig, err := FigureLatency(fastCfg(), Opts{Quick: true, Ops: 60, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Percentile series for HiNFS and at least one baseline, per op class.
	for _, key := range []string{
		"hinfs/read/p50", "hinfs/write/p99", "hinfs/fsync/p999",
		"pmfs/read/p50", "pmfs/write/p99",
	} {
		if _, ok := fig.Series[key]; !ok {
			t.Errorf("series %q missing", key)
		}
	}
	// The write-path split: Varmail's fsync pressure populates both.
	if fig.Get("hinfs/eager-blocks")+fig.Get("hinfs/lazy-blocks") == 0 {
		t.Error("no write routing recorded")
	}
	if _, ok := fig.Series["hinfs/path/lazy-write/count"]; !ok {
		t.Error("lazy-write path series missing")
	}
	// Percentiles must be ordered within each series.
	for _, base := range []string{"hinfs/write", "pmfs/write"} {
		p50, p99 := fig.Get(base+"/p50"), fig.Get(base+"/p99")
		if p50 > p99 {
			t.Errorf("%s: p50 %v > p99 %v", base, p50, p99)
		}
	}
	out := fig.Table.String()
	for _, want := range []string{"p50(us)", "p999(us)", "hinfs", "pmfs", "eager", "lazy"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestRunResultObsSnapshot(t *testing.T) {
	cfg := fastCfg()
	cfg.Observe = true
	res, err := RunWorkload(HiNFS, cfg,
		&workload.Fileserver{Files: 8, FileSize: 16 << 10, IOSize: 16 << 10}, 2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs == nil {
		t.Fatal("Observe set but RunResult.Obs nil")
	}
	if res.Obs.Op(obs.OpWrite).Count == 0 {
		t.Fatal("no write latencies collected")
	}
	// The op-class hist sits outermost: latencies include the modelled
	// syscall overhead, so the minimum credible p50 is that overhead.
	if p50 := res.Obs.Op(obs.OpWrite).Quantile(0.5); p50 <= 0 {
		t.Fatalf("write p50 %d", p50)
	}
}

func TestObserveOffByDefault(t *testing.T) {
	res, err := RunWorkload(PMFS, fastCfg(),
		&workload.Fileserver{Files: 8, FileSize: 16 << 10, IOSize: 16 << 10}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs != nil {
		t.Fatal("Obs snapshot without Config.Observe")
	}
}
