package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
)

// fingerprint says what a set of numbers was measured on and with.
type fingerprint struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	GitRev     string  `json:"git_rev"`
	Seed       uint64  `json:"seed"`
	WindowS    float64 `json:"window_s"`
	TracedS    float64 `json:"traced_window_s"`
	WarmupS    float64 `json:"warmup_s"`
	Device     string  `json:"device"`
}

func newFingerprint(o options) fingerprint {
	return fingerprint{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitRev:     gitRev(),
		Seed:       o.seed,
		WindowS:    o.window.Seconds(),
		TracedS:    (o.window / 2).Seconds(),
		WarmupS:    warmup(o.window).Seconds(),
		Device:     describeDevice(),
	}
}

func gitRev() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (f fingerprint) String() string {
	return fmt.Sprintf("%s GOMAXPROCS=%d nproc=%d rev=%s seed=%d window=%gs traced=%gs warmup=%gs device: %s",
		f.Go, f.GOMAXPROCS, f.NumCPU, f.GitRev, f.Seed, f.WindowS, f.TracedS, f.WarmupS, f.Device)
}

// document is what the suite writes: hinfs-benchmark/v1.
type document struct {
	Schema      string        `json:"schema"`
	Fingerprint fingerprint   `json:"fingerprint"`
	EndToEnd    []metricDef   `json:"end_to_end"`
	PerLayer    []metricDef   `json:"per_layer"`
	Workloads   []workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	Name        string  `json:"name"`
	Why         string  `json:"why"`
	FailedShare float64 `json:"failed_share"`
	E2E         *result `json:"e2e,omitempty"`
	Trace       *result `json:"trace,omitempty"`
}

func selected(w *workload) []*workload {
	if w != nil {
		return []*workload{w}
	}
	return workloads
}

// runSuite runs both passes of every selected workload, each in a child
// process, prints every metric by name and writes the document.
func runSuite(o options, only *workload) error {
	doc := document{Schema: "hinfs-benchmark/v1", Fingerprint: newFingerprint(o), EndToEnd: endToEnd, PerLayer: perLayer}
	fmt.Println("fingerprint:", doc.Fingerprint)
	var attempted, failed int64
	for _, w := range selected(only) {
		wd := workloadDoc{Name: w.name, Why: w.why}
		for _, pass := range []string{"e2e", "trace"} {
			fmt.Printf("\n%s, %s pass:\n", w.name, pass)
			r, err := child(o, w.name, pass, true)
			if err != nil {
				return err
			}
			attempted, failed = attempted+r.Attempted, failed+r.Failed
			if pass == "trace" {
				wd.Trace = &r
			} else {
				wd.E2E = &r
			}
		}
		wd.FailedShare = ratio(float64(wd.E2E.Failed+wd.Trace.Failed), float64(wd.E2E.Attempted+wd.Trace.Attempted))
		fmt.Printf("  %-34s %16.4f share  must be 0\n", "failed_share", wd.FailedShare)
		doc.Workloads = append(doc.Workloads, wd)
	}
	out := o.out
	if out == "" {
		out = filepath.Join(outDir(), "BENCH.json")
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	if failed > 0 {
		return fmt.Errorf("%d of %d ops failed or mis-verified", failed, attempted)
	}
	return nil
}

// runAA runs the end-to-end pass o.aa times, each on the next seed, and
// judges every workload x metric the way the acceptance rule does: the
// distance between the quartiles, as a share of the median, against the
// metric's bound.
func runAA(o options, only *workload) error {
	fmt.Println("fingerprint:", newFingerprint(o), "runs:", o.aa)
	values := make(map[string][]float64)
	var failed int64
	for i := 0; i < o.aa; i++ {
		oi := o
		oi.seed = o.seed + uint64(i)
		for _, w := range selected(only) {
			r, err := child(oi, w.name, "e2e", false)
			if err != nil {
				return err
			}
			failed += r.Failed
			for _, d := range endToEnd {
				key := w.name + " " + d.Name
				values[key] = append(values[key], r.Metrics[d.Name].Value)
			}
			fmt.Printf("run %d seed %d %s: %.0f ops/s, failed %d\n", i+1, oi.seed, w.name, r.Metrics["ops_per_s"].Value, r.Failed)
		}
	}
	breaches := 0
	fmt.Printf("\n%-13s %-25s %12s %12s %12s %8s %6s\n", "workload", "metric", "min", "median", "max", "spread", "bound")
	for _, w := range selected(only) {
		for _, d := range endToEnd {
			v := values[w.name+" "+d.Name]
			sp, verdict := 0.0, ""
			if len(v) >= 2 {
				sp = spread(v)
			}
			// setup_s is held to its bound between medians, not within a set.
			if sp > d.Bound && d.Name != "setup_s" {
				verdict = "  BREACH"
				breaches++
			} else if sp > d.Bound/3 {
				verdict = "  (above a third of the bound)"
			}
			fmt.Printf("%-13s %-25s %12.4f %12.4f %12.4f %8.4f %6.2f%s\n",
				w.name, d.Name, slices.Min(v), median(v), slices.Max(v), sp, d.Bound, verdict)
		}
	}
	if breaches > 0 || failed > 0 {
		return fmt.Errorf("%d spreads beyond their bound, %d failed ops", breaches, failed)
	}
	return nil
}
