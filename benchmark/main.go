// Command benchmark is the repository's benchmark: five closed-loop
// workloads on the Table-2 HiNFS stack, the end-to-end metrics a caller of
// the file system sees, and a ledger of what each layer did, measured from
// outside. See README.md beside this file.
//
// With -workload and -trace (or -pass) it runs one pass of one workload in
// this process and prints one result as the last line of its output. With
// neither it runs the suite: every workload, both passes, each pass in a
// re-exec'd child so that heap, peak memory and goroutines start clean.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeconds = 15 // BENCHMARK.json's run_seconds
	maxWarm        = 3 * time.Second
	setupRuns      = 5 // set-ups per run; setup_s is their median
)

// result is what one pass of one workload reports, as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type options struct {
	workload string
	seed     uint64
	window   time.Duration
	pass     string
	aa       int
	out      string
}

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the op stream")
	flag.Float64Var(&seconds, "seconds", defaultSeconds, "length of the timed window in seconds")
	flag.DurationVar(&o.window, "window", 0, "length of the timed window as a duration (overrides -seconds)")
	flag.IntVar(&trace, "trace", -1, "0: the untraced pass (end-to-end metrics); 1: the traced pass (per-layer metrics)")
	flag.StringVar(&o.pass, "pass", "all", "e2e, trace, setup (set-up only, timed) or all")
	flag.IntVar(&o.aa, "aa", 0, "run the end-to-end pass N times on N seeds and judge the spread of every metric against its bound")
	flag.StringVar(&o.out, "out", "", "where the suite writes its JSON document (default: out/BENCH.json beside the benchmark)")
	flag.Parse()
	if o.window == 0 {
		o.window = time.Duration(seconds * float64(time.Second))
	}
	switch trace {
	case 0:
		o.pass = "e2e"
	case 1:
		o.pass = "trace"
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if flag.NArg() > 0 || o.window <= 0 {
		return errors.New("usage: benchmark [-workload name] [-seed n] [-seconds s | -window d] [-trace 0|1 | -pass e2e|trace|setup|all] [-aa n] [-out file]")
	}
	var w *workload
	if o.workload != "" {
		if w = findWorkload(o.workload); w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	if o.aa > 0 {
		return runAA(o, w)
	}
	if o.pass == "all" {
		return runSuite(o, w)
	}
	if w == nil {
		return errors.New("-pass " + o.pass + " needs -workload")
	}
	switch o.pass {
	case "setup":
		return passSetup(w, o)
	case "e2e":
		return passE2E(w, o)
	case "trace":
		return passTrace(w, o)
	}
	return fmt.Errorf("unknown pass %q", o.pass)
}

func warmup(window time.Duration) time.Duration { return min(window/5, maxWarm) }

// passSetup sets up once and reports how long that took.
func passSetup(w *workload, o options) error {
	in, err := setUp(w, o.seed, devTable2, nil, o.window)
	if err != nil {
		return err
	}
	in.s.abandon()
	return emit(result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
		"setup_s": {in.setup.Seconds(), "s"},
	}})
}

// e2e is the untraced pass without its extra set-ups: set-up, warm-up, one
// timed window, verification and the crash leg. It returns the window, the
// verification, and the run's own set-up time and peak memory.
func e2e(w *workload, o options) (*window, checked, map[string]float64, error) {
	in, err := setUp(w, o.seed, devTable2, nil, o.window)
	if err != nil {
		return nil, checked{}, nil, err
	}
	win := in.measure(warmup(o.window), o.window, nil)
	peak, err := peakMiB()
	if err != nil {
		return nil, checked{}, nil, err
	}
	v := in.verify()
	if w.crashLeg {
		v.add(crashLeg(w, o.seed))
	}
	return win, v, e2eMetrics(win, in.setup, peak), nil
}

// passE2E is the untraced pass. setup_s is the median of this run's set-up
// and of further set-ups, each in a fresh process like the first.
func passE2E(w *workload, o options) error {
	win, v, m, err := e2e(w, o)
	if err != nil {
		return err
	}
	setups := []float64{m["setup_s"]}
	for len(setups) < setupRuns {
		r, err := child(o, w.name, "setup", false)
		if err != nil {
			return err
		}
		setups = append(setups, r.Metrics["setup_s"].Value)
	}
	m["setup_s"] = median(setups)
	report(w, win, v)
	return emit(finish(win, v, m, endToEnd))
}

// passTrace is the traced pass. An untraced reference window on a stack of
// its own gives the client-side diagnostics and the rate tracing is judged
// against; the traced window gives the counts, the collector's paths and
// the spans; the drives give each layer's software time.
func passTrace(w *workload, o options) error {
	r, err := traced(w, o)
	if err != nil {
		return err
	}
	return emit(r)
}

func traced(w *workload, o options) (result, error) {
	half := o.window / 2
	ref, err := setUp(w, o.seed, devTable2, nil, half)
	if err != nil {
		return result{}, err
	}
	refWin := ref.measure(warmup(half), half, nil)
	ref.s.abandon()

	ring := newSpanRing()
	in, err := setUp(w, o.seed, devTable2, ring, half)
	if err != nil {
		return result{}, err
	}
	win := in.measure(warmup(half), half, func() {
		in.s.resetPaths()
		ring.reset()
	})
	spans, lost := ring.spans()
	spans = append([]span(nil), spans...) // verification goes through the interposers too
	ghost := in.s.ghostLen()
	lazyW, eagerW, directR, bufferedR, flush := in.s.pathP50us()
	v := in.verify()

	m, err := drives()
	if err != nil {
		return result{}, err
	}
	clientMetrics(refWin, m)
	countMetrics(win, m)
	parent := linkSpans(spans)
	spanMetrics(selfTimes(spans, parent), w.served, len(spans), m)
	m["benefit.ghost_len"] = float64(ghost)
	m["core.lazy_write_p50_us"], m["core.eager_write_p50_us"] = lazyW, eagerW
	m["core.direct_read_p50_us"], m["core.buffered_read_p50_us"] = directR, bufferedR
	m["core.nvmm_flush_p50_us"] = flush
	m["pmfs.mount_ms"], m["pmfs.fsck_errors"] = ms(v.mount), float64(v.fsckErrors)
	m["buffer.unmount_flush_ms"] = ms(v.drain)
	refRate, rate := float64(refWin.ops)/refWin.wall.Seconds(), float64(win.ops)/win.wall.Seconds()
	m["trace.overhead_share"] = ratio(refRate-rate, refRate)

	path := filepath.Join(outDir(), "trace-"+w.name+".jsonl")
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return result{}, err
	}
	if err := writeSpans(path, spans, parent); err != nil {
		return result{}, err
	}
	report(w, win, v)
	fmt.Printf("spans: %d retained, %d overwritten, written to %s\n", len(spans), lost, path)
	win.attempted += refWin.attempted
	win.failed += refWin.failed
	if win.firstErr == nil {
		win.firstErr = refWin.firstErr
	}
	return finish(win, v, m, perLayer), nil
}

// finish folds a window and its verification into a result carrying
// exactly the metrics of defs.
func finish(win *window, v checked, m map[string]float64, defs []metricDef) result {
	r := result{
		Attempted: win.attempted + v.attempted,
		Failed:    win.failed + v.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	return r
}

// report prints what a pass saw that the metrics do not carry.
func report(w *workload, win *window, v checked) {
	fmt.Printf("%s: %d ops in %v, %d attempted, %d failed; verification: %d checks, %d failed, fsck %d\n",
		w.name, win.ops, win.wall.Round(time.Millisecond), win.attempted, win.failed, v.attempted, v.failed, v.fsckErrors)
	for _, err := range []error{win.firstErr, v.firstErr} {
		if err != nil {
			fmt.Println("first failure:", err)
		}
	}
	if win.dropped > 0 {
		fmt.Printf("warning: %d latency samples beyond the preallocated arrays were not kept\n", win.dropped)
	}
}

// emit prints every metric by name with its unit, then the result as one
// JSON object on the last line.
func emit(r result) error {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			v, ok := r.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Printf("  %-34s %16.4f %-6s", d.Name, v.Value, v.Unit)
			if d.Bound > 0 {
				fmt.Printf(" %s is better, bound %g", d.Better, d.Bound)
			}
			fmt.Println()
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// child runs one pass of one workload in a fresh process and returns the
// result on the last line of its output; echo passes on the lines before it.
func child(o options, workload, pass string, echo bool) (result, error) {
	var r result
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-pass", pass,
		"-seed", strconv.FormatUint(o.seed, 10), "-window", o.window.String())
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("%s -pass %s: %w", workload, pass, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return r, fmt.Errorf("%s -pass %s: no result on the last line: %w", workload, pass, err)
	}
	if echo {
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	}
	return r, nil
}

// peakMiB is the process's peak resident set (VmHWM).
func peakMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) == 3 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// outDir is where span files and the suite's document go: out/ in the
// benchmark's directory, whether started there or at the repository root.
func outDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}
