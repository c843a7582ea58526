// Command hinfs-crash runs the systematic crash-point explorer: it
// runs a workload once while the nvmm device records its persist
// history, walks that history to the state just before each crash point,
// materializes several torn-cacheline images per point (seed 0 always
// drops every pending line), remounts each through journal recovery,
// and verifies both the metadata checker and the application-level
// oracle — plus, with the flight recorder on (default), the
// flight-forensics invariants: the recovered ring's record suffix must
// match the recorded op schedule. After the one-line summary it prints
// the exploration's cost: cases, wall time and cases per second.
//
//	$ go run ./cmd/hinfs-crash -workload varmail -points 500 -perms 3
//	$ go run ./cmd/hinfs-crash -workload traffic -points 20
//	$ go run ./cmd/hinfs-crash -selftest
//	$ go run ./cmd/hinfs-crash -forensics -from 731 -to 731
//
// Every violation prints a repro line whose -from/-to pin the crash
// window to the single failing persist event — paste it back to re-run
// just that case (or add -forensics to dump the recovered flight ring).
//
// Exit status: 0 = exploration clean (or self-test passed), 1 =
// consistency violations found (or self-test failed to find the seeded
// bug), 2 = the exploration itself failed.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"hinfs/internal/crashtest"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		wl        = flag.String("workload", "varmail", "personality: varmail, append, batchfence, reuse (freed-block reuse; adds the stale-bytes invariant), overwrite (journal-free overwrites beside an appender; adds the overwrite-size and overwrite-bytes invariants) or traffic (chaos under multi-tenant server load)")
		ops       = flag.Int("ops", 120, "workload operations per run (deterministic workloads)")
		points    = flag.Int("points", 48, "crash points to explore")
		perms     = flag.Int("perms", 3, "torn-cacheline permutations per point (first is always drop-all)")
		seed      = flag.Uint64("seed", 1, "exploration seed (same seed, same report)")
		from      = flag.Int64("from", 0, "restrict crash window to persist events >= this (0 = start of workload)")
		to        = flag.Int64("to", 0, "restrict crash window to persist events <= this (0 = end of run)")
		device    = flag.Int64("device", 24, "device size (MiB)")
		buffer    = flag.Int("buffer", 512, "DRAM buffer (4 KiB blocks)")
		jblocks   = flag.Int64("journal-blocks", 512, "journal area (4 KiB blocks; deterministic workloads); a small one makes every lane rotate")
		clients   = flag.Int("clients", 2, "clients per tenant (traffic workload)")
		flight    = flag.Bool("flight", true, "record a flight ring in the image and verify the flight-* invariants")
		forensics = flag.Bool("forensics", false, "dump the recovered flight ring as JSON lines (violating cases; with a clean report, the end-of-run image)")
		verbose   = flag.Bool("v", false, "log every crash case to stderr")
		selftest  = flag.Bool("selftest", false, "verify the explorer detects the deliberately seeded §4.1 ordering bug")
	)
	flag.Parse()

	if *wl == "traffic" {
		return runTraffic(*points, *perms, *seed, *clients, *device<<20, *buffer, *verbose)
	}

	cfg := crashtest.Config{
		Workload:   *wl,
		Ops:        *ops,
		Points:     *points,
		Perms:      *perms,
		Seed:       *seed,
		FirstEvent: *from,
		LastEvent:  *to,
		DeviceSize: *device << 20,

		BufferBlocks:  *buffer,
		JournalBlocks: *jblocks,
		Flight:        *flight,
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	if *selftest {
		return runSelftest(cfg)
	}
	start := time.Now()
	rep, err := crashtest.Explore(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hinfs-crash:", err)
		return 2
	}
	fmt.Println(rep.Summary())
	fmt.Println(rate(rep.Cases, start))
	code := printViolations(rep.Violations, rep.Suppressed, reproPrefix(cfg))
	if *forensics {
		if ferr := dumpForensics(cfg, rep); ferr != nil {
			fmt.Fprintln(os.Stderr, "hinfs-crash: forensics:", ferr)
			if code == 0 {
				code = 2
			}
		}
	}
	return code
}

// reproPrefix renders the invocation that reproduces a violation once
// -from/-to pin the event; printViolations appends those per violation.
func reproPrefix(cfg crashtest.Config) string {
	s := fmt.Sprintf("hinfs-crash -workload %s -ops %d -seed %d -perms %d",
		cfg.Workload, cfg.Ops, cfg.Seed, cfg.Perms)
	if !cfg.Flight {
		s += " -flight=false"
	}
	if cfg.JournalBlocks != 512 {
		s += fmt.Sprintf(" -journal-blocks %d", cfg.JournalBlocks)
	}
	return s
}

// dumpForensics writes the recovered flight ring for up to three
// distinct violating cases (or, with a clean report, for a drop-all
// crash at the last persist event) as JSON lines on stdout.
func dumpForensics(cfg crashtest.Config, rep *crashtest.Report) error {
	type c struct {
		ev   int64
		seed uint64
	}
	var cases []c
	seen := map[c]bool{}
	for _, v := range rep.Violations {
		k := c{v.Event, v.Seed}
		if v.Event > 0 && !seen[k] {
			seen[k] = true
			cases = append(cases, k)
		}
		if len(cases) == 3 {
			break
		}
	}
	if len(cases) == 0 {
		cases = append(cases, c{rep.TotalEvents, 0})
	}
	for _, k := range cases {
		fmt.Printf("forensics: flight ring recovered from crash at event %d, torn seed %#x\n", k.ev, k.seed)
		if err := crashtest.Forensics(cfg, k.ev, k.seed, os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func runTraffic(points, perms int, seed uint64, clients int, device int64, buffer int, verbose bool) int {
	cfg := crashtest.TrafficConfig{
		Points:           points,
		Perms:            perms,
		Seed:             seed,
		ClientsPerTenant: clients,
		DeviceSize:       device,
		BufferBlocks:     buffer,
	}
	if verbose {
		cfg.Log = os.Stderr
	}
	start := time.Now()
	rep, err := crashtest.ExploreTraffic(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hinfs-crash:", err)
		return 2
	}
	fmt.Println(rep.Summary())
	fmt.Println(rate(rep.Cases, start))
	// Traffic runs are not deterministic; the violation lines identify
	// the case but there is no replayable -from/-to repro.
	return printViolations(rep.Violations, rep.Suppressed, "")
}

// runSelftest proves the explorer has teeth: stock HiNFS must survive
// the exploration clean, and the same exploration against the
// deliberately broken §4.1 ordering (commit records written before the
// buffered data persists) must report at least one violation.
func runSelftest(cfg crashtest.Config) int {
	if cfg.Workload == "varmail" {
		// The bug needs lazy-write windows; varmail fsyncs everything.
		cfg.Workload = "append"
	}
	fmt.Printf("selftest 1/2: stock HiNFS, workload %s\n", cfg.Workload)
	start := time.Now()
	rep, err := crashtest.Explore(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hinfs-crash: selftest:", err)
		return 2
	}
	fmt.Println("  " + rep.Summary())
	fmt.Println("  " + rate(rep.Cases, start))
	if code := printViolations(rep.Violations, rep.Suppressed, reproPrefix(cfg)); code != 0 {
		fmt.Fprintln(os.Stderr, "hinfs-crash: selftest: stock HiNFS must explore clean")
		return code
	}
	fmt.Println("selftest 2/2: seeded ordering bug (UnsafeSkipOrderedCommit)")
	cfg.UnsafeSkipOrderedCommit = true
	start = time.Now()
	rep, err = crashtest.Explore(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hinfs-crash: selftest:", err)
		return 2
	}
	fmt.Println("  " + rep.Summary())
	fmt.Println("  " + rate(rep.Cases, start))
	if len(rep.Violations) == 0 {
		fmt.Fprintln(os.Stderr, "hinfs-crash: selftest: seeded ordering bug went UNDETECTED")
		return 1
	}
	fmt.Printf("  detected, first repro: %s\n", rep.Violations[0])
	fmt.Println("selftest passed")
	return 0
}

// rate renders an exploration's cost: its cases, its wall time since
// start and the cases per second.
func rate(cases int, start time.Time) string {
	s := time.Since(start).Seconds()
	return fmt.Sprintf("explored %d cases in %.1f s (%.1f cases/s)", cases, s, float64(cases)/s)
}

func printViolations(violations []crashtest.Violation, suppressed int, repro string) int {
	const show = 20
	for i, v := range violations {
		if i == show {
			fmt.Printf("... and %d more\n", len(violations)-show+suppressed)
			break
		}
		fmt.Println("VIOLATION", v)
		if repro != "" && v.Event > 0 {
			fmt.Printf("  repro: %s -from %d -to %d\n", repro, v.Event, v.Event)
		}
	}
	if len(violations) > 0 {
		return 1
	}
	return 0
}
