// Command perfbench is trustgrid's end-to-end benchmark. It generates a
// workload from a seed, runs the real service (internal/server) in a
// separate host process in manual virtual-clock mode, drives it in
// closed loop through internal/client, checks every output with an
// independent checker, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics). See README.md.
//
// Usage:
//
//	perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]
//	perfbench --workload NAME --steady N [--seed N] [--seconds N]
//	perfbench serve CONFIG   (the service host; started by the benchmark)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
)

// workDir holds each run's episode directories (WAL, trace, host
// config), relative to the checkout root the benchmark runs from.
const workDir = ".bench_build/runs"

func main() {
	if len(os.Args) == 3 && os.Args[1] == "serve" {
		if err := serve(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "workload name: ingest-durable, stga-rounds or dag-shards")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "time budget of one run, in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	steady := flag.Int("steady", 0, "run the workload N times on seeds seed..seed+N-1 and report each metric's spread")
	flag.Parse()
	// The generator keeps every event of an episode for the checker; a
	// lazier collector leaves more of the shared CPUs to the daemon.
	debug.SetGCPercent(400)
	if *workload == "" || flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if *steady > 0 {
		err = steadiness(*workload, *seed, *seconds, *steady)
	} else {
		err = runOnce(*workload, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runOnce(workload string, seed uint64, seconds int, traced bool) error {
	res, eps, err := runBench(workload, seed, seconds, traced, workDir)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench: workload=%s seed=%d episodes=%d traced=%v\n", workload, seed, len(eps), traced)
	if traced {
		// The traced run's own end-to-end figures, for the tracing
		// overhead against an untraced run of the same seed.
		e2e := &Result{Metrics: map[string]Metric{}}
		endToEnd(e2e, eps, []float64{eps[0].SetupS})
		printMetrics("traced-e2e", e2e.Metrics)
	}
	printMetrics("metric", res.Metrics)
	if !traced {
		referenceFigures(eps)
	}
	fmt.Printf("operations attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func printMetrics(label string, m map[string]Metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s %.6g %s\n", label, n, m[n].Value, m[n].Unit)
	}
}
