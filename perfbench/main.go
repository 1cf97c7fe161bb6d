// Command perfbench is the repository benchmark. It runs one workload
// for a time budget and prints every metric by name with its unit; the
// last line of its output is a JSON object with the keys correct,
// attempted, failed and metrics. From the root of a checkout:
//
//	bash perfbench/run.sh --workload thm317 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced passes;
// with --trace 1 it alternates untraced and traced passes and reports
// the per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"aqt/perfbench/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run: thm317, random-wr, corpus or remark1")
	seed := flag.Int64("seed", 1, "seed of the workload's random inputs (random-wr)")
	seconds := flag.Float64("seconds", 25, "measuring budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := flag.String("root", ".", "repository checkout holding scenarios/")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	// One process with one OS thread running Go code at a time: the
	// numbers compare across hosts with more cores, and the host probe
	// runs on the same thread as the pass it measures (bench/calib.go).
	runtime.GOMAXPROCS(1)
	cfg := bench.Config{
		Workload:  *workload,
		Seed:      *seed,
		Seconds:   *seconds,
		Trace:     *trace == 1,
		MinPasses: 3, // for a median even when one pass outlasts the budget
		Root:      *root,
	}
	if cfg.Trace {
		cfg.MinPasses = 1 // pair of an untraced and a traced pass
		cfg.SpansPath = filepath.Join(*root, ".bench_build", "perfbench", *workload+"-spans.jsonl")
	}
	rep, err := bench.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report(rep)
}

func printMetrics(ms map[string]bench.Metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-36s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func report(rep *bench.Report) {
	fmt.Printf("perfbench %s: %d untraced + %d traced passes, %d units, %d failed\n",
		rep.Workload, rep.Passes, rep.Traced, rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Println("  FAIL", f)
	}
	if rep.Untraced != nil {
		fmt.Println(" untraced passes (end-to-end):")
		printMetrics(rep.Untraced)
		fmt.Println(" traced passes (per-layer):")
	}
	printMetrics(rep.Metrics)
	fmt.Printf("  %-36s %16.6g %s\n", "host.factor", rep.HostFactor, "ratio")
	fmt.Printf("  %-36s %16.6g %s\n", "fail_frac", float64(rep.Failed)/float64(rep.Attempted), "ratio")
	out, err := json.Marshal(struct {
		Correct   bool                    `json:"correct"`
		Attempted int                     `json:"attempted"`
		Failed    int                     `json:"failed"`
		Metrics   map[string]bench.Metric `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
