// Command perfbench is the repository benchmark: four workloads run
// against the real implementation on a simulated four-node cluster, each
// node driving one closed-loop application context. It reports
// end-to-end metrics on two time bases — vt, the modelled paper testbed
// under a pinned cost model (model.go), and host, the wall clock of the
// machine it runs on in units of a fixed reference kernel (hostref.go) —
// and, with --trace 1, per-layer metrics read from
// outside every layer (call timers around public functions, telemetry
// snapshots and the causal tracer). Every output is checked for
// correctness; the last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage:
//
//	perfbench --workload ycsb-b --seed 1 --seconds 20 --trace 0
//	perfbench --calibrate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run())
}

func run() int {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: ycsb-b, hot-counters, pagerank or scan-rw")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 20, "measure for at least this many wall seconds (repetitions of the fixed-work phase)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run reporting per-layer metrics; 0 = untraced end-to-end run")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "results"), "directory for result files and watchdog stack dumps")
	calib := flag.Bool("calibrate", false, "print one fresh host calibration of the CPU path costs and exit")
	flag.Parse()

	if *calib {
		m := calibrate()
		fmt.Printf("GetHit=%d SetHit=%d ApplyHit=%d PinAccess=%d SlowFixed=%d NativeAccess=%d GeminiEdge=%d GamAccess=%d BclLocal=%d\n",
			m.GetHit, m.SetHit, m.ApplyHit, m.PinAccess, m.SlowFixed, m.NativeAccess, m.GeminiEdge, m.GamAccess, m.BclLocal)
		return 0
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	o.sizes = defaultSizes
	o.stall = stallLimit
	runtime.GOMAXPROCS(w.procs)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	fmt.Printf("# perfbench %s seed=%d seconds=%d trace=%d nodes=%d GOMAXPROCS=%d\n",
		w.name, o.seed, o.seconds, o.trace, benchNodes, runtime.GOMAXPROCS(0))
	res := measure(w, o)
	printResult(o, res)
	return 0
}

// printResult writes the human-readable metric lines, the result file,
// and the final JSON line.
func printResult(o options, res result) {
	for _, m := range res.lines {
		fmt.Printf("%-32s %14s %s\n", m.name, m.text(), m.unit)
	}
	fmt.Printf("%-32s %14.6g %s (failed %d of %d attempted)\n", "fail_ratio", res.failRatio(), "ratio", res.failed, res.attempted)
	fmt.Printf("# medians over %d untraced repetitions; latency percentiles over %d calls (%d writes) each\n", res.reps, res.samples, res.writeSamples)
	if res.stacks != "" {
		fmt.Printf("# watchdog fired: goroutine stacks in %s\n", res.stacks)
	}
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]metricValue{}}
	for _, m := range res.lines {
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, o.trace)
	if err := os.WriteFile(filepath.Join(o.outDir, name), append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing result file: %v\n", err)
	}
	os.Stdout.Write(append(b, '\n'))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
