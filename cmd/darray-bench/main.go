// Command darray-bench regenerates the paper's evaluation tables and
// figures (§6). Each figure runs the real systems over the simulated
// RDMA fabric and reports virtual-time results from the calibrated cost
// model (see DESIGN.md for the methodology).
//
// Usage:
//
//	darray-bench -list
//	darray-bench -fig fig13
//	darray-bench -all
//	darray-bench -fig fig16 -graph-scale 16 -max-nodes 8
//	darray-bench -fig fig1 -metrics
//	darray-bench -all -metrics -metrics-addr :8080   # live /debug/metrics + pprof
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"darray/internal/bench"
	"darray/internal/chaos"
	"darray/internal/cluster"
	"darray/internal/fault"
	"darray/internal/telemetry"
	"darray/internal/trace"
)

func main() {
	var (
		fig        = flag.String("fig", "", "experiment id to run (fig1, fig12..fig18, ablation)")
		all        = flag.Bool("all", false, "run every experiment")
		list       = flag.Bool("list", false, "list experiments")
		maxNodes   = flag.Int("max-nodes", 6, "largest simulated node count")
		words      = flag.Int64("words-per-node", 1<<16, "array words per node (weak scaling unit)")
		graphScale = flag.Int("graph-scale", 13, "R-MAT scale for fig16 (paper: 24)")
		prIters    = flag.Int("pr-iters", 5, "PageRank iterations")
		kvRecords  = flag.Int64("kv-records", 4096, "KVS record count")
		kvOps      = flag.Int("kv-ops", 2000, "KVS ops per thread")
		zipfOps    = flag.Int("zipf-ops", 20000, "fig14 ops per node")
		randomOps  = flag.Int("random-ops", 20000, "fig18 ops per node")
		threads    = flag.String("threads", "1,2,4,8", "thread sweep for fig12/fig17")
		metrics    = flag.Bool("metrics", false, "collect telemetry; print per-experiment deltas and a final cluster-wide report")
		metricsFmt = flag.String("metrics-format", "text", "final report format: text or json")
		metricAddr = flag.String("metrics-addr", "", "serve live metrics (expvar, /debug/metrics, pprof) on this address; implies -metrics")
		chaosOn    = flag.Bool("chaos", false, "inject seeded fabric faults under every experiment (drops, dups, spikes, a partition window, a stalled node)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "fault plan seed for -chaos; the same seed replays the same plan")
		jsonOut    = flag.String("json-out", "", "run the micro suite and write machine-readable results (e.g. BENCH_micro.json)")
		txBurst    = flag.Int("tx-burst", 0, "work requests per doorbell in the Tx thread (0 default, 1 or -1 disables batching); a ceiling when congestion control is on")
		pipeDepth  = flag.Int("pipeline", 0, "outstanding chunk fetches per bulk range (0 default, 1 or -1 serial); a ceiling when congestion control is on")
		prefetch   = flag.Int("prefetch", 0, "chunks prefetched on a sequential miss (0 default, -1 disables prefetch and the detector)")
		noCoalesce = flag.Bool("no-coalesce", false, "disable destination coalescing of coherence commands")
		noCC       = flag.Bool("no-cc", false, "disable congestion control: -pipeline and -tx-burst become fixed settings instead of ceilings")
		ship       = flag.String("ship", "auto", "function-shipping mode: auto (per-chunk contention estimator), on, off")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		traceOut   = flag.String("trace-out", "", "record causal spans and write a Perfetto-loadable Chrome trace to this file")
		traceEvery = flag.Int("trace-sample", 1, "with -trace-out, sample every Nth public op as a trace root")
	)
	flag.Parse()
	if err := cluster.CheckShip(*ship); err != nil {
		fmt.Fprintf(os.Stderr, "darray-bench: -ship: %v\n", err)
		os.Exit(2)
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	fmt.Println("calibrating cost model on this host...")
	model := bench.DefaultModel()
	p := bench.DefaultParams(model)
	p.MaxNodes = *maxNodes
	p.WordsPerNode = *words
	p.GraphScale = *graphScale
	p.PRIters = *prIters
	p.KVRecords = *kvRecords
	p.KVOps = *kvOps
	p.ZipfOps = *zipfOps
	p.RandomOps = *randomOps
	p.Threads = parseInts(*threads)
	p.TxBurst = *txBurst
	p.PipelineDepth = *pipeDepth
	p.PrefetchAhead = *prefetch
	p.DisableCoalesce = *noCoalesce
	p.NoCC = *noCC
	p.Ship = *ship
	if *metricAddr != "" {
		*metrics = true
	}
	var trc *trace.Tracer
	if *traceOut != "" {
		trc = trace.New(0)
		trc.Enable(*traceEvery)
		p.Tracer = trc
	}
	if *metrics {
		reg := telemetry.New()
		reg.Enable()
		p.Telemetry = reg
		if *metricAddr != "" {
			// expvar under /debug/vars, the registry under /debug/metrics,
			// and net/http/pprof's handlers — all on the default mux.
			reg.Publish("darray")
			http.Handle("/debug/metrics", reg.Handler())
			go func() {
				if err := http.ListenAndServe(*metricAddr, nil); err != nil {
					fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
				}
			}()
			fmt.Printf("serving metrics on %s (/debug/metrics, /debug/vars, /debug/pprof)\n", *metricAddr)
		}
	}
	var (
		chaosMu    sync.Mutex
		chaosPlans []*fault.Plan
	)
	if *chaosOn {
		p.Faults = func(nodes int) *fault.Plan {
			plan := fault.New(chaos.DefaultFaults(*chaosSeed, nodes))
			chaosMu.Lock()
			chaosPlans = append(chaosPlans, plan)
			chaosMu.Unlock()
			return plan
		}
		fmt.Printf("chaos: fault injection on, seed=%d (replay with -chaos-seed %d)\n", *chaosSeed, *chaosSeed)
	}
	bench.PrintModel(os.Stdout, p)
	fmt.Println()

	run := func(e bench.Experiment) {
		start := time.Now()
		bench.RunAndPrint(os.Stdout, e, p)
		fmt.Printf("(%s completed in %v wall time)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	switch {
	case *all:
		for _, e := range bench.Experiments() {
			run(e)
		}
	case *fig != "":
		e, ok := bench.Find(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *fig)
			os.Exit(1)
		}
		run(e)
	case *jsonOut != "":
		// -json-out alone runs just the micro suite (below).
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *jsonOut != "" {
		start := time.Now()
		if err := bench.WriteMicroJSON(*jsonOut, p); err != nil {
			fmt.Fprintf(os.Stderr, "json-out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (micro suite, %v wall time)\n", *jsonOut, time.Since(start).Round(time.Millisecond))
	}

	if trc != nil {
		if err := trc.WriteFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			os.Exit(1)
		}
		spans := trc.Spans()
		fmt.Printf("# trace\nwrote %s (%d spans; load in https://ui.perfetto.dev)\n%s\n",
			*traceOut, len(spans), trace.Summarize(spans))
		fmt.Println(trc.StageReport())
	}
	if p.Telemetry != nil {
		snap := p.Telemetry.Snapshot().NonZero()
		if *metricsFmt == "json" {
			fmt.Println(snap.JSON())
		} else {
			fmt.Printf("# cumulative metrics (all experiments)\n%s", snap.Report())
		}
	}
	if *chaosOn {
		var total fault.Stats
		chaosMu.Lock()
		for _, plan := range chaosPlans {
			total = total.Merge(plan.Stats())
		}
		n := len(chaosPlans)
		chaosMu.Unlock()
		fmt.Printf("chaos: seed=%d clusters=%d %s\n", *chaosSeed, n, total)
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fmt.Fprintf(os.Stderr, "bad thread list %q\n", s)
			os.Exit(2)
		}
		out = append(out, n)
	}
	return out
}
