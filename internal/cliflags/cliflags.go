// Package cliflags defines the cluster flags the command-line tools
// share — -tx-burst, -pipeline, -prefetch, -no-coalesce, -ship,
// -chaos/-chaos-seed, -metrics, -trace-out and -trace-sample — so each
// tool spells, documents and validates them the same way.
package cliflags

import (
	"flag"
	"fmt"
	"os"

	"darray/internal/chaos"
	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/fault"
	"darray/internal/trace"
	"darray/internal/vtime"
)

// Flags holds the parsed shared flags.
type Flags struct {
	// Knobs carries the data-path knobs: TxBurst, PipelineDepth,
	// PrefetchAhead, DisableCoalesce and Ship. Its other fields are zero.
	Knobs       cluster.Config
	Chaos       bool
	ChaosSeed   int64
	Metrics     bool
	TraceOut    string
	TraceSample int

	prog string
	trc  *trace.Tracer
	plan *fault.Plan
}

// Register defines the shared flags on the default command line of the
// tool prog, which prefixes its error messages.
func Register(prog string) *Flags {
	f := &Flags{prog: prog}
	k := &f.Knobs
	flag.IntVar(&k.TxBurst, "tx-burst", 0, "work requests per doorbell in the Tx thread (0 default, 1 or -1 disables batching)")
	flag.IntVar(&k.PipelineDepth, "pipeline", 0, "outstanding chunk fetches per bulk range (0 default, 1 or -1 serial)")
	flag.IntVar(&k.PrefetchAhead, "prefetch", 0, "chunks prefetched on a sequential miss (0 default, -1 disables prefetch and the detector)")
	flag.BoolVar(&k.DisableCoalesce, "no-coalesce", false, "disable destination coalescing of coherence commands")
	flag.StringVar(&k.Ship, "ship", "auto", "function-shipping mode: auto (per-chunk contention estimator), on, off")
	flag.BoolVar(&f.Chaos, "chaos", false, "inject seeded fabric faults: drops, dups, spikes, a partition window, a stalled node (enables the virtual-time model: fault windows are vtime-keyed)")
	flag.Int64Var(&f.ChaosSeed, "chaos-seed", 1, "fault plan seed for -chaos; the same seed replays the same plan")
	flag.BoolVar(&f.Metrics, "metrics", false, "collect cluster telemetry and print its report after the run")
	flag.StringVar(&f.TraceOut, "trace-out", "", "record causal spans and write a Perfetto-loadable Chrome trace to this file (enables the virtual-time model)")
	flag.IntVar(&f.TraceSample, "trace-sample", 1, "with -trace-out, sample every Nth public op as a trace root")
	return f
}

// Parse parses the command line. An invalid -ship prints one line on
// stderr and exits with status 2, before any cluster is built.
func (f *Flags) Parse() {
	flag.Parse()
	if err := cluster.CheckShip(f.Knobs.Ship); err != nil {
		fmt.Fprintf(os.Stderr, "%s: -ship: %v\n", f.prog, err)
		os.Exit(2)
	}
}

// Tracer returns the enabled span tracer -trace-out asks for, built on
// the first call, or nil without -trace-out.
func (f *Flags) Tracer() *trace.Tracer {
	if f.trc == nil && f.TraceOut != "" {
		f.trc = trace.New(0)
		f.trc.Enable(f.TraceSample)
	}
	return f.trc
}

// Config returns the configuration of a tool's single cluster of the
// given size: the knobs, -metrics, core's message names, a seeded fault
// plan under -chaos (announced on stdout) and the tracer under
// -trace-out. Either of the last two switches on the default
// virtual-time model.
func (f *Flags) Config(nodes int) cluster.Config {
	cfg := f.Knobs
	cfg.Nodes = nodes
	cfg.Metrics = f.Metrics
	cfg.MsgKindName = core.KindName
	if f.Chaos {
		f.plan = fault.New(chaos.DefaultFaults(f.ChaosSeed, nodes))
		cfg.Faults = f.plan
		fmt.Printf("chaos: fault injection on, seed=%d\n", f.ChaosSeed)
	}
	cfg.Tracer = f.Tracer()
	if f.Chaos || cfg.Tracer != nil {
		cfg.Model = vtime.Default()
	}
	return cfg
}

// WriteTrace writes the -trace-out file and prints its span summary and
// stage report; it does nothing without -trace-out and exits with
// status 1 when the file cannot be written.
func (f *Flags) WriteTrace() {
	if f.trc == nil {
		return
	}
	if err := f.trc.WriteFile(f.TraceOut); err != nil {
		fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
		os.Exit(1)
	}
	spans := f.trc.Spans()
	fmt.Printf("# trace\nwrote %s (%d spans; load in https://ui.perfetto.dev)\n%s\n",
		f.TraceOut, len(spans), trace.Summarize(spans))
	fmt.Println(f.trc.StageReport())
}

// Finish reports on a finished run of the cluster built from Config:
// its metrics (-metrics), the trace (-trace-out) and the fault
// statistics (-chaos). A chaos run that degraded the cluster exits with
// status 1.
func (f *Flags) Finish(c *cluster.Cluster) {
	if f.Metrics {
		fmt.Print(c.MetricsReport())
	}
	f.WriteTrace()
	if f.plan != nil {
		fmt.Printf("chaos: seed=%d %s\n", f.ChaosSeed, f.plan.Stats())
		if err := c.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "chaos: cluster degraded (seed=%d): %v\n", f.ChaosSeed, err)
			os.Exit(1)
		}
	}
}
