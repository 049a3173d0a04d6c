package bench

import (
	"fmt"
	"io"
	"sort"

	"darray/internal/stats"
	"darray/internal/telemetry"
)

// Experiment is one reproducible table/figure from the paper.
type Experiment struct {
	ID    string
	Title string
	Run   func(p Params) []stats.Table
}

// Experiments returns the registry, sorted by id.
func Experiments() []Experiment {
	exps := []Experiment{
		{"fig1", "8-byte sequential access latency (single vs distributed)", Fig1},
		{"fig12", "Sequential R/W/O throughput vs threads (intra-node scalability)", Fig12},
		{"fig13", "Sequential R/W/O throughput vs nodes (inter-node scalability)", Fig13},
		{"fig14", "Zipfian write_add: Operate vs WLock+Read+Write", Fig14},
		{"fig15", "Sequential read: DArray vs DArray-Pin", Fig15},
		{"fig16", "Graph analytics: PageRank and Connected Components", Fig16},
		{"fig17", "KVS YCSB throughput: DArray-KVS vs GAM-KVS", Fig17},
		{"fig18", "Random access latency (poor locality limitation)", Fig18},
		{"ablation", "Design ablations: prefetch, chunk size, signaling, runtimes", Ablations},
		{"stream", "Streaming bulk transfers: pipelined ranges, doorbell batching, coalescing", Stream},
		{"hotspot", "Function-shipping crossover: RMW-heavy hot keys, skew × ship mode", Hotspot},
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAndPrint executes an experiment and writes its tables to w. When
// p.Telemetry is set, the metric delta attributable to this experiment
// (counters accumulated by its clusters, folded in as they close) is
// appended after the tables.
func RunAndPrint(w io.Writer, e Experiment, p Params) {
	fmt.Fprintf(w, "## %s — %s\n\n", e.ID, e.Title)
	var before telemetry.Snapshot
	if p.Telemetry != nil {
		before = p.Telemetry.Snapshot()
	}
	for _, t := range e.Run(p) {
		fmt.Fprintln(w, t.Render())
	}
	if p.Telemetry != nil {
		delta := p.Telemetry.Snapshot().Delta(before).NonZero()
		if len(delta.Metrics) > 0 {
			fmt.Fprintf(w, "### %s metrics\n\n%s\n", e.ID, delta.Report())
		}
	}
}

// PrintModel dumps the calibrated cost model for the experiment record.
func PrintModel(w io.Writer, p Params) {
	m := p.Model
	if m == nil {
		fmt.Fprintln(w, "model: none (wall-clock only)")
		return
	}
	fmt.Fprintf(w, "cost model (ns): wire=%d rtt8=%d rpc=%d lock=%d | native=%d getHit=%d setHit=%d applyHit=%d pin=%d gam+=%d bclLocal=%d slowFixed=%d\n",
		m.Wire, m.RTT8, m.RPCService, m.LockService,
		m.NativeAccess, m.GetHit, m.SetHit, m.ApplyHit, m.PinAccess,
		m.GamAccess, m.BclLocal, m.SlowFixed)
}
