package bench

import (
	"sync"

	"darray/internal/bcl"
	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/fault"
	"darray/internal/gam"
	"darray/internal/stats"
	"darray/internal/telemetry"
	"darray/internal/trace"
	"darray/internal/vtime"
)

// Params scales the experiments. Defaults reproduce the paper's shapes
// at container-friendly sizes; the paper's full sizes are reachable via
// cmd/darray-bench flags.
type Params struct {
	Model        *vtime.Model
	WordsPerNode int64 // weak-scaled global array growth per node
	MaxNodes     int
	Threads      []int // intra-node sweep (Fig. 12, 17)
	GraphScale   int   // R-MAT scale for Fig. 16
	PRIters      int
	KVRecords    int64
	KVOps        int // per thread
	ZipfOps      int // per node, Fig. 14
	RandomOps    int // per node, Fig. 18
	HotOps       int // per node, hotspot crossover (0: fall back to ZipfOps)

	// Telemetry, when non-nil, is shared by every cluster the experiments
	// build; each cluster folds its final counters into it on Close, so
	// per-experiment deltas survive the (short-lived) clusters that
	// produced them.
	Telemetry *telemetry.Registry

	// Faults, when non-nil, supplies a fresh fault plan for each cluster
	// an experiment builds (the -chaos flag wires this up). A fresh plan
	// per cluster keeps targeted Nth-message rules and fault logs scoped
	// to one cluster's lifetime.
	Faults func(nodes int) *fault.Plan

	// Transport and pipeline knobs, forwarded to every cluster the
	// experiments build. Zero values keep the cluster defaults; -1
	// disables (see cluster.Config).
	TxBurst         int
	PipelineDepth   int
	PrefetchAhead   int
	DisableCoalesce bool

	// Ship selects the function-shipping mode for every cluster the
	// experiments build: "" or "auto" (per-chunk estimator), "on", "off".
	Ship string

	// Tracer, when non-nil, is attached to every cluster the experiments
	// build so sampled ops record causal span trees (the -trace-out flag
	// wires this up). Enable it (trace.Tracer.Enable) before running.
	Tracer *trace.Tracer
}

// DefaultParams returns container-friendly sizes.
func DefaultParams(m *vtime.Model) Params {
	return Params{
		Model:        m,
		WordsPerNode: 1 << 16,
		MaxNodes:     6,
		Threads:      []int{1, 2, 4, 8},
		GraphScale:   13,
		PRIters:      5,
		KVRecords:    4096,
		KVOps:        2000,
		ZipfOps:      20000,
		RandomOps:    20000,
		HotOps:       8000,
	}
}

func (p Params) cluster(nodes int) *cluster.Cluster {
	words := p.WordsPerNode * int64(nodes)
	chunks := words / 512
	perRT := chunks / 2 / 2 // cache half the array per node, split over 2 runtimes
	if perRT < 32 {
		perRT = 32
	}
	var plan *fault.Plan
	if p.Faults != nil {
		plan = p.Faults(nodes)
	}
	return cluster.New(cluster.Config{
		Nodes:           nodes,
		Model:           p.Model,
		CacheChunks:     int(perRT),
		Telemetry:       p.Telemetry,
		MsgKindName:     core.KindName,
		Faults:          plan,
		TxBurst:         p.TxBurst,
		PipelineDepth:   p.PipelineDepth,
		PrefetchAhead:   p.PrefetchAhead,
		DisableCoalesce: p.DisableCoalesce,
		Ship:            p.Ship,
		Tracer:          p.Tracer,
	})
}

// seqResult is one (system, op, nodes, threads) measurement.
type seqResult struct {
	ops       int64 // total across all threads
	perThread int64 // ops per thread (latency denominator)
	durNs     int64
}

func (r seqResult) mops() float64 { return stats.Throughput(r.ops, r.durNs) / 1e6 }
func (r seqResult) meanNs() float64 {
	if r.perThread == 0 {
		return 0
	}
	return float64(r.durNs) / float64(r.perThread)
}

// runSeq runs the paper's §6.2 microbenchmark: every thread on every
// node sweeps the entire global array at 8-byte granularity (starting at
// its own partition to avoid lockstep convoys), using the given system
// and operation. It returns total ops and the workload's virtual
// duration.
func runSeq(p Params, system, op string, nodes, threads int) seqResult {
	c := p.cluster(nodes)
	defer c.Close()
	words := p.WordsPerNode * int64(nodes)
	var mu sync.Mutex
	var totalOps int64
	var maxEnd, minStart int64
	minStart = 1 << 62

	c.Run(func(n *cluster.Node) {
		var arr *core.Array
		var g *gam.Array
		var b *bcl.Array
		var add core.OpID
		switch system {
		case "darray", "darray-pin":
			arr = core.New(n, words)
			add = arr.RegisterOp(core.OpAddU64)
		case "gam":
			g = gam.New(n, words)
		case "bcl":
			b = bcl.New(n, words)
		}
		root := n.NewCtx(0)
		c.Barrier(root)
		n.RunThreads(threads, func(ctx *cluster.Ctx) {
			lo := int64(n.ID()) * p.WordsPerNode
			start := ctx.Clock.Now()
			ops := sweep(ctx, system, op, arr, g, b, add, words, lo)
			end := ctx.Clock.Now()
			mu.Lock()
			totalOps += ops
			if end > maxEnd {
				maxEnd = end
			}
			if start < minStart {
				minStart = start
			}
			mu.Unlock()
		})
		c.Barrier(root)
	})
	return seqResult{ops: totalOps, perThread: words, durNs: maxEnd - minStart}
}

// sweep performs one full pass over the global array.
func sweep(ctx *cluster.Ctx, system, op string, arr *core.Array, g *gam.Array, b *bcl.Array, add core.OpID, words, lo int64) int64 {
	idx := func(k int64) int64 {
		i := lo + k
		if i >= words {
			i -= words
		}
		return i
	}
	switch system {
	case "darray":
		switch op {
		case "read":
			for k := int64(0); k < words; k++ {
				arr.Get(ctx, idx(k))
			}
		case "write":
			for k := int64(0); k < words; k++ {
				arr.Set(ctx, idx(k), uint64(k))
			}
		case "operate":
			for k := int64(0); k < words; k++ {
				arr.Apply(ctx, add, idx(k), 1)
			}
		}
	case "darray-pin":
		cw := arr.ChunkWords()
		for base := int64(0); base < words; base += cw {
			i := idx(base)
			switch op {
			case "read":
				p := arr.PinRead(ctx, i)
				for j := p.First(); j < p.Limit(); j++ {
					p.Get(ctx, j)
				}
				p.Unpin(ctx)
			case "write":
				p := arr.PinWrite(ctx, i)
				for j := p.First(); j < p.Limit(); j++ {
					p.Set(ctx, j, uint64(j))
				}
				p.Unpin(ctx)
			case "operate":
				p := arr.PinOperate(ctx, i, add)
				for j := p.First(); j < p.Limit(); j++ {
					p.Apply(ctx, j, 1)
				}
				p.Unpin(ctx)
			}
		}
	case "gam":
		switch op {
		case "read":
			for k := int64(0); k < words; k++ {
				g.Get(ctx, idx(k))
			}
		case "write":
			for k := int64(0); k < words; k++ {
				g.Set(ctx, idx(k), uint64(k))
			}
		case "operate": // GAM's Atomic: exclusive-ownership updates
			for k := int64(0); k < words; k++ {
				g.Atomic(ctx, idx(k), func(v uint64) uint64 { return v + 1 })
			}
		}
	case "bcl":
		switch op {
		case "read":
			for k := int64(0); k < words; k++ {
				b.Get(ctx, idx(k))
			}
		case "write":
			for k := int64(0); k < words; k++ {
				b.Set(ctx, idx(k), uint64(k))
			}
		}
	}
	return words
}

// Fig1 reproduces Figure 1: average 8-byte sequential read latency on a
// single machine and on a distributed cluster.
func Fig1(p Params) []stats.Table {
	systems := []string{"bcl", "gam", "darray", "darray-pin"}
	dist := min(6, p.MaxNodes)
	tbl := stats.Table{
		Title:  "Figure 1: avg latency (ns) of 8-byte sequential reads",
		XLabel: "config",
		Xs:     []string{"single-machine", "distributed-" + itoa(dist)},
		YFmt:   "%.1f",
	}
	for _, sys := range systems {
		one := runSeq(p, sys, "read", 1, 1)
		six := runSeq(p, sys, "read", dist, 1)
		tbl.Series = append(tbl.Series, stats.Series{
			Label: sys, Ys: []float64{one.meanNs(), six.meanNs()},
		})
	}
	return []stats.Table{tbl}
}

// Fig12 reproduces Figure 12: sequential Read/Write/Operate throughput
// with increasing threads on three nodes.
func Fig12(p Params) []stats.Table {
	var out []stats.Table
	for _, op := range []string{"read", "write", "operate"} {
		systems := []string{"bcl", "gam", "darray"}
		if op == "operate" {
			systems = []string{"gam", "darray"}
		}
		tbl := stats.Table{
			Title:  "Figure 12 (" + op + "): throughput (Mops/s) vs threads, 3 nodes",
			XLabel: "threads",
		}
		for _, t := range p.Threads {
			tbl.Xs = append(tbl.Xs, itoa(t))
		}
		for _, sys := range systems {
			var ys []float64
			for _, t := range p.Threads {
				ys = append(ys, runSeq(p, sys, op, min(3, p.MaxNodes), t).mops())
			}
			tbl.Series = append(tbl.Series, stats.Series{Label: sys, Ys: ys})
		}
		out = append(out, tbl)
	}
	return out
}

// Fig13 reproduces Figure 13: sequential throughput with increasing
// nodes (weak scaling, one thread per node), plus scalability ratios.
func Fig13(p Params) []stats.Table {
	nodesXs := nodeSweep(p.MaxNodes)
	var out []stats.Table
	for _, op := range []string{"read", "write", "operate"} {
		systems := []string{"bcl", "gam", "darray"}
		if op == "operate" {
			systems = []string{"gam", "darray"}
		}
		tbl := stats.Table{
			Title:  "Figure 13 (" + op + "): throughput (Mops/s) vs nodes, 1 thread/node",
			XLabel: "nodes",
		}
		ratio := stats.Table{
			Title:  "Figure 13 (" + op + "): weak-scaling ratio, max nodes vs 2-node baseline",
			XLabel: "system",
			Xs:     []string{"ratio"},
		}
		for _, n := range nodesXs {
			tbl.Xs = append(tbl.Xs, itoa(n))
		}
		for _, sys := range systems {
			var ys []float64
			for _, n := range nodesXs {
				ys = append(ys, runSeq(p, sys, op, n, 1).mops())
			}
			tbl.Series = append(tbl.Series, stats.Series{Label: sys, Ys: ys})
			// Scalability relative to the smallest distributed config
			// (single-node runs have no network component at all, which
			// would make the ratio measure CPU cost, not scaling).
			baseIdx := 0
			if len(nodesXs) > 1 && nodesXs[0] == 1 {
				baseIdx = 1
			}
			last := len(ys) - 1
			r := 0.0
			if nodesXs[baseIdx] > 0 && ys[baseIdx] > 0 {
				perNodeBase := ys[baseIdx] / float64(nodesXs[baseIdx])
				r = ys[last] / (float64(nodesXs[last]) * perNodeBase)
			}
			ratio.Series = append(ratio.Series, stats.Series{Label: sys, Ys: []float64{r}})
		}
		out = append(out, tbl, ratio)
	}
	return out
}

// Fig15 reproduces Figure 15: DArray vs DArray-Pin sequential read
// throughput (paper: pin wins by 1.8x–2.9x).
func Fig15(p Params) []stats.Table {
	nodesXs := nodeSweep(p.MaxNodes)
	tbl := stats.Table{
		Title:  "Figure 15: sequential read throughput (Mops/s), DArray vs DArray-Pin",
		XLabel: "nodes",
	}
	var plain, pinned []float64
	for _, n := range nodesXs {
		tbl.Xs = append(tbl.Xs, itoa(n))
		plain = append(plain, runSeq(p, "darray", "read", n, 1).mops())
		pinned = append(pinned, runSeq(p, "darray-pin", "read", n, 1).mops())
	}
	var speed []float64
	for i := range plain {
		speed = append(speed, stats.Speedup(pinned[i], plain[i]))
	}
	tbl.Series = []stats.Series{
		{Label: "darray", Ys: plain},
		{Label: "darray-pin", Ys: pinned},
		{Label: "speedup", Ys: speed},
	}
	return []stats.Table{tbl}
}

// Fig18 reproduces Figure 18 (the limitations experiment): uniform
// random access latency with increasing nodes.
func Fig18(p Params) []stats.Table {
	nodesXs := nodeSweep(p.MaxNodes)
	var out []stats.Table
	for _, op := range []string{"read", "write", "operate"} {
		systems := []string{"bcl", "gam", "darray"}
		if op == "operate" {
			systems = []string{"gam", "darray"}
		}
		tbl := stats.Table{
			Title:  "Figure 18 (" + op + "): random access latency (ns) vs nodes",
			XLabel: "nodes",
			YFmt:   "%.0f",
		}
		for _, n := range nodesXs {
			tbl.Xs = append(tbl.Xs, itoa(n))
		}
		for _, sys := range systems {
			var ys []float64
			for _, n := range nodesXs {
				ys = append(ys, runRandom(p, sys, op, n))
			}
			tbl.Series = append(tbl.Series, stats.Series{Label: sys, Ys: ys})
		}
		out = append(out, tbl)
	}
	return out
}

// runRandom measures mean latency of uniformly random single-word ops.
func runRandom(p Params, system, op string, nodes int) float64 {
	c := p.cluster(nodes)
	defer c.Close()
	words := p.WordsPerNode * int64(nodes)
	var mu sync.Mutex
	var sum float64
	c.Run(func(n *cluster.Node) {
		var arr *core.Array
		var g *gam.Array
		var b *bcl.Array
		var add core.OpID
		switch system {
		case "darray":
			arr = core.New(n, words)
			add = arr.RegisterOp(core.OpAddU64)
		case "gam":
			g = gam.New(n, words)
		case "bcl":
			b = bcl.New(n, words)
		}
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		start := ctx.Clock.Now()
		for k := 0; k < p.RandomOps; k++ {
			i := int64(ctx.Rng.Int63n(words))
			switch system {
			case "darray":
				switch op {
				case "read":
					arr.Get(ctx, i)
				case "write":
					arr.Set(ctx, i, 1)
				case "operate":
					arr.Apply(ctx, add, i, 1)
				}
			case "gam":
				switch op {
				case "read":
					g.Get(ctx, i)
				case "write":
					g.Set(ctx, i, 1)
				case "operate":
					g.Atomic(ctx, i, func(v uint64) uint64 { return v + 1 })
				}
			case "bcl":
				switch op {
				case "read":
					b.Get(ctx, i)
				case "write":
					b.Set(ctx, i, 1)
				}
			}
		}
		mean := float64(ctx.Clock.Now()-start) / float64(p.RandomOps)
		mu.Lock()
		sum += mean
		mu.Unlock()
		c.Barrier(ctx)
	})
	return sum / float64(nodes)
}

func nodeSweep(max int) []int {
	sweep := []int{1, 2, 3, 4, 6, 8, 12}
	var out []int
	for _, n := range sweep {
		if n <= max {
			out = append(out, n)
		}
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
