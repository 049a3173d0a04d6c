package bench

import (
	"sync"

	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/stats"
)

// Ablations quantifies the design choices DESIGN.md calls out beyond
// the paper's own figures: prefetch depth, chunk size, selective
// signaling, and runtime-thread count, all on the sequential remote-read
// workload that stresses the cache-fill path.
func Ablations(p Params) []stats.Table {
	return []stats.Table{
		ablateAccessPath(p),
		ablatePrefetch(p),
		ablateChunkSize(p),
		ablateSignaling(p),
		ablateRuntimes(p),
	}
}

// ablateAccessPath isolates §4.1's central design choice: the identical
// workload through DArray's lock-free path versus the GAM baseline's
// lock-based path (same protocol, same fabric, same cache), at one and
// at several threads per node.
func ablateAccessPath(p Params) stats.Table {
	tbl := stats.Table{
		Title:  "Ablation: access path (lock-free vs lock-based), seq read Mops/s, 3 nodes",
		XLabel: "threads",
	}
	threads := []int{1, 4}
	for _, t := range threads {
		tbl.Xs = append(tbl.Xs, itoa(t))
	}
	for _, sys := range []string{"darray", "gam"} {
		var ys []float64
		for _, t := range threads {
			ys = append(ys, runSeq(p, sys, "read", min(3, p.MaxNodes), t).mops())
		}
		label := "lock-free (darray)"
		if sys == "gam" {
			label = "lock-based (gam)"
		}
		tbl.Series = append(tbl.Series, stats.Series{Label: label, Ys: ys})
	}
	return tbl
}

// seqReadWith runs a 3-node sequential DArray read sweep with a custom
// cluster config and reports Mops/s.
func seqReadWith(p Params, mutate func(*cluster.Config)) float64 {
	nodes := min(3, p.MaxNodes)
	words := p.WordsPerNode * int64(nodes)
	chunksPerRT := words / 512 / 4
	if chunksPerRT < 32 {
		chunksPerRT = 32
	}
	cfg := cluster.Config{Nodes: nodes, Model: p.Model, CacheChunks: int(chunksPerRT),
		Telemetry: p.Telemetry, MsgKindName: core.KindName,
		TxBurst: p.TxBurst, PipelineDepth: p.PipelineDepth,
		PrefetchAhead: p.PrefetchAhead, DisableCoalesce: p.DisableCoalesce}
	if p.Faults != nil {
		cfg.Faults = p.Faults(nodes)
	}
	mutate(&cfg)
	c := cluster.New(cfg)
	defer c.Close()
	var mu sync.Mutex
	var totalOps, maxEnd, minStart int64
	minStart = 1 << 62
	c.Run(func(n *cluster.Node) {
		arr := core.New(n, words)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		lo := int64(n.ID()) * p.WordsPerNode
		start := ctx.Clock.Now()
		for k := int64(0); k < words; k++ {
			i := lo + k
			if i >= words {
				i -= words
			}
			arr.Get(ctx, i)
		}
		end := ctx.Clock.Now()
		mu.Lock()
		totalOps += words
		if end > maxEnd {
			maxEnd = end
		}
		if start < minStart {
			minStart = start
		}
		mu.Unlock()
		c.Barrier(ctx)
	})
	return stats.Throughput(totalOps, maxEnd-minStart) / 1e6
}

func ablatePrefetch(p Params) stats.Table {
	depths := []int{-1, 1, 2, 4, 8} // -1 disables prefetching
	tbl := stats.Table{
		Title:  "Ablation: prefetch depth vs sequential remote-read throughput (Mops/s)",
		XLabel: "depth",
	}
	var ys []float64
	for _, d := range depths {
		label := itoa(d)
		if d < 0 {
			label = "off"
		}
		tbl.Xs = append(tbl.Xs, label)
		d := d
		ys = append(ys, seqReadWith(p, func(cfg *cluster.Config) { cfg.PrefetchAhead = d }))
	}
	tbl.Series = []stats.Series{{Label: "darray", Ys: ys}}
	return tbl
}

func ablateChunkSize(p Params) stats.Table {
	sizes := []int{64, 128, 256, 512, 1024, 2048}
	tbl := stats.Table{
		Title:  "Ablation: chunk size (words) vs sequential remote-read throughput (Mops/s)",
		XLabel: "chunk",
	}
	var ys []float64
	for _, s := range sizes {
		tbl.Xs = append(tbl.Xs, itoa(s))
		s := s
		ys = append(ys, seqReadWith(p, func(cfg *cluster.Config) {
			cfg.ChunkWords = s
			cfg.CacheChunks = int(p.WordsPerNode * 3 / int64(s) / 4)
			if cfg.CacheChunks < 16 {
				cfg.CacheChunks = 16
			}
		}))
	}
	tbl.Series = []stats.Series{{Label: "darray", Ys: ys}}
	return tbl
}

func ablateSignaling(p Params) stats.Table {
	periods := []int64{1, 8, 32, 128}
	tbl := stats.Table{
		Title:  "Ablation: selective-signaling period vs throughput (Mops/s)",
		XLabel: "period",
	}
	var ys []float64
	base := *p.Model
	for _, r := range periods {
		tbl.Xs = append(tbl.Xs, itoa(int(r)))
		m := base
		m.SignalPeriod = r
		pp := p
		pp.Model = &m
		ys = append(ys, seqReadWith(pp, func(cfg *cluster.Config) { cfg.Model = &m }))
	}
	tbl.Series = []stats.Series{{Label: "darray", Ys: ys}}
	return tbl
}

func ablateRuntimes(p Params) stats.Table {
	counts := []int{1, 2, 4}
	tbl := stats.Table{
		Title:  "Ablation: runtime threads per node vs throughput (Mops/s)",
		XLabel: "runtimes",
	}
	var ys []float64
	for _, r := range counts {
		tbl.Xs = append(tbl.Xs, itoa(r))
		r := r
		ys = append(ys, seqReadWith(p, func(cfg *cluster.Config) { cfg.RuntimeThreads = r }))
	}
	tbl.Series = []stats.Series{{Label: "darray", Ys: ys}}
	return tbl
}
