package main

import (
	"math"
	"runtime"
	"sync"
	"time"

	"darray/internal/engine"
	"darray/internal/graph"
)

// pagerankWorkload is batch time-to-solution work: engine.PageRank with
// Pin off on an R-MAT graph whose state fits the caches, dominated by
// lock-free Get/Apply hits, Operate combining and merges, and barriers.
var pagerankWorkload = workload{
	name:        "pagerank",
	procs:       runtime.NumCPU(),
	traceSample: 256,
	build:       newPageRank,
}

// prDamping matches the engine's damping factor.
const prDamping = 0.85

type prInst struct {
	iters  int
	csr    *graph.CSR
	graphs []*engine.Graph
	ranks  [][]float64 // per node: its local slice of the result
	lo     []int64     // per node: first local vertex

	refOnce sync.Once
	ref     []float64
}

func newPageRank(seed int64, sz sizes) instance {
	cfg := graph.DefaultRMAT(sz.PRScale)
	cfg.Seed = seed
	return &prInst{
		iters:  sz.PRIters,
		csr:    graph.RMAT(cfg),
		graphs: make([]*engine.Graph, benchNodes),
		ranks:  make([][]float64, benchNodes),
		lo:     make([]int64, benchNodes),
	}
}

func (in *prInst) setup(e *nodeEnv) {
	t0 := time.Now()
	g := engine.NewGraph(e.node, in.csr)
	e.rec.engineSetup = time.Since(t0)
	in.graphs[e.node.ID()] = g
	lo, hi := g.LocalRange()
	in.lo[e.node.ID()] = lo
	e.rec.planned.Store(hi - lo)
}

// run is one measured call per node: the whole PageRank job. Its work
// units are the edge updates (Operate adds) the node issues.
func (in *prInst) run(e *nodeEnv) {
	g := in.graphs[e.node.ID()]
	lo, hi := g.LocalRange()
	t0 := e.ctx.Clock.Now()
	in.ranks[e.node.ID()] = g.PageRank(e.ctx, in.iters, false)
	d := e.ctx.Clock.Now() - t0
	edges := in.csr.Offs[hi] - in.csr.Offs[lo]
	e.rec.done(d, true)
	e.rec.work = edges * int64(in.iters)
	e.rec.userBytes = 8 * e.rec.work
}

// verify compares this node's ranks with the sequential reference.
func (in *prInst) verify(e *nodeEnv) {
	in.refOnce.Do(func() { in.ref = referencePageRank(in.csr, in.iters) })
	v := e.node.ID()
	e.rec.failed += countRankMismatches(in.ranks[v], in.ref[in.lo[v]:])
}

// rankTolerance is the relative error a rank may carry: the distributed
// run sums contributions in a different order than the reference, which
// moves a float64 sum by a few ulps, not by parts per billion.
const rankTolerance = 1e-9

func countRankMismatches(got, want []float64) int64 {
	var bad int64
	for i, g := range got {
		w := want[i]
		if math.Abs(g-w) > rankTolerance*math.Abs(w) {
			bad++
		}
	}
	return bad
}

// referencePageRank is the sequential PageRank the engine must agree
// with: synchronous push iterations from a uniform start, contributions
// rank/outdeg along every out-edge, damping 0.85, and no redistribution
// of dangling vertices' rank (the engine's formulation).
func referencePageRank(g *graph.CSR, iters int) []float64 {
	n := g.N
	curr := make([]float64, n)
	next := make([]float64, n)
	for u := range curr {
		curr[u] = 1 / float64(n)
	}
	base := (1 - prDamping) / float64(n)
	for it := 0; it < iters; it++ {
		for u := int64(0); u < n; u++ {
			deg := g.OutDegree(u)
			if deg == 0 {
				continue
			}
			c := curr[u] / float64(deg)
			for _, v := range g.Neighbors(u) {
				next[v] += c
			}
		}
		for u := range curr {
			curr[u] = base + prDamping*next[u]
			next[u] = 0
		}
	}
	return curr
}
