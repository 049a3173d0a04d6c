package main

import (
	"math/rand"

	"darray/internal/core"
	"darray/internal/ycsb"
)

// hotWorkload is the examples/histogram pattern on skewed keys: the only
// workload that drives the Operated-state collapse and the
// function-shipping estimator (core/ship.go).
var hotWorkload = workload{
	name:        "hot-counters",
	procs:       1,
	traceSample: 16,
	build:       newHot,
}

// hotRMWFrac is the share of ops that read a counter and then add to it
// (the examples/histogram pattern); the rest only read.
const hotRMWFrac = 0.8

type hotInst struct {
	words  int64
	idx    [][]int64 // per node: counter index of each op
	rmw    [][]bool  // per node: op is Get+Apply (else Get only)
	want   []uint64  // final value of every counter: Applies issued to it
	arrays []*core.Array
	adds   []core.OpID // per node; RegisterOp returns the same id on each
}

func newHot(seed int64, sz sizes) instance {
	in := &hotInst{
		words:  sz.HotWords,
		idx:    make([][]int64, benchNodes),
		rmw:    make([][]bool, benchNodes),
		want:   make([]uint64, sz.HotWords),
		arrays: make([]*core.Array, benchNodes),
		adds:   make([]core.OpID, benchNodes),
	}
	for v := 0; v < benchNodes; v++ {
		z := ycsb.NewZipfian(sz.HotWords, 0.99, seed+int64(v)*131)
		rng := rand.New(rand.NewSource(seed ^ int64(v+1)*0x5851f42d))
		idx, rmw := make([]int64, sz.HotOps), make([]bool, sz.HotOps)
		for k := range idx {
			idx[k] = z.Next()
			rmw[k] = rng.Float64() < hotRMWFrac
			if rmw[k] {
				in.want[idx[k]]++
			}
		}
		in.idx[v], in.rmw[v] = idx, rmw
	}
	return in
}

func (in *hotInst) setup(e *nodeEnv) {
	a := core.New(e.node, in.words)
	in.adds[e.node.ID()] = a.RegisterOp(core.OpAddU64)
	in.arrays[e.node.ID()] = a
	e.rec.planned.Store(int64(len(in.idx[e.node.ID()])))
	e.rec.lat = make([]int64, 0, len(in.idx[e.node.ID()]))
}

// run issues each op as one measured call: Get, then Apply(add 1) for
// the read-modify-writes, whose latency is the write latency.
func (in *hotInst) run(e *nodeEnv) {
	v := e.node.ID()
	a, ctx, rec := in.arrays[v], e.ctx, e.rec
	getHit, applyHit := e.model.GetHit, e.model.ApplyHit
	for k, i := range in.idx[v] {
		t0 := ctx.Clock.Now()
		a.Get(ctx, i)
		t1 := ctx.Clock.Now()
		rec.coreCall(t1-t0, getHit)
		rec.userBytes += 8
		rmw := in.rmw[v][k]
		if rmw {
			a.Apply(ctx, in.adds[v], i, 1)
			rec.coreCall(ctx.Clock.Now()-t1, applyHit)
			rec.userBytes += 8
		}
		rec.done(ctx.Clock.Now()-t0, rmw)
	}
}

// verify: every counter equals the number of Applies the generators
// issued to it. Each node checks the counters of its own partition.
func (in *hotInst) verify(e *nodeEnv) {
	a := in.arrays[e.node.ID()]
	lo, hi := a.LocalRange()
	got := make([]uint64, hi-lo)
	a.GetRange(e.ctx, lo, got)
	for j, g := range got {
		if g != in.want[lo+int64(j)] {
			e.rec.failed++
		}
	}
}
