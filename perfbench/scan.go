package main

import (
	"darray/internal/core"
)

// scanWorkload drives the bulk path with reads beside writes: GetRange
// sweeps of an array four times one node's cache, then SetRange of each
// node's own stripe. It covers the range pipeline, cc, the prefetcher,
// eviction and writeback, and buf.
var scanWorkload = workload{
	name:        "scan-rw",
	procs:       1,
	traceSample: 32,
	build:       newScan,
}

type scanInst struct {
	words  int64 // array length: 4x one node's cache
	slab   int64 // words per range call
	passes int
	rot    int64  // seed-derived start rotation, a multiple of slab
	mix    uint64 // seed-derived pattern salt
	arrays []*core.Array
}

func newScan(seed int64, sz sizes) instance {
	cacheWords := int64(sz.CacheChunks) * runtimesPerNode * chunkWords
	words := 4 * cacheWords
	slab := int64(sz.ScanSlabWords)
	mix := uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	return &scanInst{
		words:  words,
		slab:   slab,
		passes: sz.ScanPasses,
		rot:    int64(mix>>33) % (words / slab) * slab,
		mix:    mix,
		arrays: make([]*core.Array, benchNodes),
	}
}

// pattern is the value pass p writes at index i.
func (in *scanInst) pattern(p int, i int64) uint64 {
	return uint64(i)*0xbf58476d1ce4e5b9 ^ uint64(p)<<52 ^ in.mix
}

func (in *scanInst) fill(buf []uint64, p int, i int64) {
	for j := range buf {
		buf[j] = in.pattern(p, i+int64(j))
	}
}

// matches reports whether buf holds pass p's pattern from index i.
func (in *scanInst) matches(buf []uint64, p int, i int64) bool {
	for j, v := range buf {
		if v != in.pattern(p, i+int64(j)) {
			return false
		}
	}
	return true
}

// setup writes pass 0's pattern into each node's own stripe.
func (in *scanInst) setup(e *nodeEnv) {
	a := core.New(e.node, in.words)
	in.arrays[e.node.ID()] = a
	lo, hi := a.LocalRange()
	buf := make([]uint64, in.slab)
	for i := lo; i < hi; i += in.slab {
		b := buf[:min(in.slab, hi-i)]
		in.fill(b, 0, i)
		a.SetRange(e.ctx, i, b)
	}
	reads := in.words / in.slab
	writes := (hi - lo + in.slab - 1) / in.slab
	e.rec.planned.Store(int64(in.passes) * (reads + writes))
	e.rec.lat = make([]int64, 0, e.rec.planned.Load())
}

// run: each pass sweeps the whole array from the node's own offset in
// slab-sized GetRange calls, checking every slab against the previous
// pass's pattern; then, after a barrier, SetRanges the node's stripe with
// this pass's pattern, and barriers again. Reads and writes never mix
// within a phase, which keeps tail latency repeatable.
func (in *scanInst) run(e *nodeEnv) {
	a, ctx, rec := in.arrays[e.node.ID()], e.ctx, e.rec
	lo, hi := a.LocalRange()
	buf := make([]uint64, in.slab)
	for p := 1; p <= in.passes; p++ {
		start := (lo/in.slab*in.slab + in.rot) % in.words
		for k := int64(0); k < in.words/in.slab; k++ {
			i := (start + k*in.slab) % in.words
			t0 := ctx.Clock.Now()
			a.GetRange(ctx, i, buf)
			rec.done(ctx.Clock.Now()-t0, false)
			rec.userBytes += 8 * in.slab
			if !in.matches(buf, p-1, i) {
				rec.failed++
			}
		}
		e.barrier()
		for i := lo; i < hi; i += in.slab {
			b := buf[:min(in.slab, hi-i)]
			in.fill(b, p, i)
			t0 := ctx.Clock.Now()
			a.SetRange(ctx, i, b)
			rec.done(ctx.Clock.Now()-t0, true)
			rec.userBytes += 8 * int64(len(b))
		}
		e.barrier()
	}
}

// verify reads back the next node's stripe and compares it with the last
// pass's pattern.
func (in *scanInst) verify(e *nodeEnv) {
	a := in.arrays[e.node.ID()]
	next := in.arrays[(e.node.ID()+1)%benchNodes]
	lo, hi := next.LocalRange()
	buf := make([]uint64, in.slab)
	for i := lo; i < hi; i += in.slab {
		b := buf[:min(in.slab, hi-i)]
		a.GetRange(e.ctx, i, b)
		if !in.matches(b, in.passes, i) {
			e.rec.failed++
		}
	}
}
