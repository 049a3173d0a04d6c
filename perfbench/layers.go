package main

import (
	"runtime"

	"darray/internal/trace"
)

// layerDef is one per-layer metric: how to compute it from a traced
// repetition (plus the run's untraced repetitions where it compares the
// two). ok=false marks a layer that did no work on the workload.
type layerDef struct {
	name, unit string
	fn         func(x *layerCtx) (v float64, ok bool)
}

// layerCtx is one traced repetition seen from outside every layer.
type layerCtx struct {
	r     repResult
	plain []repResult // untraced repetitions of the same run
	work  float64     // work units (ops) in the measured phase
	bytes float64     // user bytes the measured calls moved
}

func (x *layerCtx) total(name string) float64 { return float64(x.r.tel.Total(name)) }

func (x *layerCtx) histMean(name string) (float64, bool) {
	m, ok := x.r.tel.Get(name)
	if !ok || m.Hist == nil || m.Hist.Count == 0 {
		return 0, false
	}
	return m.Hist.Mean(), true
}

// perKop is a counter per thousand work units.
func (x *layerCtx) perKop(name string) (float64, bool) {
	return x.total(name) / (x.work / 1e3), x.work > 0
}

// ratio returns a/b, n/a when b is zero.
func ratio(a, b float64) (float64, bool) {
	if b == 0 {
		return 0, false
	}
	return a / b, true
}

func (x *layerCtx) kvs() (t kvsTimers) {
	for _, r := range x.r.recs {
		t.ops += r.kvs.ops
		t.opVT += r.kvs.opVT
		t.words += r.kvs.words
		t.wordVT += r.kvs.wordVT
		t.lockVT += r.kvs.lockVT
	}
	return t
}

func (x *layerCtx) sumRec(f func(r *nodeRec) int64) float64 {
	var s int64
	for _, r := range x.r.recs {
		s += f(r)
	}
	return float64(s)
}

const (
	mb = 1 << 20
	gb = 1 << 30
)

// layerDefs lists every per-layer metric in report order. The comment on
// each group names the end-to-end metric it should move.
var layerDefs = []layerDef{
	// kvs → vt_p50_us, vt_p99_us, vt_write_p99_us @ ycsb-b.
	{"kvs.self_vt_ns", "ns", func(x *layerCtx) (float64, bool) {
		t := x.kvs()
		return ratio(float64(t.selfVT()), float64(t.ops))
	}},
	{"kvs.words_per_op", "count", func(x *layerCtx) (float64, bool) {
		t := x.kvs()
		return ratio(float64(t.words), float64(t.ops))
	}},
	{"kvs.lock_vt_ns", "ns", func(x *layerCtx) (float64, bool) {
		t := x.kvs()
		return ratio(float64(t.lockVT), float64(t.ops))
	}},
	// engine → setup_s @ pagerank.
	{"engine.setup_s", "s", func(x *layerCtx) (float64, bool) {
		var worst float64
		for _, r := range x.r.recs {
			worst = max(worst, r.engineSetup.Seconds())
		}
		return worst, worst > 0
	}},
	// core.
	{"core.hit_ratio", "ratio", func(x *layerCtx) (float64, bool) {
		h := x.total("core/cache/hits")
		return ratio(h, h+x.total("core/cache/misses"))
	}},
	{"core.miss_vt_us", "us", func(x *layerCtx) (float64, bool) {
		calls := x.sumRec(func(r *nodeRec) int64 { return r.coreCalls })
		v, _ := ratio(x.sumRec(func(r *nodeRec) int64 { return r.coreMissVT })/1e3,
			x.sumRec(func(r *nodeRec) int64 { return r.coreMisses }))
		return v, calls > 0
	}},
	{"core.evictions_per_mb", "1/MB", func(x *layerCtx) (float64, bool) {
		return ratio(x.total("core/cache/evictions"), x.bytes/mb)
	}},
	{"core.writebacks_per_mb", "1/MB", func(x *layerCtx) (float64, bool) {
		return ratio(x.total("core/cache/writebacks"), x.bytes/mb)
	}},
	{"core.invalidations_per_kop", "1/kop", func(x *layerCtx) (float64, bool) {
		return x.perKop("core/coherence/invalidations")
	}},
	{"core.recalls_per_kop", "1/kop", func(x *layerCtx) (float64, bool) {
		return x.perKop("core/coherence/recalls")
	}},
	{"core.prefetch_issued_per_kop", "1/kop", func(x *layerCtx) (float64, bool) {
		return x.perKop("core/prefetch/issued")
	}},
	{"core.prefetch_useful_ratio", "ratio", func(x *layerCtx) (float64, bool) {
		return ratio(x.total("core/prefetch/hits"), x.total("core/prefetch/issued"))
	}},
	{"core.delay_stalls_per_kop", "1/kop", func(x *layerCtx) (float64, bool) {
		return x.perKop("core/cache/delay_stalls")
	}},
	{"core.ref_drain_stalls_per_kop", "1/kop", func(x *layerCtx) (float64, bool) {
		return x.perKop("core/cache/ref_drain_stalls")
	}},
	{"core.operate.combines_per_merge", "count", func(x *layerCtx) (float64, bool) {
		return ratio(x.total("core/operate/combines"), x.total("core/operate/merges"))
	}},
	{"core.operate.recalls_per_kop", "1/kop", func(x *layerCtx) (float64, bool) {
		return x.perKop("core/operate/merges_recalled")
	}},
	{"core.ship.ops_ratio", "ratio", func(x *layerCtx) (float64, bool) {
		return ratio(x.total("core/ship/ops"), x.work)
	}},
	{"core.ship.flips", "count", func(x *layerCtx) (float64, bool) {
		return x.total("core/ship/flips"), true
	}},
	{"core.pin.slow_ratio", "ratio", func(x *layerCtx) (float64, bool) {
		s := x.total("core/pin/slow")
		return ratio(s, s+x.total("core/pin/fast"))
	}},
	// cc → vt_gbps, vt_p99_us @ scan-rw.
	{"cc.backoffs_per_gb", "1/GB", func(x *layerCtx) (float64, bool) {
		_, active := x.histMean("core/cc/cwnd")
		return x.total("core/cc/backoffs") / (x.bytes / gb), active && x.bytes > 0
	}},
	{"cc.cwnd_mean_chunks", "chunks", func(x *layerCtx) (float64, bool) {
		return x.histMean("core/cc/cwnd")
	}},
	{"cc.srtt_mean_us", "us", func(x *layerCtx) (float64, bool) {
		v, ok := x.histMean("core/cc/srtt")
		return v / 1e3, ok
	}},
	{"cc.wait_vt_frac", "ratio", func(x *layerCtx) (float64, bool) {
		return x.r.crit.frac(trace.StageCC)
	}},
	// cluster.
	{"cluster.queue_vt_frac", "ratio", func(x *layerCtx) (float64, bool) {
		return x.r.crit.frac(trace.StageQueue)
	}},
	{"cluster.service_vt_frac", "ratio", func(x *layerCtx) (float64, bool) {
		return x.r.crit.frac(trace.StageService)
	}},
	{"cluster.doorbell_batch_mean", "count", func(x *layerCtx) (float64, bool) {
		return x.histMean("fabric/doorbell_batch")
	}},
	{"cluster.coalesced_per_kmsg", "1/kmsg", func(x *layerCtx) (float64, bool) {
		return ratio(x.total("fabric/coalesced_cmds"), x.total("fabric/msgs_sent")/1e3)
	}},
	{"cluster.barrier_vt_us", "us", func(x *layerCtx) (float64, bool) {
		// Mean over measured phases of the spread of node arrivals.
		phases := len(x.r.recs[0].phaseEnds)
		var sum int64
		for p := 0; p < phases; p++ {
			lo, hi := x.r.recs[0].phaseEnds[p], x.r.recs[0].phaseEnds[p]
			for _, r := range x.r.recs {
				lo, hi = min(lo, r.phaseEnds[p]), max(hi, r.phaseEnds[p])
			}
			sum += hi - lo
		}
		return float64(sum) / float64(phases) / 1e3, true
	}},
	// fabric → vt_kops @ ycsb-b and hot-counters, vt_gbps @ scan-rw.
	{"fabric.msgs_per_op", "count", func(x *layerCtx) (float64, bool) {
		return ratio(x.total("fabric/msgs_sent"), x.work)
	}},
	{"fabric.bytes_per_op", "B", func(x *layerCtx) (float64, bool) {
		return ratio(x.total("fabric/bytes_sent"), x.work)
	}},
	{"fabric.bytes_per_user_byte", "ratio", func(x *layerCtx) (float64, bool) {
		return ratio(x.total("fabric/bytes_sent"), x.bytes)
	}},
	{"fabric.wire_vt_frac", "ratio", func(x *layerCtx) (float64, bool) {
		return x.r.crit.frac(trace.StageWire)
	}},
	{"fabric.retransmits", "count", func(x *layerCtx) (float64, bool) {
		return x.total("fabric/retransmits"), true
	}},
	// buf → host_run_s @ scan-rw.
	{"buf.pool_hit_ratio", "ratio", func(x *layerCtx) (float64, bool) {
		h := x.total("buf/pool/hit")
		return ratio(h, h+x.total("buf/pool/miss"))
	}},
	// vtime: fresh host calibration, reported only (vt uses the pinned
	// model) → host_run_s @ pagerank and ycsb-b.
	{"vtime.get_hit_ns", "ns", func(x *layerCtx) (float64, bool) { return float64(x.r.calib.GetHit), true }},
	{"vtime.set_hit_ns", "ns", func(x *layerCtx) (float64, bool) { return float64(x.r.calib.SetHit), true }},
	{"vtime.apply_hit_ns", "ns", func(x *layerCtx) (float64, bool) { return float64(x.r.calib.ApplyHit), true }},
	{"vtime.pin_ns", "ns", func(x *layerCtx) (float64, bool) { return float64(x.r.calib.PinAccess), true }},
	// host, from the untraced repetitions → host_run_s.
	{"host.allocs_per_op", "count", func(x *layerCtx) (float64, bool) {
		return x.plainMedian(func(r repResult, work float64) float64 { return div(float64(r.host.mallocs), work) }), true
	}},
	{"host.alloc_bytes_per_op", "B", func(x *layerCtx) (float64, bool) {
		return x.plainMedian(func(r repResult, work float64) float64 { return div(float64(r.host.bytes), work) }), true
	}},
	{"host.gc_cycles", "count", func(x *layerCtx) (float64, bool) {
		return x.plainMedian(func(r repResult, _ float64) float64 { return float64(r.host.gc) }), true
	}},
	{"host.run_wall_s", "s", func(x *layerCtx) (float64, bool) {
		return x.plainMedian(func(r repResult, _ float64) float64 { return r.run.Seconds() }), true
	}},
	{"host.ref_kernel_s", "s", func(x *layerCtx) (float64, bool) {
		return x.plainMedian(func(r repResult, _ float64) float64 { return r.ref.Seconds() }), true
	}},
	{"host.cpu_util", "ratio", func(x *layerCtx) (float64, bool) {
		return x.plainMedian(func(r repResult, _ float64) float64 {
			return r.host.cpu.Seconds() / (r.host.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
		}), true
	}},
	// trace: what tracing costs and how much of the sampled time the
	// critical-path attribution explains.
	{"trace.overhead_frac", "ratio", func(x *layerCtx) (float64, bool) {
		base := x.plainMedian(func(r repResult, _ float64) float64 { return r.e2e.runS })
		return ratio(x.r.e2e.runS-base, base)
	}},
	{"trace.vt_delta_frac", "ratio", func(x *layerCtx) (float64, bool) {
		base := x.plainMedian(func(r repResult, _ float64) float64 { return r.e2e.jobMs })
		return ratio(x.r.e2e.jobMs-base, base)
	}},
	{"trace.spans_dropped", "count", func(x *layerCtx) (float64, bool) { return float64(x.r.dropped), true }},
	{"trace.crit_coverage", "ratio", func(x *layerCtx) (float64, bool) {
		return ratio(float64(x.r.crit.attributed), float64(x.r.crit.rootVT))
	}},
}

// plainMedian is the median of f over the untraced repetitions.
func (x *layerCtx) plainMedian(f func(r repResult, work float64) float64) float64 {
	var v []float64
	for _, r := range x.plain {
		var work float64
		for _, n := range r.recs {
			work += float64(n.work)
		}
		v = append(v, f(r, work))
	}
	return median(v)
}

func newLayerCtx(r repResult, plain []repResult) *layerCtx {
	x := &layerCtx{r: r, plain: plain}
	for _, n := range r.recs {
		x.work += float64(n.work)
		x.bytes += float64(n.userBytes)
	}
	return x
}

// layerLines reduces the traced repetitions to one line per metric: the
// median over traced repetitions, n/a when no repetition saw the layer
// work.
func layerLines(plain, traced []repResult) []line {
	var ctxs []*layerCtx
	for _, r := range traced {
		ctxs = append(ctxs, newLayerCtx(r, plain))
	}
	var out []line
	for _, d := range layerDefs {
		var vals []float64
		for _, x := range ctxs {
			if v, ok := d.fn(x); ok {
				vals = append(vals, v)
			}
		}
		out = append(out, line{name: d.name, value: median(vals), unit: d.unit, na: len(vals) == 0})
	}
	return out
}

// critStats is the critical-path stage attribution summed over every
// sampled root span.
type critStats struct {
	rootVT     int64
	attributed int64
	byStage    map[trace.Stage]int64
}

// frac is a stage's share of sampled-op virtual time.
func (c critStats) frac(s trace.Stage) (float64, bool) {
	return ratio(float64(c.byStage[s]), float64(c.rootVT))
}

func critical(spans []trace.Span) critStats {
	c := critStats{byStage: map[trace.Stage]int64{}}
	byTrace := map[uint64][]trace.Span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	for _, group := range byTrace {
		for _, root := range trace.Roots(group) {
			cp := trace.CriticalPath(group, root)
			c.rootVT += root.Dur()
			c.attributed += root.Dur() - cp.Unattributed
			for st, ns := range cp.ByStage {
				c.byStage[st] += ns
			}
		}
	}
	return c
}
