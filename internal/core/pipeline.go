package core

import (
	"darray/internal/cluster"
	"darray/internal/trace"
)

// Pipelined bulk transfers (BCL-style aggregation, cf. PAPERS.md Brock
// et al.): a bulk range operation keeps multiple chunk acquisitions
// outstanding, so the coherence round trips for chunks i+1..i+K overlap
// the copy of chunk i instead of serializing one RTT per chunk. Each
// in-flight acquisition completes through its own cluster.Token,
// sidestepping the Ctx single-outstanding-request limit.
//
// The window is fixed: PipelineDepth acquisitions in flight, the
// paper's RC-over-a-lossless-fabric streaming model. The fabric's
// go-back-N recovery absorbs loss below the protocol, so no window
// adapts to it.

// chunkReq is one in-flight chunk acquisition of a bulk pipeline.
type chunkReq struct {
	ci  int64
	d   *dentry
	tok *cluster.Token // slow-path completion; nil when pin fast-granted
	pin *Pin           // non-nil when the lock-free fast path granted
}

// issueChunkInto starts acquiring a pin on chunk ci without blocking:
// one non-blocking fast-path attempt, then an asynchronous slow-path
// request completing through a token from the ctx freelist. A raised
// delay flag is not spun on — the runtime is mid-transition and the
// slow path will queue behind it. r is caller-provided storage (the
// pipeline reuses a fixed ring of requests instead of allocating one
// per chunk).
func (a *Array) issueChunkInto(ctx *cluster.Ctx, r *chunkReq, ci int64, want uint8, op OpID, fn func(acc, operand uint64) uint64, tc trace.Ctx) {
	d := &a.dents[ci]
	*r = chunkReq{ci: ci, d: d}
	ctx.Stats.Ops++
	if !d.delay.Load() {
		// Reference first, then re-read the flag (see waitDelay).
		d.refcnt.Add(1)
		if !d.delay.Load() && satisfies(d.state.Load(), want, op) {
			ctx.Stats.Hits++
			if a.telOn() {
				a.Metrics.PinFast.Add(1)
				a.notePrefetchHit(d)
			}
			r.pin = a.mkPin(d, ci, fn, op)
			return
		}
		d.refcnt.Add(-1)
	}
	if ctx.Err() != nil {
		return // tok stays nil; awaitChunk reports the failure
	}
	ctx.Stats.Misses++
	if a.telOn() {
		a.Metrics.Misses.Add(1)
	}
	vt := ctx.Clock.Now()
	if m := a.model; m != nil {
		vt += m.SlowFixed
	}
	if tc.Trace != 0 {
		tc = a.trc.Child(tc, int32(a.self()), trace.StageService, "submit", ci, ctx.Clock.Now(), vt)
	}
	r.tok = ctx.AcquireToken()
	ctx.DemandStart()
	w := a.getWaiter()
	*w = waiter{ctx: ctx, tok: r.tok, want: want, op: op, vt: vt, tc: tc}
	a.rtOf(ci).Submit(func(rt *cluster.Runtime) {
		a.handleLocal(rt, d, ci, w)
	})
}

// awaitChunk blocks until r's acquisition completes and returns the pin,
// or nil when the cluster has failed (recorded on ctx). In the rare case
// that the granted state was lost again before the pin could be taken,
// it falls back to the synchronous pin path.
func (a *Array) awaitChunk(ctx *cluster.Ctx, r *chunkReq, want uint8, op OpID, fn func(acc, operand uint64) uint64, tc trace.Ctx) *Pin {
	if r.pin != nil {
		return r.pin
	}
	if r.tok == nil {
		return nil // issued after the cluster already failed
	}
	resp := r.tok.Wait()
	ctx.DemandEnd()
	if resp.Err != nil {
		// Do not recycle the token: a failed wait may leave a late
		// completion in its channel.
		ctx.Fail(resp.Err)
		return nil
	}
	ctx.Clock.AdvanceTo(resp.VT)
	ctx.RecycleToken(r.tok)
	r.tok = nil
	if resp.Val == 1 {
		// The runtime took the reference on our behalf.
		if a.telOn() {
			a.Metrics.PinSlow.Add(1)
		}
		return a.mkPin(r.d, r.ci, fn, op)
	}
	return a.pin(ctx, r.ci*a.sh.chunkWords, want, op, tc)
}

// pipeHook, when non-nil, observes every pipeline issue ('i') and await
// ('a') in program order — test instrumentation locking the fixed-depth
// schedule bit-for-bit. Set only from single-threaded tests before any
// bulk call.
var pipeHook func(op byte, ci int64)

// rangePipeline pins chunks [ciLo, ciHi] in order with up to
// a.pipeline acquisitions outstanding, calling process for each pinned
// chunk and unpinning it. The next acquisitions are issued before the
// current chunk is processed, so the copy overlaps the fetch. Stops
// early (without process) once the cluster fails.
func (a *Array) rangePipeline(ctx *cluster.Ctx, ciLo, ciHi int64, want uint8, op OpID, process func(p *Pin), tc trace.Ctx) {
	var fn func(acc, operand uint64) uint64
	if want == wantPinOperate {
		fn = a.op(op).Fn
	}
	depth := int64(a.pipeline)
	if n := ciHi - ciLo + 1; depth > n {
		depth = n
	}
	// Fixed ring of request slots: slot (ci-ciLo)%depth is always free
	// again by the time ci needs it, because completions are consumed in
	// issue order and at most depth acquisitions are ever outstanding.
	reqs := make([]chunkReq, depth)
	next := ciLo
	issue := func(awaited int64) {
		for next <= ciHi && next-awaited < depth {
			if pipeHook != nil {
				pipeHook('i', next)
			}
			a.issueChunkInto(ctx, &reqs[(next-ciLo)%depth], next, want, op, fn, tc)
			next++
		}
	}
	issue(ciLo)
	for ci := ciLo; ci <= ciHi; ci++ {
		r := &reqs[(ci-ciLo)%depth]
		if pipeHook != nil {
			pipeHook('a', ci)
		}
		p := a.awaitChunk(ctx, r, want, op, fn, tc)
		issue(ci + 1)
		if p == nil {
			return // cluster failed; remaining tokens die with it
		}
		process(p)
		p.Unpin(ctx)
	}
}

// ---------------------------------------------------------------------------
// Sequential-access detector (fast-path speculative prefetch).

// noteSeq feeds the detector with a fast-path touch of chunk ci. The
// whole state is one packed word (chunk<<8 | streak) updated with a
// single CAS; losing the CAS race means another thread observed an
// access concurrently, and the observation is simply dropped — the
// detector never blocks or retries on the fast path.
func (a *Array) noteSeq(ctx *cluster.Ctx, ci int64) {
	old := a.seq.Load()
	last, streak := old>>8, old&0xff
	if ci == last && streak != 0 {
		return // repeat touch of the same chunk: no new information
	}
	var ns int64
	if ci == last+1 && streak != 0 {
		ns = streak + 1
		if ns > 0xff {
			ns = 0xff
		}
	} else {
		ns = 1
	}
	if !a.seq.CompareAndSwap(old, ci<<8|ns) {
		return // contention: drop silently
	}
	if ns >= 2 {
		a.speculate(ctx, ci+1)
	}
}

// speculate submits a speculative fetch of chunk ci to its owning
// runtime. All checks here are advisory (the runtime dedups again in
// prefetchChunk); the fast path only pays them after the detector has
// already confirmed a streaming pattern.
func (a *Array) speculate(ctx *cluster.Ctx, ci int64) {
	if ci >= a.sh.nChunks {
		return
	}
	dst := a.homeOfChunk(ci)
	if dst == a.self() {
		return
	}
	if a.spareCredit(ctx) < 1 {
		a.Metrics.PrefetchThrottled.Add(1)
		return // demand traffic already owns the window
	}
	d := &a.dents[ci]
	if statePerm(d.state.Load()) != permInvalid {
		return // already resident; in-flight fetches dedup on the runtime
	}
	vt := ctx.Clock.Now()
	a.rtOf(ci).Submit(func(rt *cluster.Runtime) {
		a.prefetchChunk(rt, d, vt)
	})
}

// spareCredit returns how many speculative issues the issuing thread's
// pipeline window has room for beyond its in-flight demand requests, so
// prefetch yields to a saturated pipeline — speculative traffic must
// never queue ahead of demand fetches.
func (a *Array) spareCredit(ctx *cluster.Ctx) int64 {
	return int64(a.pipeline) - ctx.DemandInflight()
}

// notePrefetchHit attributes a fast-path hit to a speculative fill.
// Called under telOn: the common case (no outstanding prefetch mark)
// costs one atomic load.
func (a *Array) notePrefetchHit(d *dentry) {
	if d.pf.Load() && d.pf.CompareAndSwap(true, false) {
		a.Metrics.PrefetchHits.Add(1)
	}
}
