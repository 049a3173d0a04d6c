package core

import (
	"darray/internal/cluster"
	"darray/internal/fabric"
	"darray/internal/trace"
)

// ---------------------------------------------------------------------------
// Cache side: a non-home node's view of a chunk.

// cacheRequest queues a local slow-path waiter and sends a request to
// the chunk's home if none is outstanding.
func (a *Array) cacheRequest(rt *cluster.Runtime, d *dentry, w *waiter) {
	d.waiters = append(d.waiters, w)
	if d.pending || d.busy {
		// Demand caught up with an in-flight speculative fill: that fill
		// just became useful.
		if d.pending && d.pf.CompareAndSwap(true, false) {
			a.Metrics.PrefetchHits.Add(1)
		}
		return // outstanding grant or eviction completes first
	}
	a.issueRequest(rt, d)
}

// issueRequest sends the protocol request matching the first waiter's
// need and, for sequential read misses, issues prefetches (paper §4.2:
// prefetch lives in the slow path so it never taxes the fast path).
func (a *Array) issueRequest(rt *cluster.Runtime, d *dentry) {
	w := d.waiters[0]
	home := a.homeOfChunk(d.ci)
	d.pending = true
	var kind uint8
	switch wantPerm(w.want) {
	case permRead:
		kind = msgReadReq
	case permRW:
		kind = msgWriteReq
	default:
		kind = msgOperateReq
	}
	// The issuing waiter's chain rides the request: the home side and the
	// response decompose its wait, so respond skips its chunk-wait span.
	w.linked = true
	vt := maxi64(w.vt, d.tvt)
	if w.tc.Valid() && vt > w.vt && a.traceOn() {
		// Time spent parked behind earlier transactions on this chunk
		// (e.g. a grant that arrived and was lost again) before this
		// waiter's own request went out.
		w.tc = a.child(w.tc, a.self(), trace.StageQueue, "chunk-wait", d.ci, w.vt, vt)
		w.vt = vt
	}
	a.send(&fMsg{to: home, kind: kind, chunk: d.ci, op: w.op, vt: vt, tc: w.tc})
	if kind == msgReadReq {
		a.prefetch(w.ctx, d.ci, w.vt)
	}
}

// prefetch requests the next few chunks after ci if they are remote and
// absent. The submissions go to the runtimes owning those chunks.
// Speculative issue spends the requesting thread's spare window credit
// (pipeline depth minus in-flight demand): a busy pipeline gets no prefetch at
// all, so speculation can never queue ahead of demand fetches.
func (a *Array) prefetch(ctx *cluster.Ctx, ci int64, vt int64) {
	ahead := int64(a.node.Cluster().Config().PrefetchAhead)
	issued := int64(0)
	for k := int64(1); k <= ahead; k++ {
		cj := ci + k
		if cj >= a.sh.nChunks {
			return
		}
		dst := a.homeOfChunk(cj)
		if dst == a.self() {
			continue
		}
		if a.spareCredit(ctx) <= issued {
			a.Metrics.PrefetchThrottled.Add(1)
			return // spend at most the spare credit, in order
		}
		dj := &a.dents[cj]
		issued++
		a.rtOf(cj).Submit(func(rt *cluster.Runtime) {
			a.prefetchChunk(rt, dj, vt)
		})
	}
}

// prefetchChunk issues a speculative read request for chunk d if it is
// absent and idle. Runs on d's owning runtime goroutine; both the
// slow-path miss prefetcher and the fast-path sequential detector land
// here, so the dedup against pending/busy/resident is in one place.
func (a *Array) prefetchChunk(rt *cluster.Runtime, d *dentry, vt int64) {
	if d.pending || d.busy || statePerm(d.state.Load()) != permInvalid {
		return
	}
	d.pending = true
	d.pf.Store(true)
	a.Metrics.Prefetches.Add(1)
	a.send(&fMsg{to: a.homeOfChunk(d.ci), kind: msgReadReq, chunk: d.ci,
		vt: maxi64(vt, d.tvt)})
}

// withLine runs cont once d has a backing cache line, allocating one
// (and stalling on reclamation) if necessary.
func (a *Array) withLine(rt *cluster.Runtime, d *dentry, cont func(rt *cluster.Runtime)) {
	if d.line != nil {
		cont(rt)
		return
	}
	s := a.rstate(rt)
	if ln := s.allocLine(); ln != nil {
		a.adoptLine(d, ln)
		cont(rt)
		return
	}
	rt.Stall(func(rt *cluster.Runtime) bool {
		ln := s.allocLine()
		if ln == nil {
			return false
		}
		a.adoptLine(d, ln)
		cont(rt)
		return true
	})
}

func (a *Array) adoptLine(d *dentry, ln *cacheLine) {
	ln.owner = d
	d.line = ln
	d.data = ln.data
}

// handleDataResp installs a granted chunk copy (Read or RW permission)
// and wakes the local waiters. When the grant upgrades a live Shared
// line (the home excludes the requester from invalidation), active
// readers are drained before the line is overwritten.
func (a *Array) handleDataResp(rt *cluster.Runtime, d *dentry, m *fabric.Message, svt int64, tc trace.Ctx) {
	perm := uint32(m.Val)
	fill := svt + a.copyCost(len(m.Data))
	a.child(tc, a.self(), trace.StageService, "install", d.ci, svt, fill)
	// Hold d busy until the install completes (see finishInstall).
	own := !d.busy
	d.busy = true
	a.demoteLocal(rt, d, permInvalid, func(rt *cluster.Runtime) {
		a.withLine(rt, d, func(rt *cluster.Runtime) {
			a.installGrant(d, m) // adopts the pooled payload when it can
			a.recycleMsg(m)      // this handler owns m (see handleMsg)
			d.state.Store(perm)
			d.tvt = maxi64(d.tvt, fill)
			a.Metrics.Fills.Add(1)
			a.finishInstall(rt, d, own)
		})
	})
}

// handleOpGrant installs an Operated combine buffer initialized to the
// operator's identity, draining any readers of a prior Shared copy
// first.
func (a *Array) handleOpGrant(rt *cluster.Runtime, d *dentry, m *fabric.Message, svt int64) {
	opid := OpID(m.OpID)
	op := a.op(opid)
	if a.shipMode == shipAuto {
		// The grant piggybacks the home's shipping hint in Val (0 in off
		// mode, keeping the wire identical to the pre-shipping protocol).
		d.ship.Store(m.Val != 0)
	}
	a.recycleMsg(m) // this handler owns m; all fields are consumed above
	// Hold d busy until the install completes (see finishInstall).
	own := !d.busy
	d.busy = true
	a.demoteLocal(rt, d, permInvalid, func(rt *cluster.Runtime) {
		a.withLine(rt, d, func(rt *cluster.Runtime) {
			a.ensureLineData(d) // no inbound payload to adopt
			id := op.Identity
			for i := range d.data {
				d.data[i] = id
			}
			d.state.Store(packState(permOperated, opid))
			d.tvt = maxi64(d.tvt, svt)
			a.finishInstall(rt, d, own)
		})
	})
}

// finishInstall completes a grant installation: the request is no
// longer pending and the waiters the new state satisfies are woken.
//
// The grant handlers keep d busy from arrival until here, because the
// install can stall (draining readers of an old Shared copy, waiting
// for a free line). A recall or op-recall the home sends after the
// grant would otherwise be handled during the stall, find the pre-grant
// state, and be dropped as already answered — leaving the home waiting
// forever for the flush. Busy defers those commands; they run here, in
// arrival order, once the grant is in place. own is false when another
// transition already held d busy; that transition drains instead.
func (a *Array) finishInstall(rt *cluster.Runtime, d *dentry, own bool) {
	d.pending = false
	if own {
		d.busy = false
	}
	a.completeWaiters(rt, d)
	if own {
		a.drainDeferred(rt, d, d.ci)
	}
}

// completeWaiters responds to every waiter the new state satisfies and
// re-issues a request for the strongest remaining need, if any.
func (a *Array) completeWaiters(rt *cluster.Runtime, d *dentry) {
	st := d.state.Load()
	kept := d.waiters[:0]
	for _, w := range d.waiters {
		if satisfies(st, w.want, w.op) {
			a.respond(rt, d, w, d.tvt)
		} else {
			kept = append(kept, w)
		}
	}
	for i := len(kept); i < len(d.waiters); i++ {
		d.waiters[i] = nil
	}
	d.waiters = kept
	if len(d.waiters) == 0 {
		// Keep the empty slice so the next miss on this chunk appends
		// into retained capacity instead of reallocating.
		return
	}
	if !d.pending && !d.busy {
		a.issueRequest(rt, d)
	}
}

// handleInvalidate drops a Shared copy (home is granting someone
// exclusive or Operated access). Invalidations are idempotent: a line
// already gone (silent eviction, concurrent demotion) just acks.
func (a *Array) handleInvalidate(rt *cluster.Runtime, d *dentry, m *fabric.Message, svt int64, tc trace.Ctx) {
	a.Metrics.Invals.Add(1)
	home := a.homeOfChunk(d.ci)
	if d.busy {
		// Evicting: the line dies anyway; ack once it has.
		d.defrd = append(d.defrd, deferredReq{from: m.From, want: defInvalidate, vt: svt, tc: tc})
		return
	}
	if d.line == nil || statePerm(d.state.Load()) != permRead {
		a.send(&fMsg{to: home, kind: msgInvAck, chunk: d.ci, vt: svt, tc: tc})
		return
	}
	d.busy = true
	d.tvt = maxi64(d.tvt, svt)
	a.demoteLocal(rt, d, permInvalid, func(rt *cluster.Runtime) {
		a.releaseLine(rt, d)
		d.busy = false
		a.send(&fMsg{to: home, kind: msgInvAck, chunk: d.ci, vt: d.tvt, tc: tc})
		a.drainDeferred(rt, d, d.ci)
	})
}

// handleDowngrade writes a Dirty chunk back but keeps a Shared copy
// (home is serving another node's read).
func (a *Array) handleDowngrade(rt *cluster.Runtime, d *dentry, svt int64, tc trace.Ctx) {
	home := a.homeOfChunk(d.ci)
	if d.busy {
		d.defrd = append(d.defrd, deferredReq{want: defDowngrade, vt: svt, tc: tc})
		return
	}
	if d.line == nil || statePerm(d.state.Load()) != permRW {
		return // voluntary writeback already in flight covers this
	}
	d.busy = true
	d.tvt = maxi64(d.tvt, svt)
	a.demoteLocal(rt, d, permRead, func(rt *cluster.Runtime) {
		// The line survives as a Shared copy, so the writeback cannot
		// donate its buffer — this path genuinely copies.
		data, pay := a.leasePayload(len(d.data))
		copy(data, d.data)
		a.Metrics.PayloadCopies.Add(1)
		a.Metrics.WriteBacks.Add(1)
		d.busy = false
		cc := a.copyCost(len(data))
		wtc := a.child(tc, a.self(), trace.StageService, "copy-out", d.ci, d.tvt, d.tvt+cc)
		a.send(&fMsg{to: home, kind: msgWBData, chunk: d.ci, data: data, pay: pay,
			vt: d.tvt + cc, tc: wtc})
		a.drainDeferred(rt, d, d.ci)
	})
}

// handleRecall writes a Dirty chunk back and invalidates it.
func (a *Array) handleRecall(rt *cluster.Runtime, d *dentry, svt int64, tc trace.Ctx) {
	home := a.homeOfChunk(d.ci)
	if d.busy {
		d.defrd = append(d.defrd, deferredReq{want: defRecall, vt: svt, tc: tc})
		return
	}
	if d.line == nil || statePerm(d.state.Load()) != permRW {
		return // voluntary writeback in flight
	}
	d.busy = true
	d.tvt = maxi64(d.tvt, svt)
	a.demoteLocal(rt, d, permInvalid, func(rt *cluster.Runtime) {
		// The line dies: its buffer rides the writeback message home.
		data, pay := a.takeLineData(d)
		a.Metrics.WriteBacks.Add(1)
		a.releaseLine(rt, d)
		d.busy = false
		cc := a.copyCost(len(data))
		wtc := a.child(tc, a.self(), trace.StageService, "copy-out", d.ci, d.tvt, d.tvt+cc)
		a.send(&fMsg{to: home, kind: msgWBData, chunk: d.ci, data: data, pay: pay,
			vt: d.tvt + cc, tc: wtc})
		a.drainDeferred(rt, d, d.ci)
	})
}

// handleOpRecall flushes the combined-operand buffer to home and
// invalidates the chunk (home is collapsing the Operated state).
func (a *Array) handleOpRecall(rt *cluster.Runtime, d *dentry, svt int64, tc trace.Ctx) {
	home := a.homeOfChunk(d.ci)
	if d.busy {
		d.defrd = append(d.defrd, deferredReq{want: defOpRecall, vt: svt, tc: tc})
		return
	}
	st := d.state.Load()
	if d.line == nil || statePerm(st) != permOperated {
		return // voluntary flush in flight
	}
	op := stateOp(st)
	d.busy = true
	d.tvt = maxi64(d.tvt, svt)
	a.demoteLocal(rt, d, permInvalid, func(rt *cluster.Runtime) {
		// Like handleRecall: the dying line's buffer becomes the flush
		// payload.
		data, pay := a.takeLineData(d)
		a.Metrics.OpFlushes.Add(1)
		a.releaseLine(rt, d)
		d.busy = false
		cc := a.copyCost(len(data))
		wtc := a.child(tc, a.self(), trace.StageService, "copy-out", d.ci, d.tvt, d.tvt+cc)
		a.send(&fMsg{to: home, kind: msgOpFlush, chunk: d.ci, op: op, data: data, pay: pay,
			vt: d.tvt + cc, tc: wtc})
		a.drainDeferred(rt, d, d.ci)
	})
}

// releaseLine detaches and frees d's cache line. A line dying with its
// prefetch mark still set was filled speculatively and never touched.
func (a *Array) releaseLine(rt *cluster.Runtime, d *dentry) {
	if d.line == nil {
		return
	}
	if d.pf.CompareAndSwap(true, false) {
		a.Metrics.PrefetchWasted.Add(1)
	}
	s := a.rstate(rt)
	s.freeLine(d.line)
	d.line = nil
	d.data = nil
}
