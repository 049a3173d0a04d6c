package core

import (
	"darray/internal/buf"
	"darray/internal/cluster"
	"darray/internal/trace"
)

// cacheLine is one slot of a runtime thread's cache region. Lines are
// backed lazily with refcounted pool buffers (usually by adopting an
// inbound grant).
type cacheLine struct {
	data  []uint64
	ref   *buf.Ref // pooled backing, nil while unbacked
	owner *dentry  // nil when free
}

// rtState is the per-(runtime goroutine, array) state: the runtime's
// independent cache region with its scanning pointer (paper Figure 7)
// and the lock table for elements homed on this node and owned by this
// runtime.
type rtState struct {
	arr           *Array
	rt            *cluster.Runtime
	lines         []*cacheLine
	free          []*cacheLine
	scan          int // scanning pointer for the clock-like reclamation
	lowWM, highWM int
	reclaiming    bool

	locks       map[int64]*lockState // element locks homed here (this runtime)
	lockWaiters map[int64][]*waiter  // local threads awaiting remote grants
}

func newRTState(a *Array, rt *cluster.Runtime) *rtState {
	cfg := a.node.Cluster().Config()
	capacity := cfg.CacheChunks
	s := &rtState{
		arr:    a,
		rt:     rt,
		lines:  make([]*cacheLine, capacity),
		free:   make([]*cacheLine, 0, capacity),
		lowWM:  int(float64(capacity) * cfg.LowWatermark),
		highWM: int(float64(capacity) * cfg.HighWatermark),
		locks:  make(map[int64]*lockState),
	}
	for i := range s.lines {
		ln := &cacheLine{}
		s.lines[i] = ln
		s.free = append(s.free, ln)
	}
	return s
}

// Detach releases every pooled line backing still held by this state's
// cache region. The cluster calls it (via the Detacher interface)
// during teardown so a cleanly closed cluster ends with zero
// outstanding pool references.
func (s *rtState) Detach() {
	for _, ln := range s.lines {
		if ln.ref != nil {
			ln.ref.Release()
			ln.ref = nil
			ln.data = nil
		}
	}
}

func (a *Array) rstate(rt *cluster.Runtime) *rtState {
	return rt.Attach[a.sh.id].(*rtState)
}

// allocLine pops a free cache line, triggering watermark reclamation.
// It returns nil when no line is currently free (caller must stall).
func (s *rtState) allocLine() *cacheLine {
	if len(s.free) <= s.lowWM && !s.reclaiming {
		s.startReclaim()
	}
	if len(s.free) == 0 {
		if !s.reclaiming {
			s.startReclaim()
		}
		return nil
	}
	ln := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	return ln
}

// freeLine returns a line to the free list, dropping any pooled
// backing (a donated buffer was already detached by takeLineData).
func (s *rtState) freeLine(ln *cacheLine) {
	if ln.ref != nil {
		ln.ref.Release()
		ln.ref = nil
		ln.data = nil
	}
	ln.owner = nil
	s.free = append(s.free, ln)
}

// startReclaim scans this runtime's region from the scanning pointer,
// evicting allocated lines whose dentry is idle (not busy, refcnt 0)
// until the free count reaches the high watermark (paper §4.2). Lines
// in an intermediate state or referenced by application threads are
// skipped.
func (s *rtState) startReclaim() {
	s.reclaiming = true
	scanned := 0
	target := s.highWM
	if target < 1 {
		target = 1
	}
	for len(s.free) < target && scanned < len(s.lines) {
		ln := s.lines[s.scan]
		s.scan = (s.scan + 1) % len(s.lines)
		scanned++
		d := ln.owner
		if d == nil || d.busy || d.pending || d.refcnt.Load() != 0 {
			continue
		}
		s.arr.evictLine(s.rt, d)
	}
	s.arr.Metrics.ReclaimSweeps.Add(1)
	s.arr.Metrics.ReclaimScanned.Add(int64(scanned))
	s.reclaiming = false
}

// evictLine evicts the cache line backing d. Caller guarantees d is an
// idle non-home dentry with a resident line. Because eviction may need
// to wait out late-arriving references, the final steps may run as a
// stalled continuation; d.busy stays set until done.
func (a *Array) evictLine(rt *cluster.Runtime, d *dentry) {
	a.trace("evict", d.ci, -1, d.tvt, trace.Ctx{})
	d.busy = true
	st := d.state.Load()
	d.delay.Store(true)
	d.state.Store(permInvalid)
	finish := func(rt *cluster.Runtime) {
		a.finishEvict(rt, d, st)
	}
	if d.refcnt.Load() == 0 {
		finish(rt)
		return
	}
	rt.Stall(func(rt *cluster.Runtime) bool {
		if d.refcnt.Load() != 0 {
			return false
		}
		finish(rt)
		return true
	})
}

func (a *Array) finishEvict(rt *cluster.Runtime, d *dentry, prevState uint32) {
	ci := d.ci
	home := a.homeOfChunk(ci)
	switch statePerm(prevState) {
	case permRead:
		// Shared lines evict silently; stale sharer bits at home are
		// cleaned up by idempotent invalidations.
	case permRW:
		data, pay := a.takeLineData(d)
		a.Metrics.WriteBacks.Add(1)
		a.send(&fMsg{to: home, kind: msgWBData, chunk: ci, data: data, pay: pay,
			flag: true, vt: d.tvt})
	case permOperated:
		data, pay := a.takeLineData(d)
		a.Metrics.OpFlushes.Add(1)
		a.send(&fMsg{to: home, kind: msgOpFlush, chunk: ci, op: stateOp(prevState),
			data: data, pay: pay, flag: true, vt: d.tvt})
	}
	if d.pf.CompareAndSwap(true, false) {
		a.Metrics.PrefetchWasted.Add(1)
	}
	s := a.rstate(rt)
	s.freeLine(d.line)
	d.line = nil
	d.data = nil
	d.delay.Store(false)
	d.busy = false
	a.Metrics.Evictions.Add(1)
	a.drainDeferred(rt, d, ci)
}
