package main

import (
	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/kvs"
)

// timedStore is the kvs.WordStore a traced ycsb-b repetition passes to
// kvs.New: it forwards every call to the core array and, during the
// measured phase, charges its virtual duration to the node's kvsTimers,
// so the KVS layer's own time is what remains of an op once its array
// calls are subtracted.
type timedStore struct {
	a *core.Array
	e *nodeEnv
}

var _ kvs.WordStore = (*timedStore)(nil)

// kvsTimers accumulate the array-call side of every KVS op.
type kvsTimers struct {
	ops    int64 // KVS calls
	opVT   int64 // their total virtual time
	words  int64 // array Get/Set calls they made
	wordVT int64 // virtual time inside those calls
	lockVT int64 // virtual time inside RLock/WLock/Unlock
}

// selfVT is the virtual time KVS ops spent outside array calls.
func (t *kvsTimers) selfVT() int64 { return t.opVT - t.wordVT - t.lockVT }

func (s *timedStore) Get(ctx *cluster.Ctx, i int64) uint64 {
	t0 := ctx.Clock.Now()
	v := s.a.Get(ctx, i)
	s.word(ctx.Clock.Now()-t0, s.e.model.GetHit)
	return v
}

func (s *timedStore) Set(ctx *cluster.Ctx, i int64, v uint64) {
	t0 := ctx.Clock.Now()
	s.a.Set(ctx, i, v)
	s.word(ctx.Clock.Now()-t0, s.e.model.SetHit)
}

func (s *timedStore) word(d, hit int64) {
	if !s.e.measuring {
		return
	}
	s.e.rec.kvs.words++
	s.e.rec.kvs.wordVT += d
	s.e.rec.coreCall(d, hit)
}

func (s *timedStore) RLock(ctx *cluster.Ctx, i int64) { s.lock(ctx, i, s.a.RLock) }
func (s *timedStore) WLock(ctx *cluster.Ctx, i int64) { s.lock(ctx, i, s.a.WLock) }
func (s *timedStore) Unlock(ctx *cluster.Ctx, i int64) {
	s.lock(ctx, i, s.a.Unlock)
}

func (s *timedStore) lock(ctx *cluster.Ctx, i int64, fn func(*cluster.Ctx, int64)) {
	t0 := ctx.Clock.Now()
	fn(ctx, i)
	if s.e.measuring {
		s.e.rec.kvs.lockVT += ctx.Clock.Now() - t0
	}
}

func (s *timedStore) LocalRange() (int64, int64) { return s.a.LocalRange() }
func (s *timedStore) Len() int64                 { return s.a.Len() }
