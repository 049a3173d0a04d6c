package main

import (
	"darray/internal/core"
	"darray/internal/kvs"
	"darray/internal/ycsb"
)

// ycsbWorkload stresses the point-op serving path: KVS hash probes,
// distributed RLock/WLock, fast-path hits, and invalidations from puts.
// The store fits the node caches; it never touches the bulk pipeline or
// Operate.
var ycsbWorkload = workload{
	name:        "ycsb-b",
	procs:       1,
	traceSample: 16,
	build:       newYCSB,
}

// ycsbGetRatio is YCSB workload B's read share.
const ycsbGetRatio = 0.95

type ycsbInst struct {
	sz     sizes
	ops    [][]ycsb.Op // per node, pre-generated
	stores []*kvs.Store
}

func newYCSB(seed int64, sz sizes) instance {
	in := &ycsbInst{sz: sz, ops: make([][]ycsb.Op, benchNodes), stores: make([]*kvs.Store, benchNodes)}
	for v := range in.ops {
		g := ycsb.NewGenerator(ycsb.Config{Records: sz.KVRecords, GetRatio: ycsbGetRatio, Seed: seed + int64(v)*101})
		ops := make([]ycsb.Op, sz.KVOps)
		for k := range ops {
			ops[k] = g.Next()
		}
		in.ops[v] = ops
	}
	return in
}

// kvsConfig sizes the store: 8 records per bucket, and a byte array with
// room for every record to be rewritten several times over.
func kvsConfig(records int64) kvs.Config {
	return kvs.Config{Buckets: records / 8, ByteWords: records * 64}
}

func (in *ycsbInst) setup(e *nodeEnv) {
	cfg := kvsConfig(in.sz.KVRecords)
	entryWords, byteWords := kvs.Sizes(cfg, benchNodes)
	var entries, bytes kvs.WordStore = core.New(e.node, entryWords), core.New(e.node, byteWords)
	if e.traced {
		entries = &timedStore{a: entries.(*core.Array), e: e}
		bytes = &timedStore{a: bytes.(*core.Array), e: e}
	}
	s := kvs.New(e.node, entries, bytes, cfg)
	in.stores[e.node.ID()] = s

	// Preload: each node loads its 1/n slice of the key space.
	gen := ycsb.NewGenerator(ycsb.Config{Records: in.sz.KVRecords})
	per := in.sz.KVRecords / benchNodes
	lo := int64(e.node.ID()) * per
	hi := lo + per
	if e.node.ID() == benchNodes-1 {
		hi = in.sz.KVRecords
	}
	for r := lo; r < hi; r++ {
		if err := s.Put(e.ctx, ycsb.Key(r), gen.LoadValue(r)); err != nil {
			e.rec.failed++
		}
	}
	e.rec.planned.Store(int64(len(in.ops[e.node.ID()])))
	e.rec.lat = make([]int64, 0, len(in.ops[e.node.ID()]))
}

func (in *ycsbInst) run(e *nodeEnv) {
	s, ctx, rec := in.stores[e.node.ID()], e.ctx, e.rec
	for _, op := range in.ops[e.node.ID()] {
		t0 := ctx.Clock.Now()
		if op.Kind == ycsb.OpGet {
			v, err := s.Get(ctx, op.Key)
			if err != nil || !ycsb.ValidValue(op.ID, v) {
				// ErrNotFound is a failure too: every key was preloaded.
				rec.failed++
			}
			rec.userBytes += int64(len(v))
		} else {
			if err := s.Put(ctx, op.Key, op.Val); err != nil {
				rec.failed++
			}
			rec.userBytes += int64(len(op.Val))
		}
		d := ctx.Clock.Now() - t0
		rec.kvs.ops++
		rec.kvs.opVT += d
		rec.done(d, op.Kind == ycsb.OpPut)
	}
}

// verify has nothing left to check: run checked every Get's value.
func (in *ycsbInst) verify(*nodeEnv) {}
