package core

import (
	"runtime"
	"testing"

	"darray/internal/buf"
	"darray/internal/cluster"
)

// skipIfNotMeasurable skips allocation-delta tests in build modes whose
// allocator traffic is not representative of a release build.
func skipIfNotMeasurable(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation measurement needs steady-state rounds")
	}
	if raceEnabled {
		t.Skip("race-detector bookkeeping allocates; Mallocs deltas are not comparable")
	}
	if buf.Debug {
		t.Skip("bufdebug quarantines released buffers; pooling is intentionally defeated")
	}
}

// allocWorkload builds a 2-node cluster and has node 0 repeatedly sweep
// node 1's partition, forcing every access through the cross-node miss
// slow path (CacheChunks is far below the remote partition size, so
// each round re-evicts and re-fetches). It reports heap allocations per
// slow-path miss, measured around the steady-state phase only.
func allocWorkload(t *testing.T, byRange bool) float64 {
	t.Helper()
	cfg := cluster.Config{Nodes: 2, ChunkWords: 64, CacheChunks: 8}
	c := cluster.New(cfg)
	defer c.Close()

	const chunks = 64 // per-node partition, words = 64*64
	words := int64(cfg.ChunkWords) * chunks * int64(cfg.Nodes)
	var allocsPerMiss float64
	c.Run(func(n *cluster.Node) {
		a := New(n, words)
		if n.ID() != 0 {
			return
		}
		ctx := n.NewCtx(0)
		lo := words / 2 // start of node 1's partition
		sweep := func() {
			if byRange {
				dst := make([]uint64, cfg.ChunkWords)
				for i := lo; i < words; i += int64(cfg.ChunkWords) {
					a.GetRange(ctx, i, dst)
				}
				return
			}
			for i := lo; i < words; i += 8 {
				a.Get(ctx, i)
			}
		}
		sweep() // warm up pools and lazily-built state

		var before, after runtime.MemStats
		missBase := ctx.Stats.Misses
		runtime.GC()
		runtime.ReadMemStats(&before)
		for round := 0; round < 8; round++ {
			sweep()
		}
		runtime.ReadMemStats(&after)
		misses := ctx.Stats.Misses - missBase
		if misses == 0 {
			t.Fatal("workload produced no slow-path misses")
		}
		allocsPerMiss = float64(after.Mallocs-before.Mallocs) / float64(misses)
	})
	if err := c.Err(); err != nil {
		t.Fatalf("cluster failed: %v", err)
	}
	return allocsPerMiss
}

// Allocation ceilings per cross-node slow-path miss. The zero-copy data
// path measures about 5.3 (Get) and 11 (GetRange) on go1.24/amd64; an
// allocate-per-message path measured about 18.5 and 33, so the ceilings
// catch any return of per-message allocation with headroom for
// runtime noise.
const (
	maxAllocsPerGetMiss   = 9.0
	maxAllocsPerRangeMiss = 16.0
)

// TestPooledAllocsGet is the zero-copy path's regression gate: a
// cross-node Get miss must stay within maxAllocsPerGetMiss heap
// allocations.
func TestPooledAllocsGet(t *testing.T) {
	skipIfNotMeasurable(t)
	got := allocWorkload(t, false)
	t.Logf("Get: %.2f allocs/miss (ceiling %.1f)", got, maxAllocsPerGetMiss)
	if got > maxAllocsPerGetMiss {
		t.Errorf("Get path allocates %.2f/miss, want <= %.1f", got, maxAllocsPerGetMiss)
	}
}

// TestPooledAllocsGetRange applies the same gate to the pipelined bulk
// path, which additionally exercises token and chunk-request recycling.
func TestPooledAllocsGetRange(t *testing.T) {
	skipIfNotMeasurable(t)
	got := allocWorkload(t, true)
	t.Logf("GetRange: %.2f allocs/miss (ceiling %.1f)", got, maxAllocsPerRangeMiss)
	if got > maxAllocsPerRangeMiss {
		t.Errorf("GetRange path allocates %.2f/miss, want <= %.1f", got, maxAllocsPerRangeMiss)
	}
}
