// Command darray-kv runs a scripted workload against the DArray-based
// distributed key-value store (paper §5.2) and reports per-phase
// statistics. It is a driver for kicking the tires on the KVS outside
// the benchmark harness:
//
//	darray-kv -nodes 4 -records 100000 -ops 50000 -get-ratio 0.9
//	darray-kv -backend gam ...     # same workload on the GAM-based KVS
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"darray/internal/cliflags"
	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/gamkvs"
	"darray/internal/kvs"
	"darray/internal/stats"
	"darray/internal/ycsb"
)

func main() {
	var (
		nodes    = flag.Int("nodes", 3, "simulated cluster nodes")
		threads  = flag.Int("threads", 2, "application threads per node")
		records  = flag.Int64("records", 50000, "distinct keys")
		ops      = flag.Int("ops", 20000, "operations per thread")
		getRatio = flag.Float64("get-ratio", 0.95, "fraction of gets")
		rmwRatio = flag.Float64("rmw-ratio", 0, "fraction of read-modify-writes (YCSB-F style; read the record, bump its counter via Operate)")
		theta    = flag.Float64("theta", 0.99, "zipfian skew")
		backend  = flag.String("backend", "darray", "darray or gam")
		valueLen = flag.Int("value-len", 100, "value size in bytes")
	)
	cf := cliflags.Register("darray-kv")
	cf.Parse()

	c := cluster.New(cf.Config(*nodes))
	defer c.Close()

	cfg := kvs.Config{
		Buckets:   *records / 8,
		ByteWords: int64(*nodes) * *records * int64(*valueLen/8+8),
	}

	var mu sync.Mutex
	var gets, puts, rmws, notFound int64
	var lat stats.Histogram
	start := time.Now()

	c.Run(func(n *cluster.Node) {
		var store *kvs.Store
		switch *backend {
		case "darray":
			store = kvs.NewDArray(n, cfg)
		case "gam":
			store = gamkvs.New(n, cfg)
		default:
			fmt.Fprintf(os.Stderr, "unknown backend %q\n", *backend)
			os.Exit(2)
		}
		var counters *core.Array
		var bump core.OpID
		if *rmwRatio > 0 {
			// One update counter per record: an RMW reads the record from
			// the store and bumps its counter with a commutative Operate
			// add — the op the function-shipping path accelerates.
			counters = core.New(n, *records)
			bump = counters.RegisterOp(core.OpAddU64)
		}
		root := n.NewCtx(0)
		gen := ycsb.NewGenerator(ycsb.Config{Records: *records, ValueLen: *valueLen, Seed: 7})
		per := *records / int64(c.Nodes())
		lo := int64(n.ID()) * per
		hi := lo + per
		if n.ID() == c.Nodes()-1 {
			hi = *records
		}
		for r := lo; r < hi; r++ {
			if err := store.Put(root, ycsb.Key(r), gen.LoadValue(r)); err != nil {
				panic(err)
			}
		}
		c.Barrier(root)

		n.RunThreads(*threads, func(ctx *cluster.Ctx) {
			g := ycsb.NewGenerator(ycsb.Config{
				Records: *records, GetRatio: *getRatio, RMWRatio: *rmwRatio, Theta: *theta,
				ValueLen: *valueLen, Seed: int64(n.ID()*100 + ctx.TID),
			})
			var lg, lp, lr, lnf int64
			for k := 0; k < *ops; k++ {
				op := g.Next()
				opStart := time.Now()
				switch op.Kind {
				case ycsb.OpGet:
					lg++
					if _, err := store.Get(ctx, op.Key); err == kvs.ErrNotFound {
						lnf++
					}
				case ycsb.OpPut:
					lp++
					if err := store.Put(ctx, op.Key, op.Val); err != nil {
						panic(err)
					}
				case ycsb.OpRMW:
					lr++
					if _, err := store.Get(ctx, op.Key); err == kvs.ErrNotFound {
						lnf++
					}
					counters.Apply(ctx, bump, op.ID, 1)
				}
				if k%64 == 0 {
					mu.Lock()
					lat.Add(time.Since(opStart).Nanoseconds())
					mu.Unlock()
				}
			}
			mu.Lock()
			gets += lg
			puts += lp
			rmws += lr
			notFound += lnf
			mu.Unlock()
		})
		c.Barrier(root)
	})

	wall := time.Since(start)
	total := gets + puts + rmws
	fmt.Printf("backend=%s nodes=%d threads=%d records=%d ship=%s\n", *backend, *nodes, *threads, *records, cf.Knobs.Ship)
	fmt.Printf("ops: %d total (%d gets, %d puts, %d rmws, %d not-found)\n", total, gets, puts, rmws, notFound)
	fmt.Printf("wall: %v  (%.0f ops/s host throughput)\n", wall.Round(time.Millisecond),
		float64(total)/wall.Seconds())
	fmt.Printf("sampled host latency: p50=%v p99=%v max=%v\n",
		time.Duration(lat.Percentile(50)), time.Duration(lat.Percentile(99)),
		time.Duration(lat.Max()))
	cf.Finish(c)
}
