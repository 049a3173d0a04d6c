package bench

import (
	"sync"
	"time"

	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/stats"
)

// Streaming microbenchmark: bulk cross-node transfers through
// GetRange/SetRange, the access pattern the pipelined slow path and the
// Tx doorbell batching target. Every node streams the partition homed on
// its successor node into (or out of) a private buffer, so all traffic
// is remote and every range spans many chunks.

// streamResult is one streaming measurement.
type streamResult struct {
	words  int64 // total words moved across all nodes
	durNs  int64 // virtual duration (max end - min start)
	wallNs int64 // host wall-clock duration
}

func (r streamResult) mops() float64 { return stats.Throughput(r.words, r.durNs) / 1e6 }

// nsPerOp returns virtual nanoseconds per transferred word.
func (r streamResult) nsPerOp() float64 {
	if r.words == 0 {
		return 0
	}
	return float64(r.durNs) / float64(r.words)
}

// wallNsPerOp returns host nanoseconds per transferred word.
func (r streamResult) wallNsPerOp() float64 {
	if r.words == 0 {
		return 0
	}
	return float64(r.wallNs) / float64(r.words)
}

// streamConfig selects the machinery under test.
type streamConfig struct {
	pipeline int  // core pipeline depth override (0 = cluster default)
	txBurst  int  // cluster TxBurst (0 = default, -1 = off)
	coalesce bool // destination coalescing
	prefetch int  // PrefetchAhead (0 = default, -1 = off)
	write    bool // SetRange instead of GetRange
}

// baselineStream is the all-off configuration: serial chunk-at-a-time
// ranges, one doorbell per message, no coalescing, no prefetch — the
// pre-pipeline behaviour, kept reachable for apples-to-apples ablations.
func baselineStream(write bool) streamConfig {
	return streamConfig{pipeline: -1, txBurst: -1, coalesce: false, prefetch: -1, write: write}
}

// runStream executes the streaming workload on `nodes` nodes: node v
// moves the whole partition of node (v+1) mod nodes with one ranged
// call per slab of slabChunks chunks.
func runStream(p Params, nodes int, sc streamConfig) streamResult {
	words := p.WordsPerNode * int64(nodes)
	chunks := words / 512
	perRT := chunks / 2 // cache a full remote partition comfortably
	if perRT < 32 {
		perRT = 32
	}
	cfg := cluster.Config{
		Nodes:         nodes,
		Model:         p.Model,
		CacheChunks:   int(perRT),
		Telemetry:     p.Telemetry,
		MsgKindName:   core.KindName,
		TxBurst:       sc.txBurst,
		PrefetchAhead: sc.prefetch,
		PipelineDepth: sc.pipeline,
	}
	cfg.DisableCoalesce = !sc.coalesce
	if p.Faults != nil {
		cfg.Faults = p.Faults(nodes)
	}
	c := cluster.New(cfg)
	defer c.Close()

	var mu sync.Mutex
	var total, maxEnd, minStart int64
	minStart = 1 << 62
	wallStart := time.Now()
	c.Run(func(n *cluster.Node) {
		arr := core.New(n, words)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		// Stream the successor's partition: all-remote, chunk-spanning.
		peer := (n.ID() + 1) % nodes
		lo := int64(peer) * p.WordsPerNode
		buf := make([]uint64, p.WordsPerNode)
		if sc.write {
			for i := range buf {
				buf[i] = uint64(n.ID())<<32 | uint64(i)
			}
		}
		start := ctx.Clock.Now()
		if sc.write {
			arr.SetRange(ctx, lo, buf)
		} else {
			arr.GetRange(ctx, lo, buf)
		}
		end := ctx.Clock.Now()
		mu.Lock()
		total += p.WordsPerNode
		if end > maxEnd {
			maxEnd = end
		}
		if start < minStart {
			minStart = start
		}
		mu.Unlock()
		c.Barrier(ctx)
	})
	return streamResult{words: total, durNs: maxEnd - minStart, wallNs: int64(time.Since(wallStart))}
}

// Stream is the streaming-transfer experiment: cross-node GetRange and
// SetRange throughput with the transfer pipeline, doorbell batching, and
// destination coalescing individually toggled, plus a pipeline-depth
// sweep. The "all-off" row reproduces the serial pre-pipeline behaviour.
func Stream(p Params) []stats.Table {
	nodes := min(3, p.MaxNodes)
	configs := []struct {
		label string
		sc    streamConfig
	}{
		{"all-off (serial)", baselineStream(false)},
		{"pipeline-only", streamConfig{pipeline: 0, txBurst: -1, coalesce: false, prefetch: -1}},
		{"batching-only", streamConfig{pipeline: -1, txBurst: 0, coalesce: true, prefetch: -1}},
		{"all-on", streamConfig{pipeline: 0, txBurst: 0, coalesce: true, prefetch: 0}},
	}
	tbl := stats.Table{
		Title:  "Streaming: cross-node GetRange, " + itoa(nodes) + " nodes (virtual time)",
		XLabel: "metric",
		Xs:     []string{"Mwords/s", "ns/word", "wall ns/word"},
		YFmt:   "%.2f",
	}
	var base, full streamResult
	for i, cfgRow := range configs {
		r := runStream(p, nodes, cfgRow.sc)
		if i == 0 {
			base = r
		}
		if cfgRow.label == "all-on" {
			full = r
		}
		tbl.Series = append(tbl.Series, stats.Series{
			Label: cfgRow.label,
			Ys:    []float64{r.mops(), r.nsPerOp(), r.wallNsPerOp()},
		})
	}
	speed := stats.Table{
		Title:  "Streaming: speedup of all-on over all-off (serial baseline)",
		XLabel: "metric",
		Xs:     []string{"virtual-time", "wall-clock"},
		YFmt:   "%.2f",
		Series: []stats.Series{{
			Label: "speedup",
			Ys: []float64{
				stats.Speedup(full.mops(), base.mops()),
				stats.Speedup(base.wallNsPerOp(), full.wallNsPerOp()),
			},
		}},
	}
	depthTbl := stats.Table{
		Title:  "Streaming: GetRange Mwords/s (virtual) vs pipeline depth",
		XLabel: "depth",
		YFmt:   "%.2f",
	}
	var ys []float64
	for _, d := range []int{-1, 2, 4, 8, 16} {
		label := itoa(d)
		if d < 0 {
			label = "serial"
		}
		depthTbl.Xs = append(depthTbl.Xs, label)
		sc := streamConfig{pipeline: d, txBurst: 0, coalesce: true, prefetch: -1}
		ys = append(ys, runStream(p, nodes, sc).mops())
	}
	depthTbl.Series = []stats.Series{{Label: "darray", Ys: ys}}

	wr := stats.Table{
		Title:  "Streaming: cross-node SetRange, " + itoa(nodes) + " nodes (virtual time)",
		XLabel: "config",
		Xs:     []string{"all-off", "all-on"},
		YFmt:   "%.2f",
	}
	wOff := runStream(p, nodes, baselineStream(true))
	wOn := runStream(p, nodes, streamConfig{txBurst: 0, coalesce: true, write: true})
	wr.Series = []stats.Series{
		{Label: "Mwords/s", Ys: []float64{wOff.mops(), wOn.mops()}},
		{Label: "ns/word", Ys: []float64{wOff.nsPerOp(), wOn.nsPerOp()}},
	}
	return []stats.Table{tbl, speed, depthTbl, wr}
}
