package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Machine-readable microbenchmark output (BENCH_micro.json): a stable
// per-benchmark ns/op record plus run metadata, so successive PRs leave
// a comparable perf trajectory instead of prose tables only.

// MicroResult is one named measurement. NsPerOp and MopsPerSec are in
// virtual time (the calibrated cost model); WallNsPerOp is the host
// wall-clock cost per operation, meaningful only on an idle machine.
// AllocsPerOp and BytesPerOp (schema v2) are heap-allocation deltas
// (runtime.MemStats Mallocs/TotalAlloc) over the whole measurement —
// including cluster setup, amortised over every operation — so they
// track the real GC pressure a benchmark run produces. Schema v6
// dropped the contention experiment's rows and the p99_ns_per_op,
// fairness and retransmits fields only those rows filled.
type MicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	MopsPerSec  float64 `json:"mops_per_sec"`
	WallNsPerOp float64 `json:"wall_ns_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	Knobs       *Knobs  `json:"knobs,omitempty"`
}

// Knobs records the effective knob set behind one measurement (schema
// v3), so a result line is interpretable without reconstructing the
// command line that produced it. Schema v5 dropped no_pool: the pooled
// zero-copy path is the only data path; v6 dropped no_cc and streams:
// fixed pipeline windows are the only streaming path.
type Knobs struct {
	TxBurst  int     `json:"tx_burst"`
	Pipeline int     `json:"pipeline"`
	Prefetch int     `json:"prefetch"`
	Coalesce bool    `json:"coalesce"`
	Ship     string  `json:"ship"`
	Nodes    int     `json:"nodes"`
	Threads  int     `json:"threads"`
	Theta    float64 `json:"theta,omitempty"`
}

// knobs renders p's effective cluster knob set for one measurement.
func (p Params) knobs(nodes, threads int) *Knobs {
	ship := p.Ship
	if ship == "" {
		ship = "auto"
	}
	return &Knobs{
		TxBurst:  p.TxBurst,
		Pipeline: p.PipelineDepth,
		Prefetch: p.PrefetchAhead,
		Coalesce: !p.DisableCoalesce,
		Ship:     ship,
		Nodes:    nodes,
		Threads:  threads,
	}
}

// MicroReport is the whole BENCH_micro.json document.
type MicroReport struct {
	Schema       string        `json:"schema"`
	GeneratedAt  string        `json:"generated_at"`
	GoVersion    string        `json:"go_version"`
	GOOS         string        `json:"goos"`
	GOARCH       string        `json:"goarch"`
	NumCPU       int           `json:"num_cpu"`
	WordsPerNode int64         `json:"words_per_node"`
	Nodes        int           `json:"nodes"`
	Results      []MicroResult `json:"results"`
}

// measureAllocs runs fn (which reports its operation count) between two
// MemStats snapshots and returns heap allocations and bytes per op.
func measureAllocs(fn func() int64) (allocsPerOp, bytesPerOp float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ops := fn()
	runtime.ReadMemStats(&after)
	if ops <= 0 {
		return 0, 0
	}
	return float64(after.Mallocs-before.Mallocs) / float64(ops),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
}

// MicroJSON runs the micro suite at p's scale and returns the report.
// The suite covers the single-word sequential paths (per system), the
// random-access path, and the streaming bulk-transfer path with the
// pipeline off and on.
func MicroJSON(p Params) MicroReport {
	nodes := min(3, p.MaxNodes)
	rep := MicroReport{
		Schema:       "darray-bench-micro/v6",
		GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		WordsPerNode: p.WordsPerNode,
		Nodes:        nodes,
	}
	addSeq := func(name, system, op string, n int) {
		var r seqResult
		allocs, bytes := measureAllocs(func() int64 {
			r = runSeq(p, system, op, n, 1)
			return r.ops
		})
		rep.Results = append(rep.Results, MicroResult{
			Name: name, NsPerOp: r.meanNs(), MopsPerSec: r.mops(),
			AllocsPerOp: allocs, BytesPerOp: bytes,
			Knobs: p.knobs(n, 1),
		})
	}
	addSeq("seq-read/darray/1node", "darray", "read", 1)
	addSeq("seq-read/darray", "darray", "read", nodes)
	addSeq("seq-read/darray-pin", "darray-pin", "read", nodes)
	addSeq("seq-read/gam", "gam", "read", nodes)
	addSeq("seq-read/bcl", "bcl", "read", nodes)
	addSeq("seq-write/darray", "darray", "write", nodes)
	addSeq("seq-operate/darray", "darray", "operate", nodes)
	var randNs float64
	randAllocs, randBytes := measureAllocs(func() int64 {
		randNs = runRandom(p, "darray", "read", nodes)
		return int64(p.RandomOps) * int64(nodes)
	})
	rep.Results = append(rep.Results, MicroResult{
		Name:    "random-read/darray",
		NsPerOp: randNs, AllocsPerOp: randAllocs, BytesPerOp: randBytes,
		Knobs: p.knobs(nodes, 1),
	})
	addStream := func(name string, sc streamConfig) {
		var r streamResult
		allocs, bytes := measureAllocs(func() int64 {
			r = runStream(p, nodes, sc)
			return r.words
		})
		k := p.knobs(nodes, 1)
		k.TxBurst, k.Pipeline, k.Prefetch, k.Coalesce = sc.txBurst, sc.pipeline, sc.prefetch, sc.coalesce
		rep.Results = append(rep.Results, MicroResult{
			Name: name, NsPerOp: r.nsPerOp(), MopsPerSec: r.mops(),
			WallNsPerOp: r.wallNsPerOp(),
			AllocsPerOp: allocs, BytesPerOp: bytes,
			Knobs: k,
		})
	}
	addStream("stream-getrange/serial", baselineStream(false))
	addStream("stream-getrange/pipelined", streamConfig{txBurst: 0, coalesce: true})
	addStream("stream-setrange/serial", baselineStream(true))
	addStream("stream-setrange/pipelined", streamConfig{txBurst: 0, coalesce: true, write: true})
	hotNodes := min(6, p.MaxNodes)
	for _, th := range hotThetas {
		for _, mode := range hotShipModes {
			var r hotspotResult
			allocs, bytes := measureAllocs(func() int64 {
				r = runHotspot(p, mode, th, hotNodes)
				return r.ops
			})
			k := p.knobs(hotNodes, 1)
			k.Ship, k.Theta = mode, th
			nsPerOp := 0.0
			if r.tput > 0 {
				nsPerOp = 1e9 / r.tput
			}
			rep.Results = append(rep.Results, MicroResult{
				Name:    fmt.Sprintf("hotspot/theta=%s/ship=%s", ftoa(th), mode),
				NsPerOp: nsPerOp, MopsPerSec: r.tput / 1e6,
				AllocsPerOp: allocs, BytesPerOp: bytes,
				Knobs: k,
			})
		}
	}
	return rep
}

// WriteMicroJSON runs the micro suite and writes the report to path.
func WriteMicroJSON(path string, p Params) error {
	rep := MicroJSON(p)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
