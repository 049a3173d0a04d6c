package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/telemetry"
	"darray/internal/trace"
	"darray/internal/vtime"
)

// benchNodes is the simulated cluster size. Four is the minimum at which
// the function-shipping estimator can flip a chunk (it needs about 2.5
// distinct requesters per window), so hot-counters exercises it.
const benchNodes = 4

// The cluster geometry every workload runs on: the cluster defaults,
// written out because scan-rw sizes its array from them and
// hot-counters needs function shipping in auto mode.
const (
	runtimesPerNode = 2   // runtime goroutines per node, each owning a cache
	chunkWords      = 512 // 8-byte words per chunk
	shipMode        = "auto"
)

// stallLimit is how long a repetition may go without completing a call
// before the watchdog abandons it. A pagerank job, one call per node,
// takes well under a second.
const stallLimit = 30 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	outDir   string
	stall    time.Duration
	sizes    sizes
}

// sizes are the fixed per-repetition input sizes. Every repetition does
// the same amount of work, so host_run_s is comparable across commits.
type sizes struct {
	KVRecords int64 // ycsb-b: preloaded records
	KVOps     int   // ycsb-b: KVS calls per node

	HotWords int64 // hot-counters: counter array length
	HotOps   int   // hot-counters: ops per node

	PRScale int // pagerank: R-MAT scale (2^scale vertices, 4·2^scale edges)
	PRIters int

	CacheChunks   int // cache lines per runtime thread on every node
	ScanSlabWords int // scan-rw: words per GetRange/SetRange call
	ScanPasses    int // scan-rw: read-sweep + write-stripe rounds
}

var defaultSizes = sizes{
	KVRecords:     16384,
	KVOps:         20000,
	HotWords:      1 << 14,
	HotOps:        30000,
	PRScale:       18,
	PRIters:       10,
	CacheChunks:   1024,
	ScanSlabWords: 2048,
	ScanPasses:    4,
}

// workload is one benchmark input set.
type workload struct {
	name string
	// procs is the run's GOMAXPROCS. The simulated cluster's virtual
	// time depends on how its goroutines interleave, and so on the host:
	//
	//   - Point and bulk ops (ycsb-b, hot-counters, scan-rw) run on one
	//     P. With two Ps, a second process busy on one of a 2-vCPU host's
	//     CPUs moved scan-rw's vt_p99_us from 17 to 65 us and vt_gbps by
	//     -22%, hot-counters' vt_p99_us by +57%, ycsb-b's vt_write_p99_us
	//     by +58%. With one P the same neighbour moved no vt metric by
	//     more than 2%.
	//   - pagerank runs on every CPU. Its long lock-free compute phases
	//     are cut only by the Go scheduler's 10 ms time slices on one P,
	//     so which node runs ahead, and with it Operate combining, follows
	//     host speed: vt_job_ms spread 5% between 20 s runs on one P
	//     against at most 1.5% on two. The busy neighbour moves it by
	//     +10% on two Ps.
	procs int
	// traceSample: a traced repetition samples every Nth public array op.
	traceSample int
	// build generates the inputs from the seed; it runs before the
	// cluster exists and its time counts as set-up.
	build func(seed int64, sz sizes) instance
}

// instance is one repetition's inputs and per-node program state.
type instance interface {
	// setup runs on every node before the measured phase: collective
	// construction, preload.
	setup(e *nodeEnv)
	// run is the measured phase on one node: closed-loop calls, each
	// issued after the previous returned.
	run(e *nodeEnv)
	// verify runs after the measured phase and counts wrong results in
	// e.rec.failed.
	verify(e *nodeEnv)
}

var workloads = []workload{ycsbWorkload, hotWorkload, pagerankWorkload, scanWorkload}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// nodeEnv is what a workload sees on one node.
type nodeEnv struct {
	node   *cluster.Node
	ctx    *cluster.Ctx
	rec    *nodeRec
	model  *vtime.Model
	traced bool

	measuring bool // inside the measured phase: barriers record phase ends
}

// barrier synchronizes the nodes and merges their virtual clocks. In the
// measured phase it first records the node's arrival time, so the spread
// of arrivals shows how unevenly the phase ended.
func (e *nodeEnv) barrier() {
	if e.measuring {
		e.rec.phaseEnds = append(e.rec.phaseEnds, e.ctx.Clock.Now())
	}
	e.node.Cluster().Barrier(e.ctx)
}

// nodeRec is one node's record of a repetition, written only by that
// node's application goroutine except for the atomic progress counter.
type nodeRec struct {
	planned   atomic.Int64 // measured calls the inputs hold
	work      int64        // work units completed (vt_kops, per-kop metrics)
	failed    int64        // wrong results and errors
	userBytes int64        // payload bytes the measured calls moved
	lat       []int64      // vt ns of every measured call
	wlat      []int64      // vt ns of the write calls only

	vtStart, vtEnd     int64
	hostStart, hostEnd time.Time

	progress atomic.Int64 // ticks on every completed call (watchdog)

	// Benchmark-side call timers (per-layer metrics).
	coreCalls, coreMisses, coreMissVT int64 // point calls into core
	kvs                               kvsTimers
	engineSetup                       time.Duration
	phaseEnds                         []int64 // vt at each measured-phase barrier, then at the end
}

// done records one completed measured call of vt duration d.
func (r *nodeRec) done(d int64, write bool) {
	r.work++
	r.lat = append(r.lat, d)
	if write {
		r.wlat = append(r.wlat, d)
	}
	r.progress.Add(1)
}

// coreCall records one point call into core of vt duration d; a call
// whose duration is not the pinned fast-path cost took the slow path.
func (r *nodeRec) coreCall(d, hit int64) {
	r.coreCalls++
	if d != hit {
		r.coreMisses++
		r.coreMissVT += d
	}
}

// repResult is one repetition's measurements.
type repResult struct {
	traced   bool
	recs     []*nodeRec
	setup    time.Duration // repetition start to first measured op
	run      time.Duration // measured phase, wall clock
	ref      time.Duration // the reference kernel before plus after the repetition
	liveHeap uint64        // live Go heap at the end of the measured phase
	host     hostDelta     // allocator/GC/CPU over the measured phase
	calib    *vtime.Model  // fresh host calibration (reported only)

	e2e     e2e                // end-to-end figures
	tel     telemetry.Snapshot // metrics delta over the measured phase (traced)
	crit    critStats          // critical-path attribution of the sampled ops (traced)
	dropped int64
}

// traceCapacity bounds the span buffer of a traced repetition; each
// workload's traceSample keeps its sampled spans below it.
const traceCapacity = 1 << 18

// runRep runs one repetition between two runs of the host reference
// kernel (hostref.go) and reduces it to its end-to-end figures.
func runRep(w workload, sz sizes, seed int64, traced bool, wd *watchdog) repResult {
	before := refKernel(w.procs)
	res := runCluster(w, sz, seed, traced, wd)
	res.ref = before + refKernel(w.procs)
	res.e2e = endToEnd(res)
	for _, r := range res.recs {
		// Keep only the summary, so earlier repetitions do not grow the
		// live heap later ones measure.
		r.lat, r.wlat = nil, nil
	}
	return res
}

// runCluster runs one repetition: fresh calibration, inputs, cluster,
// set-up, measured phase and verification.
func runCluster(w workload, sz sizes, seed int64, traced bool, wd *watchdog) repResult {
	runtime.GC() // start every repetition from the same clean heap
	start := time.Now()
	res := repResult{traced: traced}

	res.calib = calibrate()
	inst := w.build(seed, sz)
	cfg := cluster.Config{
		Nodes:          benchNodes,
		RuntimeThreads: runtimesPerNode,
		ChunkWords:     chunkWords,
		CacheChunks:    sz.CacheChunks,
		Ship:           shipMode,
		Model:          pinnedModel(),
		MsgKindName:    core.KindName,
	}
	var tr *trace.Tracer
	if traced {
		tr = trace.New(traceCapacity)
		cfg.Metrics = true
		cfg.Tracer = tr
	}
	c := cluster.New(cfg)
	defer c.Close()

	res.recs = make([]*nodeRec, benchNodes)
	for i := range res.recs {
		res.recs[i] = &nodeRec{}
	}
	wd.arm(res.recs)
	defer wd.disarm()

	var before telemetry.Snapshot
	var h0 hostSample
	var spans []trace.Span
	c.Run(func(n *cluster.Node) {
		e := &nodeEnv{node: n, ctx: n.NewCtx(0), rec: res.recs[n.ID()], model: cfg.Model, traced: traced}
		inst.setup(e)
		e.barrier()
		if n.ID() == 0 {
			// Collect set-up's garbage (R-MAT edge lists, preload
			// buffers) now, so the measured phase does not pay for it
			// at whatever moment the pacer picks.
			runtime.GC()
			if traced {
				before = c.Telemetry().Snapshot()
				tr.Enable(w.traceSample)
			}
			h0 = readHost()
		}
		e.barrier()
		e.measuring = true
		e.rec.hostStart = time.Now()
		e.rec.vtStart = e.ctx.Clock.Now()
		inst.run(e)
		e.rec.vtEnd = e.ctx.Clock.Now()
		e.rec.hostEnd = time.Now()
		e.measuring = false
		e.rec.phaseEnds = append(e.rec.phaseEnds, e.rec.vtEnd)
		e.barrier()
		if n.ID() == 0 {
			res.host = readHost().sub(h0)
			res.liveHeap = liveHeap()
			if traced {
				tr.Disable()
				res.tel = c.Telemetry().Snapshot().Delta(before)
				spans = tr.Spans()
				res.dropped = tr.Dropped()
			}
		}
		e.barrier()
		inst.verify(e)
		if err := e.ctx.Err(); err != nil {
			e.rec.failed++
		}
	})
	first, last := res.recs[0].hostStart, res.recs[0].hostEnd
	for _, r := range res.recs {
		if r.hostStart.Before(first) {
			first = r.hostStart
		}
		if r.hostEnd.After(last) {
			last = r.hostEnd
		}
	}
	res.setup = first.Sub(start)
	res.run = last.Sub(first)
	res.crit = critical(spans)
	return res
}

// hostSample is a point reading of the process's allocator, GC and CPU
// counters.
type hostSample struct {
	mallocs, bytes uint64
	gc             uint32
	cpu            time.Duration
	wall           time.Time
}

type hostDelta struct {
	mallocs, bytes uint64
	gc             uint32
	cpu, wall      time.Duration
}

func readHost() hostSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return hostSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gc: ms.NumGC, cpu: cpu, wall: time.Now()}
}

// liveHeap forces a collection and returns the heap bytes still in use:
// the program's footprint with every cache and array populated. The
// cluster is quiescent (between barriers) when it runs. The second
// collection empties the sync.Pool victim caches the first one filled.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (s hostSample) sub(p hostSample) hostDelta {
	return hostDelta{
		mallocs: s.mallocs - p.mallocs,
		bytes:   s.bytes - p.bytes,
		gc:      s.gc - p.gc,
		cpu:     s.cpu - p.cpu,
		wall:    s.wall.Sub(p.wall),
	}
}

// watchdog abandons a repetition that makes no progress: it writes every
// goroutine's stack beside the results, reports the repetition's
// unfinished ops as failed, prints the result and exits the process (a
// wedged cluster cannot be shut down from inside).
type watchdog struct {
	o      options
	mu     sync.Mutex
	recs   []*nodeRec
	onFire func(hung []*nodeRec, stacks string)
	stopCh chan struct{}
	wg     sync.WaitGroup
}

func startWatchdog(o options, onFire func(hung []*nodeRec, stacks string)) *watchdog {
	wd := &watchdog{o: o, onFire: onFire, stopCh: make(chan struct{})}
	wd.wg.Add(1)
	go wd.loop()
	return wd
}

// arm watches recs' progress; a nil watchdog (tests) watches nothing.
func (wd *watchdog) arm(recs []*nodeRec) {
	if wd == nil {
		return
	}
	wd.mu.Lock()
	wd.recs = recs
	wd.mu.Unlock()
}

func (wd *watchdog) disarm() { wd.arm(nil) }

// stop ends the watchdog and waits for its goroutine.
func (wd *watchdog) stop() {
	close(wd.stopCh)
	wd.wg.Wait()
}

func (wd *watchdog) loop() {
	defer wd.wg.Done()
	poll := wd.o.stall / 20
	if poll < 10*time.Millisecond {
		poll = 10 * time.Millisecond
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	var watched *nodeRec // first record of the repetition being watched
	var last int64
	lastMove := time.Now()
	for {
		select {
		case <-wd.stopCh:
			return
		case <-tick.C:
		}
		wd.mu.Lock()
		recs := wd.recs
		wd.mu.Unlock()
		var sum int64
		for _, r := range recs {
			sum += r.progress.Load()
		}
		if len(recs) == 0 || recs[0] != watched || sum != last {
			// Disarmed, a new repetition, or progress: restart the clock.
			if len(recs) > 0 {
				watched = recs[0]
			}
			last, lastMove = sum, time.Now()
			continue
		}
		if time.Since(lastMove) < wd.o.stall {
			continue
		}
		path := filepath.Join(wd.o.outDir, fmt.Sprintf("stacks-%s-seed%d-trace%d.txt", wd.o.workload, wd.o.seed, wd.o.trace))
		if err := writeStacks(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing goroutine stacks: %v\n", err)
			path = ""
		}
		wd.onFire(recs, path)
		return
	}
}

func writeStacks(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("goroutine").WriteTo(f, 2); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
