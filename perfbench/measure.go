package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// minReps is the fewest repetitions a run makes, whatever --seconds
// says, so every reported figure is a median of at least three.
const minReps = 3

// result is what one run prints.
type result struct {
	lines     []line
	attempted int64
	failed    int64
	stacks    string // watchdog stack dump, when it fired

	// Latency sample counts behind the percentiles: calls and write
	// calls per repetition (fixed by the inputs), over reps repetitions.
	samples, writeSamples, reps int
}

func (r result) failRatio() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// line is one reported metric. na marks a layer that did no work on
// this workload; its value prints as 0 in the JSON and "n/a" in text.
type line struct {
	name  string
	value float64
	unit  string
	na    bool
}

func (l line) text() string {
	if l.na {
		return "n/a"
	}
	return strconv.FormatFloat(l.value, 'g', 6, 64)
}

// measure repeats the workload's fixed-work repetition until --seconds
// have passed (at least minReps times) and reduces the repetitions to
// medians. Repetition k uses inputs derived from (seed, k), so a run's
// inputs are a function of the seed alone. With --trace 1, repetitions
// alternate untraced and traced; the untraced ones give the host
// baseline the tracing overhead is measured against.
func measure(w workload, o options) result {
	var mu sync.Mutex
	var reps []repResult
	wd := startWatchdog(o, func(hung []*nodeRec, stacks string) {
		mu.Lock()
		done := append([]repResult(nil), reps...)
		mu.Unlock()
		res := reduce(o.trace, done)
		for _, r := range hung {
			planned, completed := r.planned.Load(), r.progress.Load()
			res.attempted += planned
			res.failed += planned - completed
		}
		if res.failed == 0 {
			res.failed = 1 // a hang is a failure even with every op issued
		}
		res.stacks = stacks
		printResult(o, res)
		os.Exit(0)
	})
	defer wd.stop()

	start := time.Now()
	for k := 0; ; k++ {
		traced := o.trace == 1 && k%2 == 1
		r := runRep(w, o.sizes, repSeed(o.seed, k), traced, wd)
		fmt.Fprintf(os.Stderr, "# rep %d traced=%v setup=%.3fs run=%.3fs cpu=%.3fs ref=%.3fs vt=%.3fms\n", k, traced, r.setup.Seconds(), r.run.Seconds(), r.host.cpu.Seconds(), r.ref.Seconds(), r.e2e.jobMs)
		mu.Lock()
		reps = append(reps, r)
		mu.Unlock()
		if k+1 >= minReps && time.Since(start) >= time.Duration(o.seconds)*time.Second {
			break
		}
	}
	return reduce(o.trace, reps)
}

// repSeed derives repetition k's input seed from the run seed.
func repSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k)*7_919 }

// reduce turns repetitions into the reported lines and counts.
func reduce(trace int, reps []repResult) result {
	var res result
	var plain, traced []repResult
	for _, r := range reps {
		for _, n := range r.recs {
			res.attempted += n.planned.Load()
			res.failed += n.failed
		}
		if r.traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if len(plain) > 0 {
		res.samples, res.writeSamples, res.reps = plain[0].e2e.samples, plain[0].e2e.writeSamples, len(plain)
	}
	if trace == 1 {
		res.lines = layerLines(plain, traced)
	} else {
		res.lines = endToEndLines(plain)
	}
	return res
}

// e2e holds one repetition's end-to-end figures.
type e2e struct {
	kops, p50, p99, wp99, gbps, jobMs, runS, setupS, memMB float64
	samples, writeSamples                                  int
}

func endToEnd(r repResult) e2e {
	var lat, wlat []int64
	var work, bytes int64
	minStart, maxEnd := r.recs[0].vtStart, r.recs[0].vtEnd
	for _, n := range r.recs {
		lat = append(lat, n.lat...)
		wlat = append(wlat, n.wlat...)
		work += n.work
		bytes += n.userBytes
		minStart = min(minStart, n.vtStart)
		maxEnd = max(maxEnd, n.vtEnd)
	}
	span := float64(maxEnd - minStart) // virtual ns
	return e2e{
		kops:   div(float64(work), span) * 1e6, // ops/ns → kops/s
		p50:    percentile(lat, 50) / 1e3,
		p99:    percentile(lat, 99) / 1e3,
		wp99:   percentile(wlat, 99) / 1e3,
		gbps:   div(float64(bytes), span), // bytes/ns = GB/s
		jobMs:  span / 1e6,
		runS:   refSeconds(r.run, r.ref),
		setupS: refSeconds(r.setup, r.ref),
		memMB:  float64(r.liveHeap) / (1 << 20),

		samples:      len(lat),
		writeSamples: len(wlat),
	}
}

func endToEndLines(reps []repResult) []line {
	pick := func(f func(e2e) float64) float64 {
		var v []float64
		for _, r := range reps {
			v = append(v, f(r.e2e))
		}
		return median(v)
	}
	return []line{
		{name: "vt_kops", value: pick(func(e e2e) float64 { return e.kops }), unit: "kops/s"},
		{name: "vt_p50_us", value: pick(func(e e2e) float64 { return e.p50 }), unit: "us"},
		{name: "vt_p99_us", value: pick(func(e e2e) float64 { return e.p99 }), unit: "us"},
		{name: "vt_write_p99_us", value: pick(func(e e2e) float64 { return e.wp99 }), unit: "us"},
		{name: "vt_gbps", value: pick(func(e e2e) float64 { return e.gbps }), unit: "GB/s"},
		{name: "vt_job_ms", value: pick(func(e e2e) float64 { return e.jobMs }), unit: "ms"},
		{name: "host_run_s", value: pick(func(e e2e) float64 { return e.runS }), unit: "s"},
		{name: "setup_s", value: pick(func(e e2e) float64 { return e.setupS }), unit: "s"},
		{name: "host_mem_mb", value: pick(func(e e2e) float64 { return e.memMB }), unit: "MB"},
	}
}

// percentile returns the p-th percentile of virtual-ns latencies, as
// for data grouped in 1 ns classes (the virtual clock's resolution):
// L + (p·n − F)/f, where the class holding the nearest-rank value has
// lower boundary L, f members and F members below it. Many calls take
// exactly the same fixed-cost path, so the median often falls inside a
// run of equal values; this reports where in the run it falls instead of
// reading the same integer on every run. 0 when empty.
func percentile(v []int64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := p / 100 * float64(len(s))
	k := max(0, min(int(math.Ceil(rank))-1, len(s)-1))
	x := s[k]
	below := sort.Search(len(s), func(i int) bool { return s[i] >= x })
	upTo := sort.Search(len(s), func(i int) bool { return s[i] > x })
	return float64(x) - 0.5 + (rank-float64(below))/float64(upTo-below)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// refSeconds converts a wall time to seconds on the nominal host: scaled
// by refNominal over the repetition's reference-kernel time (hostref.go).
func refSeconds(d, ref time.Duration) float64 {
	return div(d.Seconds()*refNominal.Seconds(), ref.Seconds())
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
