package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"darray/internal/ycsb"
)

// tinySizes keep every workload's shape at smoke-test scale.
var tinySizes = sizes{
	KVRecords:     1024,
	KVOps:         500,
	HotWords:      1 << 12,
	HotOps:        1000,
	PRScale:       10,
	PRIters:       3,
	CacheChunks:   16,
	ScanSlabWords: 1024,
	ScanPasses:    2,
}

// runTiny runs one repetition of w at smoke size.
func runTiny(t *testing.T, w workload, traced bool) repResult {
	t.Helper()
	return runRep(w, tinySizes, 7, traced, nil)
}

func failedOf(r repResult) (failed, planned int64) {
	for _, n := range r.recs {
		failed += n.failed
		planned += n.planned.Load()
	}
	return failed, planned
}

// TestSmokeEveryWorkload runs each workload untraced and traced at tiny
// size: nothing may fail, and every reported figure must be finite.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := runTiny(t, w, false)
			traced := runTiny(t, w, true)
			for _, r := range []repResult{plain, traced} {
				failed, planned := failedOf(r)
				if planned == 0 || failed != 0 {
					t.Fatalf("traced=%v: failed %d of %d", r.traced, failed, planned)
				}
			}
			res := reduce(0, []repResult{plain})
			if res.failRatio() != 0 {
				t.Fatalf("fail_ratio = %v", res.failRatio())
			}
			for _, l := range res.lines {
				if l.value <= 0 || math.IsInf(l.value, 0) || math.IsNaN(l.value) {
					t.Errorf("end-to-end %s = %v, want a positive finite value", l.name, l.value)
				}
			}
			lines := reduce(1, []repResult{plain, traced}).lines
			if len(lines) != len(layerDefs) {
				t.Fatalf("traced run reported %d per-layer metrics, want %d", len(lines), len(layerDefs))
			}
			for _, l := range lines {
				if math.IsInf(l.value, 0) || math.IsNaN(l.value) {
					t.Errorf("per-layer %s = %v", l.name, l.value)
				}
			}
		})
	}
}

// corrupted wraps an instance and tampers with it around the measured
// phase, to prove a correctness check is live.
type corrupted struct {
	instance
	beforeRun func(e *nodeEnv)
	afterRun  func(e *nodeEnv)
}

func (c corrupted) setup(e *nodeEnv) {
	c.instance.setup(e)
	if c.beforeRun != nil && e.node.ID() == 0 {
		c.beforeRun(e)
	}
}

func (c corrupted) run(e *nodeEnv) {
	c.instance.run(e)
	if c.afterRun != nil && e.node.ID() == 0 {
		c.afterRun(e)
	}
}

func withCorruption(w workload, wrap func(in instance) instance) workload {
	build := w.build
	w.build = func(seed int64, sz sizes) instance { return wrap(build(seed, sz)) }
	return w
}

// TestChecksCatchCorruption corrupts one result per workload and expects
// the workload's own check to count it.
func TestChecksCatchCorruption(t *testing.T) {
	cases := []struct {
		w    workload
		wrap func(in instance) instance
	}{
		{ycsbWorkload, func(in instance) instance {
			y := in.(*ycsbInst)
			return corrupted{instance: in, beforeRun: func(e *nodeEnv) {
				// Store record 1's value under record 0, the hottest key.
				gen := ycsb.NewGenerator(ycsb.Config{Records: 2})
				if err := y.stores[0].Put(e.ctx, ycsb.Key(0), gen.LoadValue(1)); err != nil {
					t.Error(err)
				}
			}}
		}},
		{hotWorkload, func(in instance) instance {
			h := in.(*hotInst)
			return corrupted{instance: in, afterRun: func(e *nodeEnv) {
				h.arrays[0].Apply(e.ctx, h.adds[0], 0, 1) // one add the generators never issued
			}}
		}},
		{pagerankWorkload, func(in instance) instance {
			p := in.(*prInst)
			return corrupted{instance: in, afterRun: func(*nodeEnv) {
				p.ranks[0][0] *= 1 + 1e-6
			}}
		}},
		{scanWorkload, func(in instance) instance {
			s := in.(*scanInst)
			return corrupted{instance: in, beforeRun: func(e *nodeEnv) {
				s.arrays[0].Set(e.ctx, 0, 0) // caught by the first sweep
			}}
		}},
		{scanWorkload, func(in instance) instance {
			s := in.(*scanInst)
			return corrupted{instance: in, afterRun: func(e *nodeEnv) {
				lo, _ := s.arrays[1].LocalRange()
				s.arrays[0].Set(e.ctx, lo, 0) // caught by the final read-back
			}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.w.name, func(t *testing.T) {
			r := runTiny(t, withCorruption(tc.w, tc.wrap), false)
			if failed, _ := failedOf(r); failed == 0 {
				t.Fatal("corrupted result went unnoticed")
			}
		})
	}
}

// stuck is an instance whose measured phase never progresses until
// released.
type stuck struct{ release chan struct{} }

func (s stuck) setup(e *nodeEnv)  { e.rec.planned.Store(10) }
func (s stuck) run(e *nodeEnv)    { <-s.release }
func (s stuck) verify(e *nodeEnv) {}

// TestWatchdogReportsStall: a repetition that stops progressing is
// reported with its unfinished ops and a goroutine stack dump.
func TestWatchdogReportsStall(t *testing.T) {
	o := options{workload: "stuck", seed: 3, outDir: t.TempDir(), stall: 200 * time.Millisecond}
	type fire struct {
		hung   []*nodeRec
		stacks string
	}
	fired := make(chan fire, 1)
	wd := startWatchdog(o, func(hung []*nodeRec, stacks string) { fired <- fire{hung, stacks} })
	defer wd.stop()

	release := make(chan struct{})
	w := workload{name: "stuck", traceSample: 1,
		build: func(int64, sizes) instance { return stuck{release} }}
	done := make(chan struct{})
	go func() {
		defer close(done)
		runRep(w, tinySizes, 1, false, wd)
	}()
	var f fire
	select {
	case f = <-fired:
	case <-time.After(30 * time.Second):
		t.Fatal("watchdog never fired")
	}
	close(release)
	<-done

	var unfinished int64
	for _, r := range f.hung {
		unfinished += r.planned.Load() - r.progress.Load()
	}
	if unfinished != 10*benchNodes {
		t.Errorf("unfinished ops = %d, want %d", unfinished, 10*benchNodes)
	}
	if filepath.Dir(f.stacks) != o.outDir {
		t.Errorf("stack dump %q not beside the results in %q", f.stacks, o.outDir)
	}
	b, err := os.ReadFile(f.stacks)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "stuck.run") {
		t.Error("stack dump does not show the stalled goroutine")
	}
}

func TestPercentileGrouped(t *testing.T) {
	v := make([]int64, 100)
	for i := range v {
		v[i] = int64(100 - i)
	}
	// Distinct values: the classic median of 1..100.
	if p := percentile(v, 50); p != 50.5 {
		t.Errorf("p50 = %v, want 50.5", p)
	}
	if p := percentile(v, 99); p != 99.5 {
		t.Errorf("p99 = %v, want 99.5", p)
	}
	// A run of equal values: the median sits where in the run the 50th
	// sample falls. 10 ones, 60 fives, 30 nines: (50-10)/60 of the way
	// through the class [4.5, 5.5).
	var tied []int64
	for _, c := range []struct{ v, n int64 }{{1, 10}, {5, 60}, {9, 30}} {
		for range c.n {
			tied = append(tied, c.v)
		}
	}
	if p, want := percentile(tied, 50), 4.5+40.0/60; math.Abs(p-want) > 1e-12 {
		t.Errorf("tied p50 = %v, want %v", p, want)
	}
	if p := percentile(nil, 99); p != 0 {
		t.Errorf("p99 of nothing = %v", p)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}
