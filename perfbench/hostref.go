package main

import (
	"runtime"
	"sync"
	"time"
)

// The host's speed drifts: on a shared 2-vCPU host the same repetition's
// wall time moved by up to 40% between runs minutes apart, with no steal
// time and CPU time equal to wall time, so other tenants were slowing
// the CPU and memory themselves. No repetition count removes a drift
// that lasts longer than a run. So every repetition is bracketed by a
// fixed reference kernel — benchmark code, which no program change
// touches — and the host figures are reported in the kernel's units:
//
//	host_run_s = measured-phase wall time × refNominal / kernel wall time
//
// that is, the wall seconds the phase would take on a host that runs the
// kernel pair in refNominal. A faster program lowers it; a slower host
// slows the kernel too and cancels out. The raw wall time and the
// kernel's own time are reported as the per-layer host.run_wall_s and
// host.ref_kernel_s.

// refNominal is about the wall time of one kernel pair (before and after
// a repetition) on a quiet 2-vCPU Intel Xeon host (linux/amd64,
// go1.24.0), so host_run_s reads close to wall seconds there. It only
// scales the reported seconds; any fixed value would do.
const refNominal = 450 * time.Millisecond

// refSink keeps the kernel's results live.
var refSink uint64

// refKernel runs the fixed host work and returns its wall time. It mixes
// what the simulated cluster spends its host time on: goroutine
// hand-offs through channels, scattered read-modify-writes over a
// working set larger than the caches, and small allocations kept in a
// map. The hand-offs run on one P, so their scheduling is the same for
// every workload; the memory and allocation work runs as procs parallel
// copies on procs Ps, so a workload that uses every CPU is referred to
// the speed of every CPU.
func refKernel(procs int) time.Duration {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	start := time.Now()

	req, resp := make(chan uint64), make(chan uint64)
	go func() {
		for v := range req {
			resp <- v + 1
		}
		close(resp)
	}()
	var x uint64
	for i := 0; i < 200_000; i++ {
		req <- x
		x = <-resp
	}
	close(req)
	for range resp {
	}

	runtime.GOMAXPROCS(procs)
	sums := make([]uint64, procs)
	var wg sync.WaitGroup
	for p := range sums {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[p] = refMemory(x + uint64(p))
		}()
	}
	wg.Wait()
	for _, v := range sums {
		refSink += v
	}
	return time.Since(start)
}

// refMemory is the kernel's memory and allocation work for one P.
func refMemory(x uint64) uint64 {
	const words = 1 << 21 // 16 MB
	buf := make([]uint64, words)
	for i := 0; i < 8_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		buf[(x>>20)&(words-1)] += x
	}
	m := make(map[uint64]*[4]uint64)
	for i := uint64(0); i < 600_000; i++ {
		m[i*2654435761%100_003] = &[4]uint64{i, x, i, x}
	}
	return buf[x&(words-1)] + uint64(len(m))
}
