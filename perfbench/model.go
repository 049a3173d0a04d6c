package main

import (
	"darray/internal/bench"
	"darray/internal/vtime"
)

// pinnedModel returns the cost model every vt metric is computed with:
// the paper-testbed network and memory constants (vtime.Default) plus
// CPU path costs fixed here instead of calibrated per process.
//
// Why pinned: bench.Calibrate times the real fast paths on the host, and
// the result drifts by about ±10% between processes on the same machine
// (GetHit read 26–31 ns over 15 processes). A vt metric built on a fresh
// calibration would move with that drift; with these constants it moves
// only when the protocol or design changes. The values are the medians
// of 15 bench.Calibrate runs, each in its own process (go1.24.0,
// linux/amd64, 2 vCPUs); `perfbench --calibrate` prints one fresh
// calibration in the same form so they can be re-derived.
func pinnedModel() *vtime.Model {
	m := vtime.Default()
	m.NativeAccess = 4
	m.GeminiEdge = 76
	m.GetHit = 28
	m.SetHit = 32
	m.ApplyHit = 40
	m.PinAccess = 10
	m.GamAccess = 52
	m.BclLocal = 12
	m.SlowFixed = 112
	return m
}

// calibrate runs one fresh host calibration. Its costs are reported as
// the vtime.* per-layer metrics (host speed of the fast paths) and never
// feed a vt metric.
func calibrate() *vtime.Model {
	m := vtime.Default()
	bench.Calibrate(m)
	return m
}
