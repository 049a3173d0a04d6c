package bench

import (
	"os"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestMain pins the host scheduling the experiments' virtual time
// depends on. Which runtime goroutine wins a race for a chunk — and so
// the protocol schedule the cost model charges — follows how the host
// interleaves goroutines, and two things make that interleaving vary
// run to run enough to flip the shape assertions (stream baseline,
// figure shapes):
//
//   - more than one P: goroutines run truly in parallel, so the order
//     follows the host's CPU timing. The package runs on one P.
//   - garbage collection: a collection stops and resumes goroutines at
//     points that depend on wall time. With the proportional pacer off,
//     the heap (live size a few tens of MB) is collected only when it
//     reaches heapLimit: 4 collections over the whole package on
//     go1.24/amd64 instead of about 270.
func TestMain(m *testing.M) {
	const heapLimit = 256 << 20
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(heapLimit)
	os.Exit(m.Run())
}
