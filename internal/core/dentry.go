package core

import (
	"sync/atomic"

	"darray/internal/buf"
	"darray/internal/cluster"
	"darray/internal/trace"
)

// Local access-permission states, stored in the low bits of dentry.state.
// For Operated, the active operator id is packed into the high bits so
// the Apply fast path reads permission and operator with one atomic load.
const (
	permInvalid  uint32 = 0
	permRead     uint32 = 1
	permRW       uint32 = 2
	permOperated uint32 = 3

	permMask uint32 = 0x3
	opShift         = 8
)

func packState(perm uint32, op OpID) uint32 { return perm | uint32(op)<<opShift }
func statePerm(s uint32) uint32             { return s & permMask }
func stateOp(s uint32) OpID                 { return OpID(s >> opShift) }

// Home-directory states (paper Table 1), meaningful only at the chunk's
// home node and only touched by its owning runtime goroutine.
const (
	dirUnshared uint8 = iota
	dirShared
	dirDirty
	dirOperated
)

// What a slow-path request needs. wantShip is a shipped Operate: the
// home applies the operand(s) against the authoritative backing instead
// of granting the requester any permission, so it never appears in a
// cache-side issueRequest and never pins.
const (
	wantRead uint8 = iota
	wantWrite
	wantOperate
	wantPinRead
	wantPinWrite
	wantPinOperate
	wantShip
)

func wantPerm(w uint8) uint32 {
	switch w {
	case wantRead, wantPinRead:
		return permRead
	case wantWrite, wantPinWrite:
		return permRW
	default:
		return permOperated
	}
}

func isPin(w uint8) bool { return w >= wantPinRead && w <= wantPinOperate }

// baseWant maps pin variants to their underlying need; the directory
// state machine only distinguishes read/write/operate, pin-ness matters
// solely at completion time (the runtime takes the reference).
func baseWant(w uint8) uint8 {
	switch w {
	case wantPinRead:
		return wantRead
	case wantPinWrite:
		return wantWrite
	case wantPinOperate:
		return wantOperate
	}
	return w
}

// satisfies reports whether local state s fulfils want w with operator op.
// RW satisfies everything on the home node (an Unshared chunk may be
// read, written, and operated directly).
func satisfies(s uint32, w uint8, op OpID) bool {
	p := statePerm(s)
	switch wantPerm(w) {
	case permRead:
		return p == permRead || p == permRW
	case permRW:
		return p == permRW
	default:
		return p == permRW || (p == permOperated && stateOp(s) == op)
	}
}

// waiter is one blocked slow-path request from an application thread.
// tok, when non-nil, receives the completion instead of ctx's built-in
// response channel: the bulk-transfer pipeline keeps several requests in
// flight per thread, one token each.
type waiter struct {
	ctx  *cluster.Ctx
	tok  *cluster.Token
	want uint8
	op   OpID
	vt   int64 // requester's virtual time at submission

	// tc is the causal-trace chain of the op this waiter blocks (zero
	// when untraced). linked marks the waiter whose chain rides an
	// outbound protocol request: its wait is decomposed by the
	// transaction's own spans, so respond skips the catch-all
	// chunk-wait span it emits for piggybacked and deferred waiters.
	tc     trace.Ctx
	linked bool
}

// dentry is one directory entry: the per-node metadata for one global
// chunk. The three atomic fields implement the lock-free data access
// path of paper Figure 4/5; everything below them is owned by the one
// runtime goroutine responsible for this chunk on this node.
type dentry struct {
	state  atomic.Uint32
	delay  atomic.Bool
	refcnt atomic.Int64

	// pf marks an outstanding (or unconsumed) speculative fill: set when
	// a prefetch request is issued, cleared by the first demand access
	// (a prefetch hit) or by eviction/invalidation (a wasted prefetch).
	pf atomic.Bool

	ci   int64    // this dentry's global chunk index
	data []uint64 // resident words: home subarray slice or cache line

	// Runtime-owned (single runtime goroutine per chunk per node).
	busy    bool                                               // a protocol transition (or eviction) is in flight
	pending bool                                               // cache side: a request to home is outstanding
	tvt     int64                                              // virtual time the transition has reached
	waiters []*waiter                                          // local slow-path waiters
	defrd   []deferredReq                                      // requests deferred while busy
	line    *cacheLine                                         // backing cache line (nil at home / not resident)
	onWB    func(rt *cluster.Runtime, data []uint64, vt int64) // recall continuation
	onAcks  func(rt *cluster.Runtime)                          // invalidation-ack continuation
	acks    int
	opAcks  int
	onOpAll func(rt *cluster.Runtime) // operand-recall continuation

	// tctx is the causal-trace chain of the directory transaction in
	// flight (home side; zero when the requester was untraced), and
	// fanVT the virtual time its invalidation/op-recall fan-out began —
	// together they let the ack counters emit one fanout span covering
	// the whole multicast wait.
	tctx  trace.Ctx
	fanVT int64

	// Home-directory fields (valid only at the home node).
	dstate  uint8
	sharers uint64 // bitmask of non-home nodes with a Shared copy
	owner   int32  // node holding the chunk Dirty (when dstate==dirDirty)
	opID    OpID   // active operator (when dstate==dirOperated)
	opNodes uint64 // bitmask of non-home nodes combining operands

	// Function-shipping state. est is the home-side contention estimator
	// (runtime-owned, like the directory fields above); shipQ is the
	// cache side's FIFO of in-flight shipped ops — per-(pair,chunk)
	// ordering matches each msgShipReply to the head waiter. ship is the
	// cache side's last mode hint from home (auto mode only), read on the
	// Apply miss path.
	est   shipEstimator
	shipQ []*waiter
	ship  atomic.Bool
}

type deferredReq struct {
	from int   // requesting node (== home id for local requests)
	want uint8 // wantRead/wantWrite/wantOperate/wantShip (pin variants local only)
	op   OpID
	vt   int64
	w    *waiter   // non-nil for local requests
	tc   trace.Ctx // causal-trace chain carried across the deferral

	// Shipped-Operate operands carried across the deferral: the element
	// offset within the chunk, a single operand (val) or a batch (data,
	// with pay owning its pooled backing).
	idx  int64
	val  uint64
	data []uint64
	pay  *buf.Ref
}
