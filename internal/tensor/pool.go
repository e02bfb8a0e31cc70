package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the package-level persistent worker pool that backs
// every parallel kernel in the package. Instead of spawning goroutines per
// MatMul call (scheduler churn plus one closure allocation per chunk), a
// fixed set of long-lived workers ranges over a buffered channel of
// by-value chunk descriptors. A steady-state kernel dispatch therefore
// performs zero heap allocations: the task struct is copied into the
// channel, and the per-call completion state is recycled via a sync.Pool.
//
// Chunk boundaries never change the result: every kernel keeps a fixed
// per-row (or per-output-element) reduction order, so serial and parallel
// execution are bit-identical.

// kernelFn computes output elements in the half-open range [lo, hi) of its
// parallel axis. The meaning of a, b, c depends on the kernel; c is nil for
// kernels that only need two operands (e.g. plain matmul) and carries the
// bias row for the fused matmul+bias kernel.
type kernelFn func(a, b, c, dst *Matrix, lo, hi int)

// kernel32Fn is the float32 counterpart of kernelFn, dispatched over the
// same worker pool.
type kernel32Fn func(a, b, c, dst *Matrix32, lo, hi int)

// RangeKernel is a kernel that carries its own operands: RunRange computes
// the elements or rows [lo, hi) of its parallel axis, which may be empty.
// It is the pool's entry for work kernelFn's four matrices cannot describe
// — an optimiser sweep with its scalars, loss rows with their labels.
// Every index must be computed independently of every other, so that where
// the chunk boundaries fall cannot change the result. Implementations are
// pointers to state the caller keeps, which makes a dispatch allocation-free.
type RangeKernel interface {
	RunRange(lo, hi int)
}

// chunkTask describes one contiguous chunk of a kernel invocation. It is
// sent by value so enqueueing does not allocate. Exactly one of
// kern/kern32/ranger is set; run dispatches on which.
type chunkTask struct {
	kern         kernelFn
	a, b, c, dst *Matrix

	kern32               kernel32Fn
	a32, b32, c32, dst32 *Matrix32

	ranger RangeKernel

	lo, hi int
	state  *callState
}

func (t *chunkTask) run() {
	switch {
	case t.kern != nil:
		t.kern(t.a, t.b, t.c, t.dst, t.lo, t.hi)
	case t.kern32 != nil:
		t.kern32(t.a32, t.b32, t.c32, t.dst32, t.lo, t.hi)
	default:
		t.ranger.RunRange(t.lo, t.hi)
	}
}

// callState tracks completion of one parallel kernel invocation. done is
// buffered so the finishing worker never blocks on a caller that finished
// its own chunk last and skipped the receive.
type callState struct {
	remain atomic.Int64
	done   chan struct{}
}

var statePool = sync.Pool{New: func() any {
	return &callState{done: make(chan struct{}, 1)}
}}

var (
	poolOnce    sync.Once
	poolWorkers int
	workCh      chan chunkTask
)

// ensurePool lazily starts the worker pool on first parallel dispatch.
// Worker count is fixed at startup: GOMAXPROCS at first use, with a floor
// of 2 so the pool path stays exercisable (and race-testable) even on a
// single-CPU machine. Idle workers cost one blocked goroutine each.
func ensurePool() {
	poolOnce.Do(func() {
		poolWorkers = runtime.GOMAXPROCS(0)
		if poolWorkers < 2 {
			poolWorkers = 2
		}
		workCh = make(chan chunkTask, 4*poolWorkers)
		for w := 0; w < poolWorkers; w++ {
			go poolWorker()
		}
		startedWorkers.Store(int64(poolWorkers))
	})
}

func poolWorker() {
	for t := range workCh {
		t.run()
		finishChunk(t.state)
	}
}

// finishChunk records one completed chunk and reports whether it was the
// last one for its invocation (the completer signals done).
func finishChunk(s *callState) bool {
	if s.remain.Add(-1) == 0 {
		s.done <- struct{}{}
		return true
	}
	return false
}

// dispatch runs the kernel t describes over [0, n) on the parallel axis,
// either inline (when the work is too small, or only one P is available) or
// sliced into chunks fed to the worker pool. work is the multiply-add (or
// element) count held against threshold. Chunks are cut on multiples of
// granule, so that only the last one can end off a multiple. The caller
// always executes the final chunk itself, so at most parts-1 chunks cross the
// channel.
func dispatch(t chunkTask, n, work, granule, threshold int) {
	if n <= 0 {
		return
	}
	parts := min(runtime.GOMAXPROCS(0), n)
	chunk := (n + parts - 1) / parts
	chunk = (chunk + granule - 1) / granule * granule
	parts = (n + chunk - 1) / chunk
	if work < threshold || parts == 1 {
		t.lo, t.hi = 0, n
		t.run()
		return
	}
	ensurePool()
	s := statePool.Get().(*callState)
	s.remain.Store(int64(parts))
	t.state = s
	lo := 0
	for p := 0; p < parts-1; p++ {
		t.lo, t.hi = lo, min(lo+chunk, n)
		workCh <- t
		lo = t.hi
	}
	// A send that wakes a parked worker leaves it in this P's runnext slot,
	// and a second P takes a goroutine from there only after sleeping (the
	// scheduler's usleep(3) in runqgrab, 60-200 µs on a VM and whatever the
	// host's timers make of it): the worker's chunk started that late on
	// every dispatch, a fixed cost per call that neither shrinks with the
	// kernels nor holds still from run to run. Yielding here runs the worker
	// on this P at once and puts the caller on the global queue, from which
	// the P the send woke takes it without that sleep. With nothing woken,
	// or no second P free, the caller simply continues.
	runtime.Gosched()
	t.lo, t.hi = lo, n
	t.run()
	// Exactly one chunk completion sends on done (the last one, possibly
	// this caller's own); receiving it both waits for stragglers and
	// drains the channel so the state is clean for reuse.
	finishChunk(s)
	<-s.done
	statePool.Put(s)
}

// dispatchKernel is dispatch for a float64 matrix kernel.
func dispatchKernel(kern kernelFn, a, b, c, dst *Matrix, n, work int) {
	dispatch(chunkTask{kern: kern, a: a, b: b, c: c, dst: dst}, n, work, 1, parallelThreshold)
}

// dispatchMatmul is dispatchKernel for the accumulating matmul kernels. Their
// register tile takes whole strips of tileM output rows and leaves a chunk's
// remainder to the slower axpy kernels, so chunks are cut on strip multiples
// (which, like any chunking, never changes bits), and on the assembly tiers
// their multiply-adds are cheap enough to have a threshold of their own.
func dispatchMatmul(kern kernelFn, a, b, c, dst *Matrix, n, work int) {
	dispatch(chunkTask{kern: kern, a: a, b: b, c: c, dst: dst}, n, work, tileM, matmulThreshold())
}

// matmulThreshold is the multiply-add count from which an accumulating
// matmul goes to the pool on this process's tier.
func matmulThreshold() int {
	if kernelTier == tierGo {
		return parallelThreshold
	}
	return matmulParallelThreshold
}

// dispatchKernel32 is dispatchKernel for float32 kernels: same thresholds,
// same chunking, same pool. Chunk boundaries never change the result because
// every f32 kernel keeps a fixed per-output-element reduction order too.
func dispatchKernel32(kern kernel32Fn, a, b, c, dst *Matrix32, n, work int) {
	dispatch(chunkTask{kern32: kern, a32: a, b32: b, c32: c, dst32: dst}, n, work, 1, parallelThreshold)
}

// ParallelRange runs k over [0, n): inline when work (one unit per
// multiply-add or per element) is below parallelThreshold or only one P is
// available, otherwise in chunks on the worker pool, returning when every
// chunk has finished.
func ParallelRange(k RangeKernel, n, work int) {
	var t chunkTask
	t.ranger = k
	dispatch(t, n, work, 1, parallelThreshold)
}

var startedWorkers atomic.Int64

// PoolWorkers reports the number of persistent kernel workers (0 until the
// first parallel dispatch starts the pool).
func PoolWorkers() int { return int(startedWorkers.Load()) }
