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
// invocations. A steady-state kernel dispatch therefore performs zero heap
// allocations: the channel carries a pointer to the invocation's state, which
// is recycled through a free list.
//
// Chunks are claimed, not assigned: an invocation is cut into a few chunks
// per participant, and the caller and every worker it woke take the next one
// from an atomic counter until none are left. A participant that starts late
// or runs slower takes fewer chunks, and a caller whose helper never arrives
// (it is busy with another caller's chunks) finishes alone.
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

// chunkTask describes one kernel invocation. Exactly one of
// kern/kern32/ranger is set; run dispatches on which.
type chunkTask struct {
	kern         kernelFn
	a, b, c, dst *Matrix

	kern32               kernel32Fn
	a32, b32, c32, dst32 *Matrix32

	ranger RangeKernel
}

func (t *chunkTask) run(lo, hi int) {
	switch {
	case t.kern != nil:
		t.kern(t.a, t.b, t.c, t.dst, lo, hi)
	case t.kern32 != nil:
		t.kern32(t.a32, t.b32, t.c32, t.dst32, lo, hi)
	default:
		t.ranger.RunRange(lo, hi)
	}
}

// callState is one pooled invocation: the task, how [0, n) is cut, and three
// counters. next hands out chunks; left counts the unfinished ones, and the
// participant that finishes the last sends on done, which is buffered so it
// never blocks. refs counts the holders — the caller and every helper it woke
// that has not yet arrived and left — and the last one out recycles the
// state, so a helper that arrives after the last claim still reads its own
// invocation's counters and not a later one's.
type callState struct {
	task             chunkTask
	n, chunk, chunks int
	next, left       atomic.Int64
	refs             atomic.Int32
	done             chan struct{}
	waited           bool // a caller receives on done; Beside's has none
}

// freeStates holds recycled states. It is a channel and not a sync.Pool
// because the participant that recycles a state is often a worker, on
// another P than the caller that takes the next one, and a sync.Pool keeps
// the last state put on each P where only that P can get it back: the
// caller's next dispatch would then allocate a new state.
var freeStates = make(chan *callState, 64)

// newState readies a recycled state, or a new one when none is free, for an
// invocation of t over [0, n) in chunks of chunk, held by refs holders;
// waited says whether a caller receives on done.
func newState(t chunkTask, n, chunk, refs int, waited bool) *callState {
	var s *callState
	select {
	case s = <-freeStates:
	default:
		s = &callState{done: make(chan struct{}, 1)}
	}
	s.task, s.n, s.chunk, s.chunks, s.waited = t, n, chunk, (n+chunk-1)/chunk, waited
	s.next.Store(0)
	s.left.Store(int64(s.chunks))
	s.refs.Store(int32(refs))
	return s
}

// claim runs chunks until none are left to take.
func (s *callState) claim() {
	for {
		c := int(s.next.Add(1) - 1)
		if c >= s.chunks {
			return
		}
		lo := c * s.chunk
		s.task.run(lo, min(lo+s.chunk, s.n))
		if s.left.Add(-1) == 0 && s.waited {
			s.done <- struct{}{}
		}
	}
}

// release drops one holder's reference; the last one recycles the state.
func (s *callState) release() {
	if s.refs.Add(-1) == 0 {
		s.task = chunkTask{}
		select {
		case freeStates <- s:
		default: // more states than are ever in flight at once: drop it
		}
	}
}

var (
	poolOnce    sync.Once
	poolWorkers int
	workCh      chan *callState
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
		workCh = make(chan *callState, 4*poolWorkers)
		for w := 0; w < poolWorkers; w++ {
			go poolWorker()
		}
		startedWorkers.Store(int64(poolWorkers))
	})
}

func poolWorker() {
	for s := range workCh {
		s.claim()
		s.release()
	}
}

// claimsPerWorker is how many chunks a pooled dispatch cuts per participant,
// for kernels whose chunks cost nothing beyond their own elements. Four
// measured best on the DDPM step (two is close): fine enough that a
// participant that starts late evens out, coarse enough that the claims stay
// cheap. A tile product that packs b's panels per chunk cuts one chunk per
// participant instead (dispatchMatmul), as every extra chunk packs b again.
const claimsPerWorker = 4

// dispatch runs the kernel t describes over [0, n), either inline (when the
// work is too small, or only one P is available) or cut into chunks claimed
// by the caller and the pool. work is the multiply-add (or element) count
// held against threshold, and perP the chunks per participant. Chunks are cut
// on multiples of granule, so that only the last one can end off a multiple.
func dispatch(t chunkTask, n, work, granule, threshold, perP int) {
	if n <= 0 {
		return
	}
	parts := min(runtime.GOMAXPROCS(0), n)
	chunk := (n + parts*perP - 1) / (parts * perP)
	chunk = (chunk + granule - 1) / granule * granule
	chunks := (n + chunk - 1) / chunk
	if work < threshold || parts == 1 || chunks == 1 {
		t.run(0, n)
		return
	}
	ensurePool()
	helpers := min(parts, chunks) - 1
	s := newState(t, n, chunk, helpers+1, true)
	for h := 0; h < helpers; h++ {
		workCh <- s
	}
	// A send that wakes a parked worker leaves it in this P's runnext slot,
	// and a second P takes a goroutine from there only after sleeping (the
	// scheduler's usleep(3) in runqgrab, 60-200 µs on a VM and whatever the
	// host's timers make of it): the worker started that late on every
	// dispatch, a fixed cost per call that neither shrinks with the kernels
	// nor holds still from run to run. Yielding here runs the worker on this
	// P at once and puts the caller on the global queue, from which the P the
	// send woke takes it without that sleep. With nothing woken, or no second
	// P free, the caller simply continues.
	runtime.Gosched()
	s.claim()
	// Exactly one finished chunk sends on done (the last, possibly this
	// caller's own); receiving it both waits for stragglers and drains the
	// channel so the state is clean for reuse.
	<-s.done
	s.release()
}

// dispatchKernel is dispatch for a float64 matrix kernel.
func dispatchKernel(kern kernelFn, a, b, c, dst *Matrix, n, work int) {
	dispatch(chunkTask{kern: kern, a: a, b: b, c: c, dst: dst}, n, work, 1, parallelThreshold, claimsPerWorker)
}

// dispatchMatmul is dispatchKernel for the accumulating matmul kernels. Their
// register tile takes whole strips of tileM output rows and leaves a chunk's
// remainder to the slower axpy kernels, so chunks are cut on strip multiples
// (which, like any chunking, never changes bits), and on the assembly tiers
// their multiply-adds are cheap enough to have a threshold of their own. On
// the tile every chunk packs b's panels for itself, so there are as few
// chunks as participants; Packed's products, which share panels packed once,
// cut more.
func dispatchMatmul(kern kernelFn, a, b, c, dst *Matrix, n, work int) {
	dispatch(chunkTask{kern: kern, a: a, b: b, c: c, dst: dst}, n, work, tileM, matmulThreshold(), unpackedPerP())
}

// unpackedPerP is the chunks per participant of a product that reads b
// itself: one on the tile, whose every chunk packs b's panels, and
// claimsPerWorker on the axpy kernels, which read b in place.
func unpackedPerP() int {
	if kernelTier == tierAVX512 {
		return 1
	}
	return claimsPerWorker
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
	dispatch(chunkTask{kern32: kern, a32: a, b32: b, c32: c, dst32: dst}, n, work, 1, parallelThreshold, claimsPerWorker)
}

// ParallelRange runs k over [0, n): inline when work (one unit per
// multiply-add or per element) is below parallelThreshold or only one P is
// available, otherwise in chunks on the worker pool, returning when every
// chunk has finished.
func ParallelRange(k RangeKernel, n, work int) {
	dispatch(chunkTask{ranger: k}, n, work, 1, parallelThreshold, claimsPerWorker)
}

// Beside runs k.RunRange(0, 1) on a pool worker and returns without waiting
// for it: k reports its own progress to whoever needs it. It is for serial
// work that should run beside the caller's kernels instead of between them,
// such as a training step's dropout masks, which are drawn from one rng in
// one order. The worker is one of the pool's, so nothing is started and
// nothing allocated, and a dispatch that finds every worker busy runs its
// chunks on the caller alone. k must not wait on anything the caller does
// after Beside returns.
func Beside(k RangeKernel) {
	ensurePool()
	workCh <- newState(chunkTask{ranger: k}, 1, 1, 1, false)
}

var startedWorkers atomic.Int64

// PoolWorkers reports the number of persistent kernel workers (0 until the
// first parallel dispatch starts the pool).
func PoolWorkers() int { return int(startedWorkers.Load()) }
