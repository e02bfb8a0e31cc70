package main

import (
	"runtime"
	"sync"
	"time"
)

// The box this benchmark runs on is a small shared VM: a neighbour on the
// same cores slows every operation by up to 1.7x for minutes at a time
// (measured: the same 2-thread matmul batch took 96 to 166 ms over four
// minutes, interquartile range 14% of the median). No median over a 10 s
// run survives that. So every timed operation is bracketed by two runs of a
// small fixed kernel the benchmark owns, and its time is reported at
// reference speed: wall time divided by how much slower than referenceKernel
// the kernel ran around it. The same matmul batch divided by its bracketing
// kernel runs held an interquartile range of 4%. The kernel shares no code
// with the program, so a faster program cannot speed it up; raw wall times
// are kept under "info" in the result file.

// referenceKernel is the kernel's time on the 2-vCPU reference box with no
// neighbour active, when the benchmark was defined. It only fixes the scale:
// with it, numbers at reference speed read like wall-clock numbers on that
// box on a quiet day, and "machine_speed" in the result file is the share
// of that speed the run actually got.
const referenceKernel = 5300 * time.Microsecond

const (
	kernelSize = 96 // three 72 KB matrices per goroutine: L2-resident, like a backbone block
	kernelReps = 12
)

// kernelBufs holds the kernel's matrices, one set per goroutine, allocated
// once so that the kernel adds no garbage to the program's heap.
var kernelBufs [][3][]float64

// kernel runs a fixed multiply-accumulate load on GOMAXPROCS goroutines — as
// many threads as the program's own kernels use, so that losing a core to a
// neighbour slows both alike — and returns how long the slowest took. Each
// goroutine starts its clock after one untimed repetition: an idle vCPU of a
// VM can take a millisecond to wake, which is not the speed being measured.
// The kernel runs between operations, never during one.
func kernel() time.Duration {
	const n = kernelSize
	for len(kernelBufs) < runtime.GOMAXPROCS(0) {
		a, b := make([]float64, n*n), make([]float64, n*n)
		for i := range a {
			a[i], b[i] = float64(i%7)*0.25, float64(i%5)*0.5
		}
		kernelBufs = append(kernelBufs, [3][]float64{a, b, make([]float64, n*n)})
	}
	took := make([]time.Duration, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for g := range took {
		wg.Add(1)
		go func(g int, a, b, c []float64) {
			defer wg.Done()
			var t0 time.Time
			for r := 0; r <= kernelReps; r++ {
				if r == 1 {
					t0 = time.Now()
				}
				for i := 0; i < n; i++ {
					ci := c[i*n : (i+1)*n]
					clear(ci)
					for k := 0; k < n; k++ {
						av, bk := a[i*n+k], b[k*n:(k+1)*n]
						for j := range ci {
							ci[j] += av * bk[j]
						}
					}
				}
			}
			took[g] = time.Since(t0)
		}(g, kernelBufs[g][0], kernelBufs[g][1], kernelBufs[g][2])
	}
	wg.Wait()
	slowest := took[0]
	for _, d := range took {
		slowest = max(slowest, d)
	}
	return slowest
}

// atReferenceSpeed converts a wall time to reference speed, given the kernel
// times measured just before and just after it.
func atReferenceSpeed(wall, before, after time.Duration) time.Duration {
	slowdown := float64(before+after) / 2 / float64(referenceKernel)
	return time.Duration(float64(wall) / slowdown)
}

// warmCPU keeps the kernel running for a second before anything is
// measured: after idling, the box runs at about half speed for up to a
// second (the first 100 kernel runs of a fresh process took 9-12 ms, the
// rest 5.3-7.9 ms), and set-up is the first thing a run times.
func warmCPU() {
	for start := time.Now(); time.Since(start) < time.Second; {
		kernel()
	}
}

// speedSample is the mean of a few kernel runs taken after an operation
// that took wall: about 5% of its time, at least one run and at most
// sixteen. The neighbour's load switches several times a second, so after
// a long operation one 5 ms run would say little about the speed it saw.
func speedSample(wall time.Duration) time.Duration {
	n := min(max(int(wall/(20*referenceKernel)), 1), 16)
	var sum time.Duration
	for i := 0; i < n; i++ {
		sum += kernel()
	}
	return sum / time.Duration(n)
}

// quietSpeedSample collects garbage first. An operation that allocates much
// leaves the collector marking in the background when it returns, on the
// very cores the kernel wants: a sample taken then read 40% slow and, worse,
// read differently as soon as the program's allocation pattern changed.
// After runtime.GC returns no collector work is pending and the kernel
// allocates next to nothing. Used around fits and set-ups, which are few
// and long; it also makes each of them start from a collected heap.
func quietSpeedSample(wall time.Duration) time.Duration {
	runtime.GC()
	return speedSample(wall)
}
