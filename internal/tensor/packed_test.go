//silofuse:bitwise-ok the packed product must reproduce the unpacked one bit for bit
package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestPackedMatchesUnpacked holds the packed product, alone and with its
// GELU epilogue, to MatMulAddRowInto and MatMulAddRowInto then GELUInto, with
// ==, on every tier this process has, serially and pooled, on dirty
// destinations: at batch rows around a strip (1, 7, 8, 9), the sampler's 64
// and a bulk 500, and at widths around a panel (8, 15, 16), a hidden layer's
// 256 and the churn decoder head's 2932. k = 300 crosses a k block.
func TestPackedMatchesUnpacked(t *testing.T) {
	const k = 300
	for _, tr := range allTiers {
		t.Run(tr.String(), func(t *testing.T) {
			forceTier(t, tr)
			rng := rand.New(rand.NewSource(61))
			for _, n := range []int{8, 15, 16, 256, 2932} {
				b, bias := randMat(rng, k, n), randMat(rng, 1, n)
				var p Packed
				p.Repack(b)
				for _, rows := range []int{1, 7, 8, 9, 64, 500} {
					a := sprinkleZeros(rng, randMat(rng, rows, k))
					want, wantAct := New(rows, n), New(rows, n)
					MatMulAddRowInto(want, a, b, bias)
					GELUInto(wantAct, want)
					for _, procs := range []int{1, 2} {
						prev := runtime.GOMAXPROCS(procs)
						name := fmt.Sprintf("%dx%d @ %dx%d, %d procs", rows, k, k, n, procs)
						got := MatMulAddRowPackedInto(dirty(rows, n), a, &p, bias, Epilogue{})
						assertSameBits(t, name, want, got)
						got, act := dirty(rows, n), dirty(rows, n)
						MatMulAddRowPackedInto(got, a, &p, bias, Epilogue{Act: act})
						assertSameBits(t, name+" with GELU", want, got)
						assertSameBits(t, name+", its GELU", wantAct, act)
						runtime.GOMAXPROCS(prev)
					}
				}
			}
		})
	}
}
