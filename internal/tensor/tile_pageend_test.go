//go:build linux && amd64 && !purego

//silofuse:bitwise-ok the tile must reproduce the Go reference bit for bit
package tensor

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// TestTileStopsAtPageEnd puts the last coefficient of the strip, the last
// enabled column of the tile's last row and the last element of b in turn on
// the final eight bytes before an unmapped page. The masked-off lanes of the
// dst load and store and of the panel pack's loads then lie in that page: a
// kernel that touched them would fault instead of failing.
func TestTileStopsAtPageEnd(t *testing.T) {
	forceTier(t, tierAVX512)
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 9*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[8*page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	mapped := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), 8*page/8)

	rng := rand.New(rand.NewSource(45))
	const k, half, ldd = 170, 85, 24
	for w := 1; w < tileN; w++ {
		b := randMat(rng, k, w)
		mask := uint32(1)<<w - 1
		var panel, fromPageEnd [tileKC * tileN]float64
		packPanel16(&panel[0], &b.Data[0], uintptr(w)*8, k, mask)
		pageB := mapped[len(mapped)-k*w:]
		copy(pageB, b.Data)
		packPanel16(&fromPageEnd[0], &pageB[0], uintptr(w)*8, k, mask)
		if panel != fromPageEnd {
			t.Fatalf("w=%d: panel packed from the page end differs", w)
		}
		// Two k blocks, so the masked load runs as well as the masked store.
		run := func(dst, a []float64) {
			tile8x16(&dst[0], ldd*8, &a[0], k*8, 8, &panel[0], half, mask, false)
			tile8x16(&dst[0], ldd*8, &a[half], k*8, 8, &panel[half*tileN], k-half, mask, true)
		}

		a := FromSlice(tileM, k, mapped[len(mapped)-tileM*k:]).Randn(rng, 1)
		want := naiveMatMulSkip(a, b)
		heapDst := make([]float64, tileM*ldd)
		run(heapDst, a.Data)

		// dst rows are ldd apart and hold w columns each; row 7 ends the page.
		heapA := a.Clone()
		pageDst := mapped[len(mapped)-(tileM-1)*ldd-w:]
		run(pageDst, heapA.Data)

		for r := 0; r < tileM; r++ {
			assertSameFloats(t, fmt.Sprintf("a at page end, w=%d row %d", w, r), want.Row(r), heapDst[r*ldd:r*ldd+w])
			assertSameFloats(t, fmt.Sprintf("dst at page end, w=%d row %d", w, r), want.Row(r), pageDst[r*ldd:r*ldd+w])
		}
	}
}
