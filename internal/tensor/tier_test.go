package tensor

import "testing"

// TestDetectTier walks the tier choice through the feature words a CPU can
// report: each tier needs every bit below it, both assembly tiers need FMA3
// because they fuse, and a register file the operating system does not save
// is as good as absent.
func TestDetectTier(t *testing.T) {
	const (
		c1All  = cpuOSXSAVE | cpuAVX | cpuFMA
		b7All  = cpuAVX2 | cpuAVX512F
		xcrAll = xcr0YMM | xcr0ZMM
	)
	for _, c := range []struct {
		name                  string
		maxLeaf, c1, b7, xcr0 uint32
		want                  tier
	}{
		{"everything", 0xd, c1All, b7All, xcrAll, tierAVX512},
		{"AVX2 and FMA3, no AVX-512F", 0xd, c1All, cpuAVX2, xcrAll, tierAVX2},
		{"AVX-512F without ZMM state, with FMA3", 0xd, c1All, b7All, xcr0YMM, tierAVX2},
		{"AVX-512F with only part of the ZMM state", 0xd, c1All, b7All, xcr0YMM | 0x20, tierAVX2},
		{"AVX2 without FMA3", 0xd, cpuOSXSAVE | cpuAVX, cpuAVX2, xcrAll, tierGo},
		{"AVX-512F without FMA3", 0xd, cpuOSXSAVE | cpuAVX, b7All, xcrAll, tierGo},
		{"AVX-512F without AVX2", 0xd, c1All, cpuAVX512F, xcrAll, tierGo},
		{"no OSXSAVE", 0xd, cpuAVX | cpuFMA, b7All, 0, tierGo},
		{"no AVX", 0xd, cpuOSXSAVE | cpuFMA, b7All, xcrAll, tierGo},
		{"YMM state not saved", 0xd, c1All, b7All, 0x2 | xcr0ZMM, tierGo},
		{"no leaf 7", 6, c1All, 0, xcrAll, tierGo},
		{"nothing", 0, 0, 0, 0, tierGo},
	} {
		if got := detectTier(c.maxLeaf, c.c1, c.b7, c.xcr0); got != c.want {
			t.Errorf("%s: tier %v, want %v", c.name, got, c.want)
		}
	}
}
