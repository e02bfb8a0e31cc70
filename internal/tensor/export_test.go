package tensor

import "testing"

// Tier and the functions below re-export the kernel tiers for the tests of
// package tensor_test, which fit whole models on top of this package.
type Tier = tier

// AllTiers lists every tier, highest first.
var AllTiers = allTiers

// ForceTier runs the kernels on tier want for the rest of the test, or skips
// the test where this CPU or build does not have it.
func ForceTier(tb testing.TB, want Tier) { forceTier(tb, want) }
