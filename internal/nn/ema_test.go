//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package nn

import (
	"testing"

	"silofuse/internal/tensor"
)

func TestEMATracksAverage(t *testing.T) {
	p := NewParam("w", tensor.FromSlice(1, 1, []float64{0}))
	e := NewEMA([]*Param{p}, 0.5)
	// Shadow starts at 0; set value to 1 and update repeatedly: shadow
	// converges geometrically to 1.
	p.Value.Data[0] = 1
	for i := 0; i < 10; i++ {
		e.Update()
	}
	if got := e.shadow[0][0]; got < 0.99 {
		t.Fatalf("shadow = %v", got)
	}
}

func TestEMAFold(t *testing.T) {
	p := NewParam("w", tensor.FromSlice(1, 1, []float64{5}))
	e := NewEMA([]*Param{p}, 0.9)
	p.Value.Data[0] = 10
	e.Update() // shadow = 0.9*5 + 0.1*10 = 5.5
	if p.Value.Data[0] != 10 {
		t.Fatalf("Update moved the live value to %v", p.Value.Data[0])
	}
	e.Fold()
	if p.Value.Data[0] != 5.5 {
		t.Fatalf("Fold: value = %v", p.Value.Data[0])
	}
}
