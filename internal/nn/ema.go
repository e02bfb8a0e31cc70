package nn

// EMA maintains an exponential moving average of a parameter set — the
// standard stabiliser for diffusion model weights. Apply swaps the averaged
// values into the live parameters (keeping a restore copy), Restore undoes
// the swap.
type EMA struct {
	Decay   float64
	params  []*Param
	shadow  [][]float64
	backup  [][]float64 // persistent workspace, valid only while applied
	applied bool
}

// NewEMA creates an EMA tracker initialised to the current values.
func NewEMA(params []*Param, decay float64) *EMA {
	e := &EMA{Decay: decay, params: params, shadow: make([][]float64, len(params))}
	for i, p := range params {
		e.shadow[i] = append([]float64(nil), p.Value.Data...)
	}
	return e
}

// Update folds the current parameter values into the average. Call after
// every optimiser step.
func (e *EMA) Update() {
	d := e.Decay
	for i, p := range e.params {
		s := e.shadow[i]
		for j, v := range p.Value.Data {
			s[j] = d*s[j] + (1-d)*v
		}
	}
}

// Apply swaps the averaged values into the live parameters. The restore
// copy lives in a persistent workspace, so a warm Apply/Restore bracket —
// every batched sampling call runs one — does not allocate.
func (e *EMA) Apply() {
	if e.backup == nil {
		e.backup = make([][]float64, len(e.params))
	}
	for i, p := range e.params {
		e.backup[i] = append(e.backup[i][:0], p.Value.Data...)
		copy(p.Value.Data, e.shadow[i])
	}
	e.applied = true
}

// Restore puts the live training values back after Apply.
func (e *EMA) Restore() {
	if !e.applied {
		return
	}
	for i, p := range e.params {
		copy(p.Value.Data, e.backup[i])
	}
	e.applied = false
}
