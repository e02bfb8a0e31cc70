package nn

// EMA maintains an exponential moving average of a parameter set — the
// standard stabiliser for diffusion model weights — while the set trains.
// Fold ends that: the average becomes the parameters' values, which is what
// sampling, Save and Load then all see, and the tracker is done.
type EMA struct {
	Decay  float64
	params []*Param
	shadow [][]float64
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

// Fold overwrites the live parameter values with the average.
func (e *EMA) Fold() {
	for i, p := range e.params {
		copy(p.Value.Data, e.shadow[i])
		p.Changed()
	}
}
