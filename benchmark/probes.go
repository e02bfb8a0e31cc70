package main

import (
	"math/rand"
	"runtime"
	"time"

	"silofuse/internal/autoencoder"
	"silofuse/internal/diffusion"
	"silofuse/internal/metrics"
	"silofuse/internal/nn"
	"silofuse/internal/silo"
	"silofuse/internal/silo/codec"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// Caps on probe shapes. A probe repeats its call several times, so the
// 1000-row, 25-step draw of a bulk request is probed at fewer rows and
// steps and reported per row and step; the caps stay in the regime where
// the kernels run multi-row blocks.
const (
	probeRowCap  = 256
	probeStepCap = 5
	probeLanes   = 4
)

// probes times direct calls into each layer at the shapes of the session's
// workload: batch, widths and request size come from its options, tables
// from its inputs. Rates are derived from the median call time.
func probes(s *session) (map[string]float64, error) {
	out := map[string]float64{}
	budget := s.w.probeBudget
	rng := rand.New(rand.NewSource(s.opts.Seed))
	cfg := pipelineConfig(s.opts)

	// The silo whose one-hot input is widest is the straggler of the
	// autoencoder phase; its partition is what the wide probes use.
	parts, err := s.table.Schema.Partition(cfg.Clients, nil)
	if err != nil {
		return nil, err
	}
	silos := s.table.VerticalPartition(parts)
	wide := silos[0]
	for _, t := range silos {
		if t.Schema.OneHotWidth() > wide.Schema.OneHotWidth() {
			wide = t
		}
	}
	batch := min(cfg.Batch, s.table.Rows())
	latent := s.table.Schema.NumColumns()
	reqRows := s.w.sampleRows
	hidden := cfg.Diff.Hidden
	randn := func(rows, cols int) *tensor.Matrix { return tensor.New(rows, cols).Randn(rng, 1) }
	gflops := func(m, k, n int, d time.Duration) float64 {
		return 2 * float64(m) * float64(k) * float64(n) / d.Seconds() / 1e9
	}
	perSecond := func(n int, d time.Duration) float64 { return float64(n) / d.Seconds() }

	// tensor: the matmuls of a backbone block (batch x hidden x hidden), its
	// two backward forms, the f32 twin, and the autoencoder's input layer.
	{
		a, b, g := randn(batch, hidden), randn(hidden, hidden), randn(batch, hidden)
		dst, dw := tensor.New(batch, hidden), tensor.New(hidden, hidden)
		out["tensor.matmul_gflops"] = gflops(batch, hidden, hidden, timeIt(budget, func() { tensor.MatMulInto(dst, a, b) }))
		out["tensor.matmul_t1_gflops"] = gflops(batch, hidden, hidden, timeIt(budget, func() { tensor.MatMulT1Into(dw, a, g) }))
		out["tensor.matmul_t2_gflops"] = gflops(batch, hidden, hidden, timeIt(budget, func() { tensor.MatMulT2Into(dst, g, b) }))
		a32, b32, dst32 := tensor.To32(a), tensor.To32(b), tensor.New32(batch, hidden)
		out["tensor.matmul32_gflops"] = gflops(batch, hidden, hidden, timeIt(budget, func() { tensor.MatMul32Into(dst32, a32, b32) }))
		wideIn := wide.Schema.OneHotWidth()
		x, w1, h := randn(batch, wideIn), randn(wideIn, cfg.AE.Hidden), tensor.New(batch, cfg.AE.Hidden)
		out["tensor.matmul_in_gflops"] = gflops(batch, wideIn, cfg.AE.Hidden, timeIt(budget, func() { tensor.MatMulInto(h, x, w1) }))
		out["tensor.pool_workers"] = float64(tensor.PoolWorkers())
	}

	// nn: the denoising backbone — forward at the request size (what one
	// sampling step costs), backward and Adam at the training batch.
	{
		net := nn.NewDiffusionMLP(rng, latent, hidden, latent, cfg.Diff.Depth, cfg.Diff.TimeDim, cfg.Diff.Dropout)
		net.WarmTimesteps(cfg.Diff.T)
		steps := func(n int) []int {
			ts := make([]int, n)
			for i := range ts {
				ts[i] = rng.Intn(cfg.Diff.T)
			}
			return ts
		}
		x, ts := randn(reqRows, latent), steps(reqRows)
		out["nn.mlp_forward_ms"] = ms(timeIt(budget, func() { net.Forward(x, ts, false) }))
		xb, tsb, g := randn(batch, latent), steps(batch), randn(batch, latent)
		out["nn.mlp_backward_ms"] = ms(timeItAfter(budget, func() { net.Forward(xb, tsb, true) }, func() { net.Backward(g) }))
		opt := nn.NewAdam(net.Params(), cfg.Diff.LR)
		out["nn.adam_step_ms"] = ms(timeIt(budget, opt.Step))
	}

	// diffusion: one training step at the batch, and sampling per row-step:
	// sequential, four stacked lanes of the same total rows, and f32.
	{
		mc := cfg.Diff
		mc.Dim = latent
		model := diffusion.NewModel(rng, mc)
		x0 := randn(batch, latent)
		step := func() { model.TrainStep(x0) }
		d := timeIt(budget, step)
		out["diffusion.train_step_ms"] = ms(d)
		out["diffusion.train_allocs_per_step"] = allocsPerCall(step)

		rows, nsteps := min(reqRows, probeRowCap), min(s.w.steps, probeStepCap)
		rows -= rows % probeLanes
		d = timeIt(budget, func() { model.SampleWithRng(rng, rows, nsteps) })
		out["diffusion.sample_ms_per_step"] = ms(d) / float64(nsteps)
		out["diffusion.sample_rowsteps_per_s"] = perSecond(rows*nsteps, d)
		rngs, ns := make([]*rand.Rand, probeLanes), make([]int, probeLanes)
		for k := range rngs {
			rngs[k], ns[k] = diffusion.LaneRng(s.opts.Seed, k), rows/probeLanes
		}
		d = timeIt(budget, func() { model.SampleBatchWithRngs(rngs, ns, nsteps) })
		out["diffusion.sample_batch_rowsteps_per_s"] = perSecond(rows*nsteps, d)
		mc.Precision = "f32"
		model32 := diffusion.NewModel(rng, mc)
		d = timeIt(budget, func() { model32.SampleWithRng(rng, rows, nsteps) })
		out["diffusion.sample_f32_rowsteps_per_s"] = perSecond(rows*nsteps, d)
	}

	// autoencoder and tabular, on the widest silo.
	{
		aeCfg := cfg.AE
		aeCfg.Latent = wide.Schema.NumColumns()
		ae := autoencoder.New(rng, wide, aeCfg)
		idx := rng.Perm(wide.Rows())[:batch]
		mini := wide.SelectRows(idx)
		step := func() { ae.TrainStep(mini) }
		out["autoencoder.train_step_ms"] = ms(timeIt(budget, step))
		out["autoencoder.train_allocs_per_step"] = allocsPerCall(step)
		head := wide.Head(min(wide.Rows(), 2*probeRowCap))
		out["autoencoder.encode_rows_per_s"] = perSecond(head.Rows(), timeIt(budget, func() { ae.Encode(head) }))
		z := randn(min(reqRows, probeRowCap), aeCfg.Latent)
		var decErr error
		out["autoencoder.decode_rows_per_s"] = perSecond(z.Rows, timeIt(budget, func() { _, decErr = ae.Decode(z, true, rng) }))
		if decErr != nil {
			return nil, decErr
		}

		enc := tabular.NewEncoder(wide)
		x := enc.Transform(head)
		out["tabular.transform_rows_per_s"] = perSecond(head.Rows(), timeIt(budget, func() { enc.Transform(head) }))
		var invErr error
		out["tabular.inverse_rows_per_s"] = perSecond(head.Rows(), timeIt(budget, func() { _, invErr = enc.Inverse(x) }))
		if invErr != nil {
			return nil, invErr
		}
		heads := make([]*tabular.Table, len(silos))
		for i, t := range silos {
			heads[i] = t.Head(head.Rows())
		}
		var joinErr error
		out["tabular.join_rows_per_s"] = perSecond(head.Rows(), timeIt(budget, func() { _, joinErr = tabular.JoinVertical(s.table.Schema, parts, heads) }))
		if joinErr != nil {
			return nil, joinErr
		}
	}

	// codec and buses, on one message of the E2E exchange (batch x latent)
	// under the wire codec the workload runs with.
	id, err := codec.ByName(s.opts.WireCodec)
	if err != nil {
		return nil, err
	}
	payload := randn(batch, latent)
	{
		raw := float64(8 * len(payload.Data))
		blob, _, err := codec.Encode(id, payload)
		if err != nil {
			return nil, err
		}
		d := timeIt(budget, func() { codec.Encode(id, payload) })
		out["codec.encode_mb_per_s"] = raw / 1e6 / d.Seconds()
		d = timeIt(budget, func() { codec.Decode(id, blob, payload.Rows, payload.Cols) })
		out["codec.decode_mb_per_s"] = raw / 1e6 / d.Seconds()
		out["codec.bytes_ratio"] = float64(len(blob)) / raw
	}
	{
		env := &silo.Envelope{From: "c0", To: "coord", Kind: silo.KindActivation, Payload: payload}
		var busErr error
		roundTrip := func(bus silo.Bus) float64 {
			d := timeIt(budget, func() {
				if err := bus.Send(env); err != nil {
					busErr = err
					return
				}
				if _, err := bus.Recv("coord"); err != nil {
					busErr = err
				}
			})
			return 1 / d.Seconds()
		}
		out["silo.localbus_msgs_per_s"] = roundTrip(silo.NewLocalBus())
		out["silo.codecbus_msgs_per_s"] = roundTrip(silo.NewCodecBus(silo.NewLocalBus(), id))
		out["silo.resilientbus_msgs_per_s"] = roundTrip(silo.NewResilientBus(silo.NewLocalBus(), silo.DefaultResilientConfig()))
		fabric, err := dialFabric(1, id)
		if err != nil {
			return nil, err
		}
		defer fabric.close()
		before := fabric.Stats()
		rate := roundTrip(fabric.bus)
		sent := statsDelta(fabric.Stats(), before)
		out["silo.tcp_msgs_per_s"] = rate
		out["silo.tcp_mb_per_s"] = rate * float64(sent.Bytes) / float64(sent.Messages) / 1e6
		out["silo.tcp_wire_over_model"] = float64(sent.Bytes) / float64(fabric.bus.WireReport()[string(silo.KindActivation)].Bytes)
		if busErr != nil {
			return nil, busErr
		}
	}

	// datagen and metrics cost set-up and scoring time only; they are
	// measured so that the run's time budget can be accounted for.
	d := timeIt(budget, func() { s.w.inputs(s.opts.Seed) })
	out["datagen.generate_rows_per_s"] = perSecond(s.w.rows, d)
	return out, nil
}

// resemblanceSeconds times one scoring call of the workload's resemblance
// configuration on a drawn table.
func resemblanceSeconds(s *session, drawn *tabular.Table) (float64, error) {
	t0 := time.Now()
	_, err := metrics.Resemblance(s.table, drawn, s.w.resemblanceConfig())
	return time.Since(t0).Seconds(), err
}

// allocsPerCall is the mean number of heap allocations of a warm call.
func allocsPerCall(fn func()) float64 {
	const calls = 4
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / calls
}
