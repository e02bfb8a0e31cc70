package main

import (
	"math"
	"runtime"
	"time"

	"silofuse/internal/obs"
	"silofuse/internal/silo"
	"silofuse/internal/silo/codec"
)

// runTraced is the separate traced run behind the per-layer metrics. In one
// process it
//
//  1. runs the workload's operations once through the public API, untraced,
//     as the reference for tracing overhead and for the bit-identity checks;
//  2. replays the same fit and requests with spans and an obs.Recorder;
//  3. runs a short side run of the protocol the workload does not exercise,
//     so that the stage metrics of both protocols exist at its shapes;
//  4. times direct calls into every layer (probes.go);
//  5. derives the ladder ratios that say whether a rung explains the next.
func runTraced(w workload, seed int64, guard guardFn) (*result, error) {
	res := &result{Workload: w.Name, Seed: seed, Trace: 1, Info: map[string]float64{}}
	c := &checker{}
	var s *session
	if err := guard("set-up", func() (err error) { s, err = setUp(w, seed); return }); err != nil {
		return nil, err
	}
	defer s.close()

	// 1. Reference operations, with the process counters read around them.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	speeds := []time.Duration{quietSpeedSample(0)}
	cpu0, t0 := cpuTime(), time.Now()
	refFit := s.prefit
	if w.timeFits {
		if err := guard("fit", func() (err error) { refFit, err = s.fit(); return }); err != nil {
			return nil, err
		}
	}
	refReqs := make([]opResult, w.traceRequests)
	for i := range refReqs {
		if err := guard("request", func() (err error) { refReqs[i], err = s.request(w.sampleRows); return }); err != nil {
			return nil, err
		}
	}
	refWall, refCPU := time.Since(t0), cpuTime()-cpu0
	runtime.ReadMemStats(&ms1)
	speeds = append(speeds, quietSpeedSample(refWall))

	// 2. The same operations, traced.
	tr, rec := newTracer(), obs.NewRecorder()
	var trFit opResult
	trReqs := make([]opResult, w.traceRequests)
	var moved silo.Stats
	err := guard("traced operations", func() error {
		if w.e2e {
			before := s.fabric.Stats()
			p, fit, err := tracedE2E(tr, rec, s.fabric.bus, s.table, s.opts, w.e2eIters)
			if err != nil {
				return err
			}
			trFit = fit
			for i := range trReqs {
				if trReqs[i], err = tracedE2ERequest(tr, p, i+1, w.sampleRows, s.opts.DecodeSampling); err != nil {
					return err
				}
			}
			moved = statsDelta(s.fabric.Stats(), before)
			return nil
		}
		st, fit, err := stagedFit(tr, rec, s.table, s.opts)
		if err != nil {
			return err
		}
		trFit = fit
		for i := range trReqs {
			if trReqs[i], err = st.request(i+1, w.sampleRows); err != nil {
				return err
			}
		}
		moved = st.bus.Stats()
		return nil
	})
	if err != nil {
		return nil, err
	}
	speeds = append(speeds, quietSpeedSample(trFit.wall))

	// The traced replay must be the computation the public API ran: same
	// weights (same loss where the API returns only that), same bytes on
	// the bus, same rows.
	if err := refFit.fingerprint(); err != nil {
		return nil, err
	}
	if err := trFit.fingerprint(); err != nil {
		return nil, err
	}
	c.check(!math.IsNaN(trFit.loss) && !math.IsInf(trFit.loss, 0), "traced fit: loss %v", trFit.loss)
	c.check(trFit.print == refFit.print, "traced fit: model state differs from the public API's")
	c.check(trFit.wire == refFit.wire, "traced fit: moved %d bytes, the public API %d", trFit.wire, refFit.wire)
	refBusy, trBusy, rows, wire := refFit.wall, trFit.wall, 0, trFit.wire
	if w.timeFits {
		rows = refFit.rows
	}
	for i, r := range trReqs {
		c.table("traced request", r.table, w.sampleRows)
		c.check(r.print == refReqs[i].print, "traced request %d: rows differ from the public API's", i)
		c.check(r.wire == refReqs[i].wire, "traced request %d: moved %d bytes, the public API %d", i, r.wire, refReqs[i].wire)
		refBusy += refReqs[i].wall
		trBusy += r.wall
		rows += r.rows
		wire += r.wire
	}
	byKind := map[string]float64{}
	var kindSum int64
	for name, kinds := range kindBytes {
		for _, k := range kinds {
			byKind[name] += float64(moved.ByKind[k])
			kindSum += moved.ByKind[k]
		}
	}
	c.check(kindSum == moved.Bytes && moved.Bytes == wire, "bus bytes by kind sum to %d, the bus counted %d, the operations %d", kindSum, moved.Bytes, wire)

	// 3. Side run of the other protocol at this workload's shapes.
	sideTr, sideRec := newTracer(), obs.NewRecorder()
	err = guard("side run", func() error {
		if w.e2e {
			st, _, err := stagedFit(sideTr, sideRec, s.table, s.opts)
			if err != nil {
				return err
			}
			_, err = st.request(1, w.sampleRows)
			return err
		}
		bus := silo.NewCodecBus(silo.NewLocalBus(), codec.F64)
		_, _, err := tracedE2E(sideTr, sideRec, bus, s.table, s.opts, w.e2eIters)
		return err
	})
	if err != nil {
		return nil, err
	}
	stacked, e2eSnap := tr.spans, sideRec.Snapshot()
	if w.e2e {
		stacked, e2eSnap = sideTr.spans, rec.Snapshot()
	}

	// 4. Layer probes.
	var layer map[string]float64
	if err := guard("probes", func() (err error) { layer, err = probes(s); return }); err != nil {
		return nil, err
	}
	scoring, err := resemblanceSeconds(s, trReqs[0].table)
	if err != nil {
		return nil, err
	}

	values := layer
	values["metrics.resemblance_s"] = scoring
	sec := func(spans []span, name string) float64 { return totalOf(spans, name).Seconds() }
	values["silo.fit_s"] = sec(tr.spans, "fit")
	values["silo.construct_s"] = sec(tr.spans, "construct")
	values["silo.request_s"] = sec(tr.spans, "request")
	values["silo.stage_self_s"] = rootSelfTime(tr.spans).Seconds()
	for metric, name := range map[string]string{
		"silo.ae_train_s":        "ae_train",
		"silo.latent_ship_s":     "latent_ship",
		"silo.diffusion_train_s": "diffusion_train",
		"silo.sample_latents_s":  "sample_latents",
		"silo.distribute_s":      "distribute",
		"silo.decode_s":          "decode",
		"silo.join_s":            "join",
	} {
		values[metric] = sec(stacked, name)
	}
	values["silo.ae_client_max_over_mean"] = maxOverMean(stacked, "ae_train.")
	values["silo.e2e_step_ms_p50"] = e2eSnap.Histograms["e2e_step_seconds"].P50 * 1000
	values["silo.e2e_allocs_per_step"] = e2eSnap.Gauges["e2e_allocs_per_step"]
	values["silo.bus_msgs"] = float64(moved.Messages)
	for name, v := range byKind {
		values[name] = v
	}
	values["obs.trace_overhead_ratio"] = trBusy.Seconds()/refBusy.Seconds() - 1
	values["proc.machine_speed"] = float64(referenceKernel) / float64(medianDuration(speeds))
	values["proc.cpu_util"] = refCPU.Seconds() / (refWall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	values["proc.allocs_per_row"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(rows)
	values["proc.alloc_bytes_per_row"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(rows)
	values["proc.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	values["proc.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6

	// 5. Ladder: a rung's probe, scaled by how often the stage calls it, over
	// the stage's span. Near 1 the lower rung explains the upper one.
	requests := 0
	for _, sp := range stacked {
		if sp.Name == "sample_latents" {
			requests++
		}
	}
	values["ladder.diffusion_train_explained"] = float64(s.opts.DiffIters) * values["diffusion.train_step_ms"] / 1000 / values["silo.diffusion_train_s"]
	values["ladder.sample_explained"] = float64(requests*w.steps) * values["nn.mlp_forward_ms"] / 1000 / values["silo.sample_latents_s"]
	values["ladder.train_step_matmul_share"] = trainStepMatmulFLOPs(s) / (values["tensor.matmul_gflops"] * 1e9) / (values["diffusion.train_step_ms"] / 1000)

	res.Metrics = make(map[string]metricValue, len(perLayer))
	for _, d := range perLayer {
		v, ok := values[d.Name]
		c.check(ok, "per-layer metric %s was not measured", d.Name)
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	res.Info["traced_fit_loss"] = trFit.loss
	res.Spans = tr.spans
	c.into(res)
	return res, nil
}

// trainStepMatmulFLOPs counts the matmul work of one diffusion training
// step: the forward products of the backbone (input, timestep and output
// projections, depth hidden blocks) and, for each, the two backward
// products of the same size.
func trainStepMatmulFLOPs(s *session) float64 {
	cfg := pipelineConfig(s.opts).Diff
	m := float64(min(s.opts.Batch, s.table.Rows()))
	latent, h := float64(s.table.Schema.NumColumns()), float64(cfg.Hidden)
	forward := 2 * m * h * (latent + float64(cfg.TimeDim) + float64(cfg.Depth)*h + latent)
	return 3 * forward
}
