package main

import "encoding/json"

// metricDef names one metric of the benchmark. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry no bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// runSeconds is how long one run measures; BENCHMARK.json records it and
// the driver passes it back as --seconds.
const runSeconds = 10

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them from an untraced run, so each is defined per
// operation: the operation is a Fit on the training workloads and a Sample
// call on the synthesis workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"wire_bytes", "bytes", "lower", 0.01},
	{"resemblance", "score", "higher", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// perLayer lists the metrics of single layers, reported by the traced run.
// Names are <layer>.<metric>; README.md says which end-to-end metric each
// should move and on which workload.
var perLayer = []metricDef{
	// silo: protocol stages, from benchmark-owned spans.
	{Name: "silo.fit_s", Unit: "s", Better: "lower"},
	{Name: "silo.construct_s", Unit: "s", Better: "lower"},
	{Name: "silo.ae_train_s", Unit: "s", Better: "lower"},
	{Name: "silo.ae_client_max_over_mean", Unit: "ratio", Better: "lower"},
	{Name: "silo.latent_ship_s", Unit: "s", Better: "lower"},
	{Name: "silo.diffusion_train_s", Unit: "s", Better: "lower"},
	{Name: "silo.request_s", Unit: "s", Better: "lower"},
	{Name: "silo.sample_latents_s", Unit: "s", Better: "lower"},
	{Name: "silo.distribute_s", Unit: "s", Better: "lower"},
	{Name: "silo.decode_s", Unit: "s", Better: "lower"},
	{Name: "silo.join_s", Unit: "s", Better: "lower"},
	{Name: "silo.stage_self_s", Unit: "s", Better: "lower"},
	{Name: "silo.e2e_step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "silo.e2e_allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "silo.bus_msgs", Unit: "count", Better: "lower"},
	{Name: "silo.bus_bytes.latents", Unit: "bytes", Better: "lower"},
	{Name: "silo.bus_bytes.synth-req", Unit: "bytes", Better: "lower"},
	{Name: "silo.bus_bytes.synth-latent", Unit: "bytes", Better: "lower"},
	{Name: "silo.bus_bytes.e2e", Unit: "bytes", Better: "lower"},
	// silo: transport probes.
	{Name: "silo.localbus_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "silo.codecbus_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "silo.resilientbus_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "silo.tcp_msgs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "silo.tcp_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "silo.tcp_wire_over_model", Unit: "ratio", Better: "lower"},
	{Name: "codec.encode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "codec.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "codec.bytes_ratio", Unit: "ratio", Better: "lower"},
	{Name: "autoencoder.train_step_ms", Unit: "ms", Better: "lower"},
	{Name: "autoencoder.train_allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "autoencoder.encode_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "autoencoder.decode_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "diffusion.train_step_ms", Unit: "ms", Better: "lower"},
	{Name: "diffusion.train_allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "diffusion.sample_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "diffusion.sample_rowsteps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "diffusion.sample_batch_rowsteps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "diffusion.sample_f32_rowsteps_per_s", Unit: "1/s", Better: "higher"},
	{Name: "nn.mlp_forward_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.mlp_backward_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.adam_step_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.matmul_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_in_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_t1_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul_t2_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.matmul32_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.pool_workers", Unit: "count", Better: "higher"},
	{Name: "tabular.transform_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "tabular.inverse_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "tabular.join_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "datagen.generate_rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "metrics.resemblance_s", Unit: "s", Better: "lower"},
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "proc.machine_speed", Unit: "ratio", Better: "higher"},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "proc.allocs_per_row", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_bytes_per_row", Unit: "bytes", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	// ladder: does the rung below explain the rung above (1 = fully).
	{Name: "ladder.diffusion_train_explained", Unit: "ratio", Better: "higher"},
	{Name: "ladder.sample_explained", Unit: "ratio", Better: "higher"},
	{Name: "ladder.train_step_matmul_share", Unit: "ratio", Better: "higher"},
}

// manifestJSON renders BENCHMARK.json from the tables above, so the file
// the driver reads and the names the program prints cannot drift apart
// (TestManifestMatchesFile pins the committed file to this output).
func manifestJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
