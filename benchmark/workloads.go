package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"time"

	"silofuse/internal/autoencoder"
	"silofuse/internal/core"
	"silofuse/internal/datagen"
	"silofuse/internal/diffusion"
	"silofuse/internal/metrics"
	"silofuse/internal/silo"
	"silofuse/internal/silo/codec"
	"silofuse/internal/tabular"
)

// workload is one named set of inputs and the operation timed on them.
// Every workload is a closed loop with one caller: the next Fit or Sample
// starts when the previous one has returned.
type workload struct {
	Name string
	Why  string

	dataset string // datagen spec: "adult" is narrow (one-hot 108), "churn" wide (2964)
	rows    int
	batch   int
	fast    bool // core.FastOptions widths (64/depth 3) instead of DefaultOptions (256/depth 4)
	e2e     bool // E2EDistr over loopback TCP instead of the stacked protocol on a LocalBus

	// timeFits makes the timed operation a fresh fit; otherwise set-up fits
	// one model and the timed operation is a Sample call on it.
	timeFits bool

	// Iteration counts. A stacked workload also states e2eIters and the
	// E2EDistr workload aeIters/diffIters: the traced run uses them for a
	// short side run of the protocol the workload itself does not exercise.
	aeIters, diffIters, e2eIters int

	// setups is how often a run sets the workload up; setup_s is the median,
	// so one slow dial or a cold page cache does not decide it.
	setups int

	sampleRows int // rows per Sample call (timed on synth workloads, the reference draw elsewhere)
	steps      int // denoising steps
	minOps     int // timed operations a run makes at least, whatever --seconds says

	traceRequests int // Sample calls the traced run replays stage by stage

	// Resemblance is scored on resRows fresh rows after the timed section;
	// the propensity model is cut down on the wide schema, where it costs
	// seconds at the default size.
	resRows     int
	resPropRows int
	resRounds   int

	probeBudget time.Duration // time each layer probe may spend
}

// Sizes were measured on a 2-core 2.1 GHz Xeon with go1.24 so that one
// operation of a training workload takes about 2 s and set-up at most 3 s:
// a run then fits three set-ups and --seconds of measurement inside the
// driver's budget of 30 s per run.
var workloads = []workload{
	{
		Name:    "train_narrow",
		Why:     "Fit on the 14-column adult schema: coordinator DDPM training is at least 70% of the fit, so matmul, f32-training and data-parallel work must show here and autoencoder work must not",
		dataset: "adult", rows: 4000, batch: 256, timeFits: true, aeIters: 6, diffIters: 22, e2eIters: 8,
		setups: 3, sampleRows: 1000, steps: 25, minOps: 3, traceRequests: 1,
		resRows: 1000, resPropRows: 2000, resRounds: 25, probeBudget: 60 * time.Millisecond,
	},
	{
		Name:    "train_wide",
		Why:     "Fit on the churn schema (one-hot 2964, the 2932-way column alone in one silo): autoencoders are at least 70% of the fit and one straggler silo sets the phase time; diffusion work must not show",
		dataset: "churn", rows: 2000, batch: 256, timeFits: true, aeIters: 6, diffIters: 2, e2eIters: 4,
		setups: 3, sampleRows: 400, steps: 25, minOps: 3, traceRequests: 1,
		resRows: 400, resPropRows: 400, resRounds: 10, probeBudget: 60 * time.Millisecond,
	},
	{
		Name:    "synth_bulk",
		Why:     "Sample(500) at 25 steps from a pre-fit adult model: denoising forward passes are at least 90% of a request, so batched or f32 sampling shows here and decode or transport work must not",
		dataset: "adult", rows: 4000, batch: 256, aeIters: 6, diffIters: 22, e2eIters: 8,
		setups: 3, sampleRows: 500, steps: 25, minOps: 5, traceRequests: 3,
		resRows: 1000, resPropRows: 2000, resRounds: 25, probeBudget: 60 * time.Millisecond,
	},
	{
		Name:    "synth_small_wide",
		Why:     "Sequential Sample(64) at 5 steps from a pre-fit churn model: small batches and a wide decode make per-request overhead and decode at least 25% of latency, which a bulk-sampling speed-up may cost",
		dataset: "churn", rows: 2000, batch: 256, aeIters: 4, diffIters: 2, e2eIters: 4,
		setups: 3, sampleRows: 64, steps: 5, minOps: 40, traceRequests: 30,
		resRows: 400, resPropRows: 400, resRounds: 10, probeBudget: 60 * time.Millisecond,
	},
	{
		Name:    "e2edistr_tcp",
		Why:     "E2EDistr training over a loopback TCP hub with 4 peers and the f32 codec: 16 messages per iteration through gob framing, codec and sockets, the only place a transport regression can show",
		dataset: "adult", rows: 4000, batch: 128, fast: true, e2e: true, timeFits: true, e2eIters: 60, aeIters: 10, diffIters: 10,
		setups: 3, sampleRows: 1000, steps: 15, minOps: 3, traceRequests: 1,
		resRows: 1000, resPropRows: 2000, resRounds: 25, probeBudget: 60 * time.Millisecond,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// tiny shrinks a workload to a fraction of a second while keeping its
// schema, protocol and code path, so tests can run all five.
func (w workload) tiny() workload {
	w.rows, w.batch, w.fast = 160, 32, true
	w.aeIters, w.diffIters, w.e2eIters = 2, 2, 3
	w.setups, w.sampleRows, w.steps, w.minOps = 1, 16, 3, 2
	w.traceRequests = 2
	w.resRows, w.resPropRows, w.resRounds = 32, 32, 2
	w.probeBudget = 0
	return w
}

// inputs generates the training table: the seed is the benchmark's only
// source of variation, and the program under test sees the table alone.
func (w workload) inputs(seed int64) (*tabular.Table, error) {
	spec, err := datagen.ByName(w.dataset)
	if err != nil {
		return nil, err
	}
	return spec.Generate(w.rows, seed), nil
}

// options builds the model options of the workload for a seed.
func (w workload) options(seed int64) core.Options {
	o := core.DefaultOptions()
	if w.fast {
		o = core.FastOptions()
	}
	o.Seed = seed
	o.Batch = w.batch
	o.AEIters, o.DiffIters = w.aeIters, w.diffIters
	o.SynthSteps = w.steps
	if w.e2e {
		o.WireCodec = "f32"
	}
	return o
}

func (w workload) resemblanceConfig() metrics.ResemblanceConfig {
	cfg := metrics.DefaultResemblanceConfig()
	cfg.PropensityRows = w.resPropRows
	cfg.PropensityBoost.NumRounds = w.resRounds
	return cfg
}

// pipelineConfig translates Options as core.SiloFuse does internally; the
// traced run needs it to drive silo.Pipeline directly, and checks that its
// result equals core's bit for bit.
func pipelineConfig(o core.Options) silo.PipelineConfig {
	return silo.PipelineConfig{
		Clients: o.Clients,
		AE: autoencoder.Config{
			Hidden: o.AEHidden, Embed: o.AEEmbed, LR: o.LR, DecodePrecision: o.ComputePrecision,
		},
		Diff: diffusion.ModelConfig{
			Hidden: o.DiffHidden, Depth: o.DiffDepth, TimeDim: o.DiffTimeDim, T: o.T, LR: o.LR,
			Dropout: 0.01, EMADecay: o.EMADecay, CosineSch: o.CosineSchedule, Precision: o.ComputePrecision,
		},
		AEIters:    o.AEIters,
		DiffIters:  o.DiffIters,
		Batch:      o.Batch,
		SynthSteps: o.SynthSteps,
		Seed:       o.Seed,
	}
}

// opResult is what one timed operation produced.
type opResult struct {
	wall  time.Duration
	rows  int            // rows trained on, or rows returned
	wire  int64          // bytes the operation moved over the bus
	loss  float64        // training loss where the API returns one
	table *tabular.Table // rows returned; nil for a fit
	print uint64         // fingerprint: model state after a fit, cell bits of a table

	// save serialises the fitted model of a stacked fit. Hashing it costs a
	// gob encoding of every weight, so it is done off the clock by whoever
	// wants the fingerprint (see fingerprint), never inside set-up.
	save func(io.Writer) error
}

// fingerprint fills r.print for a stacked fit (other results carry theirs)
// and lets go of the model, which would otherwise stay alive as long as the
// result does.
func (r *opResult) fingerprint() (err error) {
	if r.save != nil {
		r.print, err = stateHash(r.save)
		r.save = nil
	}
	return err
}

// session is a set-up workload: the inputs, the transport where one is
// dialled, and the reference model — the one set-up fitted on a synthesis
// workload, the first timed fit on a training workload.
type session struct {
	w      workload
	table  *tabular.Table
	opts   core.Options
	fabric *tcpFabric
	model  *core.SiloFuse
	pipe   *silo.E2EPipeline
	prefit opResult
}

// setUp does everything setup_s covers: data generation, transport dial, a
// warm-up (tensor pool start, a 2-iteration fit and an 8-row sample on a
// throw-away model of the same shapes) and, on a synthesis workload, the fit.
func setUp(w workload, seed int64) (*session, error) {
	table, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, table: table, opts: w.options(seed)}
	if w.e2e {
		id, err := codec.ByName(s.opts.WireCodec)
		if err != nil {
			return nil, err
		}
		if s.fabric, err = dialFabric(s.opts.Clients, id); err != nil {
			return nil, err
		}
	}
	warm := *s
	warm.opts.AEIters, warm.opts.DiffIters, warm.w.e2eIters = 2, 2, 2
	if _, err := warm.fit(); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up fit: %w", err)
	}
	if _, err := warm.request(8); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up sample: %w", err)
	}
	if !w.timeFits {
		if s.prefit, err = s.fit(); err != nil {
			s.close()
			return nil, fmt.Errorf("set-up fit: %w", err)
		}
	}
	return s, nil
}

func (s *session) close() {
	if s.fabric != nil {
		s.fabric.close()
	}
}

// trainRows is the number of training rows one fit consumes.
func (s *session) trainRows() int {
	if s.w.e2e {
		return s.w.e2eIters * s.opts.Batch
	}
	return (s.opts.Clients*s.opts.AEIters + s.opts.DiffIters) * s.opts.Batch
}

// fit trains a fresh model through the public API and times the call. The
// first model fitted becomes the session's reference model.
func (s *session) fit() (opResult, error) {
	res := opResult{rows: s.trainRows()}
	if s.w.e2e {
		before := s.fabric.Stats().Bytes
		t0 := time.Now()
		p, err := silo.NewE2EPipeline(s.fabric.bus, s.table, pipelineConfig(s.opts))
		if err != nil {
			return res, err
		}
		res.loss, err = p.Train(s.w.e2eIters)
		res.wall = time.Since(t0)
		if err != nil {
			return res, err
		}
		res.wire = s.fabric.Stats().Bytes - before
		res.print = math.Float64bits(res.loss)
		if s.pipe == nil {
			s.pipe = p
		}
		return res, nil
	}
	m := core.NewSiloFuse(s.opts)
	t0 := time.Now()
	err := m.Fit(s.table)
	res.wall = time.Since(t0)
	if err != nil {
		return res, err
	}
	res.wire = m.CommStats().Bytes
	res.save = m.Save
	if s.model == nil {
		s.model = m
	}
	return res, nil
}

// request draws n rows from the reference model and times the call.
func (s *session) request(n int) (opResult, error) {
	res := opResult{rows: n}
	var err error
	before := s.busBytes()
	t0 := time.Now()
	if s.w.e2e {
		res.table, err = s.pipe.Synthesize(n, s.opts.DecodeSampling)
	} else {
		res.table, err = s.model.Sample(n)
	}
	res.wall = time.Since(t0)
	if err != nil {
		return res, err
	}
	res.wire = s.busBytes() - before
	res.print = tableHash(res.table)
	return res, nil
}

func (s *session) busBytes() int64 {
	if s.w.e2e {
		return s.fabric.Stats().Bytes
	}
	return s.model.CommStats().Bytes
}

// stateHash fingerprints whatever save writes: two fits with equal hashes
// ended in the same weights, which is a stronger statement than equal losses.
func stateHash(save func(io.Writer) error) (uint64, error) {
	h := fnv.New64a()
	if err := save(h); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

// tableHash fingerprints the exact bits of every cell.
func tableHash(t *tabular.Table) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range t.Data.Data {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// tcpFabric is a loopback hub with one dialled peer per client, routed per
// party as cmd/silofuse-demo does: a client's traffic goes through its own
// socket, the coordinator's through the hub. It implements silo.Bus, and
// Stats adds up what every endpoint measured on its socket.
type tcpFabric struct {
	hub   *silo.TCPHub
	peers map[string]*silo.TCPPeer
	bus   *silo.CodecBus // the fabric under a wire codec
}

func dialFabric(clients int, id codec.ID) (*tcpFabric, error) {
	hub, err := silo.NewTCPHub("coord", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &tcpFabric{hub: hub, peers: make(map[string]*silo.TCPPeer, clients)}
	for i := 0; i < clients; i++ {
		name := fmt.Sprintf("c%d", i)
		p, err := silo.DialHub(name, hub.Addr())
		if err != nil {
			f.close()
			return nil, err
		}
		f.peers[name] = p
	}
	f.bus = silo.NewCodecBus(f, id)
	return f, nil
}

func (f *tcpFabric) Send(e *silo.Envelope) error {
	if p, ok := f.peers[e.From]; ok {
		return p.Send(e)
	}
	return f.hub.Send(e)
}

func (f *tcpFabric) Recv(to string) (*silo.Envelope, error) {
	if p, ok := f.peers[to]; ok {
		return p.Recv(to)
	}
	return f.hub.Recv(to)
}

func (f *tcpFabric) Stats() silo.Stats {
	total := silo.Stats{ByKind: make(map[silo.Kind]int64)}
	add := func(st silo.Stats) {
		total.Messages += st.Messages
		total.Bytes += st.Bytes
		for k, v := range st.ByKind {
			total.ByKind[k] += v
		}
	}
	add(f.hub.Stats())
	for _, p := range f.peers {
		add(p.Stats())
	}
	return total
}

func (f *tcpFabric) close() {
	for _, p := range f.peers {
		p.Close()
	}
	f.hub.Close()
}
