// Command silofuse-demo runs the full cross-silo protocol over real TCP
// sockets on loopback: a coordinator hub and M client peers exchange the
// stacked-training and distributed-synthesis messages of Algorithms 1 and 2,
// and the demo prints the measured wire traffic — demonstrating that
// SiloFuse's single communication round is a property of the protocol, not
// of an in-process simulation.
//
// With telemetry enabled the demo is also the distributed-observability
// showcase: every party (the coordinator and each silo) records on its own
// trace lane, message envelopes carry trace context across the sockets, and
// -trace merges everything into one Chrome-trace JSON whose process lanes
// share a single timeline with send→recv flow arrows between them.
//
// -chaos-profile injects seeded faults under the checked-delivery layer:
// corrupt flips a payload bit that the checksum refuses (ErrCorruptPayload);
// blackhole drops every send, and the first drop ends the run (ErrPeerDead).
// The run's last line counts the faults injected, whether it succeeded or
// not. Every party also keeps a flight recorder (a fixed-size ring of
// recent operations); when a typed transport error ends the run, the rings
// are dumped to results/<run>/postmortem/<party>.json for offline analysis
// with silofuse-obs.
//
// Usage:
//
//	silofuse-demo -dataset loan -clients 3 -rows 600
//	silofuse-demo -clients 3 -trace demo.json -run demo
//	silofuse-demo -clients 2 -run crash -chaos-profile blackhole
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"silofuse"
)

// config collects the parsed CLI flags.
type config struct {
	dataset            string
	clients            int
	rows, synth, iters int
	tracePath          string
	runName            string
	chaosProfile       string
	chaosSeed          int64
	wireCodec          string
	computePrecision   string
}

func main() {
	var c config
	flag.StringVar(&c.dataset, "dataset", "loan", "benchmark dataset name")
	flag.IntVar(&c.clients, "clients", 3, "number of client silos")
	flag.IntVar(&c.rows, "rows", 600, "training rows")
	flag.IntVar(&c.synth, "synth", 100, "synthetic rows to generate")
	flag.IntVar(&c.iters, "iters", 300, "training iterations per phase")
	flag.StringVar(&c.tracePath, "trace", "", "write a merged Chrome-trace JSON (one process lane per party) to this path")
	flag.StringVar(&c.runName, "run", "", "write results/<run>/manifest.json, and results/<run>/postmortem/ if a transport failure ends the run")
	flag.StringVar(&c.chaosProfile, "chaos-profile", "", "inject transport faults on top of the TCP links: corrupt, blackhole (empty disables)")
	flag.Int64Var(&c.chaosSeed, "chaos-seed", 1, "seed of the deterministic fault schedule (with -chaos-profile)")
	flag.StringVar(&c.wireCodec, "wire-codec", "f64", "precision tier framing tensor payloads on the wire: f64 (lossless), f32, q8")
	flag.StringVar(&c.computePrecision, "compute-precision", "f64", "kernel precision for sampling and decode (training is always f64): f64 or f32")
	flag.Parse()

	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(c config) error {
	spec, err := silofuse.DatasetByName(c.dataset)
	if err != nil {
		return err
	}
	train := spec.Generate(c.rows, 1)

	// One recorder per party over a shared registry: metrics aggregate under
	// their canonical names while each party keeps a private trace lane.
	var coordRec *silofuse.Recorder
	var clientRecs []*silofuse.Recorder
	flights := map[string]*silofuse.FlightRecorder{}
	telemetry := c.tracePath != "" || c.runName != ""
	if telemetry {
		reg := silofuse.NewMetricsRegistry()
		coordRec = silofuse.NewPartyRecorder(reg, 1, "coord")
		flights["coord"] = silofuse.NewFlightRecorder(0)
		coordRec.SetFlight(flights["coord"])
		clientRecs = make([]*silofuse.Recorder, c.clients)
		for i := range clientRecs {
			name := fmt.Sprintf("c%d", i)
			clientRecs[i] = silofuse.NewPartyRecorder(reg, 2+i, name)
			flights[name] = silofuse.NewFlightRecorder(0)
			clientRecs[i].SetFlight(flights[name])
		}
	}
	hub, err := silofuse.NewTCPHub("coord", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer hub.Close()
	hub.SetRecorder(coordRec)
	fmt.Printf("coordinator hub listening on %s\n", hub.Addr())

	peers := make(map[string]*silofuse.TCPPeer, c.clients)
	for i := 0; i < c.clients; i++ {
		name := fmt.Sprintf("c%d", i)
		p, err := silofuse.DialHub(name, hub.Addr())
		if err != nil {
			return err
		}
		defer p.Close()
		if clientRecs != nil {
			p.SetRecorder(clientRecs[i])
		}
		peers[name] = p
		fmt.Printf("client %s connected\n", name)
	}

	// With a chaos profile the routed TCP bus gains the same fault-injection
	// and checked-delivery stack the in-process runs use: a seeded ChaosBus
	// under a ResilientBus (sequence and checksum checks). A corrupt payload
	// ends the run with ErrCorruptPayload and a drop with ErrPeerDead. The
	// CodecBus tops the stack either way, framing tensor payloads at the
	// selected precision tier so every layer below moves the encoded blob.
	var bus silofuse.Bus = &routedBus{hub: hub, peers: peers}
	if c.chaosProfile != "" && c.chaosProfile != "none" {
		prof, err := silofuse.ChaosProfileByName(c.chaosProfile)
		if err != nil {
			return err
		}
		chaos := silofuse.NewChaosBus(bus, c.chaosSeed, prof)
		bus = silofuse.NewResilientBus(chaos)
		fmt.Printf("chaos profile %q active (seed %d)\n", c.chaosProfile, c.chaosSeed)
		defer func() {
			fs := chaos.FaultStats()
			fmt.Printf("chaos injected %d drops, %d corrupts\n", fs.Drops, fs.Corrupts)
		}()
	}
	codecID, err := silofuse.WireCodecByName(c.wireCodec)
	if err != nil {
		return err
	}
	wire := silofuse.NewCodecBus(bus, codecID)
	bus = wire
	fmt.Printf("wire codec %s framing tensor payloads\n", codecID)
	opts := silofuse.FastOptions()
	opts.AEIters = c.iters
	opts.DiffIters = c.iters
	if c.computePrecision != "f64" && c.computePrecision != "f32" {
		return fmt.Errorf("unknown compute precision %q (want f64 or f32)", c.computePrecision)
	}
	if c.computePrecision == "f32" {
		fmt.Printf("compute precision f32: sampling and decode on the reduced-precision kernels\n")
	}
	cfg := silofuse.PipelineConfig{
		Clients: c.clients,
		AE: silofuse.AutoencoderConfig{
			Hidden: opts.AEHidden, Embed: opts.AEEmbed, LR: opts.LR,
			DecodePrecision: c.computePrecision,
		},
		Diff: silofuse.DiffusionConfig{
			Hidden: opts.DiffHidden, Depth: opts.DiffDepth, TimeDim: opts.DiffTimeDim,
			T: opts.T, LR: opts.LR, Dropout: 0.01, Precision: c.computePrecision,
		},
		AEIters:    opts.AEIters,
		DiffIters:  opts.DiffIters,
		Batch:      opts.Batch,
		SynthSteps: opts.SynthSteps,
		Seed:       1,
	}
	pipe, err := silofuse.NewPipeline(bus, train, cfg)
	if err != nil {
		return err
	}
	if telemetry {
		if err := pipe.SetPartyRecorders(coordRec, clientRecs); err != nil {
			return err
		}
	}

	fmt.Printf("\n== Algorithm 1: stacked training (%d AE iters, %d DDPM iters) ==\n", cfg.AEIters, cfg.DiffIters)
	aeLoss, diffLoss, err := pipe.TrainStacked()
	if err != nil {
		return dumpCrash(c, flights, err)
	}
	fmt.Printf("autoencoder NLL %.4f, diffusion MSE %.4f\n", aeLoss, diffLoss)
	fmt.Printf("wire bytes after training: %d (one latent upload per client)\n", totalBytes(hub, peers))

	fmt.Printf("\n== Algorithm 2: distributed synthesis (%d rows) ==\n", c.synth)
	parts, err := pipe.SynthesizePartitioned(0, c.synth, true)
	if err != nil {
		return dumpCrash(c, flights, err)
	}
	for i, p := range parts {
		fmt.Printf("client c%d holds synthetic partition: %d rows x %d features\n", i, p.Rows(), p.Schema.NumColumns())
	}
	fmt.Printf("wire bytes after synthesis: %d\n", totalBytes(hub, peers))
	wrep := wire.WireReport()
	for _, kind := range silofuse.WireReportKinds(wrep) {
		ws := wrep[kind]
		fmt.Printf("wire codec %s %s: %d msgs, %d -> %d B (max err %.3g)\n",
			ws.Codec, kind, ws.Messages, ws.RawBytes, ws.Bytes, ws.MaxErr)
	}

	joined, err := silofuse.JoinVertical(pipe.Schema, pipe.Parts, parts)
	if err != nil {
		return err
	}
	rep, err := silofuse.Resemblance(train, joined, silofuse.DefaultResemblanceConfig())
	if err != nil {
		return err
	}
	fmt.Printf("\njoined synthetic resemblance: %.1f/100\n", rep.Score)
	return writeTelemetry(c, hub, peers, coordRec, clientRecs, rep.Score)
}

// dumpCrash writes every party's flight-recorder ring to
// results/<run>/postmortem/<party>.json when a typed transport failure
// (a dead peer, a corrupt payload) ends the run, then returns the original
// error. Untyped errors and runs without -run
// pass through untouched.
func dumpCrash(c config, flights map[string]*silofuse.FlightRecorder, err error) error {
	if c.runName == "" || len(flights) == 0 ||
		!(errors.Is(err, silofuse.ErrPeerDead) || errors.Is(err, silofuse.ErrCorruptPayload)) {
		return err
	}
	parties := make([]string, 0, len(flights))
	for p := range flights {
		parties = append(parties, p)
	}
	sort.Strings(parties)
	dir := filepath.Join("results", c.runName)
	for _, party := range parties {
		path, derr := silofuse.DumpPostmortem(dir, party, flights[party], err)
		if derr != nil {
			fmt.Fprintln(os.Stderr, derr)
			continue
		}
		fmt.Printf("wrote postmortem %s\n", path)
	}
	return err
}

// writeTelemetry emits the merged trace and run manifest once the protocol
// has finished.
func writeTelemetry(c config, hub *silofuse.TCPHub, peers map[string]*silofuse.TCPPeer,
	coordRec *silofuse.Recorder, clientRecs []*silofuse.Recorder, resemblance float64) error {
	if coordRec == nil {
		return nil
	}
	if c.tracePath != "" {
		// Each party exports its own Chrome trace (as separate processes
		// would); the merge aligns them onto one timeline with a process
		// lane per party, stitched by the envelope flow ids.
		var docs []io.Reader
		for _, r := range append([]*silofuse.Recorder{coordRec}, clientRecs...) {
			var buf bytes.Buffer
			if err := r.Trace.WriteChromeTrace(&buf); err != nil {
				return err
			}
			docs = append(docs, &buf)
		}
		f, err := os.Create(c.tracePath)
		if err != nil {
			return err
		}
		if err := silofuse.MergeChromeTraces(f, docs...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote merged trace %s (%d process lanes)\n", c.tracePath, 1+len(clientRecs))
	}
	if c.runName != "" {
		man := silofuse.NewRunManifest(c.runName, 1)
		man.Config["dataset"] = c.dataset
		man.Config["clients"] = c.clients
		man.Config["train_rows"] = c.rows
		man.Config["synth_rows"] = c.synth
		man.Config["iters"] = c.iters
		man.Config["transport"] = "tcp"
		man.FinalMetrics["resemblance"] = resemblance
		// The registry is shared across parties, so one recorder carries the
		// complete metric snapshot and wire counters; per-link byte
		// breakdowns come from each endpoint's own measured stats.
		man.FromRecorder(coordRec)
		man.FromStats(hub.Stats())
		for _, p := range peers {
			man.FromStats(p.Stats())
		}
		dir := filepath.Join("results", c.runName)
		if err := man.Write(dir); err != nil {
			return err
		}
		fmt.Printf("wrote manifest %s\n", filepath.Join(dir, "manifest.json"))
	}
	return nil
}

// totalBytes sums measured wire bytes across the hub and every peer (each
// endpoint counts only what it writes to its socket).
func totalBytes(hub *silofuse.TCPHub, peers map[string]*silofuse.TCPPeer) int64 {
	total := hub.Stats().Bytes
	for _, p := range peers {
		total += p.Stats().Bytes
	}
	return total
}

// routedBus routes each party's traffic through its own TCP endpoint.
type routedBus struct {
	hub   *silofuse.TCPHub
	peers map[string]*silofuse.TCPPeer
}

func (r *routedBus) Send(e *silofuse.Envelope) error {
	if p, ok := r.peers[e.From]; ok {
		return p.Send(e)
	}
	return r.hub.Send(e)
}

func (r *routedBus) Recv(to string) (*silofuse.Envelope, error) {
	if p, ok := r.peers[to]; ok {
		return p.Recv(to)
	}
	return r.hub.Recv(to)
}

func (r *routedBus) Stats() silofuse.TransportStats { return r.hub.Stats() }
