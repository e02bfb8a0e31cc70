// Package silofuse is the public API of this repository: a from-scratch Go
// implementation of "SiloFuse: Cross-silo Synthetic Data Generation with
// Latent Tabular Diffusion Models" (ICDE 2024).
//
// SiloFuse synthesises tabular data whose features are vertically
// partitioned across silos. Each client trains a private autoencoder over
// its own features; latent embeddings are uploaded to a coordinator once
// (stacked training, one communication round); the coordinator trains a
// Gaussian diffusion model over the concatenated latents; synthesis samples
// fresh latents that each client decodes locally, optionally keeping the
// synthetic features vertically partitioned.
//
// The package re-exports the data model (schemas, tables, encodings), the
// synthesizer zoo (SiloFuse plus the paper's six baselines), the benchmark
// framework (resemblance, utility, privacy attacks), the nine simulated
// benchmark datasets, and the cross-silo transport fabric. See README.md
// for a tour and DESIGN.md for the architecture.
package silofuse

import (
	"silofuse/internal/autoencoder"
	"silofuse/internal/core"
	"silofuse/internal/datagen"
	"silofuse/internal/diffusion"
	"silofuse/internal/experiments"
	"silofuse/internal/metrics"
	"silofuse/internal/nn"
	"silofuse/internal/obs"
	"silofuse/internal/privacy"
	"silofuse/internal/silo"
	"silofuse/internal/silo/codec"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// Data model.
type (
	// Matrix is the dense float64 matrix underlying tables and latents.
	Matrix = tensor.Matrix
	// Schema describes a mixed-type table layout.
	Schema = tabular.Schema
	// Column is one schema column (numeric or categorical).
	Column = tabular.Column
	// Kind distinguishes numeric from categorical columns.
	Kind = tabular.Kind
	// Table is a schema plus raw data.
	Table = tabular.Table
	// Encoder standardises numeric columns and one-hot encodes categorical
	// ones.
	Encoder = tabular.Encoder
)

// Column kinds.
const (
	Numeric     = tabular.Numeric
	Categorical = tabular.Categorical
)

// NewMatrix allocates a zero matrix.
var NewMatrix = tensor.New

// MatrixFromSlice wraps a flat row-major slice as a matrix.
var MatrixFromSlice = tensor.FromSlice

// MatrixFromRows copies row slices into a matrix.
var MatrixFromRows = tensor.FromRows

// NewSchema validates and builds a schema.
var NewSchema = tabular.NewSchema

// MustSchema is NewSchema that panics on invalid input.
var MustSchema = tabular.MustSchema

// NewTable validates data against a schema.
var NewTable = tabular.NewTable

// NewEncoder fits a feature encoder on a table.
var NewEncoder = tabular.NewEncoder

// ReadCSV loads a table in this package's CSV format.
var ReadCSV = tabular.ReadCSV

// JoinVertical re-assembles vertically partitioned tables.
var JoinVertical = tabular.JoinVertical

// Synthesizers.
type (
	// Synthesizer is the common fit/sample interface of every model.
	Synthesizer = core.Synthesizer
	// Options carries model hyper-parameters; start from DefaultOptions.
	Options = core.Options
	// SiloFuseModel is the paper's contribution (also covers LatentDiff).
	SiloFuseModel = core.SiloFuse
	// TabDDPMModel is the centralized one-hot-space diffusion baseline.
	TabDDPMModel = core.TabDDPM
	// E2EModel is the end-to-end (joint) training baseline.
	E2EModel = core.E2E
	// GANModel covers the GAN(linear) and GAN(conv) baselines.
	GANModel = core.GANModel
)

// DefaultOptions returns CPU-scaled hyper-parameters preserving the paper's
// architecture shape.
var DefaultOptions = core.DefaultOptions

// FastOptions returns reduced settings for quick experiments.
var FastOptions = core.FastOptions

// NewSiloFuse builds the cross-silo synthesizer.
var NewSiloFuse = core.NewSiloFuse

// NewLatentDiff builds the centralized latent-diffusion baseline.
var NewLatentDiff = core.NewLatentDiff

// NewTabDDPM builds the TabDDPM baseline.
var NewTabDDPM = core.NewTabDDPM

// NewE2E builds the centralized end-to-end baseline.
var NewE2E = core.NewE2E

// NewE2EDistr builds the distributed end-to-end baseline.
var NewE2EDistr = core.NewE2EDistr

// NewGANLinear builds the CTGAN-flavoured baseline.
var NewGANLinear = core.NewGANLinear

// NewGANConv builds the CTAB-GAN-flavoured baseline.
var NewGANConv = core.NewGANConv

// NewSynthesizer constructs any model by registry name ("silofuse",
// "latentdiff", "tabddpm", "e2e", "e2edistr", "gan-linear", "gan-conv").
var NewSynthesizer = core.New

// SynthesizerNames lists the registry names in the paper's table order.
var SynthesizerNames = core.ModelNames

// Benchmark datasets.
type (
	// DatasetSpec describes one simulated benchmark dataset (Table II).
	DatasetSpec = datagen.Spec
)

// Datasets lists the nine benchmark dataset specs.
var Datasets = datagen.All

// DatasetByName looks up a benchmark dataset spec.
var DatasetByName = datagen.ByName

// DatasetNames lists the nine dataset names.
var DatasetNames = datagen.Names

// Evaluation framework.
type (
	// ResemblanceReport holds the five-component resemblance score.
	ResemblanceReport = metrics.ResemblanceReport
	// ResemblanceConfig tunes resemblance computation.
	ResemblanceConfig = metrics.ResemblanceConfig
	// UtilityReport holds the downstream-utility score.
	UtilityReport = metrics.UtilityReport
	// UtilityConfig tunes the utility evaluation.
	UtilityConfig = metrics.UtilityConfig
	// PrivacyReport holds the three attack-resistance scores.
	PrivacyReport = privacy.Report
	// PrivacyConfig tunes the privacy attack suite.
	PrivacyConfig = privacy.Config
)

// Resemblance scores how closely synthetic data matches real data (0-100).
var Resemblance = metrics.Resemblance

// DefaultResemblanceConfig returns the harness resemblance settings.
var DefaultResemblanceConfig = metrics.DefaultResemblanceConfig

// Utility scores train-on-synthetic / test-on-real performance (0-100).
var Utility = metrics.Utility

// DefaultUtilityConfig returns the harness utility settings.
var DefaultUtilityConfig = metrics.DefaultUtilityConfig

// EvaluatePrivacy runs the singling-out, linkability and attribute-
// inference attacks (higher = more resistant).
var EvaluatePrivacy = privacy.Evaluate

// DefaultPrivacyConfig returns the harness privacy settings.
var DefaultPrivacyConfig = privacy.DefaultConfig

// AssociationMatrix computes the mixed-type association matrix.
var AssociationMatrix = metrics.AssociationMatrix

// AssociationDifference computes the Table V correlation-difference map.
var AssociationDifference = metrics.AssociationDifference

// Cross-silo fabric (for advanced use: custom transports, real TCP
// deployments, explicit partition control).
type (
	// Bus moves protocol messages between parties with byte accounting.
	Bus = silo.Bus
	// Envelope is one protocol message.
	Envelope = silo.Envelope
	// TransportStats aggregates transport traffic.
	TransportStats = silo.Stats
	// Pipeline runs stacked training / distributed synthesis over a Bus.
	Pipeline = silo.Pipeline
	// PipelineConfig configures a Pipeline.
	PipelineConfig = silo.PipelineConfig
	// AutoencoderConfig configures the per-client autoencoders.
	AutoencoderConfig = autoencoder.Config
	// DiffusionConfig configures the coordinator's DDPM backbone.
	DiffusionConfig = diffusion.ModelConfig
	// E2EPipeline is the end-to-end split-learning baseline pipeline.
	E2EPipeline = silo.E2EPipeline
	// Client is one silo actor.
	Client = silo.Client
	// Coordinator is the diffusion-backbone actor.
	Coordinator = silo.Coordinator
	// TCPHub is the coordinator-side TCP transport.
	TCPHub = silo.TCPHub
	// TCPPeer is the client-side TCP transport.
	TCPPeer = silo.TCPPeer
	// VFLClassifier models downstream tasks on vertically partitioned data
	// via split learning — the companion to partitioned synthesis.
	VFLClassifier = silo.VFLClassifier
	// VFLConfig configures a VFLClassifier.
	VFLConfig = silo.VFLConfig
	// ChaosBus injects deterministic seeded transport faults for testing.
	ChaosBus = silo.ChaosBus
	// ChaosProfile selects which fault classes a ChaosBus injects.
	ChaosProfile = silo.ChaosProfile
	// ChaosStats counts the faults a ChaosBus actually injected.
	ChaosStats = silo.ChaosStats
	// ResilientBus wraps a Bus and checks each link's sequence numbers and
	// payload checksums.
	ResilientBus = silo.ResilientBus
	// CodecBus frames dense tensor payloads through a precision-tiered wire
	// codec (f64 lossless, f32, q8) with per-kind bytes-vs-error accounting.
	CodecBus = silo.CodecBus
	// WireCodec identifies a precision tier of the wire codec.
	WireCodec = codec.ID
	// WireKindStats is one kind's bytes-vs-error record under a wire codec.
	WireKindStats = silo.WireKindStats
	// PeerDeadError reports which peer died; it unwraps to ErrPeerDead.
	PeerDeadError = silo.PeerDeadError
)

// Typed failures of the fault-tolerant bus stack and of loading a model.
var (
	// ErrPeerDead marks a party as unreachable: its stream ended or a send
	// to it failed.
	ErrPeerDead = silo.ErrPeerDead
	// ErrCorruptPayload marks a payload that failed its checksum.
	ErrCorruptPayload = silo.ErrCorruptPayload
	// ErrCheckpoint marks a model file or checkpoint Load refused (format, shapes, length).
	ErrCheckpoint = nn.ErrCheckpoint
)

// NewLocalBus builds the in-process transport.
var NewLocalBus = silo.NewLocalBus

// NewPipeline builds a stacked-training pipeline over a Bus.
var NewPipeline = silo.NewPipeline

// NewE2EPipeline builds the end-to-end baseline pipeline.
var NewE2EPipeline = silo.NewE2EPipeline

// NewTCPHub starts the coordinator-side TCP transport.
var NewTCPHub = silo.NewTCPHub

// DialHub connects a client-side TCP transport to a hub.
var DialHub = silo.DialHub

// NewVFLClassifier builds a split-learning classifier over feature
// partitions.
var NewVFLClassifier = silo.NewVFLClassifier

// NewChaosBus wraps a Bus with a deterministic seeded fault injector.
var NewChaosBus = silo.NewChaosBus

// ChaosProfileByName resolves a named fault profile (corrupt, blackhole;
// "none" or "" disables).
var ChaosProfileByName = silo.ChaosProfileByName

// NewResilientBus wraps a Bus with checked delivery: per-link sequence
// numbers and payload checksums.
func NewResilientBus(inner Bus) *ResilientBus {
	return silo.NewResilientBus(inner, silo.ResilientConfig{})
}

// NewCodecBus wraps a Bus with precision-tiered tensor payload framing.
var NewCodecBus = silo.NewCodecBus

// WireCodecByName resolves a wire codec name: "" or "f64" (lossless
// default), "f32" or "q8".
var WireCodecByName = codec.ByName

// WireReportKinds lists a wire report's framed kinds in sorted order.
var WireReportKinds = silo.WireReportKinds

// Observability: pure-stdlib metrics, trace spans, and run manifests. Attach
// a Recorder via Options.Recorder (or Pipeline.SetRecorder) to collect
// per-step training telemetry, per-kind transport counters and phase spans;
// a nil Recorder disables everything at near-zero cost.
type (
	// Recorder bundles a metrics registry and a tracer; nil-safe throughout.
	Recorder = obs.Recorder
	// MetricsRegistry holds named counters, gauges and histograms.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of a registry.
	MetricsSnapshot = obs.Snapshot
	// Tracer records hierarchical spans exportable as Chrome trace JSON.
	Tracer = obs.Tracer
	// TraceSpan is one span handle; nil-safe for disabled tracing.
	TraceSpan = obs.Span
	// RunManifest is the machine-readable per-run record
	// (results/<run>/manifest.json).
	RunManifest = experiments.Manifest
	// RuntimeInfo pins the toolchain and machine a run executed on.
	RuntimeInfo = experiments.RuntimeInfo
	// FlightRecorder is the fixed-capacity ring of recent operations dumped
	// as a postmortem when a run dies.
	FlightRecorder = obs.FlightRecorder
	// FlightEntry is one recorded flight-recorder operation.
	FlightEntry = obs.FlightEntry
	// PostmortemDump is the on-disk schema of a flight-recorder dump.
	PostmortemDump = obs.PostmortemDump
)

// NewRecorder builds an enabled Recorder with a fresh registry and tracer.
var NewRecorder = obs.NewRecorder

// NewPartyRecorder builds a per-party recorder for a multi-actor run: a
// shared registry, a private tracer on its own Chrome-trace process lane.
var NewPartyRecorder = obs.NewPartyRecorder

// NewMetricsRegistry builds an empty metrics registry.
var NewMetricsRegistry = obs.NewRegistry

// NewTracer builds an empty tracer.
var NewTracer = obs.NewTracer

// MergeChromeTraces stitches per-process Chrome traces into one timeline.
var MergeChromeTraces = obs.MergeChromeTraces

// NewRunManifest starts a run manifest.
var NewRunManifest = experiments.NewManifest

// CurrentRuntime captures this process's RuntimeInfo.
var CurrentRuntime = experiments.CurrentRuntime

// NewFlightRecorder preallocates a flight-recorder ring (default capacity
// when given a non-positive one).
var NewFlightRecorder = obs.NewFlightRecorder

// DumpPostmortem writes runDir/postmortem/<party>.json from a party's
// flight-recorder ring.
var DumpPostmortem = obs.DumpPostmortem
