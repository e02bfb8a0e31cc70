GO ?= go
BENCHFLAGS ?= -benchmem

.PHONY: build vet lint lint-fixtures test test-purego cross-arm64 test-chaos race fuzz-smoke ci bench bench-kernels bench-layout codec-smoke obs-smoke experiments-smoke profile

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the repo's own analyzers (silofuse-vet: maprange, floateq,
# precisioncast) plus go vet and a gofmt check. The tree must stay clean:
# silofuse-vet exits nonzero on any finding, and unformatted files fail the
# gofmt step. The greps keep three imports out of the module, each with its
# reason beside it.
# Determinism, allocation-free kernels and lock discipline are not lint's:
# the fingerprint oracle, the AllocsPerRun pins and `make race` hold them.
lint:
	$(GO) run ./cmd/silofuse-vet .
	$(GO) vet ./...
	@! grep -rn '"encoding/gob"' --include='*.go' . || { echo "encoding/gob: frames (internal/silo/frame.go) and checkpoints (internal/nn/checkpoint.go) are the two formats this module speaks"; exit 1; }
	@! grep -rnE '"net/http(/[a-z]+)?"' --include='*.go' . || { echo "net/http: a run is read from the files it leaves (-trace, results/<run>/manifest.json, results/<run>/postmortem/); nothing is served live"; exit 1; }
	@! grep -rn 'internal/obs/profile"' --include='*.go' . || { echo "internal/obs/profile: go tool pprof reads profiles; the in-repo decoder and phase profiler were deleted"; exit 1; }
	@unformatted=$$(gofmt -l . | grep -v testdata); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

# lint-fixtures runs only the `// want` fixture harness: every analyzer's
# expectations under internal/analysis/testdata, without loading the whole
# module tree. CI runs it ahead of the full lint so a broken analyzer fails
# on its own fixtures (seconds) before the self-check over the repo.
lint-fixtures:
	$(GO) test -run 'TestFixtures' -count=1 ./internal/analysis/

test:
	$(GO) test ./...

# test-purego reruns the kernel packages and the two model packages on top of
# them with -tags purego, which swaps the assembly kernels (the AVX-512
# register tile and lane-wise erf/exp/GELU/Adam, the AVX2 axpy) for the Go
# loops every non-amd64 build uses: the fallback is the reference the assembly is tested against, so it
# must pass the same bit-identity and AllocsPerRun pins
# — and reproduce the whole-fit weight and sampled-table hashes of core's
# fingerprint oracle.
test-purego:
	$(GO) test -tags purego -count=1 ./internal/tensor/ ./internal/nn/ ./internal/diffusion/ ./internal/autoencoder/
	$(GO) test -tags purego -count=1 -run 'FitFingerprintOracle' ./internal/core/

# cross-arm64 proves the tree builds, and the tensor package vets, for an
# architecture that has no assembly file (build-tag or declaration drift
# between axpy_amd64.go / vmath_amd64.go and axpy_generic.go shows here).
cross-arm64:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/

# test-chaos runs the deterministic fault-injection suite under the race
# detector: the fault-free resilient stack, bit-identical to a bare run and
# 16 frame bytes dearer a message, against stacked training and synthesis,
# plain and codec-framed, against VFL's split-learning traffic and against
# E2EDistr's concurrent parties; and the faults that must fail typed
# (corrupt payloads, a repeated, skipped or missing sequence number, a
# blackholed link, a TCP peer whose socket is gone: ErrCorruptPayload or
# ErrPeerDead, with or without the resilient layer, never a hang).
test-chaos:
	$(GO) test -race -timeout 20m -run 'Chaos|Resilient|TCPDeadPeer' -count=1 ./internal/silo/

# The transport and telemetry layers are exercised under the race detector;
# the silo package trains real models, so give it a generous timeout. The
# tensor package is included because its worker pool is the one piece of
# hand-rolled concurrency under every training loop, and nn because a
# training step hands its dropout masks to that pool from another goroutine
# while the products run; core and experiments ride along because they drive
# the concurrent protocols end to end. The
# detector instruments Go code only: it does not see the loads and stores of
# the tile, axpy and lane-kernel assembly, so a race on a matrix that only those kernels
# touch goes unreported here; `go test -race -tags purego` covers the same kernels
# as instrumented Go loops. E2EDistr's parties run on goroutines of their own
# and meet at handshakes, which must not deadlock when only one P runs them:
# their tests run again at -cpu 1,2.
race:
	$(GO) test -race -timeout 30m ./internal/silo/... ./internal/obs/... ./internal/tensor/... ./internal/nn/... ./internal/core/... ./internal/experiments/... ./internal/diffusion/...
	$(GO) test -race -timeout 10m -cpu 1,2 -count=1 -run 'E2E' ./internal/silo/

# fuzz-smoke runs the three decoders of outside bytes against mutated input
# for a fixed short budget each. The wire decoder on frames: malformed input
# must come back as ErrCorruptPayload. The codec decoder on tensor bodies —
# dense, row dictionary and Huffman-coded: a refusal allocates no more than
# the body a coded blob stands for (eight bytes per blob byte, a bit per
# symbol) and a hash table of its rows, an accepted body no more than its
# dense expansion on top. The one checkpoint loader (stacked) on streams,
# seeded with SaveState's stream, with whitening on and off, and with copies
# under the retired E2E and VFL kind bytes: a refusal must wrap
# nn.ErrCheckpoint and allocate no more than a valid stream does. All: never a panic, and whatever decodes must re-encode
# to the bytes it was read from. The checkpoint loader gets 20 s: replaying
# its seeds for baseline coverage (each is loaded into two fits) takes about
# 6 s before any mutation starts.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzFrameDecode -fuzztime 10s ./internal/silo/
	$(GO) test -run '^$$' -fuzz FuzzCodecDecode -fuzztime 10s ./internal/silo/codec/
	$(GO) test -run '^$$' -fuzz FuzzCheckpointLoad -fuzztime 20s ./internal/silo/

# codec-smoke exercises the precision-tiered wire codecs end to end:
#   1. an f32-codec + f32-compute run must complete and emit data (tolerance
#      bounds are pinned by the unit tests; this is the CLI path);
#   2. "none" is no longer a codec: there is one float encoding on the wire,
#      and asking for none must fail with codec.ByName's message;
#   3. the fig10x sweep must write a run manifest whose wire section
#      carries f32 and q8 accounting, with reconstruction errors recorded,
#      for both the latent path (silofuse) and activations/gradients (e2e);
#   4. a default silofuse run on adult, whose categorical-only silos upload
#      repeated latent rows, must show f64/latents bytes below raw_bytes in
#      its manifest: the row dictionary engages from the CLI;
#   5. so must a default run on abalone over two silos, each of which holds
#      continuous columns, so no two latent rows are equal and no dictionary
#      applies: only Huffman coding of the byte planes can make it true.
CODEC_SMOKE_DIR ?= /tmp/silofuse_codec_smoke
LATENTS_BELOW_RAW = awk '/"f64\/latents"/ { on = 1 } on && /"raw_bytes"/ { raw = $$2 + 0 } on && /"bytes"/ { sent = $$2 + 0; exit } \
	END { printf "codec-smoke: %s f64/latents %d of %d raw bytes\n", FILENAME, sent, raw; exit !(sent > 0 && sent < raw) }'
codec-smoke:
	rm -rf $(CODEC_SMOKE_DIR) && mkdir -p $(CODEC_SMOKE_DIR)
	$(GO) build -o $(CODEC_SMOKE_DIR)/silofuse-train ./cmd/silofuse-train
	$(GO) build -o $(CODEC_SMOKE_DIR)/silofuse-bench ./cmd/silofuse-bench
	cd $(CODEC_SMOKE_DIR) && ./silofuse-train -dataset abalone -clients 2 -train-rows 300 -iters 60 -rows 50 -wire-codec f32 -compute-precision f32 -out f32.csv
	test -s $(CODEC_SMOKE_DIR)/f32.csv
	cd $(CODEC_SMOKE_DIR) && if ./silofuse-train -dataset abalone -clients 2 -train-rows 300 -iters 60 -rows 50 -wire-codec none -out none.csv 2> none.err; then \
		echo "codec-smoke: -wire-codec none unexpectedly succeeded"; exit 1; fi
	grep -q 'unknown wire codec "none"' $(CODEC_SMOKE_DIR)/none.err
	cd $(CODEC_SMOKE_DIR) && ./silofuse-bench -exp fig10x -datasets abalone -rows 300 -scale fast -run codec
	grep -q '"f32/latents"' $(CODEC_SMOKE_DIR)/results/codec/manifest.json
	grep -q '"q8/activation"' $(CODEC_SMOKE_DIR)/results/codec/manifest.json
	grep -q '"max_err"' $(CODEC_SMOKE_DIR)/results/codec/manifest.json
	cd $(CODEC_SMOKE_DIR) && ./silofuse-train -dataset adult -train-rows 1000 -iters 30 -rows 50 -run adult -out adult.csv
	$(LATENTS_BELOW_RAW) $(CODEC_SMOKE_DIR)/results/adult/manifest.json
	cd $(CODEC_SMOKE_DIR) && ./silofuse-train -dataset abalone -clients 2 -train-rows 300 -iters 30 -rows 50 -run abalone -out abalone.csv
	$(LATENTS_BELOW_RAW) $(CODEC_SMOKE_DIR)/results/abalone/manifest.json

# obs-smoke exercises the fleet observability stack end to end:
#   1. a healthy demo run over the TCP hub must write a run manifest that
#      names the transport and carries the latent upload's measured bytes;
#   2. a blackhole-profile run, whose every send is dropped, must end at the
#      first drop with ErrPeerDead, exit non-zero, say on stdout that it
#      injected drops, and leave parseable flight-recorder postmortems for
#      every party;
#   3. silofuse-obs must read both records back: the healthy run's phase
#      rows from its manifest, and every party's cause from the postmortems.
OBS_SMOKE_DIR ?= /tmp/silofuse_obs_smoke
obs-smoke:
	rm -rf $(OBS_SMOKE_DIR) && mkdir -p $(OBS_SMOKE_DIR)
	$(GO) build -o $(OBS_SMOKE_DIR)/silofuse-demo ./cmd/silofuse-demo
	$(GO) build -o $(OBS_SMOKE_DIR)/silofuse-obs ./cmd/silofuse-obs
	cd $(OBS_SMOKE_DIR) && ./silofuse-demo -clients 2 -rows 200 -iters 40 -synth 40 -run fleet
	grep -q '"transport": "tcp"' $(OBS_SMOKE_DIR)/results/fleet/manifest.json
	grep -Eq '"latents": [1-9][0-9]*' $(OBS_SMOKE_DIR)/results/fleet/manifest.json
	cd $(OBS_SMOKE_DIR) && if ./silofuse-demo -clients 2 -rows 200 -iters 40 -synth 40 -run crash -chaos-profile blackhole > crash.out; then \
		echo "obs-smoke: crash run unexpectedly succeeded"; exit 1; fi
	grep -Eq '^chaos injected [1-9][0-9]* drops' $(OBS_SMOKE_DIR)/crash.out
	test -s $(OBS_SMOKE_DIR)/results/crash/postmortem/c1.json
	grep -q '"cause"' $(OBS_SMOKE_DIR)/results/crash/postmortem/c1.json
	grep -q '"cause"' $(OBS_SMOKE_DIR)/results/crash/postmortem/coord.json
	$(OBS_SMOKE_DIR)/silofuse-obs summary $(OBS_SMOKE_DIR)/results/fleet > $(OBS_SMOKE_DIR)/fleet.summary
	for phase in ae-train latent-ship diffusion-train synthesis; do \
		grep -Eq "^$$phase " $(OBS_SMOKE_DIR)/fleet.summary || { echo "obs-smoke: no $$phase row"; cat $(OBS_SMOKE_DIR)/fleet.summary; exit 1; }; done
	$(OBS_SMOKE_DIR)/silofuse-obs summary $(OBS_SMOKE_DIR)/results/crash > $(OBS_SMOKE_DIR)/crash.summary
	for party in coord c0 c1; do \
		grep -Eq "^$$party .* dead" $(OBS_SMOKE_DIR)/crash.summary || { echo "obs-smoke: no cause for $$party"; cat $(OBS_SMOKE_DIR)/crash.summary; exit 1; }; done

# experiments-smoke runs the experiment cell engine end to end from the CLI.
# Tables III, IV and VI on loan read 7 cells between them — Table VI scores
# three of Table III's fits — so the run must leave:
#   1. results/cells/cells.jsonl with 26 lines: resemblance and utility of
#      7 cells, the privacy composite and its three attacks of 3;
#   2. a merged trace with one process lane per cell;
#   3. a manifest whose phase table silofuse-obs prints.
EXPERIMENTS_SMOKE_DIR ?= /tmp/silofuse_experiments_smoke
experiments-smoke:
	rm -rf $(EXPERIMENTS_SMOKE_DIR) && mkdir -p $(EXPERIMENTS_SMOKE_DIR)
	$(GO) build -o $(EXPERIMENTS_SMOKE_DIR)/silofuse-bench ./cmd/silofuse-bench
	$(GO) build -o $(EXPERIMENTS_SMOKE_DIR)/silofuse-obs ./cmd/silofuse-obs
	cd $(EXPERIMENTS_SMOKE_DIR) && ./silofuse-bench -exp table3,table4,table6 -datasets loan -rows 300 -scale fast -run cells -trace cells.json
	test $$(wc -l < $(EXPERIMENTS_SMOKE_DIR)/results/cells/cells.jsonl) -eq 26
	test $$(grep -o '"process_name"' $(EXPERIMENTS_SMOKE_DIR)/cells.json | wc -l) -eq 7
	$(EXPERIMENTS_SMOKE_DIR)/silofuse-obs summary $(EXPERIMENTS_SMOKE_DIR)/results/cells > $(EXPERIMENTS_SMOKE_DIR)/cells.summary
	grep -Eq '^(ae-train|diffusion-train|synthesis) ' $(EXPERIMENTS_SMOKE_DIR)/cells.summary || { cat $(EXPERIMENTS_SMOKE_DIR)/cells.summary; exit 1; }

# bench-kernels runs the hot-path microbenchmarks (the axpy primitive as Go
# loop vs AVX2; BenchmarkMatMulShapes — GFLOP/s of the products the fits and
# the sampler run, per kernel tier, with a one-hot row where every tier must
# stay on the zero-skip path; BenchmarkDispatchOverhead — what a two-chunk pool
# dispatch costs beyond its chunks; BenchmarkElementwiseShapes — ns per element
# of the lane kernels per tier: GELU eval/keep/grad at the sampler's and the
# trainer's batch with synth_bulk's erf branch mix (printed with -v), a
# 2932-way softmax's exponentials, the Adam sweep at 65,536 and 1.5 M weights;
# tensor kernels, Linear forward/backward, diffusion
# train/sample steps, and BenchmarkAETrainStepWide — one autoencoder step on
# a single 2932-way column at batch 256, hidden 256, the straggler client of
# the churn fit) with allocation reporting.
# CI invokes it with BENCHFLAGS='-benchtime=1x' as a does-it-run smoke test;
# for real numbers use the default and prefer -count=8 medians on busy hosts.
bench-kernels:
	$(GO) test -run '^$$' -bench 'Axpy4|MatMul|Dispatch|Elementwise|Linear|TrainStep|SampleStep' $(BENCHFLAGS) ./internal/tensor/ ./internal/nn/ ./internal/diffusion/ ./internal/autoencoder/

# profile captures CPU and heap profiles from a fast fig10 bench run and reads
# the CPU profile back with `go tool pprof`, the only profile reader there is:
# its top table must name a frame of this module.
PROFILE_DIR ?= /tmp/silofuse_profile
profile:
	rm -rf $(PROFILE_DIR) && mkdir -p $(PROFILE_DIR)
	$(GO) build -o $(PROFILE_DIR)/silofuse-bench ./cmd/silofuse-bench
	cd $(PROFILE_DIR) && ./silofuse-bench -exp fig10 -datasets abalone -rows 2000 -scale fast -cpuprofile cpu.pprof -memprofile mem.pprof
	$(GO) tool pprof -top -nodecount=10 $(PROFILE_DIR)/silofuse-bench $(PROFILE_DIR)/cpu.pprof > $(PROFILE_DIR)/top.out
	cat $(PROFILE_DIR)/top.out
	grep -q 'silofuse/internal/' $(PROFILE_DIR)/top.out

ci:
	$(MAKE) lint-fixtures && $(MAKE) lint && $(GO) build ./... && $(GO) test ./... && $(MAKE) test-purego && $(MAKE) cross-arm64 && $(MAKE) race && $(MAKE) test-chaos && $(MAKE) fuzz-smoke && $(MAKE) codec-smoke && $(MAKE) obs-smoke && $(MAKE) experiments-smoke && $(MAKE) profile && $(MAKE) bench-kernels BENCHFLAGS='-benchtime=1x'

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-layout prints where the linker put the inner loop of the benchmark's
# reference kernel (benchmark/speed.go) and that address mod 64, and fails
# unless it is 0. The loop is faster inside one 64-byte line than across two,
# every setup_s / rows_per_s / op_ms_p50 is divided by its speed, and any
# change to the size of a linked package moves it (ROADMAP item 8): at 32 mod
# 64 the reference kernel reads the box about 1.6 times faster, and every
# timing metric that much slower, than at 0. Run it on the parent and on the
# change before believing a timing delta.
bench-layout:
	@bin=$$(mktemp) && $(GO) build -o $$bin ./benchmark && \
	addr=$$($(GO) tool nm $$bin | awk '$$3 == "main.kernel.func1" { print $$1 }') && rm -f $$bin && \
	echo "main.kernel.func1 at 0x$$addr, $$((0x$$addr % 64)) mod 64" && \
	if [ $$((0x$$addr % 64)) -ne 0 ]; then echo "bench-layout: the reference kernel's loop is not at 0 mod 64; timing metrics read layout, not the change"; exit 1; fi
