.PHONY: all check test build chaos-smoke flat-smoke trace-smoke mc-smoke registry-smoke service-smoke service-scale-smoke telemetry-smoke clean

all: build

build:
	dune build

test: check

# Tier-1 gate: the dune build tree stays untracked, everything
# compiles, the whole suite passes (including the benchmark's selftest,
# rtasbench/dune), and the CLI smokes below exit clean. Performance is
# not gated here: `sh rtasbench/run.sh` is the benchmark (BENCHMARK.json).
check:
	git check-ignore -q _build
	dune build && dune runtest
	$(MAKE) chaos-smoke
	$(MAKE) trace-smoke
	$(MAKE) mc-smoke
	$(MAKE) registry-smoke
	$(MAKE) flat-smoke
	$(MAKE) service-smoke
	$(MAKE) service-scale-smoke
	$(MAKE) telemetry-smoke

# Fast chaos smoke: small system, few trials, fixed seed, both the
# simulated sweep and the real-multicore implementations. Exits
# non-zero on any safety violation. An unknown algorithm name must be
# a usage error (exit 2), not a sweep of failed trials (exit 1).
chaos-smoke:
	dune exec bin/rtas_cli.exe -- chaos -n 16 -k 6 --trials 5 \
	  --probs 0,0.05,0.2 --seed 42 --mc
	dune exec bin/rtas_cli.exe -- chaos --algorithms nope >/dev/null 2>&1; \
	  test $$? -eq 2
	@echo "chaos-smoke: sweep clean, unknown name exits 2"

# Multicore smoke: every registry algorithm with an Atomic_mem backend
# races real domains (2-way and 4-way) and must elect a unique winner
# in every trial; the CLI exits non-zero otherwise. The mutex example
# then asserts exactly-once initialisation through the TAS over every
# such election and the native Atomic.exchange.
mc-smoke:
	dune exec bin/rtas_cli.exe -- mc --domains 2 --trials 10 --seed 7
	dune exec bin/rtas_cli.exe -- mc --domains 4 --trials 10 --seed 7
	dune exec examples/mutex.exe

# Registry smoke: the capability table itself exits non-zero if any
# dual entry's Atomic.t register count diverges from the simulator's;
# on top of that, assert the successor algorithms carry the coverage
# the differential suite assumes — poison is dual + flat with all
# three backends agreeing on the register count, opt-space is dual.
registry-smoke:
	dune exec bin/rtas_cli.exe -- registry -n 64 > _build/REGISTRY.txt
	awk '$$1 == "poison" { found = 1; if ($$2 != $$3 || $$3 != $$4) exit 1 } \
	  END { exit !found }' _build/REGISTRY.txt
	awk '$$1 == "opt-space" { found = 1; if ($$2 != $$3 || $$4 != "-") exit 1 } \
	  END { exit !found }' _build/REGISTRY.txt
	@echo "registry-smoke: capability table OK"

# Flat-kernel smoke: every flat-registered algorithm must be
# bit-identical to the effect simulator over fresh seeds (outcome
# vectors and spans), then a flat trial batch is fanned out over real
# domains and must match the single-domain run. The CLI exits non-zero
# on any divergence.
flat-smoke:
	dune exec bin/rtas_cli.exe -- flat -n 64 -k 16 --seeds 10 \
	  --trials 32 --domains 2 --seed 9

# Lock-service smoke: a Poisson run on each backend plus a chaos
# variant, each validated with jq — the report must account for every
# client, complete work, and (under chaos) recover every crashed
# holder without wedging a key. The poison run is repeated on the
# effect kernel and on the heap event queue, and both reports must
# equal the flat/wheel one byte for byte. A malformed --backoff or a
# zero telemetry window must be a usage error (exit 2). Scratch files
# live in the build tree.
service-smoke:
	dune exec bin/rtas_cli.exe -- service --alg log* --backend sim \
	  --arrival poisson --clients 500 --keys 8 --seed 11 -o _build/SVC_sim.json
	jq -e '.backend == "sim" and .counts.clients == 500 and (.counts.completed + .counts.deadline_exceeded + .counts.crashed_clients + .counts.shed == 500) and .counts.completed > 0 and .latency.p999 >= .latency.p50 and .livelocked == false' _build/SVC_sim.json >/dev/null
	dune exec bin/rtas_cli.exe -- service --alg tournament --backend atomic \
	  --arrival poisson --rate 0.005 --clients 150 --keys 4 --domains 4 \
	  --seed 11 -o _build/SVC_atomic.json
	jq -e '.backend == "atomic" and .counts.clients == 150 and (.counts.completed + .counts.deadline_exceeded + .counts.crashed_clients + .counts.shed == 150) and .counts.completed > 0 and .livelocked == false' _build/SVC_atomic.json >/dev/null
	dune exec bin/rtas_cli.exe -- service --alg log* --backend sim \
	  --arrival bursty --clients 500 --keys 8 --chaos 0.3 --seed 11 \
	  -o _build/SVC_chaos.json
	jq -e '.counts.holder_crashes > 0 and .counts.forced_expiries >= .counts.holder_crashes and (.counts.completed + .counts.deadline_exceeded + .counts.crashed_clients + .counts.shed == 500) and .livelocked == false' _build/SVC_chaos.json >/dev/null
	dune exec bin/rtas_cli.exe -- service --alg poison --backend sim \
	  --kernel flat --arrival poisson --clients 500 --keys 8 --seed 11 \
	  -o _build/SVC_poison.json
	jq -e '.counts.clients == 500 and (.counts.completed + .counts.deadline_exceeded + .counts.crashed_clients + .counts.shed == 500) and .counts.completed > 0 and .livelocked == false' _build/SVC_poison.json >/dev/null
	dune exec bin/rtas_cli.exe -- service --alg poison --backend sim \
	  --kernel effect --arrival poisson --clients 500 --keys 8 --seed 11 \
	  -o _build/SVC_poison_effect.json
	cmp _build/SVC_poison_effect.json _build/SVC_poison.json
	dune exec bin/rtas_cli.exe -- service --alg poison --backend sim \
	  --kernel flat --events heap --arrival poisson --clients 500 --keys 8 \
	  --seed 11 -o _build/SVC_poison_heap.json
	cmp _build/SVC_poison_heap.json _build/SVC_poison.json
	dune exec bin/rtas_cli.exe -- service --backoff exp:x:1 >/dev/null 2>&1; \
	  test $$? -eq 2
	dune exec bin/rtas_cli.exe -- service --backoff rand:abc >/dev/null 2>&1; \
	  test $$? -eq 2
	dune exec bin/rtas_cli.exe -- service --window 0 \
	  --telemetry _build/SVC_bad_window.json >/dev/null 2>&1; test $$? -eq 2
	@echo "service-smoke: sim + atomic + chaos + poison-flat (= effect = heap) OK, bad input exits 2"

# Million-client scale smoke: one sim run at 1M clients on the timing
# wheel with sharded execution and the bounded-memory latency
# histogram, under a hard wall-clock budget. Validates that the run
# completes, accounts for every client, and actually used the
# histogram (an exact latency array at this scale would be the bug).
service-scale-smoke:
	timeout 120 dune exec bin/rtas_cli.exe -- service --alg tournament \
	  --backend sim --kernel flat --arrival poisson --rate 20 \
	  --clients 1000000 --keys 256 --zipf 0.5 --backoff exp \
	  --max-waiters 32 --hold 50 --events wheel --shards 4 --domains 2 \
	  --latency hist --seed 42 -o _build/SVC_scale.json
	jq -e '.counts.clients == 1000000 and (.counts.completed + .counts.deadline_exceeded + .counts.crashed_clients + .counts.shed == 1000000) and .counts.completed > 0 and .latency.mode == "hist" and .latency.p999 >= .latency.p50 and .livelocked == false' _build/SVC_scale.json >/dev/null
	@echo "service-scale-smoke: 1M clients OK"

# Probe smoke: export a Perfetto trace from a small run and validate
# its structure with jq (every event carries ph/ts/pid/tid; spans
# balance: as many B as E events), then run a small profile batch and
# check the JSON report names the expected phases and carries the
# pinned RMR totals of this seed. Scratch files live in the build tree.
trace-smoke:
	dune exec bin/rtas_cli.exe -- trace --algo rr_classic -n 8 --seed 3 \
	  -o _build/trace.json
	jq -e '.traceEvents | length > 0' _build/trace.json >/dev/null
	jq -e '[.traceEvents[] | select((has("ph") and has("ts") and has("pid") and has("tid")) | not)] | length == 0' _build/trace.json >/dev/null
	jq -e '([.traceEvents[] | select(.ph == "B")] | length) == ([.traceEvents[] | select(.ph == "E")] | length)' _build/trace.json >/dev/null
	dune exec bin/rtas_cli.exe -- profile --algos ge_logstar,chain,rr_classic \
	  -n 32 -k 8 --trials 20 --seed 3 --json _build/profile.json >/dev/null
	jq -e '.algos | keys == ["chain", "ge_logstar", "rr_classic"]' _build/profile.json >/dev/null
	jq -e '[.algos.rr_classic.phases[].phase] | contains(["rr_tree", "rr_ascend", "rr_top"])' _build/profile.json >/dev/null
	jq -e '.algos.ge_logstar.phases[] | select(.phase == "ge_round") | .calls > 0 and .steps > 0' _build/profile.json >/dev/null
	jq -e '.algos.rr_classic.totals.rmrs == 4265 and .algos.chain.totals.rmrs == 722 and .algos.ge_logstar.totals.rmrs == 340' _build/profile.json >/dev/null
	@echo "trace-smoke: trace.json + profile.json (RMR totals pinned) OK"

# Telemetry smoke: a bursty chaos run with a telemetry sink (`rtas
# service` exits non-zero if any windowed counter fails to sum to its
# report total), then a `rtas service` run emitting the JSON time-series, the
# OpenMetrics exposition and a Perfetto trace, each validated
# structurally with jq — the time-series must carry the schema tag and
# account for every client across windows, the trace must contain
# counter tracks and per-key round spans, and the OpenMetrics file must
# end with the mandatory EOF marker. Scratch files live in the build
# tree.
telemetry-smoke:
	dune exec bin/rtas_cli.exe -- service --alg log* --arrival bursty \
	  --rate 0.05 --clients 2000 --keys 8 --chaos 0.2 --window 1000 \
	  --seed 11 --telemetry _build/TEL_table.json \
	  -o _build/TEL_table_report.json >/dev/null
	dune exec bin/rtas_cli.exe -- service --alg log* --backend sim \
	  --arrival bursty --clients 1000 --keys 8 --chaos 0.2 --seed 11 \
	  --window 500 --telemetry _build/TEL_ts.json \
	  --openmetrics _build/TEL_ts.om --trace-out _build/TEL_trace.json \
	  -o _build/TEL_report.json >/dev/null
	jq -e '.schema == "rtas-timeseries/1" and .window_ticks == 500 and .windows > 0' _build/TEL_ts.json >/dev/null
	jq -e --slurpfile r _build/TEL_report.json '(.counters["service.arrivals"] | map(.[1]) | add) == $$r[0].counts.clients and (.counters["service.completed"] // [] | map(.[1]) | add // 0) == $$r[0].counts.completed and (.counters["service.holder_crashes"] // [] | map(.[1]) | add // 0) == $$r[0].counts.holder_crashes' _build/TEL_ts.json >/dev/null
	jq -e '[.traceEvents[] | select(.ph == "C")] | length > 0' _build/TEL_trace.json >/dev/null
	jq -e '[.traceEvents[] | select(.ph == "X" and .name == "round")] | length > 0' _build/TEL_trace.json >/dev/null
	jq -e '[.traceEvents[] | select((has("ph") and has("ts") and has("pid") and has("tid")) | not)] | length == 0' _build/TEL_trace.json >/dev/null
	grep -q '^# EOF' _build/TEL_ts.om
	grep -q '^# TYPE rtas_service_arrivals counter' _build/TEL_ts.om
	@echo "telemetry-smoke: table + JSON + OpenMetrics + Perfetto OK"

clean:
	dune clean
