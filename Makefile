.PHONY: all check test build clean

all: build

build:
	dune build

test: check

# Tier-1 gate: the dune build tree stays untracked, everything
# compiles, and the whole suite passes. That includes the benchmark's
# selftest (rtasbench/dune) and the command-line gates in
# test/test_cli.ml, which run the built `rtas` on the documented flows.
# Performance is not gated here: `sh rtasbench/run.sh` is the benchmark
# (BENCHMARK.json).
check:
	git check-ignore -q _build
	dune build && dune runtest

clean:
	dune clean
