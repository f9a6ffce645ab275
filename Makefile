# Convenience targets; everything here is a thin wrapper over dune.

.PHONY: all test lint analyze bench report batch cache-smoke \
        kernel-smoke serve serve-smoke hb-smoke shil-reports coverage clean

all:
	dune build

test:
	dune runtest

# Static checks: the repo source linter (tools/mlint.ml) plus `oshil
# lint` over the shipped netlists and scenarios.
lint:
	dune build @lint
	dune exec bin/oshil.exe -- lint examples/netlists/*.cir examples/scenarios/*.scn

# Typed-AST static analysis (tools/dsa): walks the .cmt artifacts of
# every lib/ module and enforces the domain-safety / cache-purity /
# float-order / raise-escape / unused-export contracts (uses of lib/
# exports count from bin/, examples/, tools/ and perfbench/, never
# from test/). --strict also fails on warnings (bad or unused waivers).
analyze:
	dune build @analyze

# Benchmark smoke: one short run (at least one whole round) of each
# BENCHMARK.json workload through perfbench/run.sh. A run exits
# nonzero when a workload's output check fails, and so does this
# target. For measurements, run perfbench/run.sh with longer --seconds
# (see perfbench/README.md).
bench:
	for w in df-paper engine-verify daemon-mix; do \
	  bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 \
	    || exit 1; \
	done

# Run-health report from a solver trace recorded with
# `oshil ... --trace TRACE --events`.  Usage: make report TRACE=out/health.jsonl
TRACE ?= out/health.jsonl
report:
	dune build bin/oshil.exe
	./_build/default/bin/oshil.exe stats report $(TRACE)

# Batch-run the shipped scenarios with the content-addressed cache on;
# run it twice to see the warm-cache speedup (`oshil stats` on the
# trace shows the cache.* counters).
batch:
	dune build bin/oshil.exe
	./_build/default/bin/oshil.exe batch examples/scenarios --cache

# Cache correctness: cold, warm and cache-disabled runs must produce
# byte-identical batch reports, and the warm run must actually hit.
cache-smoke:
	dune build @cache-smoke

# Batch-kernel correctness: `oshil shil` must be byte-identical with
# the batch kernels disabled (OSHIL_NO_BATCH=1), and the harmonic
# counters must appear in the telemetry replay.
kernel-smoke:
	dune build @kernel-smoke

# Resident analysis daemon on a local Unix socket. Talk to it with
# `oshil call -c oshil.sock <op>`; SIGTERM/SIGINT drain gracefully
# (finish in-flight work, flush telemetry, exit 0). Override the
# address with ADDR=tcp:HOST:PORT or ADDR=unix:PATH.
ADDR ?= oshil.sock
serve:
	dune build bin/oshil.exe
	./_build/default/bin/oshil.exe serve -l $(ADDR)

# Daemon end-to-end smoke: lifecycle, typed protocol errors, CLI/daemon
# byte-identity, serve-request fault injection, graceful drain.
serve-smoke:
	dune build @serve-smoke

# Harmonic-balance end-to-end smoke: CLI/daemon byte-identity on the hb
# op, solver counters on the trace, hb-newton fault ladder.
hb-smoke:
	dune build @hb-smoke

# The 72 `oshil shil` reports of the paper cells (tanh, diff-pair and
# tunnel at n = 2..5 and V_i in {0.01, 0.03, 0.08}, exact and
# --reduced), one file per cell under OUT, with one worker, and the 36
# `oshil hb --lockrange` runs of the same cells: stdout in hb-*.txt,
# stderr and the exit status in hb-*.err (some cells exit with a
# typed error, which is pinned too). Run it on two builds and `diff -r`
# the directories to see which report lines a change moves.
# Usage: make shil-reports OUT=out/shil-reports
OUT ?= out/shil-reports
shil-reports:
	dune build bin/oshil.exe
	mkdir -p $(OUT)
	for osc in tanh diffpair tunnel; do for n in 2 3 4 5; do \
	  for vi in 0.01 0.03 0.08; do \
	    ./_build/default/bin/oshil.exe shil -j 1 --osc $$osc -n $$n --vi $$vi \
	      > $(OUT)/$$osc-n$$n-vi$$vi-exact.txt || exit 1; \
	    ./_build/default/bin/oshil.exe shil -j 1 --osc $$osc -n $$n --vi $$vi \
	      --reduced > $(OUT)/$$osc-n$$n-vi$$vi-reduced.txt || exit 1; \
	    ./_build/default/bin/oshil.exe hb -j 1 --lockrange --osc $$osc -n $$n \
	      --vi $$vi > $(OUT)/hb-$$osc-n$$n-vi$$vi.txt \
	      2> $(OUT)/hb-$$osc-n$$n-vi$$vi.err; \
	    echo "exit $$?" >> $(OUT)/hb-$$osc-n$$n-vi$$vi.err; \
	  done; done; done

# Coverage (requires bisect_ppx, not part of the default environment):
#   opam install bisect_ppx
coverage:
	find . -name '*.coverage' -delete
	dune runtest --instrument-with bisect_ppx --force
	bisect-ppx-report summary --per-file

clean:
	dune clean
