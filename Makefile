# Test tiers (see conftest.py):
#   make test        - tier-1: fast correctness suite (what CI gates on)
#   make test-all    - everything, including slow-marked tests
#   make property    - hypothesis property suites at the thorough profile
#   make bench       - the paper's experiment benchmarks (E1..E16, figures);
#                      BENCH=<name> runs benchmarks/bench_<name>.py alone
#                      (e.g. BENCH=e15_spot_fleet; globs allowed)
#   make bench-smoke - every benchmark (or BENCH=<name>) in fast smoke mode
#                      (BENCH_SMOKE=1: shortened workloads, relative-economics
#                      assertions skipped) — a cheap crash/regression sweep
#   make sweep       - the standard scenario suite across all cores via the
#                      parallel experiment fabric (see PERFORMANCE.md)
#   make grid        - the default-on validation grid: scenario corpus x
#                      {baseline, repartition, cache, both} cells with paired
#                      seeds, gated by the pass/fail verdict table (exits
#                      non-zero on any gate; see PERFORMANCE.md)
#   make grid-smoke  - the grid's seconds-long smoke tier (what CI gates on;
#                      economics/dominance gate skipped, SLA + consistency
#                      gates kept)
#   make lint        - ruff when installed, else compileall as the floor
#   make ci          - the local mirror of every CI job, in CI's order
#   make trace-demo  - end-to-end request tracing demo: slowest traces with
#                      per-span attribution, per-window p99 breakdown, and
#                      the provisioning decision timeline (see repro.obs)
#   make perfbench   - the standing benchmark of the shipped engine: four
#                      workloads, end-to-end metrics (see perfbench/README.md)
#   make perfbench-traced - ... plus the per-layer pass (spans, counts, micros)
#   make perfbench-compare A=a.json B=b.json - compare two --json outputs
#                      (or comma-separated lists of them) against the bounds
#   make perfbench-pairs PARENT=<ref> W=<workload> [N=10] [SEED=11] - the
#                      protocol for a PR that claims a gain: N alternating
#                      parent/change pairs of one workload (PARENT checked out
#                      into a temporary git worktree), medians and quartiles
#                      per end-to-end metric, pair wins, fingerprint check
#   make perfbench-pairs ... TRACED=1 [N=3] - the same pairs as per-layer
#                      passes: per span, each side's self time as median
#                      [min..max]; fails if an exact count differs

PYTEST := python -m pytest

.PHONY: test test-all property bench bench-smoke sweep grid grid-smoke lint ci \
	trace-demo perfbench perfbench-traced perfbench-compare perfbench-pairs

test:
	$(PYTEST) -x -q

test-all:
	$(PYTEST) -q --runslow

property:
	sh scripts/run_property_suite.sh

# bench_*.py does not match pytest's default test_*.py collection pattern, so
# the files are passed explicitly (a bare directory collects nothing).
BENCH ?= *
bench:
	$(PYTEST) benchmarks/bench_$(BENCH).py -q -s

bench-smoke:
	BENCH_SMOKE=1 $(PYTEST) benchmarks/bench_$(BENCH).py -q -s

sweep:
	python scripts/run_sweep.py --suite standard --workers auto

grid:
	python scripts/run_grid.py --workers auto

grid-smoke:
	python scripts/run_grid.py --smoke --workers auto

# Lint floor that works without network access: ruff when the runner has it
# (CI does), byte-compilation as the always-available fallback.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check . && echo "ruff: clean"; \
	else \
		echo "ruff not installed; falling back to compileall"; \
	fi
	python -m compileall -q src scripts benchmarks tests perfbench examples

# The local mirror of .github/workflows/ci.yml, job by job.
ci: lint test bench-smoke grid-smoke

trace-demo:
	python examples/trace_demo.py

perfbench:
	python3 perfbench/run.py

perfbench-traced:
	python3 perfbench/run.py --traced

perfbench-compare:
	python3 perfbench/run.py --compare $(A) $(B)

N ?= 10
SEED ?= 11
perfbench-pairs:
	python3 scripts/perfbench_pairs.py --parent $(PARENT) --workload $(W) \
		--pairs $(N) --seed $(SEED) $(if $(TRACED),--traced)
