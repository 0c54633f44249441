# Convenience entry points for the reproduction.

PYTHON ?= python

.PHONY: test lint coverage chaos bench-smoke perf-smoke bench

# Tier-1 verification: the full unit test suite.
test:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Chaos smoke (CI `chaos` step): the deterministic byte-level fault drills —
# FaultPlan/ChaosProxy unit tests plus the seeded fleet+gateway drill matrix
# (bit flips, truncation, stalls, resets, duplicated bytes on sweep and
# heartbeat connections; byte-identity or a typed error, and recovery to
# all-LIVE, asserted under every schedule).
chaos:
	PYTHONPATH=src $(PYTHON) -m pytest tests/serve/test_faults.py tests/serve/test_chaos.py -q

# Static checks (CI `lint` job): ruff check over the whole tree (pyflakes +
# pycodestyle subsets, config in pyproject.toml) plus ruff's formatter in
# check mode over the trees whose formatting has been normalised.
lint:
	$(PYTHON) -m ruff check .
	$(PYTHON) -m ruff format --check src/repro/serve tools

# Coverage with asserted floors for the serving subsystem, the nn engine
# and the distillation tier (CI `coverage` job): writes coverage.xml
# (Cobertura) and fails if src/repro/serve, src/repro/nn or
# src/repro/distill drops below its floor enforced by
# tools/check_coverage.py.
coverage:
	PYTHONPATH=src $(PYTHON) -m pytest -q --cov=repro --cov-report=xml --cov-report=term
	$(PYTHON) tools/check_coverage.py coverage.xml --floor repro/serve=80 --floor repro/nn=70 --floor repro/distill=70

# Timing floors (CI `perf` job): fails when one of eight fast paths stops
# beating its in-tree reference by its floor: the engine against the seed
# reference paths (forward 1.1x, train_epoch 1.2x, cap_sweep 2.0x), the
# batched multi-region sweep against serial sweeps (1.1x), the compiled
# inference program against the Module forward (1.1x), float32 against
# float64 on the scatter-bound layer (1.15x), the runtime scatter kernel
# against bincount (1.0x) and the micro tier against the novel-region GNN
# path (2.0x).  Prints one line per floor; writes nothing.
bench-smoke:
	$(PYTHON) -m benchmarks.floors

# End-to-end smokes (CI `perf` job), two workloads of the benchmark
# (benchmarks/perf).  tune_suite_cv is the paper's experiment: it builds the
# 68-region measurement database, runs the 3-fold cross-validated PnP
# selections and evaluates them (one timed repetition); it exits 1 when CV
# repetitions disagree or a fresh re-run of the first fold changes its
# selections.  serve_novel drives gateway -> TCP fleet -> TieredPredictor ->
# tuner with never-seen regions (about 14 s of set-up) and exits 1 when any
# served answer differs from the in-process predictor's.
perf-smoke:
	$(PYTHON) -m benchmarks.perf --workload tune_suite_cv --seed 0 --seconds 1
	$(PYTHON) -m benchmarks.perf --workload serve_novel --seed 0 --seconds 1

# The paper-figure benchmark suite (pytest-benchmark harness): Figures 2-7,
# the headline summary, the feature ablation, transfer learning and the
# substrates, one bench_*.py module each.
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_*.py -q
