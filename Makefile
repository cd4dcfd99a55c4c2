# Convenience targets for the reproduction.

PY ?= python

.PHONY: test bench bench-json perf-gate experiments reproduce examples figures clean

test:
	$(PY) -m pytest tests/

bench:
	$(PY) -m pytest benchmarks/ --benchmark-only

# Append a labelled entry to BENCH_packing.json (the committed perf
# trajectory): perfbench's metrics and layer tables per workload, the
# figure walls, the two cost ratios and the host calibration.
LABEL ?= local
bench-json:
	PYTHONPATH=src $(PY) scripts/bench_packing_trajectory.py --record --label "$(LABEL)"

# Re-measure and gate against the newest committed BENCH_packing.json
# entry (15% budget, calibrated timings, best of 3).
perf-gate:
	PYTHONPATH=src $(PY) scripts/bench_packing_trajectory.py --check

experiments:
	$(PY) scripts/generate_experiments_md.py

reproduce:
	$(PY) scripts/reproduce_all.py

examples:
	for ex in examples/*.py; do echo "== $$ex"; $(PY) $$ex || exit 1; done

figures:
	$(PY) -m repro.cli figures --all

clean:
	rm -rf .pytest_cache .benchmarks .repro src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
