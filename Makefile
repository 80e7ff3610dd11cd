# Convenience targets for the TIBFIT reproduction.

PYTHON ?= python

.PHONY: install test bench profile examples figures golden-save chaos serve clean

install:
	pip install -e '.[test]'

# Tier-1 verification, exactly as ROADMAP.md specifies -- PYTHONPATH
# keeps it working without an editable install.
test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/ -x -q

# Microbenchmarks and figure benches (pytest-benchmark).  They track
# inner-loop costs; performance claims are measured with
# `python3 bench/run.py` (see bench/README.md).
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# cProfile one representative Experiment 2 sweep point and print the
# top-20 cumulative functions -- the next hot spot, one command away.
profile:
	PYTHONPATH=src $(PYTHON) benchmarks/profile_hotspots.py

# Run every example script in sequence.
examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/perimeter_watch.py
	PYTHONPATH=src $(PYTHON) examples/seismic_decay.py
	PYTHONPATH=src $(PYTHON) examples/ch_failover.py
	PYTHONPATH=src $(PYTHON) examples/rotating_clusters.py
	PYTHONPATH=src $(PYTHON) examples/multihop_watch.py
	PYTHONPATH=src $(PYTHON) examples/target_tracking.py
	PYTHONPATH=src $(PYTHON) examples/chaos_campaign.py

# Regenerate the golden-run regression fixtures (tests/golden/*.json).
# Only after an INTENTIONAL behaviour change; review and commit the diff.
golden-save:
	PYTHONPATH=src $(PYTHON) -m tests.golden.generate

# Serve the trust-session engine over HTTP (see docs/service.md).
serve:
	PYTHONPATH=src $(PYTHON) -m repro serve

# Quick deterministic fault-injection campaign (see docs/chaos.md).
chaos:
	PYTHONPATH=src $(PYTHON) -m repro chaos --seeds 2 --rounds 10

# Regenerate every figure's data series via the CLI (fast settings).
figures:
	PYTHONPATH=src $(PYTHON) -m repro fig 10
	PYTHONPATH=src $(PYTHON) -m repro fig 11
	PYTHONPATH=src $(PYTHON) -m repro fig 2 --trials 1
	PYTHONPATH=src $(PYTHON) -m repro fig 3 --trials 1

clean:
	rm -rf .pytest_cache .hypothesis build dist *.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
