# Development entry points. Everything runs from the repository root
# with src/ on the path; no installation required.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-fleet test-exec bench bench-tiny bench-cache bench-service bench-fleet bench-exec bench-obs obs serve serve-fleet worker docs-check examples check

## tier-1 test suite (the gate every change must keep green)
test:
	$(PYTHON) -m pytest -x -q

## same, skipping simulation-heavy tests marked `slow`
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

## fleet harness only: ring/queue/sharded-cache/failure-storm tests
## (FLEET_SLOW=1 includes the `slow`-marked storm scenarios)
test-fleet:
	$(PYTHON) -m pytest -x -q tests/fleet $(if $(FLEET_SLOW),,-m "not slow")

## execution layer only: operator conformance, executor, recovery, YAML DSL
test-exec:
	$(PYTHON) -m pytest -x -q tests/exec tests/io/test_yamlflow.py tests/property/test_exec_properties.py

## regenerate BENCH_generation.json at full scale (idle machine!)
bench:
	$(PYTHON) benchmarks/run_all.py

## seconds-long benchmark smoke run (report shape only, numbers meaningless)
bench-tiny:
	$(PYTHON) benchmarks/run_all.py --tiny --output /tmp/bench_tiny.json

## profile-cache benchmark only: cold vs warm-disk vs in-memory on TPC-H
bench-cache:
	$(PYTHON) benchmarks/bench_profile_cache.py

## service benchmark only: N clients sharing a cache server vs N cold solo runs
bench-service:
	$(PYTHON) benchmarks/bench_service.py

## fleet benchmark only: C clients vs 1..4 cache shards (near-linear scaling)
bench-fleet:
	$(PYTHON) benchmarks/bench_fleet.py

## execution benchmark only: measured top-k calibration (spearman >= 0.6 gate)
bench-exec:
	$(PYTHON) -m pytest benchmarks/bench_execution.py -s -q

## observability benchmark only: metrics on vs off (<= 3% overhead gate)
bench-obs:
	$(PYTHON) -m pytest benchmarks/bench_obs.py -s -q

## fleet dashboard: scrape /metrics of running servers (OBS_URLS="http://...")
obs:
	$(PYTHON) tools/obs.py $(OBS_URLS)

## run the redesign service (persistent shared cache under .cache/profiles)
serve:
	$(PYTHON) tools/serve.py redesign --cache-dir .cache/profiles

## run a local fleet: 2 shards + job queue + 2 workers + front-end
serve-fleet:
	$(PYTHON) tools/serve.py fleet --shards 2 --fleet-workers 2 --queue .fleet/jobs.sqlite

## add one worker process to the local fleet's queue (WORKER_ARGS for cache URLs etc.)
worker:
	$(PYTHON) tools/worker.py --queue .fleet/jobs.sqlite $(WORKER_ARGS)

## intra-doc links + every ProcessingConfiguration knob documented
docs-check:
	$(PYTHON) tools/docs_check.py

## run every example script end-to-end (regenerates examples/data/ first)
examples:
	$(PYTHON) examples/generate_data.py
	@set -e; for f in examples/*.py; do \
		echo "== $$f"; $(PYTHON) $$f > /dev/null; \
	done

## everything a PR must pass
check: docs-check test
