# Developer entry points. `make test` is the tier-1 verification command
# referenced by ROADMAP.md.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: help test test-faults test-ingest test-tenant paper-claims bench-quick bench-engine bench-flat-quick bench-experiments bench-tree bench-tree-quick bench-service bench-service-quick bench-longtail bench-longtail-quick bench-ingest bench-ingest-quick bench-mmap bench-mmap-quick serve serve-smoke quickstart

help:
	@echo "make test                run the full unit/property test suite (tier-1)"
	@echo "make test-faults         fault-injection suite: shedding, deadlines, crash-safe storage"
	@echo "make test-ingest         streaming-ingest suite: WAL properties, crash replay, drift policy"
	@echo "make test-tenant         multi-tenant suite: router, API-key auth, catalog ledger safety"
	@echo "make paper-claims        assert the paper's findings (Figures 1-6, Table II, ablations, scaling, dimensionality)"
	@echo "make bench-quick         every paper experiment at quick scale, one report"
	@echo "make bench-engine        engine perf benches only; refreshes BENCH_*.json"
	@echo "make bench-flat-quick    AG two-level grid engine vs per-cell oracle smoke (small scale, no JSON)"
	@echo "make bench-experiments   evaluation fast-path benches; refreshes BENCH_experiments.json"
	@echo "make bench-tree          flat tree kernel benches; refreshes BENCH_tree_kernel.json"
	@echo "make bench-tree-quick    tree kernel equivalence smoke (small scale, no JSON)"
	@echo "make bench-service       HTTP load bench (JSON vs binary, cold vs warm); refreshes BENCH_service.json"
	@echo "make bench-service-quick service bench smoke (bit-identity always, ratios only on >= 4 CPUs)"
	@echo "make bench-longtail      long-tail kernels (Privelet/Hier/UGnd); refreshes BENCH_longtail.json"
	@echo "make bench-longtail-quick long-tail kernel equivalence smoke (small scale, no JSON)"
	@echo "make bench-ingest        ingest throughput + replay curve; refreshes BENCH_ingest.json"
	@echo "make bench-ingest-quick  ingest smoke: replay bit-identity asserted, no JSON"
	@echo "make bench-mmap          fork-scaling bench (mapped v2 vs copied v1 archives); refreshes BENCH_service.json"
	@echo "make bench-mmap-quick    mmap smoke: v1==v2 bit-identity asserted, no JSON"
	@echo "make serve               start the synopsis HTTP server on port 8731 (--workers N via SERVE_ARGS)"
	@echo "make serve-smoke         build + query + budget-refusal round trip over HTTP"
	@echo "make quickstart          run examples/quickstart.py"

test:
	$(PYTHON) -m pytest -x -q

test-faults:
	$(PYTHON) -m pytest tests/faults -q

test-ingest:
	$(PYTHON) -m pytest tests/faults/test_wal.py tests/faults/test_ingest_crash.py tests/tenant/test_catalog_lock.py tests/service/test_ingest.py tests/service/test_ingest_http.py -q

test-tenant:
	$(PYTHON) -m pytest tests/tenant -q

# The benches that assert the paper's claims, run as tests only
# (timing off): every assertion and margin as the bench files state it.
PAPER_CLAIMS = benchmarks/bench_fig1_datasets.py benchmarks/bench_fig2_kd_vs_ug.py \
	benchmarks/bench_fig3_hierarchies.py benchmarks/bench_fig4_ag_params.py \
	benchmarks/bench_fig5_final_relative.py benchmarks/bench_fig6_final_absolute.py \
	benchmarks/bench_table2_grid_sizes.py benchmarks/bench_ablations.py \
	benchmarks/bench_scaling.py benchmarks/bench_dimensionality.py

paper-claims:
	$(PYTHON) -m pytest $(PAPER_CLAIMS) --benchmark-disable -q

bench-quick:
	$(PYTHON) -m repro suite

bench-engine:
	$(PYTHON) -m pytest benchmarks/bench_engine_perf.py benchmarks/bench_flat_kernel.py -q

bench-flat-quick:
	BENCH_FLAT_QUICK=1 $(PYTHON) -m pytest benchmarks/bench_flat_kernel.py -q

bench-experiments:
	$(PYTHON) -m pytest benchmarks/bench_ground_truth.py -q

bench-tree:
	$(PYTHON) -m pytest benchmarks/bench_tree_kernel.py -q

bench-tree-quick:
	BENCH_TREE_QUICK=1 $(PYTHON) -m pytest benchmarks/bench_tree_kernel.py -q

bench-service:
	$(PYTHON) -m pytest benchmarks/bench_service.py -q

bench-service-quick:
	BENCH_SERVICE_QUICK=1 $(PYTHON) -m pytest benchmarks/bench_service.py -q

bench-longtail:
	$(PYTHON) -m pytest benchmarks/bench_longtail.py -q

bench-longtail-quick:
	BENCH_LONGTAIL_QUICK=1 $(PYTHON) -m pytest benchmarks/bench_longtail.py -q

bench-ingest:
	$(PYTHON) -m pytest benchmarks/bench_ingest.py -q

bench-ingest-quick:
	BENCH_INGEST_QUICK=1 $(PYTHON) -m pytest benchmarks/bench_ingest.py -q

bench-mmap:
	$(PYTHON) -m pytest benchmarks/bench_mmap.py -q

bench-mmap-quick:
	BENCH_MMAP_QUICK=1 $(PYTHON) -m pytest benchmarks/bench_mmap.py -q

serve:
	$(PYTHON) -m repro serve $(SERVE_ARGS)

serve-smoke:
	$(PYTHON) -m repro serve --smoke

quickstart:
	$(PYTHON) examples/quickstart.py
