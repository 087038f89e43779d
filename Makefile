# Convenience entry points; everything is plain dune underneath.

.PHONY: all build test analyze bench-smoke soak explain check clean

all: build

build:
	dune build

test:
	dune runtest

# Quick end-to-end smoke: reduced-size paper experiments, the bechamel
# micro-benchmarks, the jobs=1 vs jobs=N interpreter comparison and the
# fault-injection chaos counters. --jobs 0 = auto, so the WEAVER_JOBS
# environment variable (the CI matrix axis) picks the worker count.
bench-smoke: build
	dune exec bench/main.exe -- --jobs 0 --json _build/bench-quick.json quick

# Robustness soak: seeded flip storms across the three integrity
# postures (no-integrity / verify / verify+checkpoint; detection,
# rollback and replay-savings counters) plus the goodput-under-storm
# overload sweep. Both assert their invariants (zero leaks, bounded
# budgets, 100%/0% detection split) and exit nonzero on violation.
soak: build
	dune exec bench/main.exe -- --jobs 0 --json _build/soak-integrity.json quick integrity
	dune exec bench/main.exe -- --jobs 0 --json _build/soak-overload.json quick overload

# Static-analysis gate over every golden workload (micro-patterns
# (a)-(e), ab, Q1, Q21): exits nonzero on any gating diagnostic, and the
# reports must match the committed expected output byte for byte.
analyze: build
	dune exec bin/weaver_cli.exe -- analyze all > _build/analyze.json
	diff -u test/analyze_all.expected _build/analyze.json

# Per-operator EXPLAIN ANALYZE over the same golden set: the
# cost-attribution table (cycles, roofline, fusion counterfactual) in
# both text and JSON form. The renderer checks the conservation law per
# query; the grep asserts it held for all 8 goldens and nothing printed
# VIOLATED. The JSON must match the committed expected output byte for
# byte.
explain: build
	dune exec bin/weaver_cli.exe -- explain all > _build/explain.txt
	dune exec bin/weaver_cli.exe -- explain all --json > _build/explain.json
	diff -u test/explain_all.expected _build/explain.json
	@test "$$(grep -c 'conservation: exact' _build/explain.txt)" -eq 8
	@! grep -q 'conservation: VIOLATED' _build/explain.txt
	@echo "explain: conservation exact on all 8 golden workloads"

check: build test analyze explain bench-smoke

clean:
	dune clean
