# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench examples scale scale-smoke determinism check-links doc clean

all: build

build:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

# Suites: the paper's evaluation (make suite-paper, suite-protocols,
# suite-ablation, suite-per-class, suite-granularity, suite-sweep,
# suite-scaling) and the feature suites (suite-chaos, suite-crash,
# suite-partition, suite-lease, suite-cache, suite-batch, suite-ship,
# suite-escrow). Every run passes the shared oracle; the suite writes
# BENCH_<name>.json and exits nonzero on an error row or a missed blocking
# gate.
suite-%:
	dune exec bin/lotec_sim.exe -- suite $* --json BENCH_$*.json

# Scale sweep: engine micro-benchmarks plus the default 100k/300k/1M-root
# streaming runs across all four protocols. Writes BENCH_engine.json.
scale:
	dune exec bin/lotec_sim.exe -- scale --engine-bench --json BENCH_engine.json

# Small fixed point for CI: 10k roots over 64 nodes per protocol, with a
# conservative events/sec floor (measured ~0.6-1.2M on dev hardware; the
# floor leaves ~10x headroom for slow CI runners) and a heap ceiling.
scale-smoke:
	dune exec bin/lotec_sim.exe -- scale --roots 10000 --nodes 64 \
		--assert-min-events-per-sec 100000 --assert-max-heap-mb 512 \
		--json BENCH_engine.json

# Re-run the deterministic goldens with OCaml's randomized hashing turned
# on (OCAMLRUNPARAM=R): any Hashtbl-iteration-order leak into dumps,
# traces or metrics shows up as a golden mismatch.
determinism:
	OCAMLRUNPARAM=R dune exec test/determinism/main.exe

# Fail on intra-repo markdown links pointing at missing files or at
# anchors that no heading generates. CI runs this next to the doc build.
check-links:
	./tools/check_md_links.sh

# API docs. odoc warnings are fatal (root dune env stanza), so a broken
# {!reference} fails the build — CI runs this; locally it skips gracefully
# when odoc is not installed.
doc:
	@if command -v odoc >/dev/null 2>&1; then \
		dune build @doc && echo "docs at _build/default/_doc/_html/index.html"; \
	else \
		echo "odoc not installed; skipping doc build (opam install odoc)"; \
	fi

examples:
	dune exec examples/quickstart.exe
	dune exec examples/bank.exe
	dune exec examples/cad_assembly.exe
	dune exec examples/network_sweep.exe
	dune exec examples/recursion_policy.exe

clean:
	dune clean
