# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench examples determinism crash-slice check-links doc clean

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

# Re-run the deterministic goldens with OCaml's randomized hashing turned
# on (OCAMLRUNPARAM=R): any Hashtbl-iteration-order leak into dumps,
# traces or metrics shows up as a golden mismatch.
determinism:
	OCAMLRUNPARAM=R dune exec test/determinism/main.exe

# The every-event crash slice: each node crashes 0.01 us after every
# distinct traced event time below 40,000 us, at spec seeds 42, 1, 2 and 3
# under every protocol with 0 and 1 GDO replicas (23,208 runs, about a
# minute). Tier-1 runs spec seed 1 alone.
crash-slice:
	dune exec test/crash_point/every_event.exe

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
