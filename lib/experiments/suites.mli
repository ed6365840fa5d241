(** Every suite — the feature suites, then the paper's §5 ({!Paper.all}) —
    in the order the CLI, the bench harness and the artefact test run
    them. Each writes [BENCH_<name>.json]. *)

val all : Suite.t list
