(** Every feature suite, in the order the CLI, the bench harness and the
    artefact test run them. Each writes [BENCH_<name>.json]. *)

val all : Suite.t list
