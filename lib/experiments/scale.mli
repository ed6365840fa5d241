(** Workload shape of the large streaming runs: the tier-1 100k-root golden
    and the benchmark's stream-scale workload. *)

val spec_for : roots:int -> nodes:int -> Workload.Spec.t
(** Workload shape for a scale point: 32 objects per node (constant
    density as the cluster grows), dense arrivals. *)
