(* Workload shape for a scale point: object population grows with the
   cluster (constant objects-per-node density, so contention does not
   concentrate as nodes are added), and the invocation tree is kept
   subcritical (2 ref slots x 0.4 invoke probability, expected branching
   0.8 < 1) so family size is bounded independent of the object count —
   per-root work stays constant as the point scales, which is what makes
   events/sec comparable across points. *)
let spec_for ~roots ~nodes =
  {
    Workload.Spec.default with
    Workload.Spec.root_count = roots;
    node_count = nodes;
    object_count = nodes * 32;
    arrival_mean_us = 1_000.0;
    max_ref_slots = 2;
    invoke_probability = 0.4;
  }
