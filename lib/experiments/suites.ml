let all =
  [ Chaos.chaos; Chaos.crash; Partition.suite; Lease.suite; Method_cache.suite;
    Batching.suite; Function_shipping.suite; Escrow.suite ]
  @ Paper.all
