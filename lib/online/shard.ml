type t = Cluster.t

type stats = Cluster.stats = {
  shards : int;
  jobs : int;
  procs : int;
  makespan : int;
  total_size : int;
  imbalance : float;
  events : int;
  adds : int;
  removes : int;
  resizes : int;
  rebalances : int;
  auto_rebalances : int;
  trigger_firings : int;
  moved : int;
  inter_moves : int;
  consistency_checks : int;
  consistency_failures : int;
}

let of_engines engines =
  Cluster.of_engines ~domains:0 ~shards:(Array.length engines) (fun i -> engines.(i))

let makespan = Cluster.makespan
let stats = Cluster.stats
