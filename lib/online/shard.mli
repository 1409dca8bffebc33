(** The former name of the sequential shard router, kept as an alias:
    a {!Cluster} with the inline executor ([~domains:0]). New code
    should use {!Cluster} directly. *)

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

val of_engines : Engine.t array -> (t, string) result
(** [Cluster.of_engines ~domains:0] over the given engines. *)

val makespan : t -> int
val stats : t -> stats
