(** Seeded drills that drive a shard cluster end to end, and the one
    audit behind "journal replay shows zero divergence". A drill owns a
    {!Rebal_online.Cluster} whose shards journal (JSONL) into in-memory
    buffers. {!failover} is the §1 migration scenario under faults
    ([rebalance chaos-serve], bench E20); {!churn} is the concurrent
    client of benches E21–E23; {!audit} checks either afterwards. *)

module Cluster = Rebal_online.Cluster
module Engine = Rebal_online.Engine
module Supervisor = Rebal_online.Supervisor

type t

val create : domains:int -> m:int -> shards:int -> unit -> t
val cluster : t -> Cluster.t

val journal : t -> int -> Buffer.t
(** Shard [i]'s journal; touch it only while the cluster is quiescent. *)

val restore : t -> int -> (Engine.t, string) result
(** Shard [i]'s journal replayed, on its owner, into a fresh engine that
    appends to the same buffer: ready for [Supervisor.readmit]. *)

val audit : t -> (int, string) result
(** On each shard's owner ([Cluster.query]), its journal must
    [Replay.resume] with [consistency_ok] to an engine equal to the live
    one in job count, makespan and every job's (size, processor); the
    replay binds its metrics in a scratch registry. [Ok] counts the
    events replayed, [Error] names every failing shard. Call it before
    [Cluster.shutdown]. *)

type failover = {
  downtime_weighted : float;  (** sum over steps of makespan x (1 + shards not serving) *)
  rejected : int;  (** workload ops the supervisor refused *)
  recoveries : (int * int * int) list;  (** (shard, step Down, step Healthy again) *)
  unrecovered : (int * int * Supervisor.health) list;  (** (shard, step Down, final health) *)
  stats : Supervisor.stats;
  failures : string list;
      (** failed readmissions, then the model audit: jobs lost, resized
          wrongly or stray, or a failed [Cluster.check_consistency ~k:16] *)
}

val failover :
  t ->
  live:(int -> int -> bool) ->
  seed:int ->
  prefix:string ->
  horizon:int ->
  ops_per_step:int ->
  period:int ->
  k:int ->
  ?evac_budget:int ->
  ?on_step:(Supervisor.t -> int -> unit) ->
  unit ->
  failover
(** [horizon] steps under a supervisor (Suspect after 1 failed probe,
    Down after 2, 4 recovery steps, [evac_budget] jobs per evacuation,
    default unbounded) whose probe of shard [i] at step [s] is
    [live i s]. Each step ticks it, restores and readmits every Down
    shard [live] revived, applies [ops_per_step] seeded 60/25/15
    add/remove/resize ops (ids [prefix ^ string_of_int n]), repairs with
    budget [k] every [period] steps, scores its makespan and calls
    [on_step]. *)

type churn = {
  wall : float;  (** seconds from the first thread's start to the last join *)
  latencies : float array;  (** every op's latency in seconds, sorted *)
  live : int;  (** jobs live at the end *)
}

val churn :
  t ->
  threads:int ->
  sessions:int ->
  ops:int ->
  seed:int ->
  prefix:string ->
  ?wrap:(string -> (unit -> unit) -> unit) ->
  unit ->
  churn
(** [threads] systhreads each run [ops] ops of the 60/25/15 mix
    round-robin over [sessions] private id universes (ids
    [prefix ^ "t<th>s<session>.<n>"], or [prefix ^ "t<th>.<n>"] for one
    session), thread [th] from seed [seed + th]; thread 0 also repairs
    with budget 8 after every 500th op. [wrap verb f] runs each op
    (verbs ["ADD"], ["REMOVE"], ["RESIZE"], ["REBALANCE"]).
    @raise Failure if an op is rejected, or afterwards the cluster holds
    other than [live] jobs or fails [check_consistency ~k:max_int]. *)

val percentile : churn -> float -> float
(** The latency at rank [q * ops], clamped. *)
