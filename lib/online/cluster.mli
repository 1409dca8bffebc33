(** The shard router: the online engine scaled out. Processors are
    partitioned into [S] shards, each backed by its own {!Engine} (with
    its own trigger and, optionally, its own flight-recorder journal);
    new jobs are placed by consistent hashing over their ids, so the
    id-to-shard map survives restarts without coordination.

    Processor numbering is global: shard [i] owns the contiguous range
    [[offset t i, offset t i + m_i)], and every move list or processor
    this module returns uses global indices.

    {b Executors.} Where a shard's engine work runs is the one thing
    the domain count [D] decides:
    - [D = 0], the {e inline} executor: every task runs on the
      caller's thread, right away — no mailbox, no reply cell, no
      extra clock read. Engines bind their metric handles to the
      caller's registry. This is the sequential router; it is not
      safe to drive from several threads at once (the daemon wraps it
      in its operation lock).
    - [D >= 1]: shard [i] is owned by worker domain [i mod D] and
      every task on it crosses that worker's bounded MPSC {!Mailbox};
      callers park on a reply cell, so operations stay synchronous at
      the call site while distinct shards execute in parallel. All of
      a shard's engine work (state, journal writes, metric handles)
      runs on its owner in mailbox order — single-writer confinement
      — and the router is safe to drive from many threads.

    Routing, repair and reporting are the same code for every [D], so
    a quiescent router makes the same decisions whatever its executor.

    {b The directory.} Job residency lives in one mutex-guarded
    directory, authoritative for lookups (the ring only decides where
    a {e new} id lands; cross-shard moves break hash residency). Every
    mutating operation {e reserves} its id there before touching an
    engine and settles it afterwards; operations arriving while an id
    is reserved wait. That per-id reservation is the only cross-shard
    synchronization point.

    {b Two-phase moves.} Cross-shard transfers ({!move}, {!rebalance}'s
    cross-shard pass, {!evacuate}) reserve the id, lift it off the
    source through the ordinary journaled remove, land it on the
    destination through the ordinary journaled add, then commit the
    directory. Each half is a plain single-shard event on that shard's
    own journal, so {b every per-shard journal stays individually
    replayable}. A failed second half rolls back by re-adding on the
    source (again an ordinary journaled event).

    {b Weights.} Each shard carries a routing weight in [[0, 1]] (see
    {!set_weight}): the supervisor's lever for taking a dead shard out
    of routing and ramping a readmitted one back in. *)

type move = Engine.move = {
  id : string;
  src : int;
  dst : int;
}

type stats = {
  shards : int;
  jobs : int;
  procs : int;
  makespan : int;  (** max over all shards *)
  total_size : int;
  imbalance : float;
      (** global makespan / max (global average load, largest live job) *)
  events : int;
  adds : int;  (** includes the add half of cross-shard transfers *)
  removes : int;  (** includes the remove half of cross-shard transfers *)
  resizes : int;
  rebalances : int;
  auto_rebalances : int;
  trigger_firings : int;
  moved : int;  (** intra-shard repair relocations, summed *)
  inter_moves : int;  (** cross-shard transfers performed by this router *)
  consistency_checks : int;
  consistency_failures : int;
}

exception Shut_down
(** Raised by inspection entry points ({!query}, {!stats}, {!loads},
    {!shard_stats}, {!check_consistency}) called after {!shutdown}.
    The result-returning operations catch it and report
    ["cluster is shut down"] instead. *)

type t

val create :
  ?trigger:Engine.trigger ->
  ?clock:(unit -> float) ->
  ?journal_for:(int -> Rebal_obs.Journal.sink option) ->
  ?mailbox_capacity:int ->
  ?domains:int ->
  m:int ->
  shards:int ->
  unit ->
  t
(** [m] processors split as evenly as possible over [shards] engines
    (the first [m mod shards] shards get one extra). [trigger] and
    [clock] are handed to every engine; [journal_for i] supplies shard
    [i]'s flight-recorder sink. [domains] defaults to [shards] and is
    clamped to it; [0] selects the inline executor. With workers, each
    engine (metric handles and all) is bound to its owner domain's
    private registry, and [mailbox_capacity] (default 1024) bounds each
    worker's command queue — senders block when it fills, which is the
    backpressure. Worker domains are spawned here; pair with
    {!shutdown}.
    @raise Invalid_argument on a negative domain count, a non-positive
    capacity, [shards < 1] or [m < shards]. *)

val of_engines :
  ?mailbox_capacity:int ->
  ?domains:int ->
  shards:int ->
  (int -> Engine.t) ->
  (t, string) result
(** Assemble a router around restored engines — the restart path.
    [build i] is called once per shard, {e under the owner domain's
    registry} when there are workers, so resumed engines bind their
    metric handles where only their worker writes (this is why the
    builder is a function, not an array). The residency directory is
    rebuilt from the engines' live jobs; [Error] if an id appears in
    two engines. *)

val shard_count : t -> int

val domain_count : t -> int
(** Worker domains; [0] for the inline executor. *)

val m : t -> int
(** Total processors across all shards. *)

val offset : t -> int -> int
(** First global processor index owned by shard [i]. *)

val job_count : t -> int
val makespan : t -> int

val loads : t -> int array
(** Global load vector (length [m]), shard ranges concatenated. *)

val mem : t -> string -> bool

val shard_of : t -> string -> int option
(** The shard a live job currently resides in. *)

val find : t -> string -> (int * int) option
(** [(size, global processor)]. Waits for any in-flight operation on
    the id to settle first. *)

val weight : t -> int -> float
(** Shard [i]'s routing weight (1.0 unless changed). *)

val set_weight : t -> int -> float -> unit
(** Set shard [i]'s routing weight in [[0, 1]]: the fraction of its
    virtual nodes accepting {e new} placements (weight [w] keeps
    [ceil (w * 64)] of its 64 replicas active, so weight 1 routes
    bit-identically to the unweighted ring). Weight 0 takes the shard
    out of the ring and out of {!rebalance}. Residency and lookups of
    jobs already placed are never affected. When {e every} shard is
    weighted to 0, routing falls back to the unweighted ring (refusing
    service on an all-down router is the supervisor's job).
    @raise Invalid_argument if [w] is outside [[0, 1]] or not finite. *)

val add_job : t -> id:string -> size:int -> (int * move list, string) result
(** Route by consistent hash, reserve, place greedily inside the chosen
    shard. Returns the global processor and any automatic-repair moves.
    With workers, blocks while the shard's mailbox is full —
    backpressure, not failure. *)

val remove_job : t -> id:string -> (int * move list, string) result
val resize_job : t -> id:string -> size:int -> (int * move list, string) result

val apply : t -> Engine.op -> (int * move list, string) result
(** One event through {!add_job}, {!remove_job} or {!resize_job}. *)

val apply_bulk :
  t ->
  ?on_result:(int -> Engine.op -> (int * move list, string) result -> unit) ->
  Engine.op array ->
  unit
(** Apply a batch of events, amortizing dispatch and journal flushing:
    the batch is routed into per-shard sub-batches and each involved
    shard runs one [Engine.apply_bulk] task — with workers, distinct
    shards execute in parallel — so each shard's journal is flushed
    once per sub-batch instead of once per event. Per-id semantics
    match the one-by-one operations: ids are reserved in the residency
    directory for the duration of their sub-batch, results (global
    processor indices, auto-repair moves, engine error strings) are
    identical, and [on_result] sees them in batch order, once the op's
    chunk has completed.

    Ordering barriers are honored by chunking: a duplicate id inside
    the batch, or an id currently reserved by a concurrent client,
    ends the current chunk — later ops wait for the earlier effect
    rather than race it. Only the first op of a chunk ever blocks on a
    foreign reservation, so two concurrent batches over overlapping
    ids chunk around each other instead of deadlocking. After
    {!shutdown} every result is ["cluster is shut down"]. *)

val move : ?on_removed:(unit -> unit) -> t -> id:string -> dst:int -> (move list, string) result
(** Two-phase cross-shard transfer of one job (see the header). Moving
    a job to its current shard is a no-op ([Ok []]). [on_removed] is
    the crash-injection hook for tests: it fires after the journaled
    remove and before the journaled add; if it raises, the transfer
    rolls back (re-add on the source) and reports [Error]. *)

val rebalance : t -> k:int -> move list
(** Per-shard bounded GREEDY repair (budget [k] each), then up to [k]
    cross-shard transfers: each lifts the largest job off the globally
    most-loaded processor onto the least-loaded processor of another
    shard, whenever that lands below the current peak, as a two-phase
    {!move} chosen from a fresh probe of every shard. Returns all moves
    in global indices, intra-shard repairs first. Zero-weight shards
    are skipped entirely — their engines are presumed unreachable, and
    transfers never target them. Under concurrent traffic a transfer
    beaten by a client operation is skipped and the next iteration
    re-probes.
    @raise Invalid_argument if [k < 0]. *)

val evacuate : t -> from:int -> budget:int -> (move list * int, string) result
(** Re-home up to [budget] jobs off shard [from] onto the other
    positive-weight shards, largest job first, each as a two-phase
    {!move} landing on the shard holding the globally least-loaded
    processor (where the batch GREEDY would put it). Returns the moves
    (global indices) and how many jobs were {e left} on [from].
    Typically called with weight 0 already set on [from] (the
    supervisor's Down transition); this function neither requires nor
    changes weights. [Error] if [from] is out of range, [budget] is
    negative, or jobs remain and no other shard has positive weight. *)

val replace_engine : t -> int -> Engine.t -> (unit, string) result
(** Swap shard [i]'s backing engine for [eng] — the re-admission path:
    a recovering shard restores an engine from its latest snapshot plus
    journal tail and hands it back to the router. The swap runs on the
    shard's owner domain. Refuses (leaving the router untouched) unless
    [eng] has the same processor count and holds exactly the jobs the
    directory maps to shard [i] (after a full evacuation, both are
    empty). *)

val stats : t -> stats
val shard_stats : t -> Engine.stats array

val check_consistency : t -> k:int -> bool
(** Directory integrity (every entry settled and resident exactly
    where its engine holds it) plus [Engine.check_consistency ~k] per
    shard. Meaningful on a quiescent router — in-flight reservations
    count as failures by design. *)

val journal_snapshot : t -> ((int * int) list, string) result
(** Emit a snapshot event into every shard's journal (on its owner
    domain); [(shard, event seq)] pairs. [Error] (emitting nothing) if
    any shard lacks a journal. *)

val query : t -> int -> (Engine.t -> 'a) -> 'a
(** Run a closure on shard [i]'s engine, {e on its owner domain}, and
    wait for the answer — the safe way to inspect a live engine (e.g.
    its job count or journal tail).
    @raise Shut_down after {!shutdown}. *)

val recorded_spans : t -> Rebal_obs.Optrace.span list
(** Every worker domain's recorded op spans (one collection task per
    {e domain}, not per shard), concatenated; empty for the inline
    executor. The caller's own domain is not included — combine with
    [Optrace.recorded ()] for the full picture.
    @raise Shut_down after {!shutdown}. *)

val merge_metrics : t -> into:Rebal_obs.Metrics.Registry.t -> unit
(** Fold every worker domain's metrics registry into [into] — call at
    exposition time with a fresh registry (merging twice into the same
    registry double-counts). A no-op for the inline executor. *)

val shutdown : t -> unit
(** Stop accepting work, drain every accepted task (in-flight
    operations still get replies), close the mailboxes and join the
    worker domains. Idempotent from one thread; afterwards operations
    report ["cluster is shut down"] and inspection raises
    {!Shut_down}. *)

val engine : t -> int -> Engine.t
(** Shard [i]'s backing engine, {e without} going through its owner —
    safe for the inline executor, and with workers only once the
    router is {!shutdown} (the replay-audit path in tests and benches).
    For a live parallel router use {!query}. *)
