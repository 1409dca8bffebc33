(* Router tests. The sequential router is the cluster on the inline
   executor (D = 0): the qcheck stream property (every shard's
   bounded-repair invariant plus directory integrity for S ∈ {1, 2, 8}),
   S=1 against a bare engine as the independent reference, and the
   equivalence property — a command stream fanned across D ∈ {1, 2, 8}
   worker domains lands in exactly the state, directory and move lists
   of D = 0, with every per-shard journal individually replayable.
   Then routing, weights and construction units, mailbox backpressure
   and close semantics, two-phase move crash points, and a genuinely
   concurrent multi-thread driver checked for directory integrity. *)

module Engine = Rebal_online.Engine
module Cluster = Rebal_online.Cluster
module Mailbox = Rebal_online.Mailbox
module Replay = Rebal_online.Replay
module Journal = Rebal_obs.Journal

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected cluster error: %s" e

(* Deterministic in-memory journals, one per shard: each Buffer and
   fake clock is touched only by its shard's owner domain, which is
   exactly the confinement the cluster promises its sinks. *)
let buffer_journals shards =
  let bufs = Array.init shards (fun _ -> Buffer.create 512) in
  let journal_for i =
    let tick = ref 0 in
    Some
      (Journal.create
         ~clock_ns:(fun () ->
           incr tick;
           Int64.of_int (!tick * 1000))
         ~write:(Buffer.add_string bufs.(i))
         ())
  in
  (bufs, journal_for)

(* An adversarial stream: m >= 8 so an 8-shard split is
   constructible; duplicate adds and missing removes are part of it —
   the router must reject them without corrupting the directory. *)
let stream_gen =
  let open QCheck2 in
  Gen.(
    let* m = int_range 8 16 in
    let id = map (fun i -> Printf.sprintf "j%d" i) (int_range 0 24) in
    let* events =
      list_size (int_range 0 80)
        (oneof
           [
             map2 (fun id size -> `Add (id, size)) id (int_range 1 60);
             map (fun id -> `Remove id) id;
             map2 (fun id size -> `Resize (id, size)) id (int_range 1 60);
             map (fun k -> `Rebalance k) (int_range 0 8);
           ])
    in
    let* k = int_range 0 20 in
    return (m, events, k))

let apply_events c events =
  List.iter
    (fun ev ->
      match ev with
      | `Add (id, size) -> ignore (Cluster.add_job c ~id ~size)
      | `Remove id -> ignore (Cluster.remove_job c ~id)
      | `Resize (id, size) -> ignore (Cluster.resize_job c ~id ~size)
      | `Rebalance k -> ignore (Cluster.rebalance c ~k))
    events

(* Every shard journal replays to the engine the router left behind. *)
let journals_replay c bufs =
  Array.for_all
    (fun i ->
      let eng = Cluster.engine c i in
      match Result.bind (Journal.parse_string (Buffer.contents bufs.(i))) Replay.run with
      | Error _ -> false
      | Ok o ->
        o.Replay.consistency_ok
        && o.Replay.final_makespan = Engine.makespan eng
        && o.Replay.final_jobs = Engine.job_count eng)
    (Array.init (Cluster.shard_count c) Fun.id)

(* The equivalence property: a quiescent router is observationally the
   same whatever its executor — same loads, same global peak, same
   directory, same repair decisions — and every per-shard journal, the
   inline router's included, replays to the engine it left behind. *)
let prop_cluster_matches_shard =
  QCheck2.Test.make
    ~name:"cluster = sequential shard router: D=0 and D in {1,2,8} agree, journals replay"
    ~count:40 stream_gen
    (fun (m, events, k) ->
      let shards = 8 in
      let seq_bufs, journal_for = buffer_journals shards in
      let seq = Cluster.create ~journal_for ~m ~shards ~domains:0 () in
      apply_events seq events;
      let seq_moves = Cluster.rebalance seq ~k in
      journals_replay seq seq_bufs
      && List.for_all
           (fun domains ->
             let bufs, journal_for = buffer_journals shards in
             let c = Cluster.create ~journal_for ~m ~shards ~domains () in
             apply_events c events;
             let par_moves = Cluster.rebalance c ~k in
             let state_equal =
               Cluster.loads c = Cluster.loads seq
               && Cluster.makespan c = Cluster.makespan seq
               && Cluster.job_count c = Cluster.job_count seq
               && par_moves = seq_moves
               && Cluster.stats c = Cluster.stats seq
               && Array.for_all2
                    (fun (a : Engine.stats) (b : Engine.stats) ->
                      a.Engine.makespan = b.Engine.makespan && a.Engine.jobs = b.Engine.jobs)
                    (Cluster.shard_stats c) (Cluster.shard_stats seq)
               && List.for_all
                    (fun id -> Cluster.shard_of c id = Cluster.shard_of seq id)
                    (List.init 25 (Printf.sprintf "j%d"))
               && Cluster.check_consistency c ~k
               && Cluster.check_consistency c ~k:max_int
             in
             Cluster.shutdown c;
             state_equal && journals_replay c bufs)
           [ 1; 2; 8 ])

let prop_sharded_stream_consistent =
  QCheck2.Test.make
    ~name:"sharded stream: check_consistency holds for S in {1,2,8}" ~count:200 stream_gen
    (fun (m, events, k) ->
      List.for_all
        (fun shards ->
          let c = Cluster.create ~m ~shards ~domains:0 () in
          apply_events c events;
          let loads = Cluster.loads c in
          Cluster.check_consistency c ~k
          && Cluster.check_consistency c ~k:max_int
          && Array.length loads = m
          && Array.fold_left ( + ) 0 loads = (Cluster.stats c).Cluster.total_size
          && Array.fold_left max 0 loads = Cluster.makespan c
          && Cluster.job_count c
             = Array.fold_left ( + ) 0
                 (Array.init shards (fun i -> Engine.job_count (Cluster.engine c i))))
        [ 1; 2; 8 ])

let prop_single_shard_matches_engine =
  QCheck2.Test.make ~name:"S=1 router behaves exactly like a bare engine" ~count:200
    stream_gen
    (fun (m, events, k) ->
      let c = Cluster.create ~m ~shards:1 ~domains:0 () in
      let eng = Engine.create ~m () in
      apply_events c events;
      List.iter
        (fun ev ->
          match ev with
          | `Add (id, size) -> ignore (Engine.add_job eng ~id ~size)
          | `Remove id -> ignore (Engine.remove_job eng ~id)
          | `Resize (id, size) -> ignore (Engine.resize_job eng ~id ~size)
          | `Rebalance k -> ignore (Engine.rebalance eng ~k))
        events;
      ignore (Cluster.rebalance c ~k);
      ignore (Engine.rebalance eng ~k);
      Cluster.loads c = Engine.loads eng
      && Cluster.makespan c = Engine.makespan eng
      && Cluster.job_count c = Engine.job_count eng)

(* --- routing ------------------------------------------------------------- *)

(* Unit bodies run on both executors; [query] reads a live engine on its
   owner either way, and each router is shut down afterwards. *)
let on_executors f =
  List.iter
    (fun domains ->
      let c = f ~domains in
      Cluster.shutdown c)
    [ 0; 2 ]

let engine_m c i = Cluster.query c i Engine.m

let test_routing_is_sticky () =
  on_executors @@ fun ~domains ->
  let c = Cluster.create ~m:8 ~shards:4 ~domains () in
  for i = 0 to 199 do
    ignore (ok (Cluster.add_job c ~id:(Printf.sprintf "j%d" i) ~size:(1 + (i mod 17))))
  done;
  check_int "all jobs present" 200 (Cluster.job_count c);
  for i = 0 to 199 do
    let id = Printf.sprintf "j%d" i in
    match Cluster.shard_of c id with
    | None -> Alcotest.failf "%s lost by the directory" id
    | Some s ->
      check_bool "directory agrees with the shard" true
        (Cluster.query c s (fun e -> Engine.mem e id));
      (* find translates the per-shard processor into the global index. *)
      (match Cluster.find c id with
      | Some (_, p) ->
        check_bool "global proc in the shard's range" true
          (p >= Cluster.offset c s && p < Cluster.offset c s + engine_m c s)
      | None -> Alcotest.fail "find lost a live job")
  done;
  (* Re-adding after a remove lands back on the hash-home shard. *)
  let home = Option.get (Cluster.shard_of c "j7") in
  ignore (ok (Cluster.remove_job c ~id:"j7"));
  check_bool "removed from directory" false (Cluster.mem c "j7");
  ignore (ok (Cluster.add_job c ~id:"j7" ~size:3));
  check_int "hash routing is deterministic" home (Option.get (Cluster.shard_of c "j7"));
  c

let test_inter_shard_move () =
  on_executors @@ fun ~domains ->
  (* Two single-processor shards, all load on the first: per-shard repair
     cannot help (one processor is trivially balanced), so only the
     cross-shard pass can lower the global peak. *)
  let c =
    ok
      (Cluster.of_engines ~domains ~shards:2 (fun i ->
           let e = Engine.create ~m:1 () in
           if i = 0 then begin
             ignore (Engine.add_job e ~id:"big" ~size:100);
             ignore (Engine.add_job e ~id:"small" ~size:60)
           end;
           e))
  in
  check_int "peak before" 160 (Cluster.makespan c);
  let moves = Cluster.rebalance c ~k:8 in
  check_int "peak after the cross-shard transfer" 100 (Cluster.makespan c);
  check_int "exactly one transfer" 1 (List.length moves);
  (match moves with
  | [ mv ] ->
    check Alcotest.string "the big job moved" "big" mv.Cluster.id;
    check_int "from global proc 0" 0 mv.Cluster.src;
    check_int "to global proc 1" 1 mv.Cluster.dst
  | _ -> Alcotest.fail "expected the single transfer as a move");
  check_int "directory follows the move" 1 (Option.get (Cluster.shard_of c "big"));
  check_int "inter_moves counted" 1 (Cluster.stats c).Cluster.inter_moves;
  check_bool "still consistent" true (Cluster.check_consistency c ~k:8);
  (* No further improvement is possible: the pass must not thrash. *)
  check_int "idempotent" 0 (List.length (Cluster.rebalance c ~k:8));
  c

let test_weights () =
  on_executors @@ fun ~domains ->
  let c = Cluster.create ~m:4 ~shards:2 ~domains () in
  Alcotest.check_raises "weights live in [0, 1]"
    (Invalid_argument "Cluster.set_weight: weight must be in [0, 1]") (fun () ->
      Cluster.set_weight c 0 1.5);
  Cluster.set_weight c 1 0.0;
  for i = 0 to 49 do
    ignore (ok (Cluster.add_job c ~id:(Printf.sprintf "w%d" i) ~size:(1 + i)))
  done;
  check_int "a zero-weight shard takes no new routes" 0 (Cluster.query c 1 Engine.job_count);
  check_bool "and sits out the cross-shard pass" true
    (List.for_all (fun mv -> mv.Cluster.dst < Cluster.offset c 1) (Cluster.rebalance c ~k:8));
  (* Evacuating the loaded shard onto the (re-weighted) other one. *)
  Cluster.set_weight c 1 1.0;
  Cluster.set_weight c 0 0.0;
  let _, left = ok (Cluster.evacuate c ~from:0 ~budget:10) in
  check_int "budget honoured" 40 left;
  check_int "evacuated jobs landed" 10 (Cluster.query c 1 Engine.job_count);
  check_bool "consistent after evacuation" true (Cluster.check_consistency c ~k:8);
  (match Cluster.replace_engine c 0 (Engine.create ~m:2 ()) with
  | Ok () -> Alcotest.fail "replacement disagreeing with the directory accepted"
  | Error e -> check_bool ("names the mismatch: " ^ e) true (String.length e > 0));
  c

(* --- construction -------------------------------------------------------- *)

let test_of_engines_rejects_duplicates () =
  let e0 = Engine.create ~m:1 () and e1 = Engine.create ~m:1 () in
  ignore (Engine.add_job e0 ~id:"x" ~size:5);
  ignore (Engine.add_job e1 ~id:"x" ~size:7);
  match Cluster.of_engines ~domains:0 ~shards:2 (fun i -> if i = 0 then e0 else e1) with
  | Ok _ -> Alcotest.fail "duplicate residency accepted"
  | Error e -> check_bool ("names the job: " ^ e) true (String.length e > 0)

let test_split_validation () =
  Alcotest.check_raises "zero shards"
    (Invalid_argument "Cluster.create: need at least one shard") (fun () ->
      ignore (Cluster.create ~m:4 ~shards:0 ~domains:0 ()));
  Alcotest.check_raises "more shards than processors"
    (Invalid_argument "Cluster.create: need at least one processor per shard") (fun () ->
      ignore (Cluster.create ~m:2 ~shards:3 ~domains:0 ()));
  (* Uneven splits hand the remainder to the first shards. *)
  let c = Cluster.create ~m:7 ~shards:3 ~domains:0 () in
  check_int "shard 0 procs" 3 (Engine.m (Cluster.engine c 0));
  check_int "shard 1 procs" 2 (Engine.m (Cluster.engine c 1));
  check_int "shard 2 procs" 2 (Engine.m (Cluster.engine c 2));
  check_int "offsets partition" 3 (Cluster.offset c 1);
  check_int "offsets partition" 5 (Cluster.offset c 2);
  match Cluster.journal_snapshot c with
  | Ok _ -> Alcotest.fail "snapshot without journals must fail"
  | Error e -> check_bool "names the missing sinks" true (String.length e > 0)

let test_aggregated_stats () =
  let c = Cluster.create ~m:8 ~shards:2 ~domains:0 () in
  for i = 0 to 49 do
    ignore (ok (Cluster.add_job c ~id:(Printf.sprintf "j%d" i) ~size:(1 + (i mod 9))))
  done;
  ignore (Cluster.rebalance c ~k:4);
  let st = Cluster.stats c in
  check_int "shards" 2 st.Cluster.shards;
  check_int "jobs" 50 st.Cluster.jobs;
  check_int "procs" 8 st.Cluster.procs;
  check_int "adds summed" 50 st.Cluster.adds;
  check_int "makespan is the global peak" (Cluster.makespan c) st.Cluster.makespan;
  check_bool "imbalance sane" true (st.Cluster.imbalance >= 1.0 -. 1e-9);
  check_int "per-shard view has one entry per shard" 2
    (Array.length (Cluster.shard_stats c))

(* --- mailbox ------------------------------------------------------------- *)

let test_mailbox_backpressure () =
  let mb = Mailbox.create ~capacity:2 in
  check Alcotest.(result unit string) "capacity validated"
    (Error "cap")
    (match Mailbox.create ~capacity:0 with
    | exception Invalid_argument _ -> Error "cap"
    | _ -> Ok ());
  check_int "capacity reported" 2 (Mailbox.capacity mb);
  check_bool "send into space" true (Mailbox.send mb 1);
  check_bool "send fills" true (Mailbox.send mb 2);
  (match Mailbox.try_send mb 3 with
  | `Full -> ()
  | `Sent | `Closed -> Alcotest.fail "full mailbox accepted a third element");
  check_int "length is the fill" 2 (Mailbox.length mb);
  (* A blocked sender parks until the consumer makes room. *)
  let unblocked = ref false in
  let t =
    Thread.create
      (fun () ->
        ignore (Mailbox.send mb 3);
        unblocked := true)
      ()
  in
  Thread.delay 0.02;
  check_bool "sender is parked while full" false !unblocked;
  check Alcotest.(option int) "fifo order" (Some 1) (Mailbox.recv mb);
  Thread.join t;
  check_bool "sender woke after recv" true !unblocked;
  check Alcotest.(option int) "fifo order" (Some 2) (Mailbox.recv mb);
  check Alcotest.(option int) "fifo order" (Some 3) (Mailbox.recv mb)

let test_mailbox_close () =
  let mb = Mailbox.create ~capacity:4 in
  check_bool "accepted before close" true (Mailbox.send mb "a");
  check_bool "accepted before close" true (Mailbox.send mb "b");
  Mailbox.close mb;
  Mailbox.close mb (* idempotent *);
  check_bool "closed" true (Mailbox.is_closed mb);
  check_bool "send refused after close" false (Mailbox.send mb "c");
  (match Mailbox.try_send mb "c" with
  | `Closed -> ()
  | `Sent | `Full -> Alcotest.fail "closed mailbox accepted a send");
  (* Everything accepted before close still drains, then end-of-stream. *)
  check Alcotest.(option string) "drains a" (Some "a") (Mailbox.recv mb);
  check Alcotest.(option string) "drains b" (Some "b") (Mailbox.recv mb);
  check Alcotest.(option string) "end of stream" None (Mailbox.recv mb);
  (* close wakes a sender blocked on a full mailbox. *)
  let full = Mailbox.create ~capacity:1 in
  ignore (Mailbox.send full 0);
  let refused = ref None in
  let t = Thread.create (fun () -> refused := Some (Mailbox.send full 1)) () in
  Thread.delay 0.02;
  Mailbox.close full;
  Thread.join t;
  check Alcotest.(option bool) "blocked sender refused on close" (Some false) !refused

(* --- two-phase moves ----------------------------------------------------- *)

(* Two single-processor shards so residency is unambiguous. *)
let two_shard_cluster () =
  let bufs, journal_for = buffer_journals 2 in
  (Cluster.create ~journal_for ~m:2 ~shards:2 ~domains:2 (), bufs)

let replayable bufs =
  Array.for_all
    (fun (buf : Buffer.t) ->
      match Result.bind (Journal.parse_string (Buffer.contents buf)) Replay.run with
      | Ok o -> o.Replay.consistency_ok
      | Error e -> Alcotest.failf "journal did not replay: %s" e)
    bufs

let test_move_commits () =
  let c, bufs = two_shard_cluster () in
  ignore (ok (Cluster.add_job c ~id:"big" ~size:100));
  let src = Option.get (Cluster.shard_of c "big") in
  let dst = 1 - src in
  let moves = ok (Cluster.move c ~id:"big" ~dst) in
  check_int "one recorded transfer" 1 (List.length moves);
  check Alcotest.(option int) "directory follows the move" (Some dst)
    (Cluster.shard_of c "big");
  check_int "inter_moves counted" 1 (Cluster.stats c).Cluster.inter_moves;
  check_bool "consistent after commit" true (Cluster.check_consistency c ~k:8);
  check Alcotest.(result (list unit) string) "move to own shard is a no-op" (Ok [])
    (Result.map (List.map ignore) (Cluster.move c ~id:"big" ~dst));
  Cluster.shutdown c;
  check_bool "both shard journals replay" true (replayable bufs)

let test_move_crash_rolls_back () =
  let c, bufs = two_shard_cluster () in
  ignore (ok (Cluster.add_job c ~id:"big" ~size:100));
  ignore (ok (Cluster.add_job c ~id:"other" ~size:7));
  let src = Option.get (Cluster.shard_of c "big") in
  let before_jobs = Cluster.job_count c and before_peak = Cluster.makespan c in
  (* The crash point: after the journaled remove on the source, before
     the journaled add on the destination. The transfer must roll back
     through the ordinary journaled path, leaving both shard journals
     replayable and the job where it started. *)
  (match Cluster.move c ~on_removed:(fun () -> failwith "injected crash") ~id:"big" ~dst:(1 - src) with
  | Ok _ -> Alcotest.fail "crashed transfer reported success"
  | Error e -> check_bool ("reports the failure: " ^ e) true (String.length e > 0));
  check Alcotest.(option int) "job back on the source shard" (Some src)
    (Cluster.shard_of c "big");
  check_int "no job lost" before_jobs (Cluster.job_count c);
  check_int "load restored" before_peak (Cluster.makespan c);
  check_int "rolled-back transfer not counted" 0 (Cluster.stats c).Cluster.inter_moves;
  check_bool "consistent after rollback" true (Cluster.check_consistency c ~k:8);
  (* The id is fully settled: ordinary traffic proceeds. *)
  ignore (ok (Cluster.resize_job c ~id:"big" ~size:50));
  check_int "resize landed after rollback" 50 (fst (Option.get (Cluster.find c "big")));
  check_bool "still consistent" true (Cluster.check_consistency c ~k:8);
  Cluster.shutdown c;
  check_bool "both shard journals replay after the crash" true (replayable bufs)

let test_move_validation () =
  let c, _ = two_shard_cluster () in
  (match Cluster.move c ~id:"ghost" ~dst:1 with
  | Ok _ -> Alcotest.fail "moved a job that does not exist"
  | Error e -> check_bool ("names the job: " ^ e) true (String.length e > 0));
  (match Cluster.move c ~id:"ghost" ~dst:7 with
  | Ok _ -> Alcotest.fail "accepted an out-of-range destination"
  | Error e -> check_bool ("names the shard: " ^ e) true (String.length e > 0));
  Cluster.shutdown c

(* --- concurrency and shutdown -------------------------------------------- *)

let test_concurrent_drivers () =
  let shards = 4 in
  let bufs, journal_for = buffer_journals shards in
  let c = Cluster.create ~journal_for ~m:8 ~shards ~domains:4 () in
  let threads = 8 and per_thread = 150 in
  let survivors = Array.make threads 0 in
  let driver t () =
    (* Private id namespace per thread, so every command is valid and
       the only contention is inside the cluster. *)
    let live = ref [] and n = ref 0 in
    for i = 0 to per_thread - 1 do
      let id = Printf.sprintf "t%d.%d" t i in
      (match i mod 5 with
      | 0 | 1 | 2 ->
        ignore (ok (Cluster.add_job c ~id ~size:(1 + ((t + i) mod 40))));
        live := id :: !live;
        incr n
      | 3 -> (
        match !live with
        | [] -> ()
        | victim :: rest ->
          ignore (ok (Cluster.remove_job c ~id:victim));
          live := rest;
          decr n)
      | _ -> (
        match !live with
        | [] -> ()
        | id :: _ -> ignore (ok (Cluster.resize_job c ~id ~size:(1 + (i mod 40))))));
      if i mod 37 = 0 then ignore (Cluster.rebalance c ~k:3)
    done;
    survivors.(t) <- !n
  in
  let ts = Array.init threads (fun t -> Thread.create (driver t) ()) in
  Array.iter Thread.join ts;
  check_int "no job lost or duplicated under contention"
    (Array.fold_left ( + ) 0 survivors)
    (Cluster.job_count c);
  check_bool "directory and engines agree after the storm" true
    (Cluster.check_consistency c ~k:max_int);
  check_int "snapshot reaches every shard" shards
    (List.length (ok (Cluster.journal_snapshot c)));
  Cluster.shutdown c;
  check_bool "every journal from the concurrent run replays" true (replayable bufs)

let test_shutdown_semantics () =
  let c = Cluster.create ~m:4 ~shards:2 () in
  ignore (ok (Cluster.add_job c ~id:"x" ~size:5));
  Cluster.shutdown c;
  Cluster.shutdown c (* idempotent *);
  (match Cluster.add_job c ~id:"y" ~size:1 with
  | Ok _ -> Alcotest.fail "accepted work after shutdown"
  | Error e -> check Alcotest.string "reports shutdown" "cluster is shut down" e);
  Alcotest.check_raises "inspection raises after shutdown" Cluster.Shut_down (fun () ->
      ignore (Cluster.query c 0 Engine.makespan));
  (* The engines themselves remain readable — the replay-audit path. *)
  check_int "post-shutdown engine access" 1
    (Engine.job_count (Cluster.engine c 0) + Engine.job_count (Cluster.engine c 1))

let test_create_validation () =
  Alcotest.check_raises "negative domains"
    (Invalid_argument "Cluster: domain count must be non-negative") (fun () ->
      ignore (Cluster.create ~m:4 ~shards:2 ~domains:(-1) ()));
  check_int "zero domains is the inline executor" 0
    (Cluster.domain_count (Cluster.create ~m:4 ~shards:2 ~domains:0 ()));
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Cluster.create: need a positive mailbox capacity") (fun () ->
      ignore (Cluster.create ~m:4 ~shards:2 ~mailbox_capacity:0 ()));
  (* Domains clamp to the shard count. *)
  let c = Cluster.create ~m:7 ~shards:3 ~domains:64 () in
  check_int "domains clamped to shards" 3 (Cluster.domain_count c);
  check_int "offsets partition" 3 (Cluster.offset c 1);
  check_int "offsets partition" 5 (Cluster.offset c 2);
  (match Cluster.journal_snapshot c with
  | Ok _ -> Alcotest.fail "snapshot without journals must fail"
  | Error e -> check_bool "names the missing sinks" true (String.length e > 0));
  Cluster.shutdown c;
  let e0 = Engine.create ~m:1 () and e1 = Engine.create ~m:1 () in
  ignore (Engine.add_job e0 ~id:"x" ~size:5);
  ignore (Engine.add_job e1 ~id:"x" ~size:7);
  match Cluster.of_engines ~shards:2 (fun i -> if i = 0 then e0 else e1) with
  | Ok c ->
    Cluster.shutdown c;
    Alcotest.fail "duplicate residency accepted"
  | Error e -> check_bool ("names the duplicate: " ^ e) true (String.length e > 0)

(* Alcotest pads each test name to the longest group label of its run and
   truncates it to the terminal width, so a long label shortens every printed
   name in the run. The stream properties run on their own to keep the printed
   names of both runs stable for tools that track tests by name. *)
let () =
  Alcotest.run ~and_exit:false "rebal_cluster"
    [
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_cluster_matches_shard ] );
      ( "routing",
        [
          Alcotest.test_case "directory is sticky and global" `Quick test_routing_is_sticky;
          Alcotest.test_case "cross-shard move pass" `Quick test_inter_shard_move;
          Alcotest.test_case "weights steer routing, repair and evacuation" `Quick test_weights;
        ] );
      ( "construction",
        [
          Alcotest.test_case "duplicate residency rejected" `Quick
            test_of_engines_rejects_duplicates;
          Alcotest.test_case "creation validation and splits" `Quick test_split_validation;
          Alcotest.test_case "aggregated stats" `Quick test_aggregated_stats;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "backpressure blocks and wakes" `Quick
            test_mailbox_backpressure;
          Alcotest.test_case "close refuses, drains, wakes" `Quick test_mailbox_close;
        ] );
      ( "two-phase moves",
        [
          Alcotest.test_case "commit updates the directory" `Quick test_move_commits;
          Alcotest.test_case "crash between halves rolls back" `Quick
            test_move_crash_rolls_back;
          Alcotest.test_case "validation" `Quick test_move_validation;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "eight threads against four domains" `Quick
            test_concurrent_drivers;
          Alcotest.test_case "shutdown semantics" `Quick test_shutdown_semantics;
          Alcotest.test_case "creation validation" `Quick test_create_validation;
        ] );
    ];
  Alcotest.run "rebal_cluster_streams"
    [
      ( "stream properties",
        [
          QCheck_alcotest.to_alcotest prop_sharded_stream_consistent;
          QCheck_alcotest.to_alcotest prop_single_shard_matches_engine;
        ] );
    ]
