(* Supervisor tests: the health state machine (probe streaks, watchdog
   deadlines, recovery ramp), and the qcheck failover property — for
   S ∈ {2, 8}, evacuating a shard under an adversarial stream conserves
   every job, keeps the directory consistent, leaves every journal
   (evacuated shard included) replaying to the live state, and the
   evacuated shard restores from its own journal and readmits. Every
   case runs on the inline executor (D = 0) and on two worker domains;
   live engines are only ever read through [Cluster.query]. *)

module Engine = Rebal_online.Engine
module Cluster = Rebal_online.Cluster
module Supervisor = Rebal_online.Supervisor
module Replay = Rebal_online.Replay
module Journal = Rebal_obs.Journal
module Drill = Rebal_drill.Drill

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let health_eq =
  Alcotest.testable
    (fun ppf h -> Format.pp_print_string ppf (Supervisor.health_name h))
    ( = )

(* A cluster whose every shard journals into a buffer, so tests can
   replay what the engines recorded. *)
let journaled_cluster ~domains ~m ~shards =
  let buffers = Array.init shards (fun _ -> Buffer.create 1024) in
  let cluster =
    Cluster.create
      ~journal_for:(fun i -> Some (Journal.create ~write:(Buffer.add_string buffers.(i)) ()))
      ~domains ~m ~shards ()
  in
  (cluster, buffers)

let executors = [ 0; 2 ]

(* Run a unit body on every executor, shutting its router down after. *)
let on_executors f =
  List.iter
    (fun domains ->
      let cluster = f ~domains in
      Cluster.shutdown cluster)
    executors

let job_count cluster i = Cluster.query cluster i Engine.job_count

let replay_matches cluster buffers i =
  match Result.bind (Journal.parse_string (Buffer.contents buffers.(i))) Replay.resume with
  | Error _ -> false
  | Ok (eng, _) ->
    Cluster.query cluster i (fun live ->
        Engine.job_count eng = Engine.job_count live
        && Engine.makespan eng = Engine.makespan live
        && Engine.fold_jobs live
             (fun acc ~id ~size ~proc ->
               acc
               &&
               match Engine.find eng id with
               | Some (sz, p) -> sz = size && p = proc
               | None -> false)
             true)

let live_jobs cluster =
  List.concat
    (List.init (Cluster.shard_count cluster) (fun i ->
         Cluster.query cluster i (fun e ->
             Engine.fold_jobs e (fun acc ~id ~size ~proc:_ -> (id, size) :: acc) [])))

(* The victim's engine restored from its own journal, appending to it. *)
let restore buffers i =
  Result.map
    (fun (eng, outcome) ->
      Engine.set_journal eng
        (Some
           (Journal.create ~start_seq:outcome.Replay.events ~header_written:true
              ~write:(Buffer.add_string buffers.(i)) ()));
      eng)
    (Result.bind (Journal.parse_string (Buffer.contents buffers.(i))) Replay.resume)

(* ----- the failover property ----- *)

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
    let* victim = int_range 0 1000 in
    return (m, events, victim))

let apply_events sup events =
  List.iter
    (fun ev ->
      match ev with
      | `Add (id, size) -> ignore (Supervisor.add_job sup ~id ~size)
      | `Remove id -> ignore (Supervisor.remove_job sup ~id)
      | `Resize (id, size) -> ignore (Supervisor.resize_job sup ~id ~size)
      | `Rebalance k -> ignore (Supervisor.rebalance sup ~k))
    events

let prop_failover_conserves_work =
  QCheck2.Test.make
    ~name:"evacuate + readmit conserves work and replays cleanly for S in {2,8}, D in {0,2}"
    ~count:100 stream_gen
    (fun (m, events, victim) ->
      List.for_all
        (fun (shards, domains) ->
          let cluster, buffers = journaled_cluster ~domains ~m ~shards in
          let sup = Supervisor.create cluster in
          apply_events sup events;
          let before = List.sort compare (live_jobs cluster) in
          let victim = victim mod shards in
          (* Kill: every journaled job must survive on the survivors. *)
          ignore (Supervisor.mark_down sup victim);
          let after = List.sort compare (live_jobs cluster) in
          let conserved = before = after in
          let evacuated =
            job_count cluster victim = 0
            && Cluster.weight cluster victim = 0.0
            && Supervisor.health sup victim = Supervisor.Down
          in
          let consistent = Cluster.check_consistency cluster ~k:8 in
          let replays =
            List.for_all (replay_matches cluster buffers) (List.init shards Fun.id)
          in
          (* Readmit from the victim's own journal, ramp back, keep going. *)
          let readmitted =
            match restore buffers victim with
            | Error _ -> false
            | Ok eng -> Result.is_ok (Supervisor.readmit sup victim eng)
          in
          let ramped =
            readmitted
            && begin
                 for _ = 1 to 4 do
                   ignore (Supervisor.tick sup)
                 done;
                 Supervisor.health sup victim = Supervisor.Healthy
                 && Cluster.weight cluster victim = 1.0
               end
          in
          apply_events sup events;
          let final_consistent = Cluster.check_consistency cluster ~k:8 in
          let final_replays =
            List.for_all (replay_matches cluster buffers) (List.init shards Fun.id)
          in
          Cluster.shutdown cluster;
          conserved && evacuated && consistent && replays && ramped && final_consistent
          && final_replays)
        (List.concat_map (fun shards -> List.map (fun d -> (shards, d)) executors) [ 2; 8 ]))

(* ----- state machine units ----- *)

let config ?(suspect_after = 1) ?(down_after = 3) ?(op_deadline = 1.0)
    ?(evac_budget = max_int) ?(recovery_steps = 4) () =
  { Supervisor.suspect_after; down_after; op_deadline; evac_budget; recovery_steps }

let test_probe_streaks () =
  on_executors @@ fun ~domains ->
  let cluster, _ = journaled_cluster ~domains ~m:8 ~shards:2 in
  let alive = [| true; true |] in
  let sup = Supervisor.create ~config:(config ()) ~probe:(fun i -> alive.(i)) cluster in
  for i = 0 to 19 do
    ignore (ok (Supervisor.add_job sup ~id:(Printf.sprintf "j%d" i) ~size:(1 + (i mod 7))))
  done;
  check health_eq "starts healthy" Supervisor.Healthy (Supervisor.health sup 1);
  alive.(1) <- false;
  ignore (Supervisor.tick sup);
  check health_eq "one failure -> suspect" Supervisor.Suspect (Supervisor.health sup 1);
  (* A success before the down threshold heals the streak. *)
  alive.(1) <- true;
  ignore (Supervisor.tick sup);
  check health_eq "success heals suspect" Supervisor.Healthy (Supervisor.health sup 1);
  alive.(1) <- false;
  ignore (Supervisor.tick sup);
  ignore (Supervisor.tick sup);
  check health_eq "two failures -> still suspect" Supervisor.Suspect (Supervisor.health sup 1);
  let jobs_on_1 = job_count cluster 1 in
  ignore (Supervisor.tick sup);
  check health_eq "third failure -> down" Supervisor.Down (Supervisor.health sup 1);
  check_bool "weight dropped" true (Cluster.weight cluster 1 = 0.0);
  check_int "victim drained" 0 (job_count cluster 1);
  check_int "survivor absorbed the jobs" 20 (job_count cluster 0);
  let h = Supervisor.stats sup in
  check_int "one evacuation" 1 h.Supervisor.evacuations;
  check_int "evacuated jobs counted" jobs_on_1 h.Supervisor.evacuated_jobs;
  (* A live probe alone does not resurrect a Down shard: it needs readmit. *)
  alive.(1) <- true;
  ignore (Supervisor.tick sup);
  check health_eq "down stays down without readmit" Supervisor.Down (Supervisor.health sup 1);
  check_bool "cluster still consistent" true (Cluster.check_consistency cluster ~k:8);
  cluster

let test_watchdog_deadline () =
  on_executors @@ fun ~domains ->
  let cluster, _ = journaled_cluster ~domains ~m:8 ~shards:2 in
  (* Every clock read advances 0.8s: each timed op sees dt = 0.8 under a
     1.0s deadline (no trip) — until the deadline is tightened. *)
  let now = ref 0.0 in
  let clock () =
    now := !now +. 0.8;
    !now
  in
  let sup =
    Supervisor.create ~config:(config ~op_deadline:1.0 ~down_after:2 ()) ~clock cluster
  in
  ignore (ok (Supervisor.add_job sup ~id:"a" ~size:5));
  check_int "no trip under the deadline" 0 (Supervisor.stats sup).Supervisor.watchdog_trips;
  (* With down_after = 1 a single blown deadline downs the serving
     shard, whichever one the ring picked. *)
  let tight =
    Supervisor.create ~config:(config ~op_deadline:0.5 ~down_after:1 ()) ~clock cluster
  in
  (match Supervisor.add_job tight ~id:"b" ~size:5 with
  | Ok (_, _) -> ()
  | Error e -> Alcotest.failf "add under watchdog: %s" e);
  let h = Supervisor.stats tight in
  check_int "blown deadline counted" 1 h.Supervisor.watchdog_trips;
  check_int "the slow shard went down" 1 h.Supervisor.down;
  check_bool "evacuation ran" true (h.Supervisor.evacuations >= 1);
  check_bool "cluster consistent after watchdog evacuation" true
    (Cluster.check_consistency cluster ~k:8);
  cluster

let test_recovery_ramp () =
  on_executors @@ fun ~domains ->
  let cluster, buffers = journaled_cluster ~domains ~m:8 ~shards:2 in
  let alive = [| true; true |] in
  let sup =
    Supervisor.create
      ~config:(config ~down_after:1 ~recovery_steps:4 ())
      ~probe:(fun i -> alive.(i))
      cluster
  in
  for i = 0 to 15 do
    ignore (ok (Supervisor.add_job sup ~id:(Printf.sprintf "j%d" i) ~size:(1 + i)))
  done;
  alive.(0) <- false;
  ignore (Supervisor.tick sup);
  check health_eq "down" Supervisor.Down (Supervisor.health sup 0);
  alive.(0) <- true;
  ok (Supervisor.readmit sup 0 (ok (restore buffers 0)));
  check health_eq "readmitted -> recovering" Supervisor.Recovering (Supervisor.health sup 0);
  check_bool "re-enters at weight 0" true (Cluster.weight cluster 0 = 0.0);
  let expected = [ 0.25; 0.5; 0.75; 1.0 ] in
  List.iteri
    (fun step w ->
      ignore (Supervisor.tick sup);
      check (Alcotest.float 1e-9) (Printf.sprintf "ramp step %d" (step + 1)) w
        (Cluster.weight cluster 0))
    expected;
  check health_eq "full ramp -> healthy" Supervisor.Healthy (Supervisor.health sup 0);
  (* A failure mid-ramp sends the shard straight back down. *)
  alive.(1) <- false;
  ignore (Supervisor.tick sup);
  alive.(1) <- true;
  ok (Supervisor.readmit sup 1 (ok (restore buffers 1)));
  ignore (Supervisor.tick sup);
  check health_eq "ramping" Supervisor.Recovering (Supervisor.health sup 1);
  alive.(1) <- false;
  ignore (Supervisor.tick sup);
  check health_eq "failure mid-ramp -> down again" Supervisor.Down (Supervisor.health sup 1);
  check_bool "weight back to 0" true (Cluster.weight cluster 1 = 0.0);
  cluster

let test_degraded_mode () =
  on_executors @@ fun ~domains ->
  let cluster, _ = journaled_cluster ~domains ~m:8 ~shards:2 in
  let sup = Supervisor.create ~config:(config ~evac_budget:3 ()) cluster in
  for i = 0 to 19 do
    ignore (ok (Supervisor.add_job sup ~id:(Printf.sprintf "j%d" i) ~size:(1 + (i mod 7))))
  done;
  let victim_jobs = job_count cluster 0 in
  Alcotest.(check bool) "victim holds more than the budget" true (victim_jobs > 3);
  ignore (Supervisor.mark_down sup 0);
  let h = Supervisor.stats sup in
  check_int "budget honoured" 3 h.Supervisor.evacuated_jobs;
  check_int "rest stranded" (victim_jobs - 3) h.Supervisor.stranded_jobs;
  check_int "stranded jobs stay on the dead engine" (victim_jobs - 3)
    (job_count cluster 0);
  (* Ops on a stranded job are refused, not routed into the corpse. *)
  let stranded_id =
    Cluster.query cluster 0 (fun e ->
        Engine.fold_jobs e (fun _ ~id ~size:_ ~proc:_ -> Some id) None)
    |> Option.get
  in
  (match Supervisor.remove_job sup ~id:stranded_id with
  | Ok _ -> Alcotest.fail "remove of a stranded job must be rejected"
  | Error e -> check_bool ("names the shard: " ^ e) true (String.length e > 0));
  (match Supervisor.resize_job sup ~id:stranded_id ~size:9 with
  | Ok _ -> Alcotest.fail "resize of a stranded job must be rejected"
  | Error _ -> ());
  check_int "rejections counted" 2 (Supervisor.stats sup).Supervisor.degraded_rejections;
  (* New placements keep working and never land on the dead shard. *)
  for i = 100 to 199 do
    let id = Printf.sprintf "n%d" i in
    ignore (ok (Supervisor.add_job sup ~id ~size:3));
    check_int ("new job routed to the survivor: " ^ id) 1
      (Option.get (Cluster.shard_of cluster id))
  done;
  check_bool "still consistent in degraded mode" true (Cluster.check_consistency cluster ~k:8);
  cluster

let test_readmit_validation () =
  on_executors @@ fun ~domains ->
  let cluster, _ = journaled_cluster ~domains ~m:8 ~shards:2 in
  let sup = Supervisor.create cluster in
  (match Supervisor.readmit sup 0 (Engine.create ~m:4 ()) with
  | Ok () -> Alcotest.fail "readmit of a healthy shard must fail"
  | Error e -> check_bool ("says not down: " ^ e) true (String.length e > 0));
  ignore (ok (Supervisor.add_job sup ~id:"x" ~size:5));
  ignore (Supervisor.mark_down sup 0);
  (* Wrong processor count and phantom jobs are both rejected. *)
  (match Supervisor.readmit sup 0 (Engine.create ~m:3 ()) with
  | Ok () -> Alcotest.fail "wrong processor count accepted"
  | Error _ -> ());
  let phantom = Engine.create ~m:4 () in
  ignore (Engine.add_job phantom ~id:"ghost" ~size:2);
  (match Supervisor.readmit sup 0 phantom with
  | Ok () -> Alcotest.fail "engine with phantom jobs accepted"
  | Error _ -> ());
  ok (Supervisor.readmit sup 0 (Engine.create ~m:4 ()));
  check health_eq "clean engine readmits" Supervisor.Recovering (Supervisor.health sup 0);
  cluster

let test_all_down_refuses () =
  on_executors @@ fun ~domains ->
  let cluster, _ = journaled_cluster ~domains ~m:8 ~shards:2 in
  let sup = Supervisor.create cluster in
  ignore (ok (Supervisor.add_job sup ~id:"x" ~size:5));
  ignore (Supervisor.mark_down sup 0);
  ignore (Supervisor.mark_down sup 1);
  check_int "nothing serving" 0 (Supervisor.serving_shards sup);
  (match Supervisor.add_job sup ~id:"y" ~size:1 with
  | Ok _ -> Alcotest.fail "add with no serving shards must fail"
  | Error e -> check_bool ("refuses: " ^ e) true (String.length e > 0));
  (* The last evacuation had no survivors: the job stays stranded. *)
  check_int "job survived as stranded" 1 (Cluster.job_count cluster);
  check_bool "stranded on a dead shard" true
    ((Supervisor.stats sup).Supervisor.stranded_jobs >= 1);
  cluster

(* ----- the failover drill on both executors ----- *)

let kills = [ (2, 20); (5, 40) ]
let killed i t = List.exists (fun (s, st) -> s = i && t >= st && t < st + 30) kills

let test_drill_failover () =
  List.iter
    (fun domains ->
      let drill = Drill.create ~domains ~m:32 ~shards:8 () in
      let r =
        Drill.failover drill ~live:(fun i t -> not (killed i t)) ~seed:9 ~prefix:"d" ~horizon:120
          ~ops_per_step:8 ~period:10 ~k:16 ()
      in
      let at = Printf.sprintf "D=%d %s" domains in
      check (Alcotest.list Alcotest.string) (at "no failures") [] r.Drill.failures;
      check_int (at "no rejected ops") 0 r.Drill.rejected;
      check_int (at "both kills readmitted") 2 r.Drill.stats.Supervisor.readmissions;
      check_int (at "both kills recovered") 2 (List.length r.Drill.recoveries);
      check (Alcotest.result Alcotest.pass Alcotest.string) (at "audit") (Ok 0) (Drill.audit drill);
      Cluster.shutdown (Drill.cluster drill))
    executors

(* Dropping a shard's last event (here: the add just routed to it)
   must fail the audit, naming that shard. *)
let test_drill_audit_torn_journal () =
  on_executors @@ fun ~domains ->
  let drill = Drill.create ~domains ~m:8 ~shards:4 () in
  let cluster = Drill.cluster drill in
  for i = 0 to 19 do
    ignore (ok (Cluster.add_job cluster ~id:(Printf.sprintf "j%d" i) ~size:(1 + i)))
  done;
  ignore (ok (Cluster.add_job cluster ~id:"last" ~size:7));
  check_bool "clean before the cut" true (Result.is_ok (Drill.audit drill));
  let s = Option.get (Cluster.shard_of cluster "last") in
  let buf = Drill.journal drill s in
  let text = Buffer.contents buf in
  Buffer.truncate buf (String.rindex_from text (String.length text - 2) '\n' + 1);
  (match Drill.audit drill with
  | Ok _ -> Alcotest.fail "audit passed a journal missing its last event"
  | Error e ->
    check Alcotest.string "names the torn shard"
      (Printf.sprintf "shard %d journal replay diverges from live state" s)
      e);
  cluster

let () =
  Alcotest.run "rebal_supervisor"
    [
      ( "failover property",
        [ QCheck_alcotest.to_alcotest prop_failover_conserves_work ] );
      ( "state machine",
        [
          Alcotest.test_case "probe streaks drive the transitions" `Quick test_probe_streaks;
          Alcotest.test_case "watchdog deadline counts as failure" `Quick
            test_watchdog_deadline;
          Alcotest.test_case "recovery ramps the weight back" `Quick test_recovery_ramp;
        ] );
      ( "degraded mode",
        [
          Alcotest.test_case "budgeted evacuation strands loudly" `Quick test_degraded_mode;
          Alcotest.test_case "readmission validation" `Quick test_readmit_validation;
          Alcotest.test_case "all shards down refuses service" `Quick test_all_down_refuses;
        ] );
      ( "drill",
        [
          Alcotest.test_case "failover on both executors" `Quick test_drill_failover;
          Alcotest.test_case "audit names a torn journal" `Quick test_drill_audit_torn_journal;
        ] );
    ]
