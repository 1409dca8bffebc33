module Cluster = Rebal_online.Cluster
module Engine = Rebal_online.Engine
module Replay = Rebal_online.Replay
module Supervisor = Rebal_online.Supervisor
module Journal = Rebal_obs.Journal
module Metrics = Rebal_obs.Metrics
module Rng = Rebal_workloads.Rng
module Timer = Rebal_harness.Timer

let pf = Printf.sprintf

type t = {
  cluster : Cluster.t;
  buffers : Buffer.t array;  (* shard i's journal, written on its owner *)
}

let sink ?start_seq ?header_written buf =
  Journal.create ?start_seq ?header_written ~write:(Buffer.add_string buf) ()

let create ~domains ~m ~shards () =
  let buffers = Array.init shards (fun _ -> Buffer.create 65536) in
  let journal_for i = Some (sink buffers.(i)) in
  { cluster = Cluster.create ~journal_for ~domains ~m ~shards (); buffers }

let cluster t = t.cluster
let journal t i = t.buffers.(i)
let resume buf = Result.bind (Journal.parse_string (Buffer.contents buf)) Replay.resume

(* The restored engine appends after the events it replayed, so the
   buffer stays one replayable history. *)
let restore t i =
  Cluster.query t.cluster i (fun _ ->
      Result.map
        (fun (eng, o) ->
          Engine.set_journal eng
            (Some (sink ~start_seq:o.Replay.events ~header_written:true t.buffers.(i)));
          eng)
        (resume t.buffers.(i)))

let audit t =
  let check i buf live =
    match Metrics.Registry.with_registry (Metrics.Registry.create ()) (fun () -> resume buf) with
    | Error msg -> Error (pf "shard %d journal replay: %s" i msg)
    | Ok (_, o) when not o.Replay.consistency_ok ->
      Error (pf "shard %d journal replay: final consistency check failed" i)
    | Ok (eng, o) ->
      if
        Engine.job_count eng = Engine.job_count live
        && Engine.makespan eng = Engine.makespan live
        && Engine.fold_jobs live
             (fun acc ~id ~size ~proc -> acc && Engine.find eng id = Some (size, proc))
             true
      then Ok o.Replay.events
      else Error (pf "shard %d journal replay diverges from live state" i)
  in
  let results =
    List.mapi (fun i b -> Cluster.query t.cluster i (check i b)) (Array.to_list t.buffers)
  in
  match List.filter_map (function Error e -> Some e | Ok _ -> None) results with
  | [] -> Ok (List.fold_left (fun acc r -> acc + Result.get_ok r) 0 results)
  | errors -> Error (String.concat "; " errors)

(* ----- failover ----- *)

type failover = {
  downtime_weighted : float;
  rejected : int;
  recoveries : (int * int * int) list;
  unrecovered : (int * int * Supervisor.health) list;
  stats : Supervisor.stats;
  failures : string list;
}

let failover t ~live ~seed ~prefix ~horizon ~ops_per_step ~period ~k ?(evac_budget = max_int)
    ?(on_step = fun _ _ -> ()) () =
  let cluster = t.cluster in
  let shards = Cluster.shard_count cluster in
  let time = ref 0 in
  let config =
    {
      Supervisor.default_config with
      suspect_after = 1;
      down_after = 2;
      recovery_steps = 4;
      evac_budget;
    }
  in
  let sup = Supervisor.create ~config ~probe:(fun i -> live i !time) cluster in
  (* Reference model: what the workload believes is live (sizes by id,
     plus the ids in an array for uniform picks). Anything the cluster
     accepted must survive every kill and recovery. *)
  let model = Hashtbl.create 1024 in
  let ids = Array.make (max 1 (horizon * ops_per_step)) "" and n = ref 0 in
  let rng = Rng.create seed in
  let next_id = ref 0 and rejected = ref 0 and dw = ref 0.0 in
  let accepted = function
    | Ok _ -> true
    | Error _ ->
      incr rejected;
      false
  in
  let down_at = Array.make shards (-1) and recoveries = ref [] and failures = ref [] in
  let failf fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  for step = 0 to horizon - 1 do
    time := step;
    ignore (Supervisor.tick sup);
    for i = 0 to shards - 1 do
      (match Supervisor.health sup i with
      | Supervisor.Down when down_at.(i) < 0 -> down_at.(i) <- step
      | Supervisor.Healthy when down_at.(i) >= 0 ->
        recoveries := (i, down_at.(i), step) :: !recoveries;
        down_at.(i) <- -1
      | _ -> ());
      (* [live] revived a Down shard: rebuild its engine from its own
         journal (which recorded the evacuation removes, so it agrees
         with the directory) and let the supervisor ramp it back in. *)
      if Supervisor.health sup i = Supervisor.Down && live i step then
        match Result.bind (restore t i) (Supervisor.readmit sup i) with
        | Ok () -> ()
        | Error msg -> failf "shard %d: readmission failed: %s" i msg
    done;
    for _ = 1 to ops_per_step do
      let r = Rng.float rng 1.0 in
      if r < 0.6 || !n = 0 then begin
        let id = pf "%s%d" prefix !next_id in
        incr next_id;
        let size = Rng.int_range rng 1 100 in
        if accepted (Supervisor.add_job sup ~id ~size) then begin
          Hashtbl.replace model id size;
          ids.(!n) <- id;
          incr n
        end
      end
      else begin
        let j = Rng.int rng !n in
        let id = ids.(j) in
        if r < 0.85 then begin
          if accepted (Supervisor.remove_job sup ~id) then begin
            Hashtbl.remove model id;
            decr n;
            ids.(j) <- ids.(!n)
          end
        end
        else begin
          let size = Rng.int_range rng 1 100 in
          if accepted (Supervisor.resize_job sup ~id ~size) then Hashtbl.replace model id size
        end
      end
    done;
    if (step + 1) mod period = 0 then ignore (Supervisor.rebalance sup ~k);
    (* The chaos scoring rule: a step served with dead shards counts its
       makespan once per missing shard on top of the base weight. *)
    let missing = shards - Supervisor.serving_shards sup in
    dw := !dw +. (float_of_int (Cluster.makespan cluster) *. float_of_int (1 + missing));
    on_step sup step
  done;
  let lost =
    Hashtbl.fold
      (fun id size acc ->
        match Cluster.find cluster id with Some (sz, _) when sz = size -> acc | _ -> id :: acc)
      model []
  in
  if lost <> [] then
    failf "%d job(s) lost or corrupted (e.g. %s)" (List.length lost)
      (List.hd (List.sort compare lost));
  if Cluster.job_count cluster <> Hashtbl.length model then
    failf "cluster holds %d job(s), workload expects %d (strays or duplicates)"
      (Cluster.job_count cluster) (Hashtbl.length model);
  if not (Cluster.check_consistency cluster ~k:16) then failf "cluster consistency check failed";
  {
    downtime_weighted = !dw;
    rejected = !rejected;
    recoveries = List.rev !recoveries;
    unrecovered =
      List.filter_map
        (fun i -> if down_at.(i) < 0 then None else Some (i, down_at.(i), Supervisor.health sup i))
        (List.init shards Fun.id);
    stats = Supervisor.stats sup;
    failures = List.rev !failures;
  }

(* ----- churn ----- *)

type churn = {
  wall : float;
  latencies : float array;
  live : int;
}

let churn t ~threads ~sessions ~ops ~seed ~prefix ?(wrap = fun _ f -> f ()) () =
  let c = t.cluster in
  let survivors = Array.make threads 0 and crashed = Array.make threads None in
  let latencies = Array.make (threads * ops) 0.0 in
  let expect what id = function
    | Ok _ -> ()
    | Error e -> failwith (pf "Drill.churn: %s %s rejected: %s" what id e)
  in
  let client th () =
    let rng = Rng.create (seed + th) in
    (* Per session, a private id universe: every command is valid, so
       an error is a cluster bug, not noise. *)
    let live = Array.make sessions [] and next = Array.make sessions 0 in
    for i = 0 to ops - 1 do
      let s = i mod sessions in
      let started = Timer.now_ns () in
      (match Rng.float rng 1.0 with
      | r when r < 0.6 || live.(s) = [] ->
        let id =
          if sessions = 1 then pf "%st%d.%d" prefix th next.(s)
          else pf "%st%ds%d.%d" prefix th s next.(s)
        in
        next.(s) <- next.(s) + 1;
        wrap "ADD" (fun () ->
            expect "add" id (Cluster.add_job c ~id ~size:(Rng.int_range rng 1 100));
            live.(s) <- id :: live.(s);
            survivors.(th) <- survivors.(th) + 1)
      | r when r < 0.85 ->
        let id = List.hd live.(s) in
        wrap "REMOVE" (fun () ->
            expect "remove" id (Cluster.remove_job c ~id);
            live.(s) <- List.tl live.(s);
            survivors.(th) <- survivors.(th) - 1)
      | _ ->
        let id = List.hd live.(s) in
        wrap "RESIZE" (fun () ->
            expect "resize" id (Cluster.resize_job c ~id ~size:(Rng.int_range rng 1 100))));
      latencies.((th * ops) + i) <- Int64.to_float (Int64.sub (Timer.now_ns ()) started) /. 1e9;
      if th = 0 && (i + 1) mod 500 = 0 then
        wrap "REBALANCE" (fun () -> ignore (Cluster.rebalance c ~k:8))
    done
  in
  let guarded th () = try client th () with e -> crashed.(th) <- Some e in
  Gc.compact ();
  let (), wall =
    Timer.time (fun () ->
        Array.iter Thread.join (Array.init threads (fun th -> Thread.create (guarded th) ())))
  in
  Array.iter (Option.iter raise) crashed;
  let live = Array.fold_left ( + ) 0 survivors in
  if Cluster.job_count c <> live then failwith "Drill.churn: jobs lost or duplicated";
  if not (Cluster.check_consistency c ~k:max_int) then
    failwith "Drill.churn: directory/engine consistency check failed";
  Array.sort compare latencies;
  { wall; latencies; live }

let percentile c q =
  let n = Array.length c.latencies in
  c.latencies.(min (n - 1) (int_of_float (q *. float_of_int n)))
