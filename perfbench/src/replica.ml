(* The traced run: an in-process replica of a workload's daemon session,
   timed layer by layer from the outside.

   The replica links the libraries, builds the same target through the
   public constructors the daemon uses, and serves a generated stream
   over a pipe pair with the daemon's
   own session rule: block for one line, gather every line that has
   already arrived, one [Protocol.handle_lines] call, one write. Spans
   are recorded around every call the session makes into a layer.

   Layers that run inside another layer's call are timed by further
   passes over identical fresh state, replaying the rounds pass 1
   recorded — a single-client stream is deterministic, so every pass
   sees the same states:

   - pass 0: the session with span recording off (the untraced
     replica, the base of [trace.overhead_frac]);
   - pass 1: the same session traced (lineio, handle_lines, mailbox
     histograms);
   - pass 2: the rounds dispatched by hand exactly as [handle_lines]
     does — parse, then the router call (Cluster / Supervisor /
     Engine) and the makespan read behind every reply;
   - pass 3: each engine re-driven directly with the event stream its
     journal recorded in pass 2, journal detached (engine cost, minor
     words);
   - pass 4: the same with a journal attached (encode = pass 4 - pass 3
     - write time). *)

module Lineio = Rebal_net.Lineio
module Engine = Rebal_online.Engine
module Cluster = Rebal_online.Cluster
module Shard = Rebal_online.Shard
module Supervisor = Rebal_online.Supervisor
module Protocol = Rebal_online.Protocol
module Replay = Rebal_online.Replay
module Journal = Rebal_obs.Journal
module Metrics = Rebal_obs.Metrics
module Optrace = Rebal_obs.Optrace

(* ----- spans ----- *)

(* Flat, in-memory span records: name, start, end, parent and op id.
   Written out as TSV when the run ends. *)
type spans = {
  mutable on : bool;
  mutable n : int;
  mutable names : string array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;
  mutable ops : int array;
  mutable stack : int list;
}

let spans () =
  let cap = 1024 in
  {
    on = false;
    n = 0;
    names = Array.make cap "";
    starts = Array.make cap 0;
    stops = Array.make cap 0;
    parents = Array.make cap 0;
    ops = Array.make cap 0;
    stack = [];
  }

let grow sp =
  if sp.n = Array.length sp.starts then begin
    let g a x =
      let b = Array.make (2 * sp.n) x in
      Array.blit a 0 b 0 sp.n;
      b
    in
    sp.names <- g sp.names "";
    sp.starts <- g sp.starts 0;
    sp.stops <- g sp.stops 0;
    sp.parents <- g sp.parents 0;
    sp.ops <- g sp.ops 0
  end

let open_span sp name ~op start =
  grow sp;
  let i = sp.n in
  sp.n <- i + 1;
  sp.names.(i) <- name;
  sp.starts.(i) <- start;
  sp.stops.(i) <- start;
  sp.parents.(i) <- (match sp.stack with p :: _ -> p | [] -> -1);
  sp.ops.(i) <- op;
  i

(* A span with explicit bounds, for loops timed without the recorder's
   per-call closure. *)
let record sp name ~op start stop =
  if sp.on then begin
    let i = open_span sp name ~op start in
    sp.stops.(i) <- stop
  end

let span sp name ~op f =
  if not sp.on then f ()
  else begin
    let i = open_span sp name ~op (Util.now_ns ()) in
    sp.stack <- i :: sp.stack;
    Fun.protect
      ~finally:(fun () ->
        sp.stops.(i) <- Util.now_ns ();
        sp.stack <- List.tl sp.stack)
      f
  end

let dur sp i = sp.stops.(i) - sp.starts.(i)

(* Total duration and count of the spans called [name]. *)
let total sp name =
  let t = ref 0 and c = ref 0 in
  for i = 0 to sp.n - 1 do
    if sp.names.(i) = name then begin
      t := !t + dur sp i;
      incr c
    end
  done;
  (!t, !c)

let total_us sp name = Util.us_of_ns (fst (total sp name))

let write_spans sp path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tend_ns\tparent\top\n";
  for i = 0 to sp.n - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i sp.names.(i) sp.starts.(i) sp.stops.(i)
      sp.parents.(i) sp.ops.(i)
  done;
  close_out oc

(* ----- journals with a timed write callback ----- *)

(* Each counter is written by one domain only (the sink's owner). *)
type jcount = { mutable write_ns : int }

let jcount () = { write_ns = 0 }

(* The daemon's sink: resilient line appends to a file, flushed per
   write call. [c] times the time spent inside the write callback. *)
let file_sink ~format ~path c =
  let oc = open_out_bin path in
  let write =
    Journal.resilient ~label:(Filename.basename path) (fun s ->
        output_string oc s;
        flush oc)
  in
  let timed s =
    let t0 = Util.now_ns () in
    write s;
    c.write_ns <- c.write_ns + (Util.now_ns () - t0)
  in
  (Journal.create ~format ~write:timed (), oc)

(* ----- workload shapes ----- *)

type shape = {
  name : string;
  format : Journal.format;
  shards : int;  (** 1 = single engine *)
  batched : bool;  (** pipelined client (gathers) vs one op in flight *)
  params : Gen.params;
  fill : int;
}

let procs = Served.procs
let shard_procs shards i = (procs / shards) + if i < procs mod shards then 1 else 0

(* A built target plus what the passes need to read back from it. *)
type built = {
  target : Protocol.target;
  sinks : Journal.sink option array;
  counts : jcount array;
  paths : string array;
  channels : out_channel option array;
  caller_reg : Metrics.Registry.t;  (** where the cluster's caller-side histograms live *)
}

(* Fresh state for one pass, built exactly as serve builds it. *)
let build ~work ~tag ~resumed shape =
  let n = shape.shards in
  let counts = Array.init n (fun _ -> jcount ()) in
  let paths = Array.init n (fun i -> Filename.concat work (Printf.sprintf "replica-%s.%d" tag i)) in
  let sinks = Array.make n None and channels = Array.make n None in
  let sink i =
    let s, oc = file_sink ~format:shape.format ~path:paths.(i) counts.(i) in
    sinks.(i) <- Some s;
    channels.(i) <- Some oc;
    s
  in
  let caller_reg = Metrics.Registry.create () in
  let target =
    match (shape.name, resumed) with
    | "bulk_pipe", _ ->
      let c =
        Metrics.Registry.with_registry caller_reg (fun () ->
            Cluster.of_engines ~domains:1 ~shards:n (fun i ->
                Engine.create ~journal:(sink i) ~m:(shard_procs n i) ()))
      in
      Protocol.Parallel (Result.get_ok c)
    | "interactive_tcp", _ ->
      let engines = Array.init n (fun i -> Engine.create ~journal:(sink i) ~m:(shard_procs n i) ()) in
      Protocol.Supervised (Supervisor.create (Result.get_ok (Shard.of_engines engines)))
    | _, Some e ->
      let e = Engine.copy e in
      Engine.set_journal e (Some (sink 0));
      Protocol.Single e
    | _, None -> invalid_arg "replica: restart_single needs the resumed engine"
  in
  { target; sinks; counts; paths; channels; caller_reg }

let release b =
  (match b.target with Protocol.Parallel c -> Cluster.shutdown c | _ -> ());
  Array.iter (Option.iter close_out) b.channels

let events_written b = Array.map (function Some s -> Journal.events_written s | None -> 0) b.sinks

(* ----- passes 0 and 1: the session ----- *)

type round = {
  lines : string list;
  first_line : int;
  measured : bool;
}

let rec wait_readable fd =
  match Unix.select [ fd ] [] [] (-1.0) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable fd
  | _ -> ()

(* The daemon's session loop (bin/rebalance.ml, serve), with a span
   around each call it makes. [measuring] is flipped by the client once
   the fill phase is acknowledged. *)
let session sp ~trace ~measuring ~rounds target in_fd out_fd =
  Lineio.write_string out_fd (Protocol.greeting target ^ "\n");
  let r = Lineio.reader in_fd in
  let rec loop lineno =
    let op = lineno in
    if not (Lineio.has_line r) then span sp "lineio.wait" ~op (fun () -> wait_readable in_fd);
    let measured = !measuring in
    sp.on <- trace && measured;
    let read () =
      match Lineio.read_line r with
      | None -> None
      | Some first ->
        let rec gather acc =
          if Lineio.has_line r then
            match Lineio.read_line r with Some l -> gather (l :: acc) | None -> List.rev acc
          else List.rev acc
        in
        Some (first :: gather [])
    in
    match span sp "lineio.read" ~op read with
    | None -> ()
    | Some lines ->
      let out, verdict =
        span sp "protocol.handle_lines" ~op (fun () ->
            Protocol.handle_lines ~start_line:lineno target lines)
      in
      span sp "lineio.write" ~op (fun () ->
          let buf = Buffer.create 256 in
          List.iter
            (fun l ->
              Buffer.add_string buf l;
              Buffer.add_char buf '\n')
            out;
          Lineio.write_string out_fd (Buffer.contents buf));
      rounds := { lines; first_line = lineno; measured } :: !rounds;
      (match verdict with Protocol.Continue -> loop (lineno + List.length lines) | _ -> ())
  in
  loop 1

(* One op in flight: send, wait for the whole reply, repeat. *)
let closed_loop ~wfd ~reader ~gen ~max_ops ~deadline_ns =
  let buf = Buffer.create 64 in
  let n = ref 0 and failures = ref 0 and first_error = ref None in
  let line () = match Lineio.read_line reader with Some l -> l | None -> raise End_of_file in
  let t0 = Util.now_ns () in
  while !n < max_ops && Util.now_ns () < deadline_ns do
    let op = Gen.next gen in
    Buffer.clear buf;
    Gen.render gen buf op;
    Lineio.write_string wfd (Buffer.contents buf);
    (match Check.reply gen ~procs op line with
    | Ok _ -> ()
    | Error e ->
      incr failures;
      if !first_error = None then first_error := Some e);
    incr n
  done;
  (!n, Util.now_ns () - t0, !failures, !first_error)

type session_result = {
  ops : int;
  window_ns : int;
  failures : int;
  first_error : string option;
  rounds : round list;  (** in order *)
  wall_ns : int;  (** the measured part of the session *)
  mailbox : (string * float) list;  (** mailbox figures over the measured part *)
}

let sum_metric reg name ~kind =
  List.fold_left
    (fun acc (m : Metrics.metric) ->
      if m.Metrics.name <> name then acc
      else
        match (m.Metrics.kind, kind) with
        | Metrics.Histogram h, `Sum -> acc +. Metrics.Histogram.sum h
        | Metrics.Histogram h, `Count -> acc +. float_of_int (Metrics.Histogram.observations h)
        | Metrics.Gauge g, `Value -> acc +. Metrics.Gauge.value g
        | _ -> acc)
    0.0 (Metrics.Registry.metrics reg)

let mailbox_snapshot b =
  match b.target with
  | Protocol.Parallel c ->
    let w = Metrics.Registry.create () in
    Cluster.merge_metrics c ~into:w;
    Some
      [|
        sum_metric w "rebal_mailbox_wait_seconds" ~kind:`Sum;
        sum_metric w "rebal_mailbox_wait_seconds" ~kind:`Count;
        sum_metric w "rebal_domain_busy_seconds" ~kind:`Value;
        sum_metric b.caller_reg "rebal_reply_wait_seconds" ~kind:`Sum;
        sum_metric b.caller_reg "rebal_mailbox_send_block_seconds" ~kind:`Sum;
      |]
  | _ -> None

(* Serve one pass: the session on a thread, the client here. The
   stream is regenerated per pass from the same seed, and the churn
   stops after [max_ops] ops or [budget_ns], whichever comes first. *)
let run_session sp ~trace shape b ~seed ~max_ops ~budget_ns =
  (* Every pass starts from the same heap state, so the untraced and
     traced passes compare. *)
  Gc.full_major ();
  let c2s_r, c2s_w = Unix.pipe ~cloexec:true () in
  let s2c_r, s2c_w = Unix.pipe ~cloexec:true () in
  let measuring = ref false and rounds = ref [] in
  sp.on <- false;
  let server =
    Thread.create
      (fun () ->
        session sp ~trace ~measuring ~rounds b.target c2s_r s2c_w;
        Unix.close s2c_w)
      ()
  in
  let reader = Lineio.reader s2c_r in
  let _greeting = Lineio.read_line reader in
  let gen = Gen.create ~seed ~salt:7 ~prefix:"x-" shape.params in
  let pipe = Pipelined.run ~wfd:c2s_w ~reader ~procs in
  let fill_failures, fill_error =
    if shape.fill = 0 then (0, None)
    else
      let f = pipe ~deadline_ns:max_int (Pipelined.pregenerate gen ~produce:Gen.add ~n:shape.fill) in
      (f.Pipelined.failures, f.Pipelined.first_error)
  in
  let churn =
    if shape.batched then Some (Pipelined.pregenerate gen ~produce:Gen.next ~n:max_ops) else None
  in
  let mb0 = mailbox_snapshot b in
  measuring := true;
  let t0 = Util.now_ns () in
  let deadline_ns = if budget_ns = max_int then max_int else t0 + budget_ns in
  let ops, window_ns, failures, first_error =
    match churn with
    | Some s ->
      let w = pipe ~max_ops ~deadline_ns s in
      (w.Pipelined.ops, w.Pipelined.last_ack_ns - w.Pipelined.first_send_ns, w.Pipelined.failures,
       w.Pipelined.first_error)
    | None -> closed_loop ~wfd:c2s_w ~reader ~gen ~max_ops ~deadline_ns
  in
  let wall_ns = Util.now_ns () - t0 in
  let mb1 = mailbox_snapshot b in
  measuring := false;
  Lineio.write_string c2s_w "QUIT\n";
  let rec drain () = match Lineio.read_line reader with Some _ -> drain () | None -> () in
  drain ();
  Thread.join server;
  List.iter Unix.close [ c2s_r; c2s_w; s2c_r ];
  let mailbox =
    match (mb0, mb1) with
    | Some a, Some z ->
      let d i = z.(i) -. a.(i) in
      let opsf = float_of_int (max 1 ops) in
      [
        ("mailbox.wait_us_per_task", d 0 *. 1e6 /. Float.max 1.0 (d 1));
        ("mailbox.reply_wait_us_per_op", d 3 *. 1e6 /. opsf);
        ("mailbox.send_block_us_per_op", d 4 *. 1e6 /. opsf);
        ("mailbox.worker_busy_frac", d 2 /. Util.s_of_ns (max 1 wall_ns));
      ]
    | _ -> []
  in
  {
    ops;
    window_ns;
    failures = failures + fill_failures;
    first_error = (match first_error with Some _ -> first_error | None -> fill_error);
    rounds = List.rev !rounds;
    wall_ns;
    mailbox;
  }

(* ----- pass 2: the rounds dispatched by hand ----- *)

let is_mutation = function
  | Protocol.Add _ | Protocol.Remove _ | Protocol.Resize _ -> true
  | _ -> false

let engine_op = function
  | Protocol.Add { id; size } -> Engine.Add { id; size }
  | Protocol.Remove id -> Engine.Remove { id }
  | Protocol.Resize { id; size } -> Engine.Resize { id; size }
  | _ -> invalid_arg "engine_op"

let read_makespan = function
  | Protocol.Single e -> Engine.makespan e
  | Protocol.Parallel c -> Cluster.makespan c
  | Protocol.Supervised s -> Shard.makespan (Supervisor.cluster s)
  | Protocol.Cluster s -> Shard.makespan s

(* Mean cost of one makespan read on the target's current state. *)
let makespan_us t =
  let n = 2000 in
  let t0 = Util.now_ns () in
  for _ = 1 to n do
    ignore (read_makespan t)
  done;
  Util.us_of_ns (Util.now_ns () - t0) /. float_of_int n

(* Replays [rounds] against [b.target] the way handle_lines dispatches
   them, timing parse, the router call and the reply's makespan read.
   Returns, per engine, the journal events and write time the
   unmeasured fill left behind. *)
let inner sp ~bulk_makespans b rounds =
  let t = b.target in
  let layer = match t with Protocol.Parallel _ -> "cluster" | Protocol.Supervised _ -> "shard" | _ -> "single" in
  let bulk_capable = match t with Protocol.Single _ | Protocol.Parallel _ -> true | _ -> false in
  let makespan ~op () = span sp (layer ^ ".makespan") ~op (fun () -> read_makespan t) in
  let single ~op cmd =
    match (t, cmd) with
    | Protocol.Supervised s, Protocol.Add { id; size } ->
      ignore (span sp "shard.op" ~op (fun () -> Supervisor.add_job s ~id ~size));
      ignore (makespan ~op ())
    | Protocol.Supervised s, Protocol.Remove id ->
      ignore (span sp "shard.op" ~op (fun () -> Supervisor.remove_job s ~id));
      ignore (makespan ~op ())
    | Protocol.Supervised s, Protocol.Resize { id; size } ->
      ignore (span sp "shard.op" ~op (fun () -> Supervisor.resize_job s ~id ~size));
      ignore (makespan ~op ())
    | Protocol.Supervised s, Protocol.Stats ->
      ignore
        (span sp "shard.stats" ~op (fun () ->
             (Shard.stats (Supervisor.cluster s), Supervisor.stats s)))
    | Protocol.Supervised s, Protocol.Rebalance k ->
      ignore (span sp "shard.rebalance" ~op (fun () -> Supervisor.rebalance s ~k));
      ignore (makespan ~op ())
    | _, (Protocol.Quit | Protocol.Shutdown) -> ()
    | _, cmd -> ignore (span sp (layer ^ ".other") ~op (fun () -> Protocol.execute t cmd))
  in
  (* Inside a batch the makespan read runs untimed — a span per reply
     would time the recorder as much as the read; its cost comes from
     [makespan_us] instead. *)
  let bulk ~op cmds =
    let ops = Array.of_list (List.map engine_op cmds) in
    let on_result _ _ _ =
      if sp.on then incr bulk_makespans;
      ignore (read_makespan t)
    in
    span sp (layer ^ ".apply_bulk") ~op (fun () ->
        match t with
        | Protocol.Single e -> Engine.apply_bulk e ~on_result ops
        | Protocol.Parallel c -> Cluster.apply_bulk c ~on_result ops
        | _ -> assert false)
  in
  let boundary = ref None in
  let snapshot () = (events_written b, Array.map (fun c -> c.write_ns) b.counts) in
  List.iter
    (fun r ->
      if r.measured && !boundary = None then boundary := Some (snapshot ());
      sp.on <- r.measured;
      let op = r.first_line in
      let pending = ref [] in
      let flush () =
        match List.rev !pending with
        | [] -> ()
        | [ cmd ] ->
          pending := [];
          single ~op cmd
        | cmds ->
          pending := [];
          bulk ~op cmds
      in
      List.iter
        (fun line ->
          match span sp "protocol.parse" ~op (fun () -> Protocol.parse line) with
          | Ok (Some cmd) when bulk_capable && is_mutation cmd -> pending := cmd :: !pending
          | Ok (Some cmd) ->
            flush ();
            single ~op cmd
          | Ok None | Error _ -> flush ())
        r.lines;
      flush ())
    rounds;
  sp.on <- false;
  match !boundary with Some x -> x | None -> snapshot ()

(* ----- passes 3 and 4: the engines alone ----- *)

type engine_step =
  | Ops of Engine.op array
  | Rebalance of int

(* Each engine's recorded event stream, split at the measure boundary
   into runs of mutations and the repairs between them. *)
let streams_of_journals paths ~skip =
  Array.mapi
    (fun i path ->
      match Journal.load_file path with
      | Error e -> failwith ("replica: cannot read back " ^ path ^ ": " ^ e)
      | Ok (_, events) ->
        let str e k = Result.get_ok (Journal.str_field e k) in
        let int e k = Result.get_ok (Journal.int_field e k) in
        let steps =
          List.filter_map
            (fun (e : Journal.event) ->
              match e.Journal.kind with
              | "add" -> Some (`Op (Engine.Add { id = str e "id"; size = int e "size" }))
              | "remove" -> Some (`Op (Engine.Remove { id = str e "id" }))
              | "resize" -> Some (`Op (Engine.Resize { id = str e "id"; size = int e "size" }))
              | "rebalance" -> Some (`Rebalance (int e "k"))
              | _ -> None)
            events
        in
        let rec split n acc run = function
          | [] -> List.rev (if run = [] then acc else (Ops (Array.of_list (List.rev run)), n > skip.(i)) :: acc)
          | `Rebalance k :: rest ->
            let acc = if run = [] then acc else (Ops (Array.of_list (List.rev run)), n > skip.(i)) :: acc in
            split (n + 1) ((Rebalance k, n >= skip.(i)) :: acc) [] rest
          | `Op o :: rest when n = skip.(i) && run <> [] ->
            split (n + 1) ((Ops (Array.of_list (List.rev run)), false) :: acc) [ o ] rest
          | `Op o :: rest -> split (n + 1) acc (o :: run) rest
        in
        split 0 [] [] steps)
    paths

type engine_pass = {
  apply_ns : int;
  ops_timed : int;
  minor_words : float;
  rebalance_ns : int;
  rebalances : int;
  moves : int;
}

(* Re-drive each engine with its stream. [batch] > 1 applies mutation
   runs through [apply_bulk] in chunks of that size (the pipelined
   workloads); 1 uses the per-op calls (the interactive workload). *)
let engine_pass ?(before_timed = fun _ -> ()) sp ~engines ~streams ~batch =
  let apply_ns = ref 0 and ops_timed = ref 0 and words = ref 0.0 in
  let rebalance_ns = ref 0 and rebalances = ref 0 and moves = ref 0 in
  let per_op e = function
    | Engine.Add { id; size } -> ignore (Engine.add_job e ~id ~size)
    | Engine.Remove { id } -> ignore (Engine.remove_job e ~id)
    | Engine.Resize { id; size } -> ignore (Engine.resize_job e ~id ~size)
  in
  let run e ops =
    if batch <= 1 then Array.iter (per_op e) ops
    else begin
      let n = Array.length ops in
      let i = ref 0 in
      while !i < n do
        let len = min batch (n - !i) in
        Engine.apply_bulk e (Array.sub ops !i len);
        i := !i + len
      done
    end
  in
  Array.iteri
    (fun s steps ->
      let e = engines.(s) in
      let started = ref false in
      let start () =
        if not !started then begin
          started := true;
          before_timed s
        end
      in
      List.iteri
        (fun k (step, timed) ->
          match step with
          | Ops ops when timed ->
            start ();
            let w0 = Gc.minor_words () in
            let t0 = Util.now_ns () in
            run e ops;
            let t1 = Util.now_ns () in
            words := !words +. (Gc.minor_words () -. w0);
            apply_ns := !apply_ns + (t1 - t0);
            ops_timed := !ops_timed + Array.length ops;
            sp.on <- true;
            record sp "engine.apply" ~op:k t0 t1
          | Ops ops -> run e ops
          | Rebalance kk ->
            if timed then start ();
            let t0 = Util.now_ns () in
            let mv = Engine.rebalance e ~k:kk in
            let t1 = Util.now_ns () in
            if timed then begin
              rebalance_ns := !rebalance_ns + (t1 - t0);
              incr rebalances;
              moves := !moves + List.length mv;
              sp.on <- true;
              record sp "engine.rebalance" ~op:k t0 t1
            end)
        steps)
    streams;
  sp.on <- false;
  {
    apply_ns = !apply_ns;
    ops_timed = !ops_timed;
    minor_words = !words;
    rebalance_ns = !rebalance_ns;
    rebalances = !rebalances;
    moves = !moves;
  }

(* ----- the op boundary ----- *)

(* What [Protocol.run_command] adds around every op: [Optrace.with_op]
   plus one [Histogram.observe_ns], at the daemon's sampling settings
   (1 in 64 head-sampled, 10 ms tail capture). *)
let op_boundary_ns () =
  let reg = Metrics.Registry.create () in
  let hist = Metrics.histogram ~registry:reg "perfbench_op_boundary_seconds" in
  let n = 200_000 in
  let t0 = Util.now_ns () in
  for _ = 1 to n do
    let s = Rebal_harness.Timer.now_ns () in
    Optrace.with_op ~verb:"ADD" (fun () -> ());
    Metrics.Histogram.observe_ns hist (Int64.sub (Rebal_harness.Timer.now_ns ()) s)
  done;
  float_of_int (Util.now_ns () - t0) /. float_of_int n

(* ----- the traced run ----- *)

let shape_of workload =
  match workload with
  | "bulk_pipe" ->
    {
      name = workload;
      format = Journal.Binary;
      shards = 8;
      batched = true;
      params = Gen.churn ~target_live:Served.live_jobs;
      fill = Served.live_jobs;
    }
  | "interactive_tcp" ->
    {
      name = workload;
      format = Journal.Jsonl;
      shards = 8;
      batched = false;
      params =
        { (Gen.churn ~target_live:Served.live_jobs) with Gen.p_stats = 0.02; p_rebalance = 0.002 };
      fill = Served.live_jobs;
    }
  | _ ->
    {
      name = workload;
      format = Journal.Jsonl;
      shards = 1;
      batched = true;
      params = Gen.churn ~target_live:(Served.live_jobs / 2);
      fill = 0;
    }

type result = {
  metrics : (string * float * string) list;
  failures : int;
  errors : string list;
  attempted : int;
  overhead_frac : float;
}

(* Journal.load_file, then Replay.resume, on one journal: the resumed
   engine, the ns spent in each, and the events replayed. *)
let load_and_resume path =
  let t0 = Util.now_ns () in
  let loaded = match Journal.load_file path with Ok j -> j | Error e -> failwith ("replica: " ^ e) in
  let t1 = Util.now_ns () in
  let e, outcome = match Replay.resume loaded with Ok r -> r | Error e -> failwith ("replica: " ^ e) in
  (e, t1 - t0, Util.now_ns () - t1, outcome.Replay.events)

let run ~(env : Served.env) ~workload =
  Rebal_obs.Control.set_enabled true;
  Optrace.set_sample_every 64;
  Optrace.set_slow_threshold_ns 10_000_000;
  let shape = shape_of workload in
  let work = Filename.concat env.Served.work "replica" in
  Util.rm_rf work;
  Util.mkdir_p work;
  let metrics = ref [] in
  let put name v unit = metrics := (name, v, unit) :: !metrics in
  (* restart_single: the set-up layers, on a pristine journal of the
     same size as the end-to-end run's. *)
  let resumed =
    if workload <> "restart_single" then None
    else begin
      let path = Filename.concat env.Served.work "restart/pristine" in
      let e, decode_ns, resume_ns, events = load_and_resume path in
      let events = float_of_int events in
      put "journal.decode_us_per_event" (Util.us_of_ns decode_ns /. events) "us";
      put "replay.resume_us_per_event" (Util.us_of_ns resume_ns /. events) "us";
      put "journal.bytes_per_event" (float_of_int (Util.file_size path) /. events) "B";
      (* The decoded journal is garbage now; collect it here rather than
         inside the first timed pass. *)
      Gc.compact ();
      Some e
    end
  in
  let budget_ns = int_of_float (env.Served.seconds /. 3.0 *. 1e9) in
  let max_ops = match workload with "restart_single" -> Served.restart_churn | _ -> Served.max_window_ops in
  let seed = env.Served.seed in
  (* Pass 0: untraced; fixes the op count every later pass replays. *)
  let b0 = build ~work ~tag:"p0" ~resumed shape in
  let s0 = run_session (spans ()) ~trace:false shape b0 ~seed ~max_ops ~budget_ns in
  release b0;
  (* Pass 1: the same session, traced. *)
  let sp = spans () in
  let b1 = build ~work ~tag:"p1" ~resumed shape in
  let s1 = run_session sp ~trace:true shape b1 ~seed ~max_ops:s0.ops ~budget_ns:max_int in
  release b1;
  let ops = float_of_int (max 1 s1.ops) in
  let measured = List.filter (fun r -> r.measured) s1.rounds in
  let lines = List.fold_left (fun a r -> a + List.length r.lines) 0 measured in
  let n_rounds = List.length measured in
  put "lineio.read_us_per_line" (total_us sp "lineio.read" /. float_of_int (max 1 lines)) "us";
  put "lineio.write_calls_per_op" (float_of_int n_rounds /. ops) "count";
  put "lineio.lines_per_gather" (float_of_int lines /. float_of_int (max 1 n_rounds)) "count";
  let session_names = [ "lineio.wait"; "lineio.read"; "protocol.handle_lines"; "lineio.write" ] in
  let covered = List.fold_left (fun a n -> a + fst (total sp n)) 0 session_names in
  put "trace.unattributed_frac"
    (Float.max 0.0 (float_of_int (s1.wall_ns - covered) /. float_of_int (max 1 s1.wall_ns)))
    "ratio";
  let rate (s : session_result) = float_of_int s.ops /. Util.s_of_ns (max 1 s.window_ns) in
  let overhead = 1.0 -. (rate s1 /. rate s0) in
  put "trace.overhead_frac" overhead "ratio";
  (* Only the parallel cluster has mailboxes; elsewhere they read 0. *)
  List.iter
    (fun n ->
      put n
        (Option.value ~default:0.0 (List.assoc_opt n s1.mailbox))
        (if n = "mailbox.worker_busy_frac" then "ratio" else "us"))
    [ "mailbox.wait_us_per_task"; "mailbox.reply_wait_us_per_op"; "mailbox.send_block_us_per_op";
      "mailbox.worker_busy_frac" ];
  (* Pass 2: the rounds dispatched by hand. *)
  let sp2 = spans () in
  let b2 = build ~work ~tag:"p2" ~resumed shape in
  let bulk_makespans = ref 0 in
  let skip, write0 = inner sp2 ~bulk_makespans b2 s1.rounds in
  let makespan_read_us = makespan_us b2.target in
  let events2 = events_written b2 in
  let final_inter =
    match b2.target with
    | Protocol.Supervised s -> (Shard.stats (Supervisor.cluster s)).Shard.inter_moves
    | _ -> 0
  in
  release b2;
  let parse_us = total_us sp2 "protocol.parse" in
  put "protocol.parse_us_per_op" (parse_us /. float_of_int (max 1 lines)) "us";
  let dispatch_us =
    let t = ref 0 in
    for i = 0 to sp2.n - 1 do
      if sp2.parents.(i) = -1 && sp2.names.(i) <> "protocol.parse" then t := !t + dur sp2 i
    done;
    Util.us_of_ns !t
  in
  put "protocol.self_us_per_op"
    ((total_us sp "protocol.handle_lines" -. parse_us -. dispatch_us) /. ops)
    "us";
  let per name =
    let t, c = total sp2 name in
    if c = 0 then 0.0 else Util.us_of_ns t /. float_of_int c
  in
  (match shape.name with
  | "bulk_pipe" ->
    put "cluster.apply_bulk_us_per_op"
      ((total_us sp2 "cluster.apply_bulk" -. (float_of_int !bulk_makespans *. makespan_read_us)) /. ops)
      "us";
    put "cluster.makespan_us_per_call" makespan_read_us "us"
  | _ ->
    put "cluster.apply_bulk_us_per_op" 0.0 "us";
    put "cluster.makespan_us_per_call" 0.0 "us");
  let rebalances2 = snd (total sp2 "shard.rebalance") in
  put "shard.op_us" (per "shard.op") "us";
  put "shard.stats_us_per_call" (per "shard.stats") "us";
  put "shard.rebalance_us_per_call" (per "shard.rebalance") "us";
  put "shard.inter_moves_per_rebalance"
    (if rebalances2 = 0 then 0.0 else float_of_int final_inter /. float_of_int rebalances2)
    "count";
  let sum a = Array.fold_left ( + ) 0 a in
  let measured_events = sum events2 - sum skip in
  let write_ns = sum (Array.map (fun c -> c.write_ns) b2.counts) - sum write0 in
  put "journal.write_us_per_event" (Util.us_of_ns write_ns /. float_of_int (max 1 measured_events)) "us";
  if shape.name <> "restart_single" then begin
    put "journal.bytes_per_event"
      (float_of_int (sum (Array.map Util.file_size b2.paths)) /. float_of_int (max 1 (sum events2)))
      "B";
    (* The set-up layers, on the journals pass 2 wrote: what a restart
       of this daemon would load. *)
    let decode_ns, resume_ns, events =
      Array.fold_left
        (fun (d, r, n) path ->
          let _, d', r', n' = load_and_resume path in
          (d + d', r + r', n + n'))
        (0, 0, 0) b2.paths
    in
    let events = float_of_int (max 1 events) in
    put "journal.decode_us_per_event" (Util.us_of_ns decode_ns /. events) "us";
    put "replay.resume_us_per_event" (Util.us_of_ns resume_ns /. events) "us"
  end;
  (* Passes 3 and 4: the engines alone, without and with a journal. *)
  let streams = streams_of_journals b2.paths ~skip in
  let batch =
    if not shape.batched then 1
    else max 1 (int_of_float (Float.round (float_of_int lines /. float_of_int (max 1 n_rounds) /. float_of_int shape.shards)))
  in
  let fresh_engines sink =
    Array.init shape.shards (fun i ->
        let e =
          match resumed with
          | Some r -> Engine.copy r
          | None -> Engine.create ~m:(shard_procs shape.shards i) ()
        in
        Option.iter (fun s -> Engine.set_journal e (Some (s i))) sink;
        e)
  in
  let sp3 = spans () in
  let p3 = engine_pass sp3 ~engines:(fresh_engines None) ~streams ~batch in
  let counts4 = Array.init shape.shards (fun _ -> jcount ()) in
  let channels4 = ref [] in
  let sink4 i =
    let s, oc =
      file_sink ~format:shape.format ~path:(Filename.concat work (Printf.sprintf "replica-p4.%d" i)) counts4.(i)
    in
    channels4 := oc :: !channels4;
    s
  in
  let engines4 = fresh_engines (Some sink4) in
  let write4 = Array.make shape.shards 0 and events4 = Array.make shape.shards 0 in
  let before_timed i =
    write4.(i) <- counts4.(i).write_ns;
    events4.(i) <- (match Engine.journal engines4.(i) with Some s -> Journal.events_written s | None -> 0)
  in
  let p4 = engine_pass ~before_timed (spans ()) ~engines:engines4 ~streams ~batch in
  let events4_total =
    sum (Array.map (fun e -> match Engine.journal e with Some s -> Journal.events_written s | None -> 0) engines4)
    - sum events4
  in
  let write4_ns = sum (Array.map (fun c -> c.write_ns) counts4) - sum write4 in
  List.iter close_out !channels4;
  let timed_ops = float_of_int (max 1 p3.ops_timed) in
  put "engine.apply_us_per_op" (Util.us_of_ns p3.apply_ns /. timed_ops) "us";
  put "engine.minor_words_per_op" (p3.minor_words /. timed_ops) "words";
  put "engine.rebalance_us_per_call"
    (if p3.rebalances = 0 then 0.0 else Util.us_of_ns p3.rebalance_ns /. float_of_int p3.rebalances)
    "us";
  put "engine.moves_per_rebalance"
    (if p3.rebalances = 0 then 0.0 else float_of_int p3.moves /. float_of_int p3.rebalances)
    "count";
  put "journal.encode_us_per_event"
    (Util.us_of_ns (p4.apply_ns + p4.rebalance_ns - p3.apply_ns - p3.rebalance_ns - write4_ns)
    /. float_of_int (max 1 events4_total))
    "us";
  put "optrace.op_boundary_ns" (op_boundary_ns ()) "ns";
  write_spans sp (Filename.concat env.Served.work (Printf.sprintf "spans-%s-session.tsv" workload));
  write_spans sp2 (Filename.concat env.Served.work (Printf.sprintf "spans-%s-inner.tsv" workload));
  write_spans sp3 (Filename.concat env.Served.work (Printf.sprintf "spans-%s-engine.tsv" workload));
  let failures = s0.failures + s1.failures in
  {
    metrics = List.rev !metrics;
    failures;
    errors = List.filter_map Fun.id [ s0.first_error; s1.first_error ];
    attempted = s0.ops + s1.ops;
    overhead_frac = overhead;
  }
