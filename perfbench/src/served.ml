(* The three end-to-end workloads against the real `rebalance serve`
   binary. Every run starts fresh daemons on fresh journal paths (or a
   fresh copy of a pristine journal), gives every stream its own id
   namespace, checks every reply, and ends by replaying every journal
   the daemon wrote with `rebalance replay`. *)

type outcome = {
  attempted : int;
  failed : int;
  errors : string list;  (** first error of each failing check *)
  metrics : (string * float * string) list;  (** gated: name, value, unit *)
  report : (string * string) list;  (** report-only figures *)
}

type env = {
  bin : string;  (** the rebalance executable *)
  work : string;  (** work directory for journals and logs *)
  seed : int;
  seconds : float;
}

let procs = 64
let live_jobs = 10_000

(* ----- bookkeeping ----- *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let tally () = { attempted = 0; failed = 0; errors = [] }

let fail t msg =
  t.failed <- t.failed + 1;
  t.errors <- msg :: t.errors

let note_pipelined t (r : Pipelined.result) =
  t.attempted <- t.attempted + r.Pipelined.ops + r.Pipelined.unacked;
  t.failed <- t.failed + r.Pipelined.failures;
  Option.iter (fun e -> t.errors <- e :: t.errors) r.Pipelined.first_error

let check t = function Ok () -> () | Error e -> fail t e

let expect_prefix t ~prefix line =
  if not (Check.starts_with ~prefix line) then
    fail t (Printf.sprintf "expected %s..., got %S" prefix line)

let log_of env name = Filename.concat env.work (name ^ ".log")

let fresh_dir env name =
  let d = Filename.concat env.work name in
  Util.rm_rf d;
  Util.mkdir_p d;
  d

let shard_paths base n = List.init n (fun i -> Printf.sprintf "%s.%d" base i)

(* Every journal the run wrote must replay with zero divergence. *)
let replay_all env t paths =
  List.iter
    (fun path ->
      match Proc.capture ~bin:env.bin ~args:[ "replay"; path ] ~log:(log_of env "replay") with
      | Unix.WEXITED 0, _ -> ()
      | _, lines ->
        fail t
          (Printf.sprintf "rebalance replay %s failed: %s" (Filename.basename path)
             (String.concat " / " lines)))
    paths

let imbalance_of t stats_line =
  match Util.kv_float stats_line "imbalance" with
  | Some x -> x
  | None ->
    fail t ("no imbalance= in " ^ stats_line);
    0.0

(* ----- spawning ----- *)

(* A stdin/stdout daemon, with its spawn -> READY seconds. *)
let spawn_pipe env ~args ~log =
  let p = Proc.spawn ~bin:env.bin ~args ~log () in
  let ready = Proc.read_line p in
  (p, ready, Util.s_of_ns (Util.now_ns () - p.Proc.spawned_ns))

let quit_pipe t p =
  Proc.send p "QUIT\n";
  (match Proc.read_line p with
  | l -> expect_prefix t ~prefix:"BYE" l
  | exception End_of_file -> fail t "no BYE after QUIT");
  match Proc.finish p with
  | Unix.WEXITED 0 -> ()
  | _ -> fail t "daemon exited abnormally after QUIT"

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Rebal_net.Lineio.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

(* "rebalance serve: listening on 127.0.0.1:PORT (...)" *)
let port_of listening =
  match String.index_opt listening '(' with
  | None -> failwith ("unexpected listening line: " ^ listening)
  | Some stop ->
    let addr = String.trim (String.sub listening 0 stop) in
    let colon = String.rindex addr ':' in
    int_of_string (String.sub addr (colon + 1) (String.length addr - colon - 1))

(* A TCP daemon and [n] connections, each with its READY banner; the
   set-up time runs from spawn to the first connection's banner. *)
let spawn_tcp env ~args ~log ~n =
  let p = Proc.spawn ~bin:env.bin ~args ~log () in
  let port = port_of (Proc.read_line p) in
  let setup = ref 0.0 in
  let conns =
    Array.init n (fun i ->
        let fd = connect port in
        let rd = Rebal_net.Lineio.reader fd in
        let ready =
          match Rebal_net.Lineio.read_line rd with Some l -> l | None -> raise End_of_file
        in
        if i = 0 then setup := Util.s_of_ns (Util.now_ns () - p.Proc.spawned_ns);
        (fd, rd, ready))
  in
  (p, conns, !setup)

let shutdown_tcp t p (fd, rd) =
  Rebal_net.Lineio.write_string fd "SHUTDOWN\n";
  (match Rebal_net.Lineio.read_line rd with
  | Some l -> expect_prefix t ~prefix:"BYE" l
  | None -> fail t "no BYE after SHUTDOWN");
  match Proc.finish p with
  | Unix.WEXITED 0 -> ()
  | _ -> fail t "daemon exited abnormally after SHUTDOWN"

(* ----- metrics ----- *)

(* Latency figures of one sample set. p99 is only reported when at
   least ten samples lie beyond it. *)
let latency t lat_us =
  let n = Array.length lat_us in
  let s = Util.sorted lat_us in
  if n = 0 || Util.beyond n 99.0 < 10 then begin
    fail t (Printf.sprintf "only %d latency samples: too few for a p99" n);
    (0.0, 0.0, 0.0)
  end
  else (Util.percentile_sorted s 50.0, Util.percentile_sorted s 95.0, Util.percentile_sorted s 99.0)

let gated ~ops_per_s ~cpu_us ~setup ~imbalance ~rss =
  [
    ("ops_per_s", ops_per_s, "ops/s");
    ("server_cpu_us_per_op", cpu_us, "us");
    ("setup_s", setup, "s");
    ("imbalance_final", imbalance, "ratio");
    ("peak_rss_mb", rss, "MB");
  ]

(* Latency is reported on every run but not gated: see README.md,
   "Steadiness". *)
let latency_report ~p50 ~p95 ~p99 ~n ~where =
  [
    ("latency_p50_us", Printf.sprintf "%.1f" p50);
    ("latency_p95_us", Printf.sprintf "%.1f" p95);
    ("latency_p99_us", Printf.sprintf "%.1f (n=%d%s)" p99 n where);
  ]

let failed_frac t = Printf.sprintf "%.6f" (float_of_int t.failed /. float_of_int (max 1 t.attempted))
let fmt_list f xs = String.concat "," (List.map f xs)

(* A pipelined churn window on a live daemon, closed by STATS: the
   window, its slices, the daemon's CPU over it and its peak RSS. *)
type window = {
  w : Pipelined.result;
  sampler : Sampler.t;
  cpu_ns : int;
  rss : float;
}

(* The shape shared by bulk_pipe and restart_single: gated figures from
   the pooled slices of every window, whole-window means beside them. *)
let pipelined_outcome t ~windows ~setups ~extra =
  let last = List.nth windows (List.length windows - 1) in
  let lat = Array.concat (List.map (fun x -> x.w.Pipelined.lat_ns) windows) in
  let p50, p95, p99 = latency t (Array.map Util.us_of_ns lat) in
  let samplers = List.map (fun x -> x.sampler) windows in
  let sum f = List.fold_left (fun a x -> a + f x) 0 windows in
  let ops = sum (fun x -> x.w.Pipelined.ops) in
  let window_ns = sum (fun x -> x.w.Pipelined.last_ack_ns - x.w.Pipelined.first_send_ns) in
  {
    attempted = t.attempted;
    failed = t.failed;
    errors = List.rev t.errors;
    metrics =
      gated ~ops_per_s:(Sampler.rate samplers) ~cpu_us:(Sampler.cpu_us_per_op samplers)
        ~setup:(Util.median (Array.of_list setups))
        ~imbalance:(imbalance_of t last.w.Pipelined.stats_line)
        ~rss:(Util.median (Array.of_list (List.map (fun x -> x.rss) windows)));
    report =
      extra
      @ latency_report ~p50 ~p95 ~p99 ~n:(Array.length lat) ~where:""
      @ [
          ("windows", string_of_int (List.length windows));
          ("window_ops", string_of_int ops);
          ("window_s", Printf.sprintf "%.3f" (Util.s_of_ns window_ns));
          ("window_mean_ops_per_s", Printf.sprintf "%.1f" (float_of_int ops /. Util.s_of_ns (max 1 window_ns)));
          ( "window_mean_cpu_us_per_op",
            Printf.sprintf "%.3f" (Util.us_of_ns (sum (fun x -> x.cpu_ns)) /. float_of_int (max 1 ops)) );
          ("slices", string_of_int (Sampler.count samplers));
          ("setup_samples_s", fmt_list (Printf.sprintf "%.4f") setups);
          ("failed_frac", failed_frac t);
        ];
  }

(* One timed churn window on daemon [p]; [expect_jobs] maps the stream's
   live count after the last op sent to the jobs STATS must report. *)
let churn_window t p stream ~deadline_ns ~expect_jobs =
  let sampler = Sampler.create ~pid:p.Proc.pid in
  let cpu0 = Proc.cpu_ns p.Proc.pid in
  let w =
    Pipelined.run ~sampler ~wfd:p.Proc.to_child ~reader:p.Proc.out ~procs ~deadline_ns stream
  in
  let cpu_ns = Proc.cpu_ns p.Proc.pid - cpu0 in
  note_pipelined t w;
  check t (Check.final_stats ~expect_jobs:(expect_jobs w.Pipelined.live) w.Pipelined.stats_line);
  { w; sampler; cpu_ns; rss = Proc.peak_rss_mb p.Proc.pid }

(* An untimed pipelined phase (fill, recording). *)
let feed t ~wfd ~reader stream =
  let r = Pipelined.run ~wfd ~reader ~procs ~deadline_ns:max_int stream in
  note_pipelined t r;
  r

(* ----- bulk_pipe ----- *)

let setup_repeats = 15
let max_window_ops = 2_000_000

let bulk_args j =
  [ "serve"; "--procs"; string_of_int procs; "--shards"; "8"; "--domains"; "1"; "--journal"; j;
    "--journal-format"; "binary" ]

let bulk_pipe env =
  let t = tally () in
  let setups =
    List.init (setup_repeats - 1) (fun i ->
        let d = fresh_dir env (Printf.sprintf "bulk-setup-%d" i) in
        let p, ready, s = spawn_pipe env ~args:(bulk_args (Filename.concat d "j")) ~log:(log_of env "bulk") in
        expect_prefix t ~prefix:"READY" ready;
        quit_pipe t p;
        Util.rm_rf d;
        s)
  in
  let g = Gen.create ~seed:env.seed ~salt:1 ~prefix:"b-" (Gen.churn ~target_live:live_jobs) in
  let fill = Pipelined.pregenerate g ~produce:Gen.add ~n:live_jobs in
  let churn = Pipelined.pregenerate g ~produce:Gen.next ~n:max_window_ops in
  let j = Filename.concat (fresh_dir env "bulk") "j" in
  let p, ready, s = spawn_pipe env ~args:(bulk_args j) ~log:(log_of env "bulk") in
  expect_prefix t ~prefix:"READY" ready;
  ignore (feed t ~wfd:p.Proc.to_child ~reader:p.Proc.out fill);
  let window =
    churn_window t p churn
      ~deadline_ns:(Util.now_ns () + int_of_float (env.seconds *. 1e9))
      ~expect_jobs:Fun.id
  in
  quit_pipe t p;
  replay_all env t (shard_paths j 8);
  pipelined_outcome t ~windows:[ window ] ~setups:(s :: setups) ~extra:[]

(* ----- interactive_tcp ----- *)

let ladder = [| 1000; 2000; 4000 |]

(* Share of the run each rung gets; latency is read at the middle
   rung, which gets most of it. A short warm-up at the middle rate
   comes first and is not reported. *)
let rung_share = [| 0.2; 0.55; 0.2 |]
let warmup_share = 0.05

let p99_limit_us = 1000.0

let tcp_args j =
  [ "serve"; "--tcp"; "0"; "--procs"; string_of_int procs; "--shards"; "8"; "--supervise";
    "--journal"; j ]

let interactive_tcp env =
  let t = tally () in
  let setups =
    List.init (setup_repeats - 1) (fun i ->
        let d = fresh_dir env (Printf.sprintf "tcp-setup-%d" i) in
        let p, conns, s =
          spawn_tcp env ~args:(tcp_args (Filename.concat d "j")) ~log:(log_of env "tcp") ~n:1
        in
        let fd, rd, ready = conns.(0) in
        expect_prefix t ~prefix:"READY" ready;
        shutdown_tcp t p (fd, rd);
        Unix.close fd;
        Util.rm_rf d;
        s)
  in
  let j = Filename.concat (fresh_dir env "tcp") "j" in
  let p, raw, s = spawn_tcp env ~args:(tcp_args j) ~log:(log_of env "tcp") ~n:2 in
  let params =
    { (Gen.churn ~target_live:(live_jobs / 2)) with Gen.p_stats = 0.02; p_rebalance = 0.002 }
  in
  let conns =
    Array.mapi
      (fun i (fd, rd, ready) ->
        expect_prefix t ~prefix:"READY" ready;
        let gen = Gen.create ~seed:env.seed ~salt:(10 + i) ~prefix:(Printf.sprintf "t%d-" i) params in
        ignore (feed t ~wfd:fd ~reader:rd (Pipelined.pregenerate gen ~produce:Gen.add ~n:(live_jobs / 2)));
        { Openloop.fd; rd; gen })
      raw
  in
  let arrivals = Random.State.make [| env.seed; 0xa77 |] in
  let limit_ns = int_of_float (p99_limit_us *. 1e3) in
  let rung ?sampler ~rate ~share () =
    let r =
      Openloop.run_rung ?sampler ~procs ~arrivals conns ~rate
        ~dur_ns:(int_of_float (env.seconds *. share *. 1e9))
        ~limit_ns ()
    in
    t.attempted <- t.attempted + r.Openloop.sent;
    t.failed <- t.failed + r.Openloop.failures;
    Option.iter (fun e -> t.errors <- e :: t.errors) r.Openloop.first_error;
    r
  in
  ignore (rung ~rate:ladder.(1) ~share:warmup_share ());
  (* CPU per op is read over the whole ladder: the daemon's CPU per op
     depends on the rate, and in runs of the same code the ladder's
     total moved less than any one rung's figure. *)
  let samplers = Array.map (fun _ -> Sampler.create ~pid:p.Proc.pid) ladder in
  let rungs =
    Array.mapi (fun i rate -> rung ~sampler:samplers.(i) ~rate ~share:rung_share.(i) ()) ladder
  in
  let cpu_us_per_op ss =
    let ops, ns =
      List.fold_left
        (fun (o, c) s ->
          let o', c' = Sampler.totals s in
          (o + o', c + c'))
        (0, 0) ss
    in
    Util.us_of_ns ns /. float_of_int (max 1 ops)
  in
  let c0 = conns.(0) in
  Rebal_net.Lineio.write_string c0.Openloop.fd "STATS\n";
  t.attempted <- t.attempted + 1;
  let stats = match Rebal_net.Lineio.read_line c0.Openloop.rd with Some l -> l | None -> "" in
  let live = Array.fold_left (fun a c -> a + Gen.live_count c.Openloop.gen) 0 conns in
  check t (Check.final_stats ~expect_jobs:live stats);
  let rss = Proc.peak_rss_mb p.Proc.pid in
  shutdown_tcp t p (c0.Openloop.fd, c0.Openloop.rd);
  Array.iter (fun c -> Unix.close c.Openloop.fd) conns;
  replay_all env t (shard_paths j 8);
  let ops = Array.fold_left (fun a (r : Openloop.rung) -> a + r.Openloop.acked) 0 rungs in
  let pct (r : Openloop.rung) p = Util.percentile_sorted r.Openloop.lat_us p in
  let passing (r : Openloop.rung) =
    r.Openloop.acked > 0 && pct r 99.0 <= p99_limit_us && not r.Openloop.growing
  in
  let sustained =
    Array.fold_left (fun acc (r : Openloop.rung) -> if passing r then r.Openloop.achieved else acc) 0.0 rungs
  in
  let mid = rungs.(Array.length rungs / 2) and top = rungs.(Array.length rungs - 1) in
  let p50, p95, p99 = latency t mid.Openloop.lat_us in
  let moved = Option.value ~default:0 (Util.kv_int stats "moved") + Option.value ~default:0 (Util.kv_int stats "inter_moves") in
  let all_late = Util.sorted (Array.concat (Array.to_list (Array.map (fun r -> r.Openloop.late_us) rungs))) in
  let rung_line (r : Openloop.rung) =
    ( Printf.sprintf "rung_%d" r.Openloop.rate,
      Printf.sprintf "acked=%d achieved=%.1f p50_us=%.1f p95_us=%.1f p99_us=%.1f late_p99_us=%.1f backlog=%b %s"
        r.Openloop.acked r.Openloop.achieved (pct r 50.0) (pct r 95.0) (pct r 99.0)
        (Util.percentile_sorted r.Openloop.late_us 99.0)
        r.Openloop.growing
        (if passing r then "meets" else "misses") )
  in
  let rebalance_line =
    let r = mid.Openloop.rebalance_us in
    if Array.length r = 0 then "none"
    else Printf.sprintf "n=%d p50=%.0f max=%.0f" (Array.length r) (Util.percentile_sorted r 50.0) r.(Array.length r - 1)
  in
  {
    attempted = t.attempted;
    failed = t.failed;
    errors = List.rev t.errors;
    metrics =
      gated ~ops_per_s:top.Openloop.achieved
        ~cpu_us:(cpu_us_per_op (Array.to_list samplers))
        ~setup:(Util.median (Array.of_list (s :: setups)))
        ~imbalance:(imbalance_of t stats) ~rss;
    report =
      Array.to_list (Array.map rung_line rungs)
      @ latency_report ~p50 ~p95 ~p99 ~n:(Array.length mid.Openloop.lat_us) ~where:", middle rung"
      @ [
          ( "rung_cpu_us_per_op",
            String.concat ","
              (Array.to_list
                 (Array.mapi (fun i s -> Printf.sprintf "%d:%.2f" ladder.(i) (cpu_us_per_op [ s ])) samplers))
          );
          ("sustained_ops_per_s", Printf.sprintf "%.1f (p99 <= %.0f us, no backlog)" sustained p99_limit_us);
          ("rebalance_latency_us", rebalance_line);
          ("gen.late_p99_us", Printf.sprintf "%.1f" (Util.percentile_sorted all_late 99.0));
          ("moves_per_kop", Printf.sprintf "%.3f" (float_of_int moved *. 1000.0 /. float_of_int (max 1 ops)));
          ("setup_samples_s", fmt_list (Printf.sprintf "%.4f") (s :: setups));
          ("failed_frac", failed_frac t);
        ];
  }

(* ----- restart_single ----- *)

let pristine_events = 500_000
let restart_churn = 300_000
let restart_cycles = 5

let single_args j = [ "serve"; "--procs"; string_of_int procs; "--journal"; j ]

(* The pre-recorded journal: [pristine_events] churn ops on ~10k live
   jobs through a single-engine daemon, SIGKILLed once every op is
   acknowledged, so it ends without a snapshot. Returns the live count. *)
let record_pristine env t path =
  let g = Gen.create ~seed:env.seed ~salt:2 ~prefix:"p-" (Gen.churn ~target_live:live_jobs) in
  let fill = Pipelined.pregenerate g ~produce:Gen.add ~n:live_jobs in
  let churn = Pipelined.pregenerate g ~produce:Gen.next ~n:(pristine_events - live_jobs) in
  let p, ready, _ = spawn_pipe env ~args:(single_args path) ~log:(log_of env "restart") in
  expect_prefix t ~prefix:"READY" ready;
  ignore (feed t ~wfd:p.Proc.to_child ~reader:p.Proc.out fill);
  let r = feed t ~wfd:p.Proc.to_child ~reader:p.Proc.out churn in
  check t (Check.final_stats ~expect_jobs:r.Pipelined.live r.Pipelined.stats_line);
  ignore (Proc.finish ~kill:true p);
  r.Pipelined.live

let restart_single env =
  let t = tally () in
  let d = fresh_dir env "restart" in
  let pristine = Filename.concat d "pristine" in
  let pristine_live = record_pristine env t pristine in
  let churn =
    Pipelined.pregenerate
      (Gen.create ~seed:env.seed ~salt:3 ~prefix:"r-" (Gen.churn ~target_live:(live_jobs / 2)))
      ~produce:Gen.next ~n:restart_churn
  in
  (* Each restart resumes a fresh copy, pipes the same churn stream and
     quits; its journal is replayed before the next restart. Several
     windows sample the post-restart GC state several times. *)
  let cycle i =
    let j = Filename.concat d (Printf.sprintf "resumed-%d" i) in
    Util.copy_file pristine j;
    let p, ready, setup = spawn_pipe env ~args:(single_args j) ~log:(log_of env "restart") in
    expect_prefix t ~prefix:"READY" ready;
    if Util.kv_int ready "jobs" <> Some pristine_live then
      fail t (Printf.sprintf "restart READY %S: expected jobs=%d" ready pristine_live);
    let window =
      churn_window t p churn ~deadline_ns:max_int ~expect_jobs:(fun live -> pristine_live + live)
    in
    quit_pipe t p;
    replay_all env t [ j ];
    Unix.unlink j;
    (setup, window)
  in
  let setups, windows = List.split (List.init restart_cycles cycle) in
  pipelined_outcome t ~windows ~setups
    ~extra:[ ("pristine_bytes", string_of_int (Util.file_size pristine)) ]
