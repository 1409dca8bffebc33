(* Entry point: `perfbench run --workload W --seed N --seconds S
   --trace 0|1 --bin REBALANCE --work DIR [--commit SHA] [--nproc N]
   [--pin CLIENT_CPU,DAEMON_CPU]` runs one workload and prints a human-readable
   report followed, as the last line, by one JSON object; `perfbench
   selftest` checks the generator and the percentile helper. ../run.py
   builds and calls this. *)

let workloads = [ "bulk_pipe"; "interactive_tcp"; "restart_single" ]

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let print_result ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name) (json_float v)
          (json_string unit))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 attempted) failed (String.concat ", " ms)

(* A fixed CPU-bound loop, timed: shared hosts change speed from minute
   to minute, and this shows how fast this one was during the run. *)
let speed_probe_ms () =
  let t0 = Util.now_ns () in
  let acc = ref 0 in
  for i = 1 to 50_000_000 do
    acc := (!acc lxor i) * 31
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (Util.now_ns () - t0) /. 1e6

let usage () =
  prerr_endline
    "usage: perfbench run --workload (bulk_pipe|interactive_tcp|restart_single) --seed N \
     --seconds S --trace 0|1 --bin REBALANCE --work DIR [--commit SHA] [--nproc N] \
     [--pin CLIENT_CPU,DAEMON_CPU]\n\
    \       perfbench selftest";
  exit 2

let run args =
  let get key =
    let rec go = function
      | k :: v :: _ when k = key -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let need key = match get key with Some v -> v | None -> usage () in
  let workload = need "--workload" in
  if not (List.mem workload workloads) then usage ();
  let int_arg key = match int_of_string_opt (need key) with Some v -> v | None -> usage () in
  let seed = int_arg "--seed" and trace = int_arg "--trace" in
  let seconds =
    match float_of_string_opt (need "--seconds") with Some s when s > 0.0 -> s | _ -> usage ()
  in
  let pins =
    match Option.map (String.split_on_char ',') (get "--pin") with
    | None -> None
    | Some [ c; d ] -> (
      match (int_of_string_opt c, int_of_string_opt d) with
      | Some c, Some d -> Some (c, d)
      | _ -> usage ())
    | Some _ -> usage ()
  in
  Option.iter (fun (client, daemon) -> Proc.pin ~client ~daemon) pins;
  let env = { Served.bin = need "--bin"; work = need "--work"; seed; seconds } in
  let commit = Option.value (get "--commit") ~default:"unknown" in
  Util.rm_rf env.Served.work;
  Util.mkdir_p env.Served.work;
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  at_exit Proc.kill_all;
  (* Pinning narrows this process to one CPU; ../run.py passes the
     count from before. *)
  let nproc =
    match Option.bind (get "--nproc") int_of_string_opt with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()
  in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" workload seed seconds trace;
  Printf.printf "host nproc=%d ocaml=%s commit=%s speed_probe_ms=%.1f pinned=%s\n" nproc
    Sys.ocaml_version commit (speed_probe_ms ())
    (match pins with
    | Some (c, d) -> Printf.sprintf "client:cpu%d,daemon:cpu%d" c d
    | None -> "no");
  Printf.printf
    "bounds: the end-to-end bounds in BENCHMARK.json are armed; a parallel-speedup bound needs \
     >= 4 cores and is %s\n%!"
    (if nproc >= 4 then "armed" else Printf.sprintf "UNARMED (nproc=%d), not met" nproc);
  let o =
    match workload with
    | "bulk_pipe" -> Served.bulk_pipe env
    | "interactive_tcp" -> Served.interactive_tcp env
    | _ -> Served.restart_single env
  in
  Printf.printf "end-to-end (tracing off):\n";
  List.iter (fun (k, v) -> Printf.printf "  %s = %s\n" k v) o.Served.report;
  List.iter (fun (k, v, u) -> Printf.printf "  %s = %.6g %s\n" k v u) o.Served.metrics;
  let traced = if trace = 1 then Some (Replica.run ~env ~workload) else None in
  let attempted, failed, errors =
    match traced with
    | None -> (o.Served.attempted, o.Served.failed, o.Served.errors)
    | Some r ->
      Printf.printf "per layer (traced in-process replica):\n";
      List.iter (fun (k, v, u) -> Printf.printf "  %s = %.6g %s\n" k v u) r.Replica.metrics;
      ( o.Served.attempted + r.Replica.attempted,
        o.Served.failed + r.Replica.failures,
        o.Served.errors @ r.Replica.errors )
  in
  Printf.printf "trace.overhead_frac=%s\n"
    (match traced with
    | Some r -> Printf.sprintf "%.4f" r.Replica.overhead_frac
    | None -> "n/a (measured by --trace 1 runs)");
  List.iter (fun e -> Printf.printf "FAILED CHECK: %s\n" e) errors;
  let correct = failed = 0 && errors = [] in
  (* Journals and copies are large; logs and span files stay. *)
  if correct then
    Array.iter
      (fun f ->
        let p = Filename.concat env.Served.work f in
        if Sys.is_directory p then Util.rm_rf p)
      (Sys.readdir env.Served.work);
  let metrics = match traced with Some r -> r.Replica.metrics | None -> o.Served.metrics in
  print_result ~correct ~attempted ~failed metrics;
  if not correct then exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run args
  | [ "selftest" ] -> exit (Selftest.run ())
  | _ -> usage ()
