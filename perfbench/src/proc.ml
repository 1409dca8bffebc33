(* The daemon as a child process: spawn with pipes, read its CPU time
   and peak RSS out of /proc, and make sure nothing outlives the run. *)

type t = {
  pid : int;
  to_child : Unix.file_descr;
  from_child : Unix.file_descr;
  out : Rebal_net.Lineio.reader;
  spawned_ns : int;
}

let live = ref []

external pin_self : int -> unit = "perfbench_pin_self"

(* (client CPU, daemon CPU) once [pin] has run. *)
let pins = ref None

(* Pin the calling thread, and every thread it starts later, to [client];
   daemons spawned from it start on [daemon]. Call before any thread. *)
let pin ~client ~daemon =
  pin_self client;
  pins := Some (client, daemon)

(* [pin:false] leaves the child on the client's CPU (helper commands). *)
let spawn ?(pin = true) ~bin ~args ~log () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let spawned_ns = Util.now_ns () in
  let create () = Unix.create_process bin (Array.of_list (bin :: args)) in_r out_w err in
  let pid =
    match !pins with
    | Some (client, daemon) when pin ->
      (* The child inherits the mask of the thread that forks it. *)
      pin_self daemon;
      Fun.protect ~finally:(fun () -> pin_self client) create
    | _ -> create ()
  in
  List.iter Unix.close [ in_r; out_w; err ];
  live := pid :: !live;
  { pid; to_child = in_w; from_child = out_r; out = Rebal_net.Lineio.reader out_r; spawned_ns }

let read_line p =
  match Rebal_net.Lineio.read_line p.out with Some l -> l | None -> raise End_of_file

let send p s = Rebal_net.Lineio.write_string p.to_child s

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid
  | _, st -> st

(* Close our ends and reap. [kill] first for children whose shutdown
   path is not under test (SIGKILL leaves journals exactly as the last
   acknowledged write left them). *)
let finish ?(kill = false) p =
  if kill then (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try Unix.close p.to_child with Unix.Unix_error _ -> ());
  let st = waitpid p.pid in
  (try Unix.close p.from_child with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) p.pid) !live;
  st

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (waitpid pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Run a command to completion; its exit status and stdout lines. *)
let capture ~bin ~args ~log =
  let p = spawn ~pin:false ~bin ~args ~log () in
  let rec drain acc =
    match Rebal_net.Lineio.read_line p.out with Some l -> drain (l :: acc) | None -> acc
  in
  let lines = List.rev (drain []) in
  (finish p, lines)

let first_line path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let l = try Some (input_line ic) with End_of_file -> None in
    close_in ic;
    l

(* Daemon CPU (user + system, every thread) in ns: the sum of
   sum_exec_runtime over /proc/<pid>/task/*/schedstat, which has ns
   resolution; /proc/<pid>/stat's utime+stime in clock ticks is the
   fallback. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  let tasks = try Sys.readdir dir with Sys_error _ -> [||] in
  let from_schedstat =
    Array.fold_left
      (fun acc tid ->
        match (acc, first_line (Printf.sprintf "%s/%s/schedstat" dir tid)) with
        | Some acc, Some l -> (
          match String.split_on_char ' ' l with
          | x :: _ -> Option.map (( + ) acc) (int_of_string_opt x)
          | [] -> None)
        | _ -> None)
      (Some 0) tasks
  in
  match from_schedstat with
  | Some ns when Array.length tasks > 0 -> ns
  | _ -> (
    match first_line (Printf.sprintf "/proc/%d/stat" pid) with
    | None -> 0
    | Some l ->
      (* fields after the parenthesised command name; utime, stime are 14, 15 *)
      let rest = String.sub l (String.rindex l ')' + 2) (String.length l - String.rindex l ')' - 2) in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      let ticks = int_of_string f.(11) + int_of_string f.(12) in
      ticks * 10_000_000)

(* VmHWM in MB: the daemon's peak resident set so far. *)
let peak_rss_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec go () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | l when Check.starts_with ~prefix:"VmHWM:" l ->
        let toks = List.filter (( <> ) "") (String.split_on_char ' '
               (String.map (function '\t' -> ' ' | c -> c) (String.sub l 6 (String.length l - 6)))) in
        (match toks with kb :: _ -> float_of_string kb /. 1024.0 | [] -> 0.0)
      | _ -> go ()
    in
    let v = go () in
    close_in ic;
    v
