(* Closed-loop pipelined client over one stream (a daemon's stdin or a
   socket). The ops are pregenerated — rendered bytes plus, per op, the
   verb and id its ack must carry — so the client spends the window
   writing and checking, not generating. A writer thread streams the
   bytes in write calls of [chunk] ops, blocking when the pipe is full
   (the pipe buffer is the window), until the stream, the op budget or
   the deadline runs out, then sends a STATS sentinel. The calling
   thread reads and checks every reply. *)

module Lineio = Rebal_net.Lineio

let chunk = 64

type stream = {
  text : string;  (** every op's line *)
  ends : int array;  (** byte offset after each chunk *)
  live : int array;  (** the generator's live count after each chunk *)
  verbs : Bytes.t;  (** per op: 'A'dd, 'R'emove or 'Z' (resize) *)
  ids : int array;  (** per op: the id number *)
  prefix : string;
  n : int;
}

(* [n] mutations from [produce g], rendered. *)
let pregenerate g ~produce ~n =
  let buf = Buffer.create (n * 20) in
  let verbs = Bytes.create n and ids = Array.make n 0 in
  let chunks = (n + chunk - 1) / chunk in
  let ends = Array.make chunks 0 and live = Array.make chunks 0 in
  for i = 0 to n - 1 do
    let op = produce g in
    let v, id =
      match op with
      | Gen.Add (id, _) -> ('A', id)
      | Gen.Remove id -> ('R', id)
      | Gen.Resize (id, _) -> ('Z', id)
      | Gen.Stats | Gen.Rebalance _ -> invalid_arg "Pipelined.pregenerate: mutations only"
    in
    Bytes.set verbs i v;
    ids.(i) <- id;
    Gen.render g buf op;
    if (i + 1) mod chunk = 0 || i = n - 1 then begin
      ends.(i / chunk) <- Buffer.length buf;
      live.(i / chunk) <- Gen.live_count g
    end
  done;
  { text = Buffer.contents buf; ends; live; verbs; ids; prefix = Gen.prefix g; n }

type result = {
  ops : int;  (** ops acknowledged *)
  unacked : int;  (** ops sent but never acknowledged (counted in [failures]) *)
  live : int;  (** the generator's live count after the last op sent *)
  first_send_ns : int;
  last_ack_ns : int;
  lat_ns : int array;  (** per op: start of its write call -> its ack *)
  failures : int;
  first_error : string option;
  stats_line : string;  (** reply to the closing STATS *)
}

let verb = function 'A' -> "PLACED" | 'R' -> "REMOVED" | _ -> "RESIZED"

(* Sends whole chunks until [max_ops] ops are out, so two runs with the
   same budget send the same ops. *)
let run ?sampler ?(max_ops = max_int) ~wfd ~reader ~procs ~deadline_ns s =
  let chunks = Array.length s.ends in
  let chunk_sent = Array.make (max 1 chunks) 0 in
  let sent = Atomic.make 0 and sent_chunks = Atomic.make 0 in
  let writer_error = ref None in
  let writer () =
    try
      let c = ref 0 in
      while !c < chunks && Atomic.get sent < max_ops && (!c = 0 || Util.now_ns () < deadline_ns) do
        let start = if !c = 0 then 0 else s.ends.(!c - 1) in
        chunk_sent.(!c) <- Util.now_ns ();
        Lineio.write_substring wfd s.text start (s.ends.(!c) - start);
        Atomic.set sent (min s.n ((!c + 1) * chunk));
        incr c;
        Atomic.set sent_chunks !c
      done;
      Lineio.write_string wfd "STATS\n"
    with e -> writer_error := Some (Printexc.to_string e)
  in
  Option.iter (fun sm -> Sampler.take sm ~ops:0) sampler;
  let th = Thread.create writer () in
  let lat = Array.make s.n 0 in
  let k = ref 0 and failures = ref 0 and first_error = ref None and last_ack = ref 0 in
  let fail msg =
    incr failures;
    if !first_error = None then first_error := Some msg
  in
  let stats_line = ref "" in
  (try
     let rec loop () =
       match Lineio.read_line reader with
       | None -> raise End_of_file
       | Some l when Check.starts_with ~prefix:"STATS " l ->
         stats_line := l;
         Option.iter (fun sm -> Sampler.take sm ~ops:!k) sampler
       | Some l ->
         let now = Util.now_ns () in
         if !k >= s.n then fail (Printf.sprintf "unexpected reply %S" l)
         else begin
           let v = Bytes.get s.verbs !k in
           (match Check.mutation ~procs ~verb:(verb v) ~id:(s.prefix ^ string_of_int s.ids.(!k)) l with
           | Ok () -> ()
           | Error e -> fail e);
           lat.(!k) <- now - chunk_sent.(!k / chunk);
           incr k
         end;
         last_ack := now;
         Option.iter (fun sm -> Sampler.maybe sm ~ops:!k ~now) sampler;
         loop ()
     in
     loop ()
   with End_of_file -> fail "daemon closed its output before the closing STATS");
  Thread.join th;
  (match !writer_error with Some e -> fail ("writer: " ^ e) | None -> ());
  let unacked = Atomic.get sent - !k in
  if unacked > 0 then begin
    fail (Printf.sprintf "%d ops never acknowledged" unacked);
    failures := !failures + unacked - 1
  end;
  let n_chunks = Atomic.get sent_chunks in
  {
    ops = !k;
    unacked = max 0 unacked;
    live = (if n_chunks = 0 then 0 else s.live.(n_chunks - 1));
    first_send_ns = chunk_sent.(0);
    last_ack_ns = !last_ack;
    lat_ns = Array.sub lat 0 !k;
    failures = !failures;
    first_error = !first_error;
    stats_line = !stats_line;
  }
