(* Open-loop client for the interactive workload: each connection has
   its own Poisson arrival schedule and at most one op in flight. An op
   due while its predecessor is still in flight waits in the client —
   so a stall shows up in every later op — and every latency is timed
   from the op's *scheduled* send, not from when it actually went out.
   One thread serves all connections with select; the last [spin_ns]
   before a due send are spent polling, because a timed wait alone
   overshoots by the kernel's timer slack (~50 us). *)

module Lineio = Rebal_net.Lineio

type conn = {
  fd : Unix.file_descr;
  rd : Lineio.reader;
  gen : Gen.t;
}

type rung = {
  rate : int;  (** offered ops/s over all connections *)
  sent : int;
  acked : int;
  achieved : float;  (** acked ops / (last ack - first scheduled send) *)
  lat_us : float array;  (** scheduled send -> ack, sorted *)
  rebalance_us : float array;  (** latency of the REBALANCE ops alone, sorted *)
  late_us : float array;  (** scheduled send -> actual send, sorted *)
  growing : bool;  (** the send lag grew over the rung: a backlog *)
  moves : int;
  failures : int;
  first_error : string option;
}

let spin_ns = 80_000

(* Poisson arrivals at [rate] per second over [dur_ns], absolute times. *)
let schedule rng ~rate ~start ~dur_ns =
  let acc = ref [] and t = ref start in
  let next () =
    let u = Random.State.float rng 1.0 in
    -.Float.log (1.0 -. u) /. rate *. 1e9
  in
  t := !t + int_of_float (next ());
  while !t < start + dur_ns do
    acc := !t :: !acc;
    t := !t + int_of_float (next ())
  done;
  Array.of_list (List.rev !acc)

(* Backlog: the median send lag of the rung's last quarter exceeds the
   first quarter's by more than [limit_ns] — the queue in front of the
   daemon was still growing when the rung ended. *)
let lag_growing ~limit_ns late_ns =
  let n = Array.length late_ns in
  if n < 8 then false
  else
    let q = n / 4 in
    let med a = Util.median (Array.map float_of_int a) in
    med (Array.sub late_ns (n - q) q) -. med (Array.sub late_ns 0 q) > float_of_int limit_ns

let run_rung ?sampler ~procs ~arrivals conns ~rate ~dur_ns ~limit_ns () =
  let nc = Array.length conns in
  let start = Util.now_ns () + 1_000_000 in
  let sched =
    Array.map (fun _ -> schedule arrivals ~rate:(float_of_int rate /. float_of_int nc) ~start ~dur_ns) conns
  in
  let total = Array.fold_left (fun a s -> a + Array.length s) 0 sched in
  let next = Array.make nc 0 in
  let inflight = Array.make nc None in
  let lat = Array.make total 0 and late = Array.make total 0 in
  let n_lat = ref 0 and n_late = ref 0 in
  let rebal = ref [] in
  let moves = ref 0 and failures = ref 0 and first_error = ref None and last_ack = ref start in
  let fail msg =
    incr failures;
    if !first_error = None then first_error := Some msg
  in
  let buf = Buffer.create 64 in
  Option.iter (fun s -> Sampler.take s ~ops:0) sampler;
  let send i now =
    let c = conns.(i) in
    let op = Gen.next c.gen in
    Buffer.clear buf;
    Gen.render c.gen buf op;
    let due = sched.(i).(next.(i)) in
    next.(i) <- next.(i) + 1;
    Lineio.write_string c.fd (Buffer.contents buf);
    late.(!n_late) <- now - due;
    incr n_late;
    inflight.(i) <- Some (op, due)
  in
  let receive i =
    match inflight.(i) with
    | None -> ()
    | Some (op, due) ->
      let c = conns.(i) in
      let line () =
        match Lineio.read_line c.rd with Some l -> l | None -> raise End_of_file
      in
      (match Check.reply c.gen ~procs op line with
      | Ok m -> moves := !moves + m
      | Error e -> fail e);
      let now = Util.now_ns () in
      last_ack := now;
      lat.(!n_lat) <- now - due;
      Option.iter (fun s -> Sampler.maybe s ~ops:(!n_lat + 1) ~now) sampler;
      (match op with Gen.Rebalance _ -> rebal := Util.us_of_ns (now - due) :: !rebal | _ -> ());
      incr n_lat;
      inflight.(i) <- None
  in
  let busy () =
    let b = ref false in
    for i = 0 to nc - 1 do
      if inflight.(i) <> None || next.(i) < Array.length sched.(i) then b := true
    done;
    !b
  in
  (try
     while busy () do
       let now = Util.now_ns () in
       let due = ref max_int in
       for i = 0 to nc - 1 do
         if inflight.(i) = None && next.(i) < Array.length sched.(i) then begin
           let d = sched.(i).(next.(i)) in
           if d <= now then send i now else due := min !due d
         end
       done;
       (* Replies already buffered need no syscall. *)
       let waiting = ref [] in
       for i = nc - 1 downto 0 do
         if inflight.(i) <> None then
           if Lineio.has_line conns.(i).rd then receive i
           else waiting := conns.(i).fd :: !waiting
       done;
       let now = Util.now_ns () in
       let wait_ns = if !due = max_int then -1 else !due - now in
       let timeout =
         if wait_ns < 0 && !due <> max_int then 0.0
         else if wait_ns < 0 then -1.0
         else if wait_ns <= spin_ns then 0.0
         else float_of_int (wait_ns - spin_ns) /. 1e9
       in
       if !waiting <> [] || timeout > 0.0 then begin
         match Unix.select !waiting [] [] timeout with
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
         | ready, _, _ ->
           Array.iteri (fun i c -> if List.memq c.fd ready then receive i) conns
       end
     done
   with End_of_file -> fail "daemon closed a connection mid-rung");
  Option.iter (fun s -> Sampler.take s ~ops:!n_lat) sampler;
  let unacked = total - !n_lat in
  if unacked > 0 then begin
    fail (Printf.sprintf "%d ops never acknowledged" unacked);
    failures := !failures + unacked - 1
  end;
  let us a n = Util.sorted (Array.init n (fun i -> Util.us_of_ns a.(i))) in
  {
    rate;
    sent = !n_late;
    acked = !n_lat;
    achieved = float_of_int !n_lat /. Util.s_of_ns (max 1 (!last_ack - start));
    lat_us = us lat !n_lat;
    rebalance_us = Util.sorted (Array.of_list !rebal);
    late_us = us late !n_late;
    growing = lag_growing ~limit_ns (Array.sub late 0 !n_late);
    moves = !moves;
    failures = !failures;
    first_error = !first_error;
  }
