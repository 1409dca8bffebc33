(* Periodic samples of (ops acknowledged, time, daemon CPU) over a
   measured window, cut into slices. On a shared host, contention from
   other tenants only ever slows a slice down, so the figures gated are
   read from the better slices: ops/s at the 80th percentile of the
   slices' rates, CPU per op at the 20th percentile. A change that slows
   the daemon slows every slice. *)

let every_ns = 250_000_000

type t = {
  pid : int;
  mutable next_ns : int;
  mutable samples : (int * int * int) list;  (** newest first *)
}

let create ~pid = { pid; next_ns = 0; samples = [] }

let take s ~ops =
  let now = Util.now_ns () in
  s.samples <- (ops, now, Proc.cpu_ns s.pid) :: s.samples;
  s.next_ns <- now + every_ns

let maybe s ~ops ~now = if now >= s.next_ns then take s ~ops

(* Per slice: (ops/s, daemon CPU us per op). *)
let slices s =
  let rec go acc = function
    | (o1, t1, c1) :: ((o0, t0, c0) :: _ as rest) ->
      let acc =
        if o1 > o0 && t1 > t0 then
          (float_of_int (o1 - o0) /. Util.s_of_ns (t1 - t0), Util.us_of_ns (c1 - c0) /. float_of_int (o1 - o0))
          :: acc
        else acc
      in
      go acc rest
    | _ -> acc
  in
  Array.of_list (go [] s.samples)

(* Ops and daemon CPU ns from the first sample to the last. *)
let totals s =
  match (s.samples, List.rev s.samples) with
  | (o1, _, c1) :: _, (o0, _, c0) :: _ -> (o1 - o0, c1 - c0)
  | _ -> (0, 0)

(* The figures pool the slices of every window given (one per daemon). *)
let pooled ss = Array.concat (List.map slices ss)
let rate ss = Util.percentile (Array.map fst (pooled ss)) 80.0
let cpu_us_per_op ss = Util.percentile (Array.map snd (pooled ss)) 20.0
let count ss = Array.length (pooled ss)
