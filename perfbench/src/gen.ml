(* The seeded op-stream generator. Everything the daemon receives comes
   from here: a stream is a pure function of (seed, salt, prefix,
   parameters), so the same seed gives the same bytes. Each stream owns
   an id namespace ([prefix]) and a shadow pool of the ids it has
   placed, so every REMOVE/RESIZE names a live job and every ADD a
   fresh one — no op is expected to fail. *)

type op =
  | Add of int * int  (** id number, size *)
  | Remove of int
  | Resize of int * int
  | Stats
  | Rebalance of int

type params = {
  target_live : int;  (** live jobs the churn hovers around *)
  max_size : int;  (** sizes are uniform in [1, max_size] *)
  p_stats : float;  (** share of STATS reads *)
  p_rebalance : float;  (** share of REBALANCE <rebalance_k> *)
  rebalance_k : int;
}

let churn ~target_live =
  { target_live; max_size = 1000; p_stats = 0.0; p_rebalance = 0.0; rebalance_k = 16 }

type t = {
  st : Random.State.t;
  prefix : string;
  p : params;
  mutable live : int array;  (** live id numbers, dense in [0, n_live) *)
  mutable n_live : int;
  slot : (int, int) Hashtbl.t;  (** id number -> index in [live] *)
  mutable next_id : int;
}

let create ~seed ~salt ~prefix p =
  {
    st = Random.State.make [| seed; salt; 0x5eed |];
    prefix;
    p;
    live = Array.make 1024 0;
    n_live = 0;
    slot = Hashtbl.create 1024;
    next_id = 0;
  }

let live_count g = g.n_live
let prefix g = g.prefix
let id g n = g.prefix ^ string_of_int n

let push_live g n =
  if g.n_live = Array.length g.live then begin
    let bigger = Array.make (2 * g.n_live) 0 in
    Array.blit g.live 0 bigger 0 g.n_live;
    g.live <- bigger
  end;
  g.live.(g.n_live) <- n;
  Hashtbl.replace g.slot n g.n_live;
  g.n_live <- g.n_live + 1

let drop_live g i =
  let n = g.live.(i) in
  let last = g.live.(g.n_live - 1) in
  g.live.(i) <- last;
  Hashtbl.replace g.slot last i;
  Hashtbl.remove g.slot n;
  g.n_live <- g.n_live - 1;
  n

let size g = 1 + Random.State.int g.st g.p.max_size

let fresh g =
  let n = g.next_id in
  g.next_id <- n + 1;
  push_live g n;
  Add (n, size g)

(* A fresh ADD: the fill phase that brings a stream up to its target. *)
let add g = fresh g

(* The next churn op. Below the target the stream leans towards ADD,
   above it towards REMOVE, so the live count stays near
   [target_live]. *)
let next g =
  let r = Random.State.float g.st 1.0 in
  if r < g.p.p_stats then Stats
  else if r < g.p.p_stats +. g.p.p_rebalance then Rebalance g.p.rebalance_k
  else if g.n_live = 0 then fresh g
  else begin
    let deficit =
      float_of_int (g.p.target_live - g.n_live) /. float_of_int (max 1 g.p.target_live)
    in
    let p_add = Float.max 0.05 (Float.min 0.95 ((1.0 /. 3.0) +. deficit)) in
    let u = Random.State.float g.st 1.0 in
    if u < p_add then fresh g
    else if u < p_add +. ((1.0 -. p_add) /. 2.0) then
      Remove (drop_live g (Random.State.int g.st g.n_live))
    else Resize (g.live.(Random.State.int g.st g.n_live), size g)
  end

let is_mutation = function Add _ | Remove _ | Resize _ -> true | Stats | Rebalance _ -> false

let render g buf op =
  let id n =
    Buffer.add_string buf g.prefix;
    Buffer.add_string buf (string_of_int n)
  in
  (match op with
  | Add (n, s) ->
    Buffer.add_string buf "ADD ";
    id n;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int s)
  | Remove n ->
    Buffer.add_string buf "REMOVE ";
    id n
  | Resize (n, s) ->
    Buffer.add_string buf "RESIZE ";
    id n;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int s)
  | Stats -> Buffer.add_string buf "STATS"
  | Rebalance k ->
    Buffer.add_string buf "REBALANCE ";
    Buffer.add_string buf (string_of_int k));
  Buffer.add_char buf '\n'

let line g op =
  let b = Buffer.create 32 in
  render g b op;
  Buffer.sub b 0 (Buffer.length b - 1)
