module Timer = Rebal_harness.Timer

(* Request tracing: every span in the process — protocol ops, the
   cluster's mailbox hops, the engine's repair pass and the offline
   solvers — is one of these records. Protocol ops cross threads and
   domains: a session systhread opens the op, a worker domain runs the
   engine half, and a two-phase move touches two workers. So spans are
   flat records carrying explicit [trace_id]/[span_id]/[parent_id]
   links, recorded into per-domain ring buffers and stitched back into
   trees at exposition time — recording never blocks on anything wider
   than one domain's ring mutex.

   Cost model: head sampling (1-in-N at the op boundary) decides whether
   an op's spans are recorded at all; ops slower than the tail threshold
   are additionally captured into a bounded slow-op ring whether or not
   they were sampled (an unsampled slow op keeps only its root span —
   the children were never recorded). With both knobs off, [with_op] is
   [f ()] behind two atomic loads; outside every sampled op,
   [with_span], [current_carrier] and [add_attr] return after one. *)

type span = {
  trace_id : int;
  span_id : int;
  parent_id : int;  (* 0 when the span is a trace root *)
  name : string;
  domain : int;  (* domain the span ran on *)
  start_ns : int64;
  mutable stop_ns : int64;
  mutable attrs : (string * string) list;
}

type carrier = {
  trace : int;
  parent : int;
}

type slow_op = {
  slow_trace : int;
  slow_verb : string;
  slow_duration_ns : int64;
  slow_finished_ns : int64;
}

(* ----- configuration ----- *)

(* 0 = head sampling off; N = trace every Nth op. *)
let sample_every = Atomic.make 0

(* Negative = tail capture off; otherwise the threshold in ns. *)
let slow_threshold = Atomic.make (-1)

(* Injectable clock: the slow-ring property tests drive op durations
   deterministically through this hook. *)
let clock : (unit -> int64) Atomic.t = Atomic.make Timer.now_ns

let set_sample_every n = Atomic.set sample_every (max 0 n)
let sampling_every () = Atomic.get sample_every
let set_slow_threshold_ns n = Atomic.set slow_threshold n
let slow_threshold_ns () = Atomic.get slow_threshold
let set_clock f = Atomic.set clock f
let now () = (Atomic.get clock) ()

(* ----- id allocation (globally unique across domains) ----- *)

let trace_ids = Atomic.make 1
let span_ids = Atomic.make 1
let op_counter = Atomic.make 0

let next_trace () = Atomic.fetch_and_add trace_ids 1
let next_span () = Atomic.fetch_and_add span_ids 1

(* ----- drop accounting ----- *)

let count_dropped kind =
  Metrics.Counter.inc
    (Metrics.counter
       ~help:"Tracing entries overwritten because a buffer wrapped"
       ~labels:[ ("kind", kind) ] "rebal_trace_dropped_total")

(* ----- bounded rings ----- *)

(* Fixed capacity, oldest overwritten (and counted under [kind]). The
   mutex is not redundant even for a per-domain ring: session
   systhreads all live on the control domain and share its DLS slot,
   so several threads record into one ring concurrently. *)
type 'a ring = {
  mu : Mutex.t;
  kind : string;
  mutable slots : 'a option array;
  mutable written : int;
}

let make_ring kind n = { mu = Mutex.create (); kind; slots = Array.make n None; written = 0 }

let locked r f =
  Mutex.lock r.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.mu) f

let resize name r n =
  if n < 1 then invalid_arg (name ^ ": need a positive capacity");
  locked r (fun () ->
      r.slots <- Array.make n None;
      r.written <- 0)

let clear r =
  locked r (fun () ->
      Array.fill r.slots 0 (Array.length r.slots) None;
      r.written <- 0)

let push r x =
  let dropped =
    locked r (fun () ->
        let slot = r.written mod Array.length r.slots in
        let dropped = r.slots.(slot) <> None in
        r.slots.(slot) <- Some x;
        r.written <- r.written + 1;
        dropped)
  in
  if dropped then count_dropped r.kind

let contents r =
  let buf, total = locked r (fun () -> (Array.copy r.slots, r.written)) in
  let cap = Array.length buf in
  let start = max 0 (total - cap) in
  List.filter_map (fun i -> buf.(i mod cap)) (List.init (total - start) (fun j -> start + j))

(* One span ring per domain, in DLS; one slow-op ring for the process. *)
let ring_key = Domain.DLS.new_key (fun () -> make_ring "op_span" 4096)
let ring () = Domain.DLS.get ring_key
let slow_ring = make_ring "slow_op" 256
let set_ring_capacity n = resize "Optrace.set_ring_capacity" (ring ()) n
let set_slow_capacity n = resize "Optrace.set_slow_capacity" slow_ring n
let record sp = push (ring ()) sp
let recorded () = contents (ring ())
let record_slow e = push slow_ring e
let slow_ops () = contents slow_ring

(* ----- the current trace context ----- *)

(* The innermost recorded span of each thread inside a sampled op.
   Keyed by (domain, thread), not plain DLS: session systhreads share
   the control domain's DLS, so a domain-local "current span" would
   leak one session's context into another. The table only ever holds
   entries for threads inside a sampled op, so it stays tiny and the
   lock is uncontended unless tracing is busy.

   [live] counts the contexts open anywhere in the process, bumped
   before an entry goes in and dropped after it comes out. A thread's
   own entry is therefore always counted, so at zero the calling thread
   has no context and every lookup answers without the lock, the key
   tuple or the table: the path every untraced op and solver takes. *)
let ctx_mu = Mutex.create ()
let ctx : (int * int, span) Hashtbl.t = Hashtbl.create 64
let live = Atomic.make 0

let self_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let current_span () =
  if Atomic.get live = 0 then None
  else begin
    Mutex.lock ctx_mu;
    let sp = Hashtbl.find_opt ctx (self_key ()) in
    Mutex.unlock ctx_mu;
    sp
  end

let current_carrier () =
  match current_span () with
  | None -> None
  | Some sp -> Some { trace = sp.trace_id; parent = sp.span_id }

(* Spans are published to a ring only once closed, and only the thread
   whose context holds a span can reach it here — so the append races
   with nothing. *)
let add_attr key v =
  match current_span () with
  | None -> ()
  | Some sp -> sp.attrs <- sp.attrs @ [ (key, v) ]

let set_ctx key v =
  Mutex.lock ctx_mu;
  (match v with
  | None -> Hashtbl.remove ctx key
  | Some sp -> Hashtbl.replace ctx key sp);
  Mutex.unlock ctx_mu

(* Run [f] with [sp] as the current span, restoring on the way out
   (removing the entry if there was none — dead threads must not leave
   ghosts in the table). *)
let with_ctx sp f =
  let key = self_key () in
  Atomic.incr live;
  let saved =
    Mutex.lock ctx_mu;
    let s = Hashtbl.find_opt ctx key in
    Hashtbl.replace ctx key sp;
    Mutex.unlock ctx_mu;
    s
  in
  Fun.protect
    ~finally:(fun () ->
      set_ctx key saved;
      Atomic.decr live)
    f

(* ----- spans ----- *)

let with_op ~verb f =
  let every = Atomic.get sample_every in
  let slow_t = Atomic.get slow_threshold in
  if every <= 0 && slow_t < 0 then f ()
  else begin
    let sampled = every > 0 && Atomic.fetch_and_add op_counter 1 mod every = 0 in
    let start_ns = now () in
    let trace_id = next_trace () in
    let sp =
      {
        trace_id;
        span_id = next_span ();
        parent_id = 0;
        name = verb;
        domain = (Domain.self () :> int);
        start_ns;
        stop_ns = start_ns;
        attrs = [];
      }
    in
    let finish () =
      let stop = now () in
      sp.stop_ns <- stop;
      let dur = Int64.sub stop start_ns in
      let is_slow = slow_t >= 0 && dur >= Int64.of_int slow_t in
      if sampled || is_slow then record sp;
      if is_slow then
        record_slow
          { slow_trace = trace_id; slow_verb = verb; slow_duration_ns = dur; slow_finished_ns = stop }
    in
    Fun.protect ~finally:finish @@ fun () -> if sampled then with_ctx sp f else f ()
  end

let span_under ~trace ~parent attrs name f =
  let sp =
    {
      trace_id = trace;
      span_id = next_span ();
      parent_id = parent;
      name;
      domain = (Domain.self () :> int);
      start_ns = now ();
      stop_ns = 0L;
      attrs;
    }
  in
  Fun.protect
    ~finally:(fun () ->
      sp.stop_ns <- now ();
      record sp)
    (fun () -> with_ctx sp f)

let with_span ?carrier ?(attrs = []) name f =
  match carrier with
  | Some { trace; parent } -> span_under ~trace ~parent attrs name f
  | None -> (
    match current_span () with
    | None -> f ()
    | Some p -> span_under ~trace:p.trace_id ~parent:p.span_id attrs name f)

let reset () =
  clear (ring ());
  clear slow_ring;
  Atomic.set op_counter 0

(* ----- assembly: flat records back into causal trees ----- *)

type tree = {
  span : span;
  children : tree list;
}

let assemble spans =
  let by_id = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace by_id sp.span_id sp) spans;
  (* A span is a root when it says so (parent 0) — or when its parent
     was evicted from a ring, or claims a different trace (which a
     correct recorder never produces): orphans are promoted to roots
     rather than silently dropped, so truncation is visible. *)
  let is_root sp =
    sp.parent_id = 0
    ||
    match Hashtbl.find_opt by_id sp.parent_id with
    | Some p -> p.trace_id <> sp.trace_id
    | None -> true
  in
  let kids = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      if not (is_root sp) then
        Hashtbl.replace kids sp.parent_id
          (sp :: Option.value ~default:[] (Hashtbl.find_opt kids sp.parent_id)))
    spans;
  let by_start l = List.sort (fun a b -> Int64.compare a.start_ns b.start_ns) l in
  let rec node sp =
    {
      span = sp;
      children =
        List.map node (by_start (Option.value ~default:[] (Hashtbl.find_opt kids sp.span_id)));
    }
  in
  List.map node (by_start (List.filter is_root spans))

let trees_for ~trace_id trees = List.filter (fun t -> t.span.trace_id = trace_id) trees

(* ----- rendering ----- *)

let duration_ns sp = Int64.sub sp.stop_ns sp.start_ns

let pp_duration ppf ns =
  let ns = Int64.to_float ns in
  if ns < 1e3 then Format.fprintf ppf "%.0fns" ns
  else if ns < 1e6 then Format.fprintf ppf "%.2fus" (ns /. 1e3)
  else if ns < 1e9 then Format.fprintf ppf "%.2fms" (ns /. 1e6)
  else Format.fprintf ppf "%.3fs" (ns /. 1e9)

let pp_attrs ppf = function
  | [] -> ()
  | attrs ->
    Format.fprintf ppf " {%s}"
      (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) attrs))

let rec pp_node ppf ~indent t =
  Format.fprintf ppf "%s%s%a  %a\n" indent t.span.name pp_attrs t.span.attrs pp_duration
    (duration_ns t.span);
  List.iter (fun c -> pp_node ppf ~indent:(indent ^ "  ") c) t.children

let pp_tree ppf t = pp_node ppf ~indent:"" t
let render_tree t = Format.asprintf "%a" pp_tree t

let render_duration ns = Format.asprintf "%a" pp_duration ns
