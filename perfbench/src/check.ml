(* The reply checker. Every op's reply is held against the op that
   caused it: a mutation gets exactly one PLACED/REMOVED/RESIZED line
   naming the same id with a processor in range; REBALANCE gets its
   MOVE lines followed by a REBALANCED line whose count matches; STATS
   gets one STATS line. Anything else — an ERR, a missing, duplicate or
   reordered ack — is a failure. *)

let verb = function
  | Gen.Add _ -> "PLACED"
  | Gen.Remove _ -> "REMOVED"
  | Gen.Resize _ -> "RESIZED"
  | Gen.Stats -> "STATS"
  | Gen.Rebalance _ -> "REBALANCED"

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let in_range ~procs s =
  match int_of_string_opt s with Some p -> p >= 0 && p < procs | None -> false

(* One mutation's ack: verb, id and a processor in range. *)
let mutation ~procs ~verb ~id l =
  match String.split_on_char ' ' l with
  | [ v; i; p; _ ] when v = verb && i = id && in_range ~procs p -> Ok ()
  | _ -> Error (Printf.sprintf "expected %s %s: unexpected reply %S" verb id l)

(* [next_line] yields the next reply line (raising [End_of_file] when
   the daemon hung up). Returns the relocations the op reported. *)
let reply g ~procs op next_line =
  let bad l = Error (Printf.sprintf "%s: unexpected reply %S" (Gen.line g op) l) in
  match op with
  | Gen.Add (n, _) | Gen.Remove n | Gen.Resize (n, _) ->
    Result.map (fun () -> 0) (mutation ~procs ~verb:(verb op) ~id:(Gen.id g n) (next_line ()))
  | Gen.Stats ->
    let l = next_line () in
    if starts_with ~prefix:"STATS " l then Ok 0 else bad l
  | Gen.Rebalance _ ->
    let rec go moves =
      let l = next_line () in
      match String.split_on_char ' ' l with
      | [ "MOVE"; _; src; dst ] when in_range ~procs src && in_range ~procs dst -> go (moves + 1)
      | "REBALANCED" :: _ when Util.kv_int l "moves" = Some moves -> Ok moves
      | _ -> bad l
    in
    go 0

(* The final STATS read: jobs= must equal what the generators left
   live. *)
let final_stats ~expect_jobs line =
  if not (starts_with ~prefix:"STATS " line) then
    Error (Printf.sprintf "final STATS: unexpected reply %S" line)
  else
    match Util.kv_int line "jobs" with
    | Some j when j = expect_jobs -> Ok ()
    | Some j -> Error (Printf.sprintf "final STATS: jobs=%d, generator has %d live" j expect_jobs)
    | None -> Error (Printf.sprintf "final STATS without jobs=: %S" line)
