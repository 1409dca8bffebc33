(* Clock, percentile and small file helpers shared by every workload. *)

let now_ns () = Int64.to_int (Rebal_harness.Timer.now_ns ())
let us_of_ns ns = float_of_int ns /. 1e3
let s_of_ns ns = float_of_int ns /. 1e9

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it. [p] in (0, 100]. The same rule as
   [Rebal_harness.Stats.percentile], but on a sorted array (several
   percentiles of one sample set sort it once) and refusing an empty
   sample instead of reporting 0. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: no samples";
  if not (p > 0.0 && p <= 100.0) then invalid_arg "percentile: p must be in (0, 100]";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let percentile a p = percentile_sorted (sorted a) p
let median a = percentile a 50.0

(* How many samples lie strictly above the nearest-rank [p]-th
   percentile: a tail percentile is only reported when this is >= 10. *)
let beyond n p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec go () =
    match input ic buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
      output oc buf 0 n;
      go ()
  in
  go ();
  close_in ic;
  close_out oc

let file_size path = (Unix.stat path).Unix.st_size

(* "key=value" tokens of a STATS or READY line. *)
let kv line key =
  let prefix = key ^ "=" in
  let pl = String.length prefix in
  List.find_map
    (fun tok ->
      if String.length tok > pl && String.sub tok 0 pl = prefix then
        Some (String.sub tok pl (String.length tok - pl))
      else None)
    (String.split_on_char ' ' line)

let kv_int line key = Option.bind (kv line key) int_of_string_opt
let kv_float line key = Option.bind (kv line key) float_of_string_opt
