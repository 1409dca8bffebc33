(* Self-tests of the benchmark's own helpers: the generator (same seed,
   same bytes; every op valid against a shadow pool) and the percentile
   helper. `perfbench selftest` exits 0 when all pass. *)

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let mixed = { (Gen.churn ~target_live:500) with Gen.p_stats = 0.02; p_rebalance = 0.01 }

let stream ~seed ~prefix n =
  let g = Gen.create ~seed ~salt:1 ~prefix mixed in
  let b = Buffer.create (n * 16) in
  for i = 1 to n do
    Gen.render g b (if i <= 300 then Gen.add g else Gen.next g)
  done;
  Buffer.contents b

(* Replays the stream's lines against a shadow pool: an ADD names a
   fresh id, REMOVE/RESIZE a live one, sizes are in range, and the
   generator's live count matches the pool after every op. *)
let valid_against_shadow ~seed n =
  let g = Gen.create ~seed ~salt:1 ~prefix:"s-" mixed in
  let pool = Hashtbl.create 1024 in
  let ok = ref true in
  let size_ok s = match int_of_string_opt s with Some v -> v >= 1 && v <= mixed.Gen.max_size | None -> false in
  for i = 1 to n do
    let op = if i <= 300 then Gen.add g else Gen.next g in
    (match String.split_on_char ' ' (Gen.line g op) with
    | [ "ADD"; id; s ] ->
      if Hashtbl.mem pool id || not (size_ok s) then ok := false;
      Hashtbl.replace pool id ()
    | [ "REMOVE"; id ] ->
      if not (Hashtbl.mem pool id) then ok := false;
      Hashtbl.remove pool id
    | [ "RESIZE"; id; s ] -> if not (Hashtbl.mem pool id && size_ok s) then ok := false
    | [ "STATS" ] -> ()
    | [ "REBALANCE"; k ] -> if int_of_string_opt k <> Some mixed.Gen.rebalance_k then ok := false
    | _ -> ok := false);
    if Hashtbl.length pool <> Gen.live_count g then ok := false
  done;
  !ok

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

let run () =
  let a = stream ~seed:42 ~prefix:"x-" 20_000 and b = stream ~seed:42 ~prefix:"x-" 20_000 in
  expect "generator: same seed gives the same bytes" (String.equal a b);
  expect "generator: another seed gives other bytes"
    (not (String.equal a (stream ~seed:43 ~prefix:"x-" 20_000)));
  List.iter
    (fun seed ->
      expect (Printf.sprintf "generator: every op valid against a shadow pool (seed %d)" seed)
        (valid_against_shadow ~seed 50_000))
    [ 1; 2; 3 ];
  let g = Gen.create ~seed:5 ~salt:1 ~prefix:"c-" (Gen.churn ~target_live:1000) in
  for _ = 1 to 1000 do ignore (Gen.add g) done;
  let lo = ref max_int and hi = ref 0 in
  for _ = 1 to 50_000 do
    ignore (Gen.next g);
    lo := min !lo (Gen.live_count g);
    hi := max !hi (Gen.live_count g)
  done;
  expect "generator: churn hovers around the target live count" (!lo > 800 && !hi < 1200);
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  expect "percentile: nearest rank on 1..100"
    (Util.percentile hundred 50.0 = 50.0
    && Util.percentile hundred 99.0 = 99.0
    && Util.percentile hundred 100.0 = 100.0
    && Util.percentile hundred 1.0 = 1.0
    && Util.percentile hundred 0.5 = 1.0);
  expect "percentile: one sample" (Util.percentile [| 7.0 |] 99.0 = 7.0);
  expect "percentile: input left unsorted" (hundred.(0) = 100.0);
  expect "percentile: median of an even count is the lower middle" (Util.median [| 4.0; 1.0; 3.0; 2.0 |] = 2.0);
  expect "percentile: samples beyond p99" (Util.beyond 1000 99.0 = 10 && Util.beyond 999 99.0 = 9);
  expect "percentile: rejects no samples and p outside (0, 100]"
    (raises (fun () -> Util.percentile [||] 50.0)
    && raises (fun () -> Util.percentile [| 1.0 |] 0.0)
    && raises (fun () -> Util.percentile [| 1.0 |] 101.0));
  if !failures = 0 then 0 else 1
