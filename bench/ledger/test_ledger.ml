(* The ledger's statistics and its metric declarations; runs no
   workload. *)

open Ledger_core
module Json = Upec.Json

let close = Alcotest.float 1e-12
let triple = Alcotest.(triple close close close)

let test_percentile_rule () =
  Alcotest.(check bool) "p70 of 36 leaves >= 10 beyond" true (Stats.beyond 70 36 >= 10);
  Alcotest.(check (option int)) "tail of 36" (Some 72) (Stats.tail_percentile 36);
  Alcotest.(check int) "p72 of 36 leaves 10" 10 (Stats.beyond 72 36);
  Alcotest.(check int) "p73 of 36 leaves 9" 9 (Stats.beyond 73 36);
  Alcotest.(check (option int)) "no tail above the median for 20" None
    (Stats.tail_percentile 20);
  Alcotest.(check (option int)) "tail of 1000" (Some 99) (Stats.tail_percentile 1000);
  let xs = List.init 36 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check close) "nearest rank" 26.0 (Stats.percentile 70 xs)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "1..4" (1.25, 2.5, 3.75) (Stats.quartiles [ 4.0; 2.0; 3.0; 1.0 ]);
  Alcotest.check triple "3 samples" (1.25, 3.5, 9.0) (Stats.quartiles [ 3.5; 1.25; 9.0 ]);
  Alcotest.check triple "2 samples" (0.75, 1.5, 2.25) (Stats.quartiles [ 2.0; 1.0 ]);
  Alcotest.(check close) "median even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let parent = [ 10.0; 10.2; 9.9; 10.1; 9.8; 10.0; 10.3; 9.7; 10.1; 9.9 ]

let verdict ?(better = Stats.Lower) ?(bound = 0.1) ?floor a b =
  Stats.verdict_to_string (Stats.compare_runs ?floor ~better ~bound ~a ~b ()).Stats.cmp_verdict

let test_compare () =
  let scale k = List.map (fun x -> x *. k) parent in
  let v = Alcotest.(check string) in
  v "20% faster" "better" (verdict parent (scale 0.8));
  v "30% slower" "worse" (verdict parent (scale 1.3));
  v "same runs" "unchanged" (verdict parent parent);
  v "2% slower, within bound" "unchanged" (verdict parent (scale 1.02));
  v "higher is better" "better" (verdict ~better:Stats.Higher parent (scale 1.3));
  v "higher is better, lower" "worse" (verdict ~better:Stats.Higher parent (scale 0.7));
  (* the parent's own spread is wider than the bound *)
  let noisy = [ 5.0; 15.0; 7.0; 13.0; 9.0; 11.0; 6.0; 14.0; 8.0; 12.0 ] in
  v "noisy, mixed" "unresolved" (verdict noisy (List.rev noisy));
  v "too few runs" "unresolved" (verdict [ 1.0 ] [ 1.0 ]);
  (* an absolute floor: a millisecond metric whose relative spread is
     wider than the bound is resolved once the floor exceeds it *)
  let ms = List.map (fun x -> x *. 1e-4) noisy in
  v "noisy ms, no floor" "unresolved" (verdict ms (List.rev ms));
  v "noisy ms, 1 ms floor" "unchanged" (verdict ~floor:0.001 ms (List.rev ms));
  v "within the floor" "unchanged" (verdict ~floor:0.001 ms (List.map (fun x -> x +. 5e-4) ms));
  v "beyond the floor" "worse" (verdict ~floor:0.001 ms (List.map (fun x -> x +. 2e-3) ms));
  let c = Stats.compare_runs ~better:Stats.Lower ~bound:0.1 ~a:parent ~b:(scale 0.8) () in
  Alcotest.(check close) "all pairs won" 1.0 c.Stats.cmp_b_wins

(* The names the ledger prints are the names BENCHMARK.json declares,
   with the same units and directions. *)
let test_declared () =
  let bench =
    let ic = open_in "../../BENCHMARK.json" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Json.of_string (really_input_string ic (in_channel_length ic)))
  in
  let str k j = Option.get (Json.to_str (Json.member k j)) in
  let list k = Option.get (Json.to_list (Json.member k bench)) in
  let declared k =
    List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) (list k)
  in
  let ours ms =
    List.map
      (fun (m : Schema.metric) ->
        ( m.Schema.name,
          m.Schema.unit,
          match m.Schema.better with Stats.Lower -> "lower" | Stats.Higher -> "higher" ))
      ms
  in
  let metrics = Alcotest.(list (triple string string string)) in
  Alcotest.check metrics "end_to_end" (declared "end_to_end") (ours Schema.end_to_end);
  Alcotest.check metrics "per_layer" (declared "per_layer") (ours Schema.per_layer);
  Alcotest.(check (list string))
    "workloads" Schema.workloads
    (List.map (str "name") (list "workloads"))

(* The legacy wrappers carry [@deprecated] only in their documentation,
   so the compiler's deprecation alert does not catch them: scan the
   ledger's source for them instead. *)
let legacy_wrappers =
  [
    "Alg1.run";
    "Alg2.run";
    "Alg2.conclude";
    "Engine.check";
    "Engine.check_bounded";
    "Engine.check_sat";
    "Engine.check_sat_bounded";
    "Engine.sat_bounded";
  ]

let uses src name =
  let n = String.length name and len = String.length src in
  let ident = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
    | _ -> false
  in
  let rec from i =
    i + n <= len
    && ((String.sub src i n = name && (i + n = len || not (ident src.[i + n])))
       || from (i + 1))
  in
  from 0

let test_no_legacy_calls () =
  let src =
    let ic = open_in "ledger.ml" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check bool) "scanner sees a call" true (uses "f (Upec.Alg1.run spec)" "Alg1.run");
  Alcotest.(check bool) "scanner skips run_with" false (uses "Upec.Alg1.run_with o" "Alg1.run");
  List.iter
    (fun name -> Alcotest.(check bool) ("ledger.ml calls " ^ name) false (uses src name))
    legacy_wrappers

let () =
  Alcotest.run "ledger"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "compare verdicts" `Quick test_compare;
        ] );
      ( "schema",
        [
          Alcotest.test_case "matches BENCHMARK.json" `Quick test_declared;
          Alcotest.test_case "no legacy entry points" `Quick test_no_legacy_calls;
        ] );
    ]
