(* Tests for the domain pool and the portfolio SAT runner, and the
   determinism guarantee of UPEC-SSC's per-svar rounds: identical
   verdicts, refinement traces and final sets for every job count. *)

module Pool = Parallel.Pool
module Portfolio = Parallel.Portfolio
module S = Satsolver.Solver
module L = Satsolver.Lit
module O = Upec.Options

(* the options of an Alg. 1 run capped at 64 iterations, on [j]
   workers per round *)
let alg1_opts = { O.default with O.max_iterations = 64 }
let jobs j = { alg1_opts with O.jobs = j }

(* ---- pool ---- *)

let test_map_order jobs () =
  Pool.with_pool ~jobs (fun pool ->
      let items = List.init 100 Fun.id in
      let results = Pool.map pool (fun x -> x * x) items in
      Alcotest.(check (list int))
        "results in submission order"
        (List.map (fun x -> x * x) items)
        results)

let test_map_wid () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let wids = Pool.map_wid pool (fun wid _ -> wid) (List.init 64 Fun.id) in
      List.iter
        (fun wid ->
          Alcotest.(check bool) "worker id in range" true (wid >= 0 && wid < 4))
        wids)

let test_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun pool ->
      match
        Pool.map pool
          (fun x -> if x = 17 then failwith "task 17 failed" else x)
          (List.init 40 Fun.id)
      with
      | _ -> Alcotest.fail "expected the task exception to re-raise"
      | exception Failure msg ->
          Alcotest.(check string) "first failing task wins" "task 17 failed" msg)

let test_pool_reusable () =
  (* several map calls over one pool; workers must not wedge *)
  Pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 5 do
        let r = Pool.map pool (fun x -> x + round) (List.init 20 Fun.id) in
        Alcotest.(check int) "round sum"
          (List.fold_left ( + ) 0 (List.init 20 (fun x -> x + round)))
          (List.fold_left ( + ) 0 r)
      done)

let test_map_crash_keeps_pool_alive () =
  (* a raising task must neither deadlock the map nor wedge the pool:
     the exception reaches the caller after all siblings settled, and
     the same pool keeps answering *)
  Pool.with_pool ~jobs:4 (fun pool ->
      (match
         Pool.map pool
           (fun x -> if x mod 7 = 3 then failwith "boom" else x)
           (List.init 50 Fun.id)
       with
      | _ -> Alcotest.fail "expected the task exception to re-raise"
      | exception Failure _ -> ());
      let r = Pool.map pool (fun x -> x * 2) (List.init 30 Fun.id) in
      Alcotest.(check (list int))
        "pool alive after a crashed map"
        (List.init 30 (fun x -> x * 2))
        r)

let test_submit_crash_isolation () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let done_count = Atomic.make 0 in
      for i = 0 to 9 do
        Pool.submit pool (fun _wid ->
            if i mod 2 = 0 then failwith "submit crash"
            else Atomic.incr done_count)
      done;
      (* a map call is a barrier: all prior submits have settled after it *)
      ignore (Pool.map pool Fun.id [ 1; 2; 3 ]);
      Alcotest.(check int) "crashes counted, not fatal" 5 (Pool.crashed pool);
      Alcotest.(check int) "surviving submits ran" 5 (Atomic.get done_count))

let test_watchdog_flags_stall () =
  let stalls = Atomic.make 0 in
  Pool.with_pool ~task_deadline:0.05
    ~on_stall:(fun _wid elapsed ->
      Alcotest.(check bool) "elapsed past deadline" true (elapsed >= 0.05);
      Atomic.incr stalls)
    ~jobs:2
    (fun pool ->
      let r =
        Pool.map pool
          (fun x ->
            if x = 0 then Unix.sleepf 0.25;
            x + 1)
          [ 0; 1; 2; 3 ]
      in
      Alcotest.(check (list int))
        "stalled task still completes" [ 1; 2; 3; 4 ] r);
  Alcotest.(check bool) "watchdog flagged the slow task" true
    (Atomic.get stalls >= 1)

let test_shutdown_with_queued_tasks () =
  (* shutdown on a non-idle pool drains the queue and never raises *)
  let pool = Pool.create ~jobs:3 () in
  let ran = Atomic.make 0 in
  for _ = 1 to 20 do
    Pool.submit pool (fun _ ->
        Unix.sleepf 0.01;
        Atomic.incr ran)
  done;
  Pool.shutdown pool;
  Alcotest.(check int) "queue drained before stopping" 20 (Atomic.get ran);
  Pool.shutdown pool (* idempotent *)

(* ---- portfolio ---- *)

let random_cnf rs =
  let nvars = 12 + Random.State.int rs 8 in
  let nclauses = 3 * nvars + Random.State.int rs (3 * nvars) in
  let clause () =
    List.init 3 (fun _ ->
        L.make (Random.State.int rs nvars) (Random.State.bool rs))
  in
  (nvars, List.init nclauses (fun _ -> clause ()))

let sequential_verdict nvars clauses =
  let s = S.create () in
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) clauses;
  S.solve s

let clause_satisfied model clause =
  List.exists
    (fun l ->
      let v = model.(L.var l) in
      if L.sign l then v else not v)
    clause

let test_portfolio_agrees () =
  let rs = Random.State.make [| 0x5eed |] in
  for _ = 1 to 50 do
    let nvars, clauses = random_cnf rs in
    let seq = sequential_verdict nvars clauses in
    let o =
      Portfolio.solve ~jobs:4 ~nvars ~clauses ~assumptions:[] ()
    in
    (match (seq, o.Portfolio.verdict) with
    | S.Unsat, Portfolio.Unsat -> ()
    | S.Sat, Portfolio.Sat model ->
        List.iter
          (fun c ->
            Alcotest.(check bool) "model satisfies clause" true
              (clause_satisfied model c))
          clauses
    | S.Sat, Portfolio.Unsat -> Alcotest.fail "portfolio says Unsat, solver Sat"
    | S.Unsat, Portfolio.Sat _ ->
        Alcotest.fail "portfolio says Sat, solver Unsat"
    | _, Portfolio.Unknown r ->
        Alcotest.fail ("unbudgeted portfolio returned Unknown: " ^ r));
    Alcotest.(check bool) "winner index valid" true (o.Portfolio.winner >= 0)
  done

let test_portfolio_jobs1_inline () =
  (* jobs <= 1 must behave exactly like the sequential default solve *)
  let rs = Random.State.make [| 42 |] in
  for _ = 1 to 10 do
    let nvars, clauses = random_cnf rs in
    let seq = sequential_verdict nvars clauses in
    let o = Portfolio.solve ~jobs:1 ~nvars ~clauses ~assumptions:[] () in
    Alcotest.(check bool) "same verdict" true
      (match (seq, o.Portfolio.verdict) with
      | S.Sat, Portfolio.Sat _ | S.Unsat, Portfolio.Unsat -> true
      | _ -> false);
    Alcotest.(check int) "winner is config 0" 0 o.Portfolio.winner
  done

let pigeonhole p h =
  let v pi hi = L.make ((pi * h) + hi) true in
  let at_least = List.init p (fun pi -> List.init h (fun hi -> v pi hi)) in
  let at_most =
    List.concat_map
      (fun hi ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p2 > p1 then Some [ L.negate (v p1 hi); L.negate (v p2 hi) ]
                else None)
              (List.init p Fun.id))
          (List.init p Fun.id))
      (List.init h Fun.id)
  in
  (p * h, at_least @ at_most)

let test_portfolio_losers_stats () =
  (* a loser may be cancelled at any point — before its first decision
     included — so exact counters are scheduling-dependent. What is
     deterministic: a conflict-free problem yields zero conflicts in
     every racer (interrupted or not), and the loser aggregate can
     never exceed what all racers together could have done *)
  let nvars, clauses = (2, [ [ L.make 0 true; L.make 1 true ] ]) in
  let o = Portfolio.solve ~jobs:4 ~nvars ~clauses ~assumptions:[] () in
  (match o.Portfolio.verdict with
  | Portfolio.Sat _ -> ()
  | Portfolio.Unsat -> Alcotest.fail "trivial SAT reported Unsat"
  | Portfolio.Unknown r -> Alcotest.fail ("unexpected Unknown: " ^ r));
  Alcotest.(check int) "no conflicts anywhere" 0
    o.Portfolio.losers_stats.S.conflicts;
  Alcotest.(check bool) "bounded decisions" true
    (o.Portfolio.losers_stats.S.decisions <= 3 * 2);
  (* jobs=1 runs inline: no race, no losers *)
  let o1 = Portfolio.solve ~jobs:1 ~nvars ~clauses ~assumptions:[] () in
  Alcotest.(check bool) "no losers inline" true
    (o1.Portfolio.losers_stats = S.zero_stats)

let test_portfolio_losers_after_cancellation () =
  (* a hard UNSAT race: losers are interrupted mid-search, and their
     partial work must still be collected consistently (the aggregate
     never crashes, is non-negative, and the verdict stays sound) *)
  let nvars, clauses = pigeonhole 8 7 in
  for _ = 1 to 3 do
    let o = Portfolio.solve ~jobs:4 ~nvars ~clauses ~assumptions:[] () in
    Alcotest.(check bool) "unsat" true (o.Portfolio.verdict = Portfolio.Unsat);
    let l = o.Portfolio.losers_stats in
    Alcotest.(check bool) "counters non-negative" true
      (l.S.conflicts >= 0 && l.S.decisions >= 0 && l.S.propagations >= 0);
    Alcotest.(check bool) "winner valid" true
      (o.Portfolio.winner >= 0 && o.Portfolio.winner < 4)
  done

let test_portfolio_certified () =
  (* the winner's own session must vouch for the winner's answer, UNSAT
     and SAT, on the raced and the inline path *)
  let nvars, clauses = pigeonhole 6 5 in
  let sat_clauses = [ [ L.make 0 true; L.make 1 true ]; [ L.make 0 false ] ] in
  List.iter
    (fun jobs ->
      let vouched what o =
        match o.Portfolio.cert with
        | Some (Ok s) -> s
        | Some (Error msg) ->
            Alcotest.failf "winner's %s rejected (jobs=%d): %s" what jobs msg
        | None -> Alcotest.failf "certified %s answer carries no cert" what
      in
      let o =
        Portfolio.solve ~certify:true ~jobs ~nvars ~clauses ~assumptions:[] ()
      in
      Alcotest.(check bool) "unsat" true (o.Portfolio.verdict = Portfolio.Unsat);
      Alcotest.(check bool) "proof steps validated" true
        ((vouched "proof" o).Cert.Pipeline.steps > 0);
      let o =
        Portfolio.solve ~certify:true ~jobs ~nvars:2 ~clauses:sat_clauses
          ~assumptions:[] ()
      in
      (match o.Portfolio.verdict with
      | Portfolio.Sat _ -> ()
      | _ -> Alcotest.fail "expected SAT");
      ignore (vouched "model" o))
    [ 1; 4 ]

(* ---- parallel Alg. 1: determinism across job counts ---- *)

let spec_of variant =
  let soc = Soc.Builder.build Soc.Config.formal_tiny Soc.Builder.Formal in
  Upec.Spec.make soc variant

(* runs build separate SoC instances, so svars differ by internal signal
   id across runs; compare the (unique) names instead *)
let names s =
  List.map Rtl.Structural.svar_name (Rtl.Structural.Svar_set.elements s)
  |> List.sort compare

let check_svar_set msg a b =
  Alcotest.(check (list string)) msg (names a) (names b)

let check_same_run r1 r4 =
  Alcotest.(check string) "same procedure" r1.Upec.Report.procedure
    r4.Upec.Report.procedure;
  Alcotest.(check int) "same iteration count" (Upec.Report.iterations r1)
    (Upec.Report.iterations r4);
  List.iter2
    (fun s1 s4 ->
      Alcotest.(check int) "same |S|" s1.Upec.Report.st_s_size
        s4.Upec.Report.st_s_size;
      check_svar_set "same S_cex" s1.Upec.Report.st_cex s4.Upec.Report.st_cex;
      check_svar_set "same persistent hits" s1.Upec.Report.st_pers_hit
        s4.Upec.Report.st_pers_hit)
    r1.Upec.Report.steps r4.Upec.Report.steps;
  match (r1.Upec.Report.verdict, r4.Upec.Report.verdict) with
  | Upec.Report.Secure { s_final = f1 }, Upec.Report.Secure { s_final = f4 } ->
      check_svar_set "same final S" f1 f4
  | ( Upec.Report.Vulnerable { s_cex = c1; _ },
      Upec.Report.Vulnerable { s_cex = c4; _ } ) ->
      check_svar_set "same S_cex" c1 c4
  | v1, v4 ->
      Alcotest.fail
        (Format.asprintf "verdicts differ: %a vs %a" Upec.Report.pp_verdict v1
           Upec.Report.pp_verdict v4)

let test_alg1_jobs_deterministic_vulnerable () =
  let r1 = Upec.Alg1.run_with (jobs 1) (spec_of Upec.Spec.Vulnerable) in
  let r4 = Upec.Alg1.run_with (jobs 4) (spec_of Upec.Spec.Vulnerable) in
  Alcotest.(check bool) "vulnerable" true (Upec.Report.is_vulnerable r1);
  check_same_run r1 r4

let test_alg1_jobs_deterministic_secure () =
  let r1 = Upec.Alg1.run_with (jobs 1) (spec_of Upec.Spec.Secure) in
  let r4 = Upec.Alg1.run_with (jobs 4) (spec_of Upec.Spec.Secure) in
  Alcotest.(check bool) "secure" true (Upec.Report.is_secure r1);
  check_same_run r1 r4

let test_alg1_jobs_matches_legacy_verdicts () =
  (* the per-svar rounds must agree with the monolithic fixed point of
     the test oracle on the verdict and (for secure runs) the final
     inductive set *)
  List.iter
    (fun variant ->
      let per_svar = Upec.Alg1.run_with (jobs 2) (spec_of variant) in
      match
        (Testutil.oracle_alg1 (spec_of variant), per_svar.Upec.Report.verdict)
      with
      | Testutil.Oracle_secure f1, Upec.Report.Secure { s_final = f2 } ->
          check_svar_set "same greatest fixed point" f1 f2
      | Testutil.Oracle_vulnerable _, Upec.Report.Vulnerable _ -> ()
      | _, v ->
          Alcotest.failf "the oracle disagrees with %s"
            (Format.asprintf "%a" Upec.Report.pp_verdict v))
    [ Upec.Spec.Secure; Upec.Spec.Vulnerable ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map order (jobs=1)" `Quick (test_map_order 1);
          Alcotest.test_case "map order (jobs=4)" `Quick (test_map_order 4);
          Alcotest.test_case "worker ids" `Quick test_map_wid;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "pool reusable" `Quick test_pool_reusable;
          Alcotest.test_case "crashed map keeps pool alive" `Quick
            test_map_crash_keeps_pool_alive;
          Alcotest.test_case "submit crash isolation" `Quick
            test_submit_crash_isolation;
          Alcotest.test_case "watchdog flags stall" `Quick
            test_watchdog_flags_stall;
          Alcotest.test_case "shutdown with queued tasks" `Quick
            test_shutdown_with_queued_tasks;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "agrees with sequential (50 CNFs)" `Quick
            test_portfolio_agrees;
          Alcotest.test_case "jobs=1 inline" `Quick test_portfolio_jobs1_inline;
          Alcotest.test_case "losers' stats aggregated" `Quick
            test_portfolio_losers_stats;
          Alcotest.test_case "losers consistent under cancellation" `Quick
            test_portfolio_losers_after_cancellation;
          Alcotest.test_case "certified: winner's proof checks" `Quick
            test_portfolio_certified;
        ] );
      ( "alg1-jobs",
        [
          Alcotest.test_case "vulnerable: jobs 1 = jobs 4" `Slow
            test_alg1_jobs_deterministic_vulnerable;
          Alcotest.test_case "secure: jobs 1 = jobs 4" `Slow
            test_alg1_jobs_deterministic_secure;
          Alcotest.test_case "per-svar = legacy fixed point" `Slow
            test_alg1_jobs_matches_legacy_verdicts;
        ] );
    ]
