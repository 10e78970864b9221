(* Tests for the certification subsystem: the DRUP recorder, the
   independent forward RUP checker, the SAT-model checker, the
   counterexample simulator validation, and the certified end-to-end
   UPEC-SSC runs. Deliberately corrupted certificates and mutated
   witnesses must all be rejected. *)

open Rtl
module S = Satsolver.Solver
module L = Satsolver.Lit
module Proof = Cert.Proof
module Rup = Cert.Rup
module O = Upec.Options

(* Alg. 1 capped at 64 iterations *)
let alg1_opts = { O.default with O.max_iterations = 64 }

let lit v s = L.make v s

(* pigeonhole php(p, h): p pigeons into h < p holes, UNSAT *)
let pigeonhole p h =
  let v pi hi = lit ((pi * h) + hi) true in
  let at_least = List.init p (fun pi -> List.init h (fun hi -> v pi hi)) in
  let at_most =
    List.concat_map
      (fun hi ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p2 > p1 then
                  Some [ L.negate (v p1 hi); L.negate (v p2 hi) ]
                else None)
              (List.init p Fun.id))
          (List.init p Fun.id))
      (List.init h Fun.id)
  in
  (p * h, at_least @ at_most)

let solve_traced ?options ?(assumptions = []) nvars clauses =
  let s = S.create ?options () in
  let p = Proof.create () in
  S.set_tracer s (Some (Proof.tracer p));
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) clauses;
  (S.solve ~assumptions s, p, s)

(* ---- RUP checking of genuine solver proofs ---- *)

let test_rup_accepts_pigeonhole () =
  let nvars, clauses = pigeonhole 6 5 in
  let verdict, p, _ = solve_traced nvars clauses in
  Alcotest.(check bool) "unsat" true (verdict = S.Unsat);
  Alcotest.(check bool) "proof nonempty" true (Proof.length p > 0);
  match Rup.check ~nvars ~clauses ~proof:(Proof.steps p) () with
  | Ok summary ->
      Alcotest.(check bool) "adds processed" true (summary.Rup.adds > 0);
      Alcotest.(check bool) "propagated" true (summary.Rup.propagations > 0)
  | Error msg -> Alcotest.fail ("genuine certificate rejected: " ^ msg)

let test_rup_accepts_all_option_variants () =
  (* the trace must stay sound whatever heuristics produced it *)
  let d = S.default_options in
  let nvars, clauses = pigeonhole 5 4 in
  List.iter
    (fun options ->
      let verdict, p, _ = solve_traced ~options nvars clauses in
      Alcotest.(check bool) "unsat" true (verdict = S.Unsat);
      match Rup.check ~nvars ~clauses ~proof:(Proof.steps p) () with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("variant proof rejected: " ^ msg))
    [
      d;
      { d with S.use_restarts = false };
      { d with S.use_minimization = false };
      { d with S.use_vsids = false };
    ]

let test_rup_rejects_corruptions () =
  let nvars, clauses = pigeonhole 5 4 in
  let verdict, p, _ = solve_traced nvars clauses in
  Alcotest.(check bool) "unsat" true (verdict = S.Unsat);
  let steps = Proof.steps p in
  let expect_error name proof =
    match Rup.check ~nvars ~clauses ~proof () with
    | Ok _ -> Alcotest.fail (name ^ ": corrupted certificate accepted")
    | Error _ -> ()
  in
  (* a clause that is not RUP: a fresh variable out of nowhere *)
  expect_error "bogus unit"
    (Proof.Add [| lit (nvars + 3) true |] :: steps);
  (* deleting a clause that was never added *)
  expect_error "unknown delete"
    (Proof.Delete [| lit 0 true; lit 1 true |] :: steps);
  (* an empty certificate proves nothing *)
  expect_error "empty proof" [];
  (* truncation: the contradiction is never established *)
  expect_error "truncated proof"
    (match steps with st :: _ -> [ st ] | [] -> []);
  (* the genuine proof still passes (the corruptions above are the
     only reason for rejection) *)
  match Rup.check ~nvars ~clauses ~proof:steps () with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("control check failed: " ^ msg)

(* Deletions name clauses by their literals as stored, so a proof that
   spans database reductions checks the solver's arena relocation:
   after a compaction, every deleted learnt must still be read from
   where it now lives. *)
let test_certificate_across_compaction () =
  let compactions = Obs.Metrics.counter "sat.arena_compactions" in
  let deleted (p, h) =
    let nvars, clauses = pigeonhole p h in
    let _, _, s = solve_traced nvars clauses in
    (S.stats s).S.deleted_clauses
  in
  (* php(8,7) is the smallest pigeonhole instance that reduces *)
  Alcotest.(check int) "php(7,6) deletes nothing" 0 (deleted (7, 6));
  let nvars, clauses = pigeonhole 8 7 in
  let s = S.create () in
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  let p = Proof.create () in
  let pl = Cert.Pipeline.session () in
  let rec_tr = Proof.tracer p and pl_tr = Cert.Pipeline.tracer pl in
  S.set_input_hook s (Some (Cert.Pipeline.axiom pl));
  S.set_tracer s
    (Some
       {
         S.trace_add =
           (fun c h -> rec_tr.S.trace_add c h; pl_tr.S.trace_add c h);
         trace_delete =
           (fun c -> rec_tr.S.trace_delete c; pl_tr.S.trace_delete c);
         trace_barrier =
           (fun () -> rec_tr.S.trace_barrier (); pl_tr.S.trace_barrier ());
       });
  let c0 = Obs.Metrics.counter_value compactions in
  List.iter (S.add_clause s) clauses;
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "learnts deleted" true
    ((S.stats s).S.deleted_clauses > 0);
  Alcotest.(check bool) "arena compacted" true
    (Obs.Metrics.counter_value compactions > c0);
  Alcotest.(check bool) "deletions in the proof" true
    (List.exists (function Proof.Delete _ -> true | _ -> false)
       (Proof.steps p));
  (match Rup.check ~nvars ~clauses ~proof:(Proof.steps p) () with
  | Ok summary ->
      Alcotest.(check int) "every deletion checked"
        (S.stats s).S.deleted_clauses summary.Rup.deletes
  | Error msg -> Alcotest.fail ("sequential checker rejected: " ^ msg));
  match Cert.Pipeline.check_unsat pl ~assumptions:[] with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("session checker rejected: " ^ msg)

let test_rup_under_assumptions () =
  (* x0 -> x1 -> ... -> x9 with assumptions x0, ~x9: UNSAT purely by
     propagation, so the certificate has no learnt clauses at all and
     acceptance rests on the final assumption check *)
  let nvars = 10 in
  let clauses = List.init 9 (fun i -> [ lit i false; lit (i + 1) true ]) in
  let assumptions = [ lit 0 true; lit 9 false ] in
  let verdict, p, _ = solve_traced ~assumptions nvars clauses in
  Alcotest.(check bool) "unsat under assumptions" true (verdict = S.Unsat);
  (match Rup.check ~assumptions ~nvars ~clauses ~proof:(Proof.steps p) () with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("assumption certificate rejected: " ^ msg));
  (* without the assumptions the formula is satisfiable: the same
     certificate must NOT establish unsatisfiability *)
  match Rup.check ~nvars ~clauses ~proof:(Proof.steps p) () with
  | Ok _ -> Alcotest.fail "accepted a proof of a satisfiable formula"
  | Error _ -> ()

(* ---- the session checker against the sequential one ---- *)

module Pipeline = Cert.Pipeline

(* Replay a recorded certificate into a session: the input clauses as
   axioms, then the steps through its tracer. *)
let replay_session ~clauses steps =
  let c = Pipeline.session () in
  List.iter (Pipeline.axiom c) clauses;
  let tr = Pipeline.tracer c in
  List.iter
    (function
      | Proof.Add c -> tr.S.trace_add c [||]
      | Proof.Delete c -> tr.S.trace_delete c)
    steps;
  c

let test_pipeline_matches_sequential () =
  (* accept/reject identity vs the sequential checker, including
     rejection of the same corrupted certificate at the same step *)
  let nvars, clauses = pigeonhole 6 5 in
  let verdict, p, _ = solve_traced nvars clauses in
  Alcotest.(check bool) "unsat" true (verdict = S.Unsat);
  let steps = Proof.steps p in
  let corrupted =
    (* splice a non-RUP clause into the middle of the stream *)
    let mid = List.length steps / 2 in
    List.concat
      [
        List.filteri (fun i _ -> i < mid) steps;
        [ Proof.Add [| lit (nvars + 3) true |] ];
        List.filteri (fun i _ -> i >= mid) steps;
      ]
  in
  (match Rup.check ~nvars ~clauses ~proof:steps () with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("sequential control rejected: " ^ msg));
  let sequential =
    match Rup.check ~nvars ~clauses ~proof:corrupted () with
    | Ok _ -> Alcotest.fail "sequential accepted corrupted proof"
    | Error msg -> msg
  in
  (* genuine certificate: accepted, every step checked *)
  (match Pipeline.check_unsat (replay_session ~clauses steps) ~assumptions:[] with
  | Ok s ->
      Alcotest.(check int) "every step checked" (List.length steps)
        s.Pipeline.steps
  | Error msg -> Alcotest.fail ("genuine proof rejected: " ^ msg));
  (* corrupted certificate: rejected at the step the sequential checker
     names, for the same reason *)
  match
    Pipeline.check_unsat (replay_session ~clauses corrupted) ~assumptions:[]
  with
  | Ok _ -> Alcotest.fail "corrupted proof accepted"
  | Error msg ->
      Alcotest.(check string)
        "same step and reason as the sequential checker" sequential msg

let test_pipeline_empty_and_assumptions () =
  (* propagation-only UNSAT under assumptions: no learnt clauses, the
     whole acceptance rests on the final assumption conflict *)
  let nvars = 10 in
  let clauses = List.init 9 (fun i -> [ lit i false; lit (i + 1) true ]) in
  let assumptions = [ lit 0 true; lit 9 false ] in
  let verdict, p, _ = solve_traced ~assumptions nvars clauses in
  Alcotest.(check bool) "unsat" true (verdict = S.Unsat);
  let c = replay_session ~clauses (Proof.steps p) in
  (match Pipeline.check_unsat c ~assumptions with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("assumption certificate rejected: " ^ msg));
  (* the same stream without the assumptions proves nothing *)
  let c = replay_session ~clauses (Proof.steps p) in
  (match Pipeline.check_unsat c ~assumptions:[] with
  | Ok _ -> Alcotest.fail "accepted a proof of a satisfiable formula"
  | Error _ -> ());
  (* and through a certified race: the winner's session vouches for the
     UNSAT answer under the assumptions, and for a model without them *)
  List.iter
    (fun (assumptions, expect_unsat) ->
      let o =
        Parallel.Portfolio.solve ~certify:true ~jobs:2 ~nvars ~clauses
          ~assumptions ()
      in
      Alcotest.(check bool) "race verdict" expect_unsat
        (o.Parallel.Portfolio.verdict = Parallel.Portfolio.Unsat);
      match o.Parallel.Portfolio.cert with
      | Some (Ok _) -> ()
      | Some (Error msg) -> Alcotest.fail ("winner's answer rejected: " ^ msg)
      | None -> Alcotest.fail "certified race carries no cert result")
    [ (assumptions, true); ([], false) ]

let test_pipeline_cancel () =
  (* cancellation mid-stream is idempotent, and a cancelled session
     takes no further step, so it vouches for nothing *)
  let nvars, clauses = pigeonhole 6 5 in
  let _, p, _ = solve_traced nvars clauses in
  let steps = Proof.steps p in
  let mid = List.length steps / 2 in
  let c = replay_session ~clauses (List.filteri (fun i _ -> i < mid) steps) in
  Pipeline.cancel c;
  Pipeline.cancel c;
  let tr = Pipeline.tracer c in
  List.iteri
    (fun i st ->
      if i >= mid then
        match st with
        | Proof.Add c -> tr.S.trace_add c [||]
        | Proof.Delete c -> tr.S.trace_delete c)
    steps;
  match Pipeline.check_unsat c ~assumptions:[] with
  | Ok _ -> Alcotest.fail "a cancelled session vouched for an answer"
  | Error _ -> ()

let test_pipeline_portfolio_integration () =
  (* the full wiring: racing solvers stream into per-racer sessions;
     the winner's session vouches for its answer, losers cancel *)
  let nvars, clauses = pigeonhole 6 5 in
  let sat_clauses = [ [ lit 0 true; lit 1 true ]; [ lit 0 false ] ] in
  List.iter
    (fun jobs ->
      let label = Printf.sprintf "jobs %d: " jobs in
      let o =
        Parallel.Portfolio.solve ~certify:true ~jobs ~nvars ~clauses
          ~assumptions:[] ()
      in
      Alcotest.(check bool) (label ^ "unsat") true
        (o.Parallel.Portfolio.verdict = Parallel.Portfolio.Unsat);
      (match o.Parallel.Portfolio.cert with
      | Some (Ok s) ->
          Alcotest.(check bool) (label ^ "steps streamed") true
            (s.Pipeline.steps > 0)
      | Some (Error msg) ->
          Alcotest.fail (label ^ "winner's genuine stream rejected: " ^ msg)
      | None -> Alcotest.fail (label ^ "UNSAT outcome carries no cert result"));
      let o =
        Parallel.Portfolio.solve ~certify:true ~jobs ~nvars:2
          ~clauses:sat_clauses ~assumptions:[] ()
      in
      (match o.Parallel.Portfolio.verdict with
      | Parallel.Portfolio.Sat _ -> ()
      | _ -> Alcotest.fail (label ^ "expected SAT"));
      match o.Parallel.Portfolio.cert with
      | Some (Ok s) ->
          Alcotest.(check int) (label ^ "a model rests on no step") 0
            s.Pipeline.steps
      | Some (Error msg) -> Alcotest.fail (label ^ "genuine model rejected: " ^ msg)
      | None -> Alcotest.fail (label ^ "SAT outcome carries no cert result"))
    [ 1; 2 ]

(* ---- SAT-model checking ---- *)

let test_model_check () =
  let clauses = [ [ lit 0 true ]; [ lit 0 false; lit 1 true ] ] in
  let verdict, _, s = solve_traced 2 clauses in
  Alcotest.(check bool) "sat" true (verdict = S.Sat);
  let value v = S.value s (lit v true) in
  (match Cert.Model.check ~clauses ~assumptions:[] ~value with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("genuine model rejected: " ^ msg));
  (* mutate the model: flip the forced variable *)
  let mutated v = if v = 0 then not (value v) else value v in
  match Cert.Model.check ~clauses ~assumptions:[] ~value:mutated with
  | Ok () -> Alcotest.fail "mutated model accepted"
  | Error _ -> ()

let test_model_check_assumptions () =
  (* x2 occurs in no clause: flipping it keeps every clause satisfied
     but answers a different obligation than the solve's *)
  let clauses = [ [ lit 0 true ]; [ lit 0 false; lit 1 true ] ] in
  let assumptions = [ lit 2 true ] in
  let verdict, _, s = solve_traced ~assumptions 3 clauses in
  Alcotest.(check bool) "sat" true (verdict = S.Sat);
  let value v = S.value s (lit v true) in
  (match Cert.Model.check ~clauses ~assumptions ~value with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("genuine model rejected: " ^ msg));
  let flipped v = if v = 2 then not (value v) else value v in
  (match Cert.Model.check ~clauses ~assumptions:[] ~value:flipped with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("flip breaks a clause: " ^ msg));
  match Cert.Model.check ~clauses ~assumptions ~value:flipped with
  | Ok () -> Alcotest.fail "model falsifying an assumption accepted"
  | Error _ -> ()

(* ---- the incremental session: one checker mirrors one solver ---- *)

(* A solver mirrored by a session, wired the way a certified sequential
   engine wires its own, before the first clause. [axiom] filters what
   the checker is told, to build a checker that misses a clause. *)
let mirrored ?(axiom = fun c -> Some c) nvars =
  let s = S.create () in
  let c = Pipeline.session () in
  S.set_input_hook s
    (Some (fun cl -> Option.iter (Pipeline.axiom c) (axiom cl)));
  S.set_tracer s (Some (Pipeline.tracer c));
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  (s, c)

(* php(p, h) over variables [base, base + p*h), each clause guarded by
   the activation literal [act]: UNSAT exactly when [act] is assumed *)
let guarded_pigeonhole ~base ~act p h =
  let _, clauses = pigeonhole p h in
  List.map
    (fun c -> L.negate act :: List.map (fun l -> L.make (base + L.var l) (L.sign l)) c)
    clauses

let solve_under s assumptions =
  match S.solve_bounded ~assumptions s with
  | S.Solved r -> r
  | S.Unknown why -> Alcotest.fail ("solve undecided: " ^ why)

let sat_ok s c ~assumptions =
  Alcotest.(check bool) "sat answer" true (solve_under s assumptions = S.Sat);
  Pipeline.check_sat c ~assumptions ~value:(S.value_var s)

let unsat_ok s c ~assumptions =
  Alcotest.(check bool) "unsat answer" true
    (solve_under s assumptions = S.Unsat);
  Pipeline.check_unsat c ~assumptions

(* Two guarded pigeonhole cores on one warm solver: SAT, UNSAT, more
   clauses, UNSAT, SAT — every answer vouched for, the session open. *)
let test_session_accepts () =
  let act1 = lit 0 true and act2 = lit 1 true in
  let s, c = mirrored 42 in
  let php1 = guarded_pigeonhole ~base:2 ~act:act1 5 4 in
  List.iter (S.add_clause s) php1;
  (match sat_ok s c ~assumptions:[] with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("genuine model rejected: " ^ m));
  let steps1 =
    match unsat_ok s c ~assumptions:[ act1 ] with
    | Ok sum -> sum.Pipeline.steps
    | Error m -> Alcotest.fail ("genuine UNSAT rejected: " ^ m)
  in
  Alcotest.(check bool) "steps validated" true (steps1 > 0);
  (* a redundant step (a copy of an input clause), so that the next
     clauses arrive behind a pending step *)
  (Pipeline.tracer c).S.trace_add (Array.of_list (List.hd php1)) [||];
  List.iter (S.add_clause s) (guarded_pigeonhole ~base:22 ~act:act2 5 4);
  (match unsat_ok s c ~assumptions:[ L.negate act1; act2 ] with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("second UNSAT rejected: " ^ m));
  match sat_ok s c ~assumptions:[ L.negate act2 ] with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("last model rejected: " ^ m)

(* The mutant of a checker that is not told one activation clause
   [¬act ∨ C]: php(5,4) is minimally unsatisfiable, so without C the
   checker's formula is satisfiable under [act] and no sound check may
   vouch for the solver's UNSAT answer. *)
let test_session_withheld_activation_clause () =
  let act = lit 0 true in
  let clauses = guarded_pigeonhole ~base:1 ~act 5 4 in
  let withheld = List.nth clauses 3 in
  let s, c =
    mirrored ~axiom:(fun cl -> if cl == withheld then None else Some cl) 21
  in
  List.iter (S.add_clause s) clauses;
  match unsat_ok s c ~assumptions:[ act ] with
  | Ok _ -> Alcotest.fail "UNSAT vouched for without an activation clause"
  | Error _ -> ()

(* A corrupted step traced into a live session: SAT answers still stand
   (a model rests on no learnt clause), and the next UNSAT answer is
   rejected at that step, for good. [bad] gets the solver and the
   session's tracer. *)
let session_rejects_step what bad =
  let act = lit 0 true in
  let s, c = mirrored 21 in
  List.iter (S.add_clause s) (guarded_pigeonhole ~base:1 ~act 5 4);
  bad s (Pipeline.tracer c);
  (match sat_ok s c ~assumptions:[] with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: model rejected: %s" what m);
  match unsat_ok s c ~assumptions:[ act ] with
  | Ok _ -> Alcotest.failf "%s accepted" what
  | Error m -> (
      (* the failure is sticky *)
      match Pipeline.check_unsat c ~assumptions:[ act ] with
      | Ok _ -> Alcotest.failf "%s forgotten" what
      | Error m' -> Alcotest.(check string) "sticky" m m')

let test_session_rejects_non_rup () =
  session_rejects_step "a non-RUP step" (fun _ tr ->
      tr.S.trace_add [| lit 1 false |] [||])

(* a step is judged against the axioms before it: one that only a later
   input clause implies is rejected, whatever validates it when *)
let test_session_rejects_premature_step () =
  session_rejects_step "a step ahead of its axiom" (fun s tr ->
      tr.S.trace_add [| lit 1 true |] [||];
      S.add_clause s [ lit 1 true ])

let test_session_rejects_unknown_delete () =
  session_rejects_step "deleting a clause never held" (fun _ tr ->
      tr.S.trace_delete [| lit 1 true; lit 2 true |])

let test_session_rejects_axiom_delete () =
  session_rejects_step "deleting an axiom" (fun _ tr ->
      tr.S.trace_delete [| lit 0 false; lit 1 false; lit 5 false |])

(* An UNSAT answer the checker's clauses do not refute by propagation:
   the formula is satisfiable without [act], and with it php(5,4) needs
   the proof steps a solve would trace *)
let test_session_rejects_unrefuted () =
  let act = lit 0 true in
  let s, c = mirrored 21 in
  List.iter (S.add_clause s) (guarded_pigeonhole ~base:1 ~act 5 4);
  List.iter
    (fun assumptions ->
      match Pipeline.check_unsat c ~assumptions with
      | Ok _ -> Alcotest.fail "unrefuted UNSAT answer accepted"
      | Error _ -> ())
    [ []; [ act ] ]

let test_session_rejects_models () =
  let s, c = mirrored 4 in
  (* x0 and x1 forced; x3 free: the solve assumes it *)
  List.iter (S.add_clause s) [ [ lit 0 true ]; [ lit 0 false; lit 1 true ] ];
  let assumptions = [ lit 3 true ] in
  (match sat_ok s c ~assumptions with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("genuine model rejected: " ^ m));
  let value = S.value_var s in
  let flip x v = if v = x then not (value v) else value v in
  (match Pipeline.check_sat c ~assumptions ~value:(flip 1) with
  | Ok () -> Alcotest.fail "model falsifying an axiom accepted"
  | Error _ -> ());
  match Pipeline.check_sat c ~assumptions ~value:(flip 3) with
  | Ok () -> Alcotest.fail "model falsifying an assumption accepted"
  | Error _ -> ()

(* Every validated addition counts in [cert.clauses_checked] *)
let test_session_counts_checked () =
  let checked = Obs.Metrics.counter "cert.clauses_checked" in
  let act1 = lit 0 true and act2 = lit 1 true in
  let s, c = mirrored 42 in
  let c0 = Obs.Metrics.counter_value checked in
  List.iter (S.add_clause s) (guarded_pigeonhole ~base:2 ~act:act1 5 4);
  List.iter (S.add_clause s) (guarded_pigeonhole ~base:22 ~act:act2 5 4);
  let adds =
    List.fold_left
      (fun acc assumptions ->
        match unsat_ok s c ~assumptions with
        | Ok sum -> acc + sum.Pipeline.adds
        | Error m -> Alcotest.failf "genuine UNSAT rejected: %s" m)
      0
      [ [ act1 ]; [ L.negate act1; act2 ] ]
  in
  Alcotest.(check bool) "additions validated" true (adds > 0);
  Alcotest.(check int) "counter delta" adds
    (Obs.Metrics.counter_value checked - c0)

(* ---- hinted steps ---- *)

let unhinted_of = function
  | Ok (sum : Pipeline.summary) -> sum.Pipeline.unhinted
  | Error m -> Alcotest.failf "genuine UNSAT rejected: %s" m

(* Every addition a solver traces is confirmed by its hints alone: a
   database reduction's compaction, a warm solver answering under
   assumptions, and input clauses strengthened at level 0 behind a
   tautology (which takes a clause id but no clause). *)
let test_hints_suffice () =
  let nvars, clauses = pigeonhole 8 7 in
  let s, c = mirrored nvars in
  List.iter (S.add_clause s) clauses;
  Alcotest.(check int) "php(8,7)" 0 (unhinted_of (unsat_ok s c ~assumptions:[]));
  Alcotest.(check bool) "php(8,7) reduces" true
    ((S.stats s).S.deleted_clauses > 0);
  let act1 = lit 0 true and act2 = lit 1 true in
  let s, c = mirrored 42 in
  List.iter (S.add_clause s) (guarded_pigeonhole ~base:2 ~act:act1 5 4);
  List.iter (S.add_clause s) (guarded_pigeonhole ~base:22 ~act:act2 5 4);
  List.iter
    (fun assumptions ->
      Alcotest.(check int) "warm, under assumptions" 0
        (unhinted_of (unsat_ok s c ~assumptions)))
    [ [ act1 ]; [ L.negate act1; act2 ] ];
  let s, c = mirrored 3 in
  List.iter (S.add_clause s)
    [
      [ lit 0 true ];
      [ lit 2 true; lit 2 false ];
      [ lit 0 false; lit 1 true; lit 2 true ];
      [ lit 1 false ];
      [ lit 2 false ];
    ];
  Alcotest.(check int) "strengthened inputs, after a tautology" 0
    (unhinted_of (unsat_ok s c ~assumptions:[]))

(* A solve's stream, inputs and hinted steps in order *)
type streamed = In of L.t list | Lemma of L.t array * int array | Del of L.t array

let record_stream nvars clauses =
  let s = S.create () in
  let events = ref [] in
  S.set_input_hook s (Some (fun c -> events := In c :: !events));
  S.set_tracer s
    (Some
       {
         S.trace_add = (fun c h -> events := Lemma (c, h) :: !events);
         trace_delete = (fun c -> events := Del c :: !events);
         trace_barrier = ignore;
       });
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) clauses;
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  List.rev !events

(* Replay a stream into a fresh session, each addition's hints rewritten
   by [mutate] (it gets the addition's clause id), and check UNSAT *)
let replay_hinted ?(mutate = fun _ h -> h) events =
  let c = Pipeline.session () in
  let tr = Pipeline.tracer c in
  let next = ref 0 in
  List.iter
    (function
      | In cl ->
          Pipeline.axiom c cl;
          incr next
      | Lemma (cl, h) ->
          tr.S.trace_add cl (mutate !next h);
          incr next
      | Del cl -> tr.S.trace_delete cl)
    events;
  Pipeline.check_unsat c ~assumptions:[]

(* Hints only speed a check up. Reordered, they still suffice; without
   the conflict clause, or naming a clause that is not yet there, they
   do not, and the step is propagated instead; no hint makes a non-RUP
   step pass. *)
let test_hints_mutated () =
  let nvars, clauses = pigeonhole 6 5 in
  let events = record_stream nvars clauses in
  let last h = Array.length h - 1 in
  Alcotest.(check int) "genuine" 0 (unhinted_of (replay_hinted events));
  Alcotest.(check int) "two hints swapped" 0
    (unhinted_of
       (replay_hinted
          ~mutate:(fun _ h ->
            let h = Array.copy h in
            if Array.length h >= 2 then begin
              let h0 = h.(0) in
              h.(0) <- h.(1);
              h.(1) <- h0
            end;
            h)
          events));
  let fallbacks what mutate =
    Alcotest.(check bool) what true
      (unhinted_of (replay_hinted ~mutate events) > 0)
  in
  fallbacks "conflict clause dropped" (fun _ h ->
      if Array.length h = 0 then h else Array.sub h 0 (last h));
  fallbacks "a hint pointing forward" (fun id h ->
      let h = Array.copy h in
      if Array.length h > 0 then h.(last h) <- id;
      h);
  (* a non-RUP addition carrying a genuine step's hints *)
  let rec splice = function
    | (Lemma (_, h) as e) :: rest when Array.length h > 0 ->
        e :: Lemma ([| lit (nvars + 3) true |], h) :: rest
    | e :: rest -> e :: splice rest
    | [] -> []
  in
  match replay_hinted (splice events) with
  | Ok _ -> Alcotest.fail "a non-RUP step passed on borrowed hints"
  | Error _ -> ()

(* ---- counterexample validation against the simulator ---- *)

let vulnerable_cex =
  (* one solver run shared by the validation tests; the mutation test
     re-extracts because it pokes the witness in place *)
  let fresh () =
    let soc = Soc.Builder.build Soc.Config.formal_tiny Soc.Builder.Formal in
    let spec = Upec.Spec.make soc Upec.Spec.Vulnerable in
    let r = Upec.Alg1.run_with alg1_opts spec in
    match r.Upec.Report.verdict with
    | Upec.Report.Vulnerable { s_cex; cex } ->
        (soc.Soc.Builder.netlist, s_cex, cex)
    | _ -> Alcotest.fail "tiny baseline SoC must be vulnerable"
  in
  let shared = lazy (fresh ()) in
  fun ?(fresh_copy = false) () ->
    if fresh_copy then fresh () else Lazy.force shared

let test_certval_accepts_genuine () =
  let nl, s_cex, cex = vulnerable_cex () in
  let v = Certval.validate ~claimed:s_cex nl cex in
  if not v.Certval.v_ok then
    Alcotest.fail
      (Format.asprintf "genuine counterexample rejected: %a" Certval.pp_result
         v);
  Alcotest.(check bool) "claimed divergence observed" true
    (Structural.Svar_set.subset s_cex v.Certval.v_diverged);
  Alcotest.(check int) "no mismatches" 0 (List.length v.Certval.v_mismatches)

let test_certval_rejects_mutation () =
  let nl, s_cex, cex = vulnerable_cex ~fresh_copy:true () in
  (* flip one bit of a claimed svar's recorded value at the violated
     cycle: the simulator cannot reproduce the doctored trace *)
  let sv = Structural.Svar_set.choose s_cex in
  let frame = Ipc.Cex.frames cex in
  let old_v = Ipc.Cex.svar_value cex Ipc.Unroller.A ~frame sv in
  let flipped =
    Bitvec.logxor old_v (Bitvec.one (Bitvec.width old_v))
  in
  Ipc.Cex.poke_svar cex Ipc.Unroller.A ~frame sv flipped;
  let v = Certval.validate ~claimed:s_cex nl cex in
  Alcotest.(check bool) "mutated witness rejected" false v.Certval.v_ok;
  Alcotest.(check bool) "mismatch reported" true
    (v.Certval.v_mismatches <> [])

let test_certval_rejects_unobserved_claim () =
  let nl, s_cex, cex = vulnerable_cex () in
  (* claim a divergence the witness does not show: pick any svar the
     simulated instances agree on *)
  let honest = Certval.validate ~claimed:s_cex nl cex in
  Alcotest.(check bool) "baseline ok" true honest.Certval.v_ok;
  let bogus =
    Structural.Svar_set.elements (Structural.all_svars nl)
    |> List.find (fun sv ->
           not (Structural.Svar_set.mem sv honest.Certval.v_diverged))
  in
  let claimed = Structural.Svar_set.add bogus s_cex in
  let v = Certval.validate ~claimed nl cex in
  Alcotest.(check bool) "over-claiming rejected" false v.Certval.v_ok;
  Alcotest.(check bool) "missing svar identified" true
    (Structural.Svar_set.mem bogus v.Certval.v_missing);
  (* the replay itself was still exact: rejection is purely about the
     unobserved claim *)
  Alcotest.(check int) "no replay mismatch" 0
    (List.length v.Certval.v_mismatches)

let test_certval_vcd_dump () =
  let nl, s_cex, cex = vulnerable_cex () in
  let prefix = Filename.temp_file "certval" "" in
  let v = Certval.validate ~vcd_prefix:prefix ~claimed:s_cex nl cex in
  Alcotest.(check bool) "validation ok" true v.Certval.v_ok;
  Alcotest.(check int) "two waveforms" 2 (List.length v.Certval.v_vcd_files);
  List.iter
    (fun path ->
      let ic = open_in path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove path;
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "timescale present" true
        (contains contents "$timescale 1 ns $end");
      Alcotest.(check bool) "has timesteps" true (contains contents "#1"))
    v.Certval.v_vcd_files;
  Sys.remove prefix

(* ---- certified end-to-end runs ---- *)

let tiny_spec variant =
  let soc = Soc.Builder.build Soc.Config.formal_tiny Soc.Builder.Formal in
  Upec.Spec.make soc variant

(* smallest SoC that still produces a real inductive UNSAT proof — the
   secure-variant tests exercise every certification code path without
   paying for the full tiny-SoC solve *)
let micro_spec variant =
  let cfg =
    {
      Soc.Config.formal_tiny with
      Soc.Config.pub_depth = 2;
      priv_depth = 2;
      pub_banks = 1;
      priv_banks = 1;
      with_dma = false;
      with_hwpe = false;
    }
  in
  let soc = Soc.Builder.build cfg Soc.Builder.Formal in
  Upec.Spec.make soc variant

let cert_of r =
  match r.Upec.Report.cert with
  | Some c -> c
  | None -> Alcotest.fail "certified run carries no certification info"

let test_certified_alg1_vulnerable () =
  let r =
    Upec.Alg1.run_with
      { alg1_opts with O.certify = true }
      (tiny_spec Upec.Spec.Vulnerable)
  in
  Alcotest.(check bool) "vulnerable" true (Upec.Report.is_vulnerable r);
  let c = cert_of r in
  Alcotest.(check bool) "cex validated" true
    (c.Upec.Report.ct_cex_validated = Some true);
  Alcotest.(check bool) "models checked" true
    (c.Upec.Report.ct_totals.Proof.sat_checked > 0)

let test_certified_alg1_secure () =
  let r =
    Upec.Alg1.run_with
      { alg1_opts with O.certify = true }
      (micro_spec Upec.Spec.Secure)
  in
  Alcotest.(check bool) "secure" true (Upec.Report.is_secure r);
  let c = cert_of r in
  Alcotest.(check bool) "unsat proof checked" true
    (c.Upec.Report.ct_totals.Proof.unsat_checked >= 1);
  Alcotest.(check bool) "proof has steps" true
    (c.Upec.Report.ct_totals.Proof.proof_steps > 0);
  Alcotest.(check bool) "no cex to validate" true
    (c.Upec.Report.ct_cex_validated = None)

let test_certified_alg1_jobs_and_portfolio () =
  (* certification must hold on every execution strategy: per-svar
     sequential and parallel, with and without a portfolio race — and
     the verdicts must agree across all of them *)
  List.iter
    (fun (label, jobs, portfolio) ->
      let r =
        Upec.Alg1.run_with
          { alg1_opts with O.certify = true; jobs; portfolio }
          (micro_spec Upec.Spec.Secure)
      in
      Alcotest.(check bool) (label ^ ": secure") true (Upec.Report.is_secure r);
      let c = cert_of r in
      Alcotest.(check bool)
        (label ^ ": unsat proofs checked")
        true
        (c.Upec.Report.ct_totals.Proof.unsat_checked >= 1))
    [
      ("jobs1", 1, 1);
      ("jobs4", 4, 1);
      ("portfolio2", 1, 2);
      ("jobs4-portfolio2", 4, 2);
    ]

let test_certified_alg2 () =
  let certified = { O.default with O.certify = true } in
  let r = Upec.Alg2.conclude_with certified (tiny_spec Upec.Spec.Vulnerable) in
  Alcotest.(check bool) "vulnerable" true (Upec.Report.is_vulnerable r);
  let c = cert_of r in
  Alcotest.(check bool) "cex validated" true
    (c.Upec.Report.ct_cex_validated = Some true);
  let r2 = Upec.Alg2.conclude_with certified (micro_spec Upec.Spec.Secure) in
  Alcotest.(check bool) "secure" true (Upec.Report.is_secure r2);
  let c2 = cert_of r2 in
  Alcotest.(check bool) "unsat proofs checked" true
    (c2.Upec.Report.ct_totals.Proof.unsat_checked >= 1)

let () =
  Alcotest.run "cert"
    [
      ( "rup",
        [
          Alcotest.test_case "accepts pigeonhole proof" `Quick
            test_rup_accepts_pigeonhole;
          Alcotest.test_case "accepts all option variants" `Quick
            test_rup_accepts_all_option_variants;
          Alcotest.test_case "rejects corrupted certificates" `Quick
            test_rup_rejects_corruptions;
          Alcotest.test_case "unsat under assumptions" `Quick
            test_rup_under_assumptions;
          Alcotest.test_case "certificate across arena compaction" `Quick
            test_certificate_across_compaction;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "matches sequential checker" `Quick
            test_pipeline_matches_sequential;
          Alcotest.test_case "assumption-only certificates" `Quick
            test_pipeline_empty_and_assumptions;
          Alcotest.test_case "cancellation" `Quick test_pipeline_cancel;
          Alcotest.test_case "portfolio integration" `Quick
            test_pipeline_portfolio_integration;
        ] );
      ( "model",
        [
          Alcotest.test_case "model check" `Quick test_model_check;
          Alcotest.test_case "model check covers assumptions" `Quick
            test_model_check_assumptions;
        ] );
      ( "session",
        [
          Alcotest.test_case "vouches for a warm solver's answers" `Quick
            test_session_accepts;
          Alcotest.test_case "rejects a withheld activation clause" `Quick
            test_session_withheld_activation_clause;
          Alcotest.test_case "rejects a non-RUP step" `Quick
            test_session_rejects_non_rup;
          Alcotest.test_case "rejects a step ahead of its axiom" `Quick
            test_session_rejects_premature_step;
          Alcotest.test_case "rejects deleting a clause never held" `Quick
            test_session_rejects_unknown_delete;
          Alcotest.test_case "rejects deleting an axiom" `Quick
            test_session_rejects_axiom_delete;
          Alcotest.test_case "rejects an unrefuted UNSAT answer" `Quick
            test_session_rejects_unrefuted;
          Alcotest.test_case "rejects false models" `Quick
            test_session_rejects_models;
          Alcotest.test_case "counts the steps it validates" `Quick
            test_session_counts_checked;
        ] );
      ( "hints",
        [
          Alcotest.test_case "suffice on every solver step" `Quick
            test_hints_suffice;
          Alcotest.test_case "mutated hints never convince" `Quick
            test_hints_mutated;
        ] );
      ( "certval",
        [
          Alcotest.test_case "accepts genuine counterexample" `Quick
            test_certval_accepts_genuine;
          Alcotest.test_case "rejects mutated witness" `Quick
            test_certval_rejects_mutation;
          Alcotest.test_case "rejects unobserved claim" `Quick
            test_certval_rejects_unobserved_claim;
          Alcotest.test_case "dumps paired VCDs" `Quick test_certval_vcd_dump;
        ] );
      ( "certified-runs",
        [
          Alcotest.test_case "alg1 vulnerable" `Quick
            test_certified_alg1_vulnerable;
          Alcotest.test_case "alg1 secure" `Quick test_certified_alg1_secure;
          Alcotest.test_case "alg1 jobs x portfolio" `Slow
            test_certified_alg1_jobs_and_portfolio;
          Alcotest.test_case "alg2 both variants" `Slow test_certified_alg2;
        ] );
    ]
