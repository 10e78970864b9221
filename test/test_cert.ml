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
  let pl = Cert.Pipeline.create ~nvars ~clauses () in
  let rec_tr = Proof.tracer p and pl_tr = Cert.Pipeline.tracer pl in
  S.set_tracer s
    (Some
       {
         S.trace_add = (fun c -> rec_tr.S.trace_add c; pl_tr.S.trace_add c);
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
  match Cert.Pipeline.finish pl with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("pipelined checker rejected: " ^ msg)

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

let test_drup_roundtrip () =
  let nvars, clauses = pigeonhole 5 4 in
  let _, p, _ = solve_traced nvars clauses in
  let text = Proof.to_string p in
  let steps' = Proof.parse_drup text in
  Alcotest.(check bool) "step-for-step identical" true
    (Proof.steps p = steps');
  (* the streaming file tracer writes the same text *)
  let path = Filename.temp_file "proof" ".drup" in
  let oc = open_out path in
  let tr = Proof.file_tracer oc in
  List.iter
    (function
      | Proof.Add c -> tr.S.trace_add c
      | Proof.Delete c -> tr.S.trace_delete c)
    (Proof.steps p);
  close_out oc;
  let ic = open_in path in
  let streamed = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "streamed = in-core" text streamed

(* ---- streaming DRUP parsing ---- *)

let test_streaming_parse_drup () =
  let nvars, clauses = pigeonhole 5 4 in
  let _, p, _ = solve_traced nvars clauses in
  let text = Proof.to_string p in
  (* the streaming reader and the legacy whole-string parser agree *)
  let streamed = ref [] in
  let lines = String.split_on_char '\n' text in
  let rest = ref lines in
  let next () =
    match !rest with
    | [] -> None
    | l :: tl ->
        rest := tl;
        Some l
  in
  let ending = Proof.read_drup ~next ~emit:(fun st -> streamed := st :: !streamed) in
  Alcotest.(check bool) "no marker in plain dump" true
    (ending = Proof.Unterminated);
  Alcotest.(check bool) "streamed = parse_drup" true
    (List.rev !streamed = Proof.parse_drup text);
  Alcotest.(check bool) "streamed = recorded" true
    (List.rev !streamed = Proof.steps p);
  (* end-of-stream markers are recognized, not parsed as steps *)
  let with_suffix suffix =
    let n = ref 0 in
    let rest = ref (String.split_on_char '\n' (text ^ suffix)) in
    let next () =
      match !rest with [] -> None | l :: tl -> rest := tl; Some l
    in
    let e = Proof.read_drup ~next ~emit:(fun _ -> incr n) in
    (e, !n)
  in
  let n_steps = List.length (Proof.steps p) in
  Alcotest.(check bool) "complete marker" true
    (with_suffix (Proof.complete_marker ^ "\n") = (Proof.Complete, n_steps));
  Alcotest.(check bool) "truncated marker" true
    (with_suffix (Proof.truncated_marker ^ "\n") = (Proof.Truncated, n_steps));
  (* malformed input still fails loudly *)
  match Proof.parse_drup "1 2 garbage 0\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "malformed DRUP accepted"

(* ---- pipelined parallel checking ---- *)

module Pipeline = Cert.Pipeline

(* Pool-backed dispatch, created lazily exactly like Portfolio's. *)
let pool_dispatch jobs =
  let pool = ref None in
  let get () =
    match !pool with
    | Some p -> p
    | None ->
        let p = Parallel.Pool.create ~jobs () in
        pool := Some p;
        p
  in
  {
    Pipeline.d_run = (fun f -> Parallel.Pool.submit (get ()) (fun _ -> f ()));
    d_shutdown =
      (fun () ->
        match !pool with
        | Some p ->
            pool := None;
            Parallel.Pool.shutdown p
        | None -> ());
  }

(* Replay a recorded certificate through a pipeline's tracer, injecting
   barrier hints every [barrier_every] steps the way the solver does at
   restarts — small epochs force real sharding on small proofs. *)
let replay_pipeline ?dispatch ?(epoch_target = 16) ?max_pending ?assumptions
    ?(barrier_every = 5) ~nvars ~clauses steps =
  let p =
    Pipeline.create ?dispatch ~epoch_target ?max_pending ?assumptions ~nvars
      ~clauses ()
  in
  let tr = Pipeline.tracer p in
  List.iteri
    (fun i st ->
      (match st with
      | Proof.Add c -> tr.S.trace_add c
      | Proof.Delete c -> tr.S.trace_delete c);
      if (i + 1) mod barrier_every = 0 then tr.S.trace_barrier ())
    steps;
  p

let test_pipeline_matches_sequential () =
  (* accept/reject identity vs the sequential checker, across worker
     counts — including rejection of the same corrupted certificates *)
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
  let dispatches =
    [ ("jobs1", fun () -> Pipeline.inline_dispatch);
      ("jobs2", fun () -> pool_dispatch 2);
      ("jobs4", fun () -> pool_dispatch 4) ]
  in
  List.iter
    (fun (label, mk) ->
      (* genuine certificate: accepted, in more than one epoch *)
      let pl = replay_pipeline ~dispatch:(mk ()) ~nvars ~clauses steps in
      (match Pipeline.finish pl with
      | Ok s ->
          Alcotest.(check bool) (label ^ ": multiple epochs") true
            (s.Pipeline.epochs > 1);
          Alcotest.(check int)
            (label ^ ": every step checked")
            (List.length steps) s.Pipeline.steps
      | Error msg -> Alcotest.fail (label ^ ": genuine proof rejected: " ^ msg));
      (* sequential control *)
      (match Rup.check ~nvars ~clauses ~proof:steps () with
      | Ok _ -> ()
      | Error msg -> Alcotest.fail ("sequential control rejected: " ^ msg));
      (* corrupted certificate: rejected by both, shard names its epoch *)
      let pl = replay_pipeline ~dispatch:(mk ()) ~nvars ~clauses corrupted in
      (match Pipeline.finish pl with
      | Ok _ -> Alcotest.fail (label ^ ": corrupted proof accepted")
      | Error msg ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool)
            (label ^ ": error names the epoch")
            true (contains msg "epoch"));
      match Rup.check ~nvars ~clauses ~proof:corrupted () with
      | Ok _ -> Alcotest.fail "sequential accepted corrupted proof"
      | Error _ -> ())
    dispatches

let test_pipeline_empty_and_assumptions () =
  (* propagation-only UNSAT under assumptions: no learnt clauses, the
     whole acceptance rests on the final assumption conflict *)
  let nvars = 10 in
  let clauses = List.init 9 (fun i -> [ lit i false; lit (i + 1) true ]) in
  let assumptions = [ lit 0 true; lit 9 false ] in
  let verdict, p, _ = solve_traced ~assumptions nvars clauses in
  Alcotest.(check bool) "unsat" true (verdict = S.Unsat);
  let pl =
    replay_pipeline ~assumptions ~nvars ~clauses (Proof.steps p)
  in
  (match Pipeline.finish pl with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail ("assumption certificate rejected: " ^ msg));
  (* the same stream without the assumptions proves nothing *)
  let pl = replay_pipeline ~nvars ~clauses (Proof.steps p) in
  match Pipeline.finish pl with
  | Ok _ -> Alcotest.fail "accepted a proof of a satisfiable formula"
  | Error _ -> ()

let test_pipeline_spill_roundtrip () =
  (* max_pending = 0 spills every closed epoch to disk; the re-check at
     finish must accept exactly like the in-memory path and clean up *)
  let nvars, clauses = pigeonhole 6 5 in
  let _, p, _ = solve_traced nvars clauses in
  let pl =
    replay_pipeline ~max_pending:0 ~dispatch:(pool_dispatch 2) ~nvars ~clauses
      (Proof.steps p)
  in
  let spills = Pipeline.spill_files pl in
  Alcotest.(check bool) "epochs actually spilled" true (spills <> []);
  List.iter
    (fun path ->
      Alcotest.(check bool) "spill file exists" true (Sys.file_exists path);
      (* backpressure discipline: every spill file ends with a marker *)
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let last_line =
        match
          String.split_on_char '\n' (String.trim text) |> List.rev
        with
        | l :: _ -> l
        | [] -> ""
      in
      Alcotest.(check string) "complete marker last" Proof.complete_marker
        last_line)
    spills;
  (match Pipeline.finish pl with
  | Ok s ->
      Alcotest.(check bool) "spilled epochs counted" true
        (s.Pipeline.spilled_epochs > 0)
  | Error msg -> Alcotest.fail ("spilled roundtrip rejected: " ^ msg));
  List.iter
    (fun path ->
      Alcotest.(check bool) "spill file removed" false (Sys.file_exists path))
    spills

let test_pipeline_truncated_spill_rejected () =
  (* chop the completion marker (and the final conflict) off one spill
     file: finish must reject and name the truncated epoch *)
  let nvars, clauses = pigeonhole 5 4 in
  let _, p, _ = solve_traced nvars clauses in
  let pl =
    replay_pipeline ~max_pending:0 ~nvars ~clauses (Proof.steps p)
  in
  (match Pipeline.spill_files pl with
  | [] -> Alcotest.fail "expected spilled epochs"
  | path :: _ ->
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let lines = String.split_on_char '\n' (String.trim text) in
      let keep = List.filteri (fun i _ -> i < List.length lines - 2) lines in
      let oc = open_out path in
      List.iter (fun l -> output_string oc (l ^ "\n")) keep;
      close_out oc);
  match Pipeline.finish pl with
  | Ok _ -> Alcotest.fail "truncated spill accepted"
  | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "names the epoch" true (contains msg "epoch")

let test_pipeline_cancel () =
  (* cooperative cancellation mid-stream must leave no stuck domains and
     remove every spill file; cancel is idempotent *)
  let nvars, clauses = pigeonhole 6 5 in
  let _, p, _ = solve_traced nvars clauses in
  let steps = Proof.steps p in
  let half = List.filteri (fun i _ -> i < List.length steps / 2) steps in
  let pl =
    replay_pipeline ~max_pending:0 ~dispatch:(pool_dispatch 2) ~nvars ~clauses
      half
  in
  let spills = Pipeline.spill_files pl in
  Pipeline.cancel pl;
  Pipeline.cancel pl;
  List.iter
    (fun path ->
      Alcotest.(check bool) "spill removed on cancel" false
        (Sys.file_exists path))
    spills

let test_pipeline_portfolio_integration () =
  (* the full wiring: racing solvers stream into per-racer pipelines;
     the winner's stream is checked, losers cancel *)
  let nvars, clauses = pigeonhole 6 5 in
  List.iter
    (fun jobs ->
      let o =
        Parallel.Portfolio.solve ~certify:true ~cert_jobs:2 ~jobs ~nvars
          ~clauses ~assumptions:[] ()
      in
      Alcotest.(check bool) "unsat" true
        (o.Parallel.Portfolio.verdict = Parallel.Portfolio.Unsat);
      match o.Parallel.Portfolio.cert with
      | Some (Ok s) ->
          Alcotest.(check bool) "steps streamed" true (s.Pipeline.steps > 0)
      | Some (Error msg) ->
          Alcotest.fail ("winner's genuine stream rejected: " ^ msg)
      | None -> Alcotest.fail "UNSAT outcome carries no cert result")
    [ 1; 2 ];
  (* SAT outcome: stream cancelled, no cert result, clean return *)
  let sat_clauses = [ [ lit 0 true; lit 1 true ]; [ lit 0 false ] ] in
  let o =
    Parallel.Portfolio.solve ~certify:true ~cert_jobs:2 ~jobs:2 ~nvars:2
      ~clauses:sat_clauses ~assumptions:[] ()
  in
  (match o.Parallel.Portfolio.verdict with
  | Parallel.Portfolio.Sat _ -> ()
  | _ -> Alcotest.fail "expected SAT");
  Alcotest.(check bool) "no cert for SAT" true
    (o.Parallel.Portfolio.cert = None)

(* ---- SAT-model checking ---- *)

let test_model_check () =
  let clauses = [ [ lit 0 true ]; [ lit 0 false; lit 1 true ] ] in
  let verdict, _, s = solve_traced 2 clauses in
  Alcotest.(check bool) "sat" true (verdict = S.Sat);
  let value v = S.value s (lit v true) in
  (match Cert.Model.check ~clauses ~value with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("genuine model rejected: " ^ msg));
  (* mutate the model: flip the forced variable *)
  let mutated v = if v = 0 then not (value v) else value v in
  match Cert.Model.check ~clauses ~value:mutated with
  | Ok () -> Alcotest.fail "mutated model accepted"
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
      ("jobs1", Some 1, 1);
      ("jobs4", Some 4, 1);
      ("portfolio2", None, 2);
      ("jobs4-portfolio2", Some 4, 2);
    ]

let test_certified_alg1_pipelined () =
  (* end-to-end: the engine's certify path with the streaming checker —
     same verdict and certification coverage as the post-hoc mode *)
  let run cert_jobs =
    Upec.Alg1.run_with
      {
        Upec.Options.default with
        Upec.Options.certify = true;
        cert_jobs;
      }
      (micro_spec Upec.Spec.Secure)
  in
  let seq = run 0 and pipe = run 2 in
  Alcotest.(check bool) "sequential secure" true (Upec.Report.is_secure seq);
  Alcotest.(check bool) "pipelined secure" true (Upec.Report.is_secure pipe);
  let ts = (cert_of seq).Upec.Report.ct_totals
  and tp = (cert_of pipe).Upec.Report.ct_totals in
  Alcotest.(check int) "same UNSAT coverage" ts.Proof.unsat_checked
    tp.Proof.unsat_checked;
  Alcotest.(check bool) "pipelined in epochs" true
    (tp.Proof.epochs >= tp.Proof.unsat_checked);
  Alcotest.(check bool) "sequential has no epochs" true (ts.Proof.epochs = 0)

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
          Alcotest.test_case "drup text roundtrip" `Quick test_drup_roundtrip;
          Alcotest.test_case "streaming drup reader" `Quick
            test_streaming_parse_drup;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "matches sequential checker" `Quick
            test_pipeline_matches_sequential;
          Alcotest.test_case "assumption-only certificates" `Quick
            test_pipeline_empty_and_assumptions;
          Alcotest.test_case "spill roundtrip" `Quick
            test_pipeline_spill_roundtrip;
          Alcotest.test_case "truncated spill rejected" `Quick
            test_pipeline_truncated_spill_rejected;
          Alcotest.test_case "cancellation" `Quick test_pipeline_cancel;
          Alcotest.test_case "portfolio integration" `Quick
            test_pipeline_portfolio_integration;
        ] );
      ("model", [ Alcotest.test_case "model check" `Quick test_model_check ]);
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
          Alcotest.test_case "alg1 pipelined vs post-hoc" `Slow
            test_certified_alg1_pipelined;
          Alcotest.test_case "alg2 both variants" `Slow test_certified_alg2;
        ] );
    ]
