(* Equivalence suite for the problem-reduction pipeline.

   The reduction layer (cone-of-influence + obligation dropping for
   witness-free solves) is a pure acceleration: with [simp] off the
   verdict — including the counterexample waveform — must be
   bit-identical. Exercised on the two example SoCs
   (examples/busted_dma_timer.ml: the Fig. 1 DMA + timer platform =
   formal netlist with the full persistence model;
   examples/busted_hwpe_memory.ml: the Sec. 4.1 HWPE + memory variant =
   DMA disabled, memory-only persistence), including certified and
   interrupted-then-resumed runs. Also the shape and round-trip checks
   of the schema-3 JSON report, golden traces pinning every strategy of
   both procedures bit for bit, and the step accounting and fixed point
   of the default strategy's hand-over, within one run and from Alg. 2's
   unrolled phase to its induction. *)

open Rtl
module O = Upec.Options

let spec_of ?(cfg = Soc.Config.formal_tiny) ?(pers = Upec.Spec.Full_pers)
    variant =
  let soc = Soc.Builder.build cfg Soc.Builder.Formal in
  Upec.Spec.make ~pers_model:pers soc variant

(* the Fig. 1 DMA + timer example platform *)
let dma_timer variant = spec_of variant

(* the Sec. 4.1 HWPE + memory example variant *)
let hwpe_memory () =
  spec_of
    ~cfg:{ Soc.Config.formal_tiny with Soc.Config.with_dma = false }
    ~pers:Upec.Spec.Memory_only Upec.Spec.Vulnerable

(* ---- bit-exact run representation (everything but timings) ---- *)

let names s =
  String.concat ","
    (List.map Structural.svar_name (Structural.Svar_set.elements s))

let repr_verdict (r : Upec.Report.run) =
  match r.Upec.Report.verdict with
  | Upec.Report.Secure { s_final } -> "secure " ^ names s_final
  | Upec.Report.Vulnerable { s_cex; cex } ->
      "vulnerable " ^ names s_cex ^ "\n"
      ^ Format.asprintf "%a" Ipc.Cex.pp_full cex
  | Upec.Report.Inconclusive m -> "inconclusive " ^ m

let repr_run (r : Upec.Report.run) =
  let step (s : Upec.Report.step) =
    Printf.sprintf "iter=%d k=%d |S|=%d cex={%s} pers={%s} unknown={%s}"
      s.Upec.Report.st_iter s.Upec.Report.st_k s.Upec.Report.st_s_size
      (names s.Upec.Report.st_cex)
      (names s.Upec.Report.st_pers_hit)
      (names s.Upec.Report.st_unknown)
  in
  String.concat "\n"
    ((r.Upec.Report.procedure :: repr_verdict r
     :: List.map step r.Upec.Report.steps)
    @ List.map (fun (n, why) -> n ^ ":" ^ why) r.Upec.Report.unknowns)

let check_identical what on off =
  Alcotest.(check string) what (repr_run off) (repr_run on)

(* ---- simp on/off: bit-identical runs ---- *)

let test_alg1_simp_equiv () =
  let run ?jobs simp =
    Upec.Alg1.run_with
      { O.default with O.simp; jobs }
      (dma_timer Upec.Spec.Vulnerable)
  in
  check_identical "alg1 monolithic" (run true) (run false);
  check_identical "alg1 per-svar" (run ~jobs:2 true) (run ~jobs:2 false)

let test_alg2_simp_equiv () =
  let run ?jobs simp =
    fst (Upec.Alg2.run_with { O.default with O.simp; jobs } (hwpe_memory ()))
  in
  check_identical "alg2 monolithic" (run true) (run false);
  check_identical "alg2 per-svar" (run ~jobs:2 true) (run ~jobs:2 false)

let test_certified_simp_equiv () =
  (* certification routes witness-free solves through the reduced
     snapshot: the DRUP proof is checked against the reduced CNF, so a
     reduction bug fails this test twice over (verdict or certificate) *)
  let run simp =
    Upec.Alg1.run_with
      { O.default with O.simp; jobs = Some 2; certify = true }
      (dma_timer Upec.Spec.Vulnerable)
  in
  let on = run true and off = run false in
  check_identical "alg1 per-svar certified" on off;
  List.iter
    (fun (r : Upec.Report.run) ->
      match r.Upec.Report.cert with
      | Some c ->
          Alcotest.(check bool)
            "unsat certificates checked" true
            (c.Upec.Report.ct_totals.Cert.Proof.unsat_checked > 0)
      | None -> Alcotest.fail "certified run lost its certificate totals")
    [ on; off ]

let repr_outcome = function
  | Upec.Alg2.Hold { s_final; k } ->
      Printf.sprintf "hold k=%d {%s}" k (names s_final)
  | Upec.Alg2.Found_vulnerable -> "vulnerable"
  | Upec.Alg2.Gave_up -> "gave up"

let test_bmc_reset_simp_equiv () =
  let run simp =
    Upec.Alg2.run_with
      { O.default with O.simp; reset_start = true; max_k = 2 }
      (dma_timer Upec.Spec.Vulnerable)
  in
  let r_on, o_on = run true and r_off, o_off = run false in
  Alcotest.(check string) "same outcome" (repr_outcome o_off)
    (repr_outcome o_on);
  check_identical "bmc from reset" r_on r_off

(* ---- interrupt + resume with reduction enabled ---- *)

let test_resume_simp_equiv () =
  let o = { O.default with O.jobs = Some 2 } in
  let baseline = Upec.Alg1.run_with o (dma_timer Upec.Spec.Secure) in
  let path = Filename.temp_file "equiv" ".ck" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let interrupted =
        Upec.Alg1.run_with
          {
            o with
            O.checkpoint_file = Some path;
            should_stop = Some (fun () -> Sys.file_exists path);
          }
          (dma_timer Upec.Spec.Secure)
      in
      (match interrupted.Upec.Report.verdict with
      | Upec.Report.Inconclusive "interrupted" -> ()
      | v ->
          Alcotest.failf "expected an interrupted run, got %s"
            (Format.asprintf "%a" Upec.Report.pp_verdict v));
      let ck =
        match Upec.Checkpoint.load path with
        | Ok ck -> ck
        | Error m -> Alcotest.fail ("checkpoint unreadable: " ^ m)
      in
      let resumed =
        Upec.Alg1.run_with ~resume:ck o (dma_timer Upec.Spec.Secure)
      in
      Alcotest.(check string)
        "resumed verdict = uninterrupted verdict" (repr_verdict baseline)
        (repr_verdict resumed))

(* ---- schema-3 JSON report ---- *)

let test_json_roundtrip () =
  let r =
    fst
      (Upec.Alg2.run_with { O.default with O.jobs = Some 2 } (hwpe_memory ()))
  in
  let j = Upec.Report.to_json r in
  let j' = Upec.Json.of_string (Upec.Json.to_string j) in
  Alcotest.(check bool) "print/parse round-trip" true (j = j');
  let m k = Upec.Json.member k j' in
  let int_of what v =
    match Upec.Json.to_int v with
    | Some i -> i
    | None -> Alcotest.failf "%s: not an integer" what
  in
  Alcotest.(check int) "schema" Upec.Report.schema_version
    (int_of "schema" (m "schema"));
  Alcotest.(check int)
    "schema accepted by strict parsing" Upec.Report.schema_version
    (Upec.Json.schema_version ~supported:[ 2; 3 ] j');
  Alcotest.(check (option string))
    "verdict kind" (Some "vulnerable")
    Upec.Json.(to_str (member "kind" (m "verdict")));
  Alcotest.(check int)
    "steps = iterations" (Upec.Report.iterations r)
    (match Upec.Json.to_list (m "steps") with
    | Some l -> List.length l
    | None -> -1);
  (* the options the run was configured with are echoed *)
  Alcotest.(check (option bool))
    "options.simp echoed" (Some true)
    Upec.Json.(to_bool (member "simp" (m "options")));
  Alcotest.(check (option int))
    "options.jobs echoed" (Some 2)
    Upec.Json.(to_int (member "jobs" (m "options")));
  (* per-svar pair checks are witness-free, so reduction fired *)
  let simp = m "simp" in
  Alcotest.(check bool)
    "reduced solves recorded" true
    (int_of "reduced_solves" (Upec.Json.member "reduced_solves" simp) > 0);
  Alcotest.(check bool)
    "reduced <= full" true
    (int_of "reduced_clauses" (Upec.Json.member "reduced_clauses" simp)
    <= int_of "full_clauses" (Upec.Json.member "full_clauses" simp))

(* parsers accept both report generations; anything else is refused
   loudly rather than misread *)
let test_schema_versions () =
  let v2 = Upec.Json.Obj [ ("schema", Upec.Json.Int 2) ] in
  Alcotest.(check int)
    "schema-2 artefacts still accepted" 2
    (Upec.Json.schema_version ~supported:[ 2; 3 ] v2);
  let v9 = Upec.Json.Obj [ ("schema", Upec.Json.Int 9) ] in
  (match Upec.Json.schema_version ~supported:[ 2; 3 ] v9 with
  | _ -> Alcotest.fail "unsupported schema version accepted"
  | exception Upec.Json.Parse_error _ -> ());
  match Upec.Json.schema_version ~supported:[ 2; 3 ] (Upec.Json.Obj []) with
  | _ -> Alcotest.fail "missing schema member accepted"
  | exception Upec.Json.Parse_error _ -> ()

(* ---- golden traces: every strategy pinned bit for bit ----

   CNF variable numbering and assumption order steer the search, so a
   refactor of the refinement drivers must reproduce each run exactly:
   the procedure, the verdict with its full waveform, every step's sets,
   the degraded checks, the certificate counts, the resume point and
   the last checkpoint written. Sequential runs also pin each step's
   conflicts and propagations; on two workers the solver work depends
   on the schedule, so only the trace is pinned there. Re-record a
   digest only for a change meant to alter that run; a mismatch prints
   the run's full trace. *)

(* the smallest secure SoC with a real inductive UNSAT proof (as in
   test_cert) *)
let micro_secure () =
  spec_of
    ~cfg:
      {
        Soc.Config.formal_tiny with
        Soc.Config.pub_depth = 2;
        priv_depth = 2;
        pub_banks = 1;
        priv_banks = 1;
        with_dma = false;
        with_hwpe = false;
      }
    Upec.Spec.Secure

let golden_repr ?(stats = true) ?checkpoint (r : Upec.Report.run) =
  let step_stats (s : Upec.Report.step) =
    match s.Upec.Report.st_stats with
    | Some st ->
        Printf.sprintf "iter=%d conflicts=%d propagations=%d"
          s.Upec.Report.st_iter st.Satsolver.Solver.conflicts
          st.Satsolver.Solver.propagations
    | None -> Printf.sprintf "iter=%d no stats" s.Upec.Report.st_iter
  in
  let cert =
    match r.Upec.Report.cert with
    | None -> "cert none"
    | Some c ->
        let t = c.Upec.Report.ct_totals in
        Printf.sprintf
          "cert unsat=%d sat=%d unknown=%d steps=%d lits=%d epochs=%d \
           validated=%s"
          t.Cert.Proof.unsat_checked t.Cert.Proof.sat_checked
          t.Cert.Proof.unknown_skipped t.Cert.Proof.proof_steps
          t.Cert.Proof.proof_lits t.Cert.Proof.epochs
          (match c.Upec.Report.ct_cex_validated with
          | None -> "-"
          | Some b -> string_of_bool b)
  in
  let checkpoint =
    match checkpoint with
    | None -> []
    | Some path when Sys.file_exists path ->
        [ In_channel.with_open_bin path In_channel.input_all ]
    | Some _ -> [ "no checkpoint written" ]
  in
  String.concat "\n"
    ((repr_run r
     :: (if stats then List.map step_stats r.Upec.Report.steps else []))
    @ [
        cert;
        (match r.Upec.Report.resumed_from with
        | None -> "fresh start"
        | Some i -> Printf.sprintf "resumed from %d" i);
      ]
    @ checkpoint)

let with_checkpoint_path f =
  let path = Filename.temp_file "golden" ".ck" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let starved o =
  {
    o with
    O.budget = Satsolver.Solver.conflict_budget 5;
    budget_retries = 0;
  }

let alg1 ?(stats = true) ?svar_cache o spec =
  golden_repr ~stats (Upec.Alg1.run_with ?svar_cache o spec)

let alg2 ?(stats = true) o spec =
  let r, outcome = Upec.Alg2.run_with o spec in
  golden_repr ~stats r ^ "\n" ^ repr_outcome outcome

let conclude o spec = golden_repr (Upec.Alg2.conclude_with o spec)
let bmc_k2 = { O.default with O.reset_start = true; max_k = 2 }
let j1 = { O.default with O.jobs = Some 1 }
let j2 = { O.default with O.jobs = Some 2 }

(* a checkpointed run, then a resume from the last checkpoint it wrote *)
let checkpointed_then_resumed run o spec =
  with_checkpoint_path (fun path ->
      let first =
        golden_repr ~checkpoint:path
          (run ?resume:None { o with O.checkpoint_file = Some path } spec)
      in
      let ck =
        match Upec.Checkpoint.load path with
        | Ok ck -> ck
        | Error m -> Alcotest.fail ("checkpoint unreadable: " ^ m)
      in
      first ^ "\n---\n" ^ golden_repr (run ?resume:(Some ck) o spec))

let run_alg1 ?resume o spec = Upec.Alg1.run_with ?resume o spec
let run_alg2 ?resume o spec = fst (Upec.Alg2.run_with ?resume o spec)

(* the solver conflicts a run causes, from the process-wide metrics *)
let metered run =
  let conflicts () =
    Obs.Metrics.counter_value (Obs.Metrics.counter "sat.conflicts")
  in
  let c0 = conflicts () in
  let r = run () in
  (r, conflicts () - c0)

(* the Sec. 4.2 countermeasure at depth 3: the last check of its
   monolithic proof reaches the hand-over cap *)
let countermeasure () =
  match Scenarios.Scenario.find "countermeasure_d3" with
  | Some s -> Upec.Cli.spec_of s.Scenarios.Scenario.sp_design
  | None -> Alcotest.fail "countermeasure_d3 is not in the catalog"

let countermeasure_default =
  lazy (metered (fun () -> Upec.Alg1.run_with O.default (countermeasure ())))

let countermeasure_alg2 =
  lazy (metered (fun () -> run_alg2 O.default (countermeasure ())))

(* Alg. 2 and its induction: the unrolled phase hands over at iteration
   7, and the induction inherits its cap state *)
let countermeasure_conclude =
  lazy
    (metered (fun () -> Upec.Alg2.conclude_with O.default (countermeasure ())))

(* per-svar run answering every check it can from an in-memory lemma
   table filled by a first, uncached run *)
let cached_rerun o spec =
  let tbl = Hashtbl.create 64 in
  let key sv s = (Structural.svar_name sv, names s) in
  let cache =
    {
      Upec.Alg1.sc_lookup = (fun sv ~s -> Hashtbl.find_opt tbl (key sv s));
      sc_store = (fun sv ~s ~holds -> Hashtbl.replace tbl (key sv s) holds);
    }
  in
  let first = alg1 ~svar_cache:cache o spec in
  first ^ "\n---\n" ^ alg1 ~svar_cache:cache o spec

let golden_cases =
  [
    (* HWPE + memory variant (vulnerable) *)
    ( "hwpe alg1 incremental",
      "02888f658a3522df080158fa50e2d196",
      fun () -> alg1 O.default (hwpe_memory ()) );
    ( "hwpe alg1 per-svar j1",
      "ce9999e715d2162ca5f53322e5dfd43c",
      fun () -> alg1 j1 (hwpe_memory ()) );
    ( "hwpe alg1 per-svar j2",
      "da8b2a1bbd974dc20e0e0bc1c4dcfbe9",
      fun () -> alg1 ~stats:false j2 (hwpe_memory ()) );
    ( "hwpe alg1 certified",
      "510eecbbe46d6e50801cd13c0a9e2f9b",
      fun () -> alg1 { O.default with O.certify = true } (hwpe_memory ()) );
    ( "hwpe alg2 incremental",
      "f424dcc880f741a5a46a4635388af510",
      fun () -> alg2 O.default (hwpe_memory ()) );
    ( "hwpe alg2 per-svar j1",
      "ab769062975d26f6e0424e89e48176e9",
      fun () -> alg2 j1 (hwpe_memory ()) );
    ( "hwpe alg2 per-svar j2",
      "6e8d060c30be09871035f768f5bd1f73",
      fun () -> alg2 ~stats:false j2 (hwpe_memory ()) );
    ( "hwpe alg2 reset-start k2",
      "8234de76f60f5b101bc717365ed88f71",
      fun () -> alg2 bmc_k2 (hwpe_memory ()) );
    ( "hwpe conclude per-svar j1",
      "d4acaecfb124e2004f9ccb55a781bde3",
      fun () -> conclude j1 (hwpe_memory ()) );
    ( "hwpe alg2 checkpoint+resume",
      "2c3ba88e1ebea3b86f80338efc491289",
      fun () -> checkpointed_then_resumed run_alg2 O.default (hwpe_memory ()) );
    ( "hwpe alg2 per-svar starved checkpoint+resume",
      "12ebfc63c9cddf4b1197c601433655d1",
      fun () ->
        checkpointed_then_resumed run_alg2 (starved j1) (hwpe_memory ()) );
    (* micro design (secure) *)
    ( "micro alg1 incremental",
      "daf4b250a1985d98bdec3a0a9febe94a",
      fun () -> alg1 O.default (micro_secure ()) );
    ( "micro alg1 per-svar j1",
      "57738ec143c13987a39460c0899de367",
      fun () -> alg1 j1 (micro_secure ()) );
    ( "micro alg1 per-svar cached",
      "075bd70bb5acb6ccf0569a0c773e43a9",
      fun () -> cached_rerun j1 (micro_secure ()) );
    ( "micro alg1 checkpoint+resume",
      "1cf36535671d467c9044ce1ac30925eb",
      fun () ->
        checkpointed_then_resumed run_alg1 O.default (micro_secure ()) );
    ( "micro alg1 per-svar starved checkpoint+resume",
      "9fb34dca55b548cf64d433c2996c3d6c",
      fun () ->
        checkpointed_then_resumed run_alg1 (starved j1) (micro_secure ()) );
    ( "micro alg1 per-svar starved",
      "a3f48e868fd2d50c2b2c960ec674a14f",
      fun () -> alg1 (starved j1) (micro_secure ()) );
    ( "micro alg1 monolithic starved",
      "b2cdbf207ad10b2348e96619a394b129",
      fun () -> alg1 (starved O.default) (micro_secure ()) );
    ( "micro conclude incremental",
      "5ee908c08ea534699e50940962b8598b",
      fun () -> conclude O.default (micro_secure ()) );
    ( "micro conclude per-svar j1",
      "981c24c2f9899c1e310d83743ea11a0a",
      fun () -> conclude j1 (micro_secure ()) );
    ( "micro conclude per-svar starved",
      "514de6187435c08adbeac693e46d641a",
      fun () -> conclude (starved j1) (micro_secure ()) );
    (* countermeasure (secure): the default strategy hands over *)
    ( "countermeasure alg1 hand-over",
      "af40dea35074aa836d6855c6398f8448",
      fun () -> golden_repr (fst (Lazy.force countermeasure_default)) );
  ]

(* ---- step accounting and the hand-over ---- *)

let step_conflicts (r : Upec.Report.run) =
  List.fold_left
    (fun acc (s : Upec.Report.step) ->
      match s.Upec.Report.st_stats with
      | Some st -> acc + st.Satsolver.Solver.conflicts
      | None -> acc)
    0 r.Upec.Report.steps

let s_final (r : Upec.Report.run) =
  match r.Upec.Report.verdict with
  | Upec.Report.Secure { s_final } -> names s_final
  | _ -> Alcotest.fail "expected a secure verdict"

(* Every solve of a sequential secure run belongs to one step, so the
   steps' conflicts add up to the solver's: the per-svar workers' own
   solves (the unrolled phase rebuilds its worker at every depth), and
   a hand-over step that carries its capped check. *)
let test_step_conflicts runs () =
  List.iter
    (fun (what, run) ->
      let r, spent = Lazy.force run in
      Alcotest.(check int) (what ^ ": step conflicts") spent (step_conflicts r))
    runs

(* The hand-over proves the per-svar strategy's fixed point. *)
let test_handover_s_final () =
  let r, _ = Lazy.force countermeasure_default in
  Alcotest.(check string)
    "procedure" "UPEC-SSC (Alg. 1, incremental, per-svar from iteration 7)"
    r.Upec.Report.procedure;
  Alcotest.(check string)
    "s_final of the per-svar strategy"
    (s_final (Upec.Alg1.run_with j1 (countermeasure ())))
    (s_final r)

(* Alg. 2's warm session hands over as well: its (cycle, svar) pairs are
   armed on the session's own engine, and the run reaches the per-svar
   strategy's fixed point. *)
let test_alg2_handover () =
  let r, spent = Lazy.force countermeasure_alg2 in
  Alcotest.(check string)
    "procedure"
    "UPEC-SSC-unrolled (Alg. 2, incremental, per-svar from iteration 7)"
    r.Upec.Report.procedure;
  Alcotest.(check int) "step conflicts" spent (step_conflicts r);
  Alcotest.(check string)
    "s_final of the per-svar strategy"
    (s_final (run_alg2 j1 (countermeasure ())))
    (s_final r)

(* A conflict budget at or below the hand-over cap keeps the cap off:
   the final check runs its three escalating attempts (1024, 4096 and
   16384 conflicts) and ends the run Inconclusive, as without the cap.
   Iterations 2 and 4 need a retry too; their steps count both
   attempts, so the steps and the undecided check add up to the
   solver's work. *)
let test_budget_below_cap () =
  let o =
    { O.default with O.budget = Satsolver.Solver.conflict_budget 1024 }
  in
  let r, spent =
    metered (fun () -> Upec.Alg1.run_with o (countermeasure ()))
  in
  Alcotest.(check string)
    "procedure" "UPEC-SSC (Alg. 1, incremental)" r.Upec.Report.procedure;
  Alcotest.(check string)
    "verdict" "inconclusive undecided within budget: conflict budget exhausted"
    (repr_verdict r);
  Alcotest.(check int)
    "steps + undecided check" spent
    (step_conflicts r + 1024 + 4096 + 16384)

(* The induction of a default-strategy conclude reaches the fixed point
   of the per-svar conclude. *)
let test_conclude_s_final () =
  let r, _ = Lazy.force countermeasure_conclude in
  Alcotest.(check string)
    "s_final of the per-svar conclude"
    (s_final (Upec.Alg2.conclude_with j1 (countermeasure ())))
    (s_final r)

let golden_test ?(speed = `Quick) (name, expected, run) =
  Alcotest.test_case name speed (fun () ->
      let text = run () in
      let digest = Digest.to_hex (Digest.string text) in
      if digest <> expected then
        Printf.eprintf "golden trace of %S (md5 %s):\n%s\n" name digest text;
      Alcotest.(check string) (name ^ " trace digest") expected digest)

let () =
  Alcotest.run "equiv"
    [
      ( "simp",
        [
          Alcotest.test_case "alg1 on/off bit-identical" `Quick
            test_alg1_simp_equiv;
          Alcotest.test_case "alg2 on/off bit-identical" `Quick
            test_alg2_simp_equiv;
          Alcotest.test_case "certified on/off bit-identical" `Slow
            test_certified_simp_equiv;
          Alcotest.test_case "bmc-from-reset on/off bit-identical" `Slow
            test_bmc_reset_simp_equiv;
          Alcotest.test_case "interrupt+resume verdict preserved" `Slow
            test_resume_simp_equiv;
        ] );
      ( "json",
        [ Alcotest.test_case "schema-3 round-trip and shape" `Quick
            test_json_roundtrip;
          Alcotest.test_case "schema versions accepted/rejected" `Quick
            test_schema_versions;
        ] );
      ("golden", List.map golden_test golden_cases);
      ( "handover",
        [
          Alcotest.test_case "step conflicts sum to the solver's" `Quick
            (test_step_conflicts
               [
                 ( "conclude per-svar j1",
                   lazy
                     (metered (fun () ->
                          Upec.Alg2.conclude_with j1 (micro_secure ()))) );
                 ("hand-over", countermeasure_default);
               ]);
          Alcotest.test_case "s_final equals per-svar's" `Quick
            test_handover_s_final;
          Alcotest.test_case "alg2 hands over on its session" `Slow
            test_alg2_handover;
          Alcotest.test_case "budget below the cap keeps retries" `Quick
            test_budget_below_cap;
        ] );
      ( "inherit-cap",
        [
          Alcotest.test_case "step conflicts sum to the solver's" `Slow
            (test_step_conflicts [ ("conclude", countermeasure_conclude) ]);
          Alcotest.test_case "s_final equals per-svar conclude's" `Slow
            test_conclude_s_final;
          golden_test ~speed:`Slow
            ( "countermeasure conclude",
              "ddd8a6b7d97da8f831c17da9f32639d2",
              fun () -> golden_repr (fst (Lazy.force countermeasure_conclude))
            );
        ] );
    ]
