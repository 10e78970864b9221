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
  (* a certified witness-free solve runs on its worker's lazily encoded
     cone, and the worker's checker vouches for it against exactly the
     clauses that solver received, so a reduction bug fails this test
     twice over (verdict or certificate) *)
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

let golden_repr ?(stats = true) ?(cert = true) ?checkpoint
    (r : Upec.Report.run) =
  let step_stats (s : Upec.Report.step) =
    match s.Upec.Report.st_stats with
    | Some st ->
        Printf.sprintf "iter=%d conflicts=%d propagations=%d"
          s.Upec.Report.st_iter st.Satsolver.Solver.conflicts
          st.Satsolver.Solver.propagations
    | None -> Printf.sprintf "iter=%d no stats" s.Upec.Report.st_iter
  in
  let cert_line =
    match r.Upec.Report.cert with
    | None -> "cert none"
    | Some c ->
        let t = c.Upec.Report.ct_totals in
        (* "epochs=0" is part of the recorded digests' text *)
        Printf.sprintf
          "cert unsat=%d sat=%d unknown=%d steps=%d lits=%d epochs=0 \
           validated=%s"
          t.Cert.Proof.unsat_checked t.Cert.Proof.sat_checked
          t.Cert.Proof.unknown_skipped t.Cert.Proof.proof_steps
          t.Cert.Proof.proof_lits
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
    @ (if cert then [ cert_line ] else [])
    @ [
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

(* A starved run must still refine once, so that both checkpoint cases
   write a checkpoint: 8 is the smallest budget from 5 up at which they
   do. *)
let starved o =
  {
    o with
    O.budget = Satsolver.Solver.conflict_budget 8;
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
      "820a4a8876b7a5d78351cd838e11a331",
      fun () -> alg1 j1 (hwpe_memory ()) );
    ( "hwpe alg1 per-svar j2",
      "da8b2a1bbd974dc20e0e0bc1c4dcfbe9",
      fun () -> alg1 ~stats:false j2 (hwpe_memory ()) );
    ( "hwpe alg1 certified",
      "8dd7afe09f53029009964750607ab89a",
      fun () -> alg1 { O.default with O.certify = true } (hwpe_memory ()) );
    ( "hwpe alg2 incremental",
      "f424dcc880f741a5a46a4635388af510",
      fun () -> alg2 O.default (hwpe_memory ()) );
    ( "hwpe alg2 per-svar j1",
      "d6613f190265f4d9e47b4875d2e7057f",
      fun () -> alg2 j1 (hwpe_memory ()) );
    ( "hwpe alg2 per-svar j2",
      "6e8d060c30be09871035f768f5bd1f73",
      fun () -> alg2 ~stats:false j2 (hwpe_memory ()) );
    ( "hwpe alg2 reset-start k2",
      "8234de76f60f5b101bc717365ed88f71",
      fun () -> alg2 bmc_k2 (hwpe_memory ()) );
    ( "hwpe conclude per-svar j1",
      "837bf944f07ab28dd9b4430c6abf20b5",
      fun () -> conclude j1 (hwpe_memory ()) );
    ( "hwpe alg2 checkpoint+resume",
      "d9bd0a3e470aecc7adf4595069a470e3",
      fun () -> checkpointed_then_resumed run_alg2 O.default (hwpe_memory ()) );
    ( "hwpe alg2 per-svar starved checkpoint+resume",
      "d6339aaedc794f22ce556d9ba8016c8e",
      fun () ->
        checkpointed_then_resumed run_alg2 (starved j1) (hwpe_memory ()) );
    (* micro design (secure) *)
    ( "micro alg1 incremental",
      "daf4b250a1985d98bdec3a0a9febe94a",
      fun () -> alg1 O.default (micro_secure ()) );
    ( "micro alg1 per-svar j1",
      "feaa0049ce2a80523ba0cf48f2786d97",
      fun () -> alg1 j1 (micro_secure ()) );
    ( "micro alg1 per-svar cached",
      "26f958064802075161a8c55602330ae3",
      fun () -> cached_rerun j1 (micro_secure ()) );
    ( "micro alg1 checkpoint+resume",
      "e766c0a70e7816be0d5aca8407dc5f4c",
      fun () ->
        checkpointed_then_resumed run_alg1 O.default (micro_secure ()) );
    ( "micro alg1 per-svar starved checkpoint+resume",
      "0bd6c99bdb25da6b721450046ab6b6d3",
      fun () ->
        checkpointed_then_resumed run_alg1 (starved j1) (micro_secure ()) );
    ( "micro alg1 per-svar starved",
      "4b85a486b926c33da99332b38474f90d",
      fun () -> alg1 (starved j1) (micro_secure ()) );
    ( "micro alg1 monolithic starved",
      "b2cdbf207ad10b2348e96619a394b129",
      fun () -> alg1 (starved O.default) (micro_secure ()) );
    ( "micro conclude incremental",
      "5ee908c08ea534699e50940962b8598b",
      fun () -> conclude O.default (micro_secure ()) );
    ( "micro conclude per-svar j1",
      "4af11e315312e29dff5ac702acc1e6b0",
      fun () -> conclude j1 (micro_secure ()) );
    ( "micro conclude per-svar starved",
      "dd06f0974e2c397517e756dfd801a1db",
      fun () -> conclude (starved j1) (micro_secure ()) );
    (* countermeasure (secure): the default strategy hands over *)
    ( "countermeasure alg1 hand-over",
      "642990bfc1c8d2bb2458e465431fb72c",
      fun () -> golden_repr (fst (Lazy.force countermeasure_default)) );
  ]

(* ---- certified search = uncertified search ----

   A certified sequential run searches on the same warm session as an
   uncertified one; its checker only watches the clauses go by. So the
   two runs agree on everything but the cert line — the trace, every
   step's conflicts and propagations — and spend the same conflicts. *)

(* a run's trace without the cert line, and its report *)
let alg1_trace spec o =
  let r = Upec.Alg1.run_with o (spec ()) in
  (golden_repr ~cert:false r, r)

let alg2_trace spec o =
  let r, outcome = Upec.Alg2.run_with o (spec ()) in
  (golden_repr ~cert:false r ^ "\n" ^ repr_outcome outcome, r)

(* [checked]: the UNSAT answers and models the certified run vouches
   for *)
let test_certified_search ?uncertified ?checked trace o () =
  let run certify = metered (fun () -> trace { o with O.certify }) in
  let (plain, _), plain_conflicts =
    match uncertified with Some u -> Lazy.force u | None -> run false
  in
  let (certified, r), certified_conflicts = run true in
  Alcotest.(check string) "trace without the cert line" plain certified;
  Alcotest.(check int) "sat.conflicts" plain_conflicts certified_conflicts;
  Option.iter
    (fun (unsat, sat) ->
      match r.Upec.Report.cert with
      | Some c ->
          let t = c.Upec.Report.ct_totals in
          Alcotest.(check (pair int int))
            "UNSAT answers and models checked" (unsat, sat)
            (t.Cert.Proof.unsat_checked, t.Cert.Proof.sat_checked)
      | None -> Alcotest.fail "certified run without cert totals")
    checked

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

(* Alg. 2's warm session hands over as well: its (cycle, svar) pairs go
   to the per-svar strategy's shared worker, not to the session's
   engine, and the run reaches the per-svar strategy's fixed point. *)
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

(* A checkpoint carries the hand-over state. Resumed before its
   hand-over iteration, a run is capped like the uninterrupted one, so
   that iteration spends the same conflicts; resumed after the hand-over
   (its checkpoint names the iteration), it stays per-svar and makes no
   capped probe. *)
let test_resume_handover () =
  let u, _ = Lazy.force countermeasure_default in
  let iter7 (r : Upec.Report.run) =
    match
      List.find_opt
        (fun (s : Upec.Report.step) -> s.Upec.Report.st_iter = 7)
        r.Upec.Report.steps
    with
    | Some { Upec.Report.st_stats = Some st; _ } -> st.Satsolver.Solver.conflicts
    | _ -> Alcotest.fail "no iteration 7 with stats"
  in
  let ck =
    with_checkpoint_path (fun path ->
        ignore
          (Upec.Alg1.run_with
             { O.default with O.max_iterations = 6; checkpoint_file = Some path }
             (countermeasure ()));
        match Upec.Checkpoint.load path with
        | Ok ck -> ck
        | Error m -> Alcotest.fail ("checkpoint unreadable: " ^ m))
  in
  Alcotest.(check int) "checkpointed before iteration 7" 7
    ck.Upec.Checkpoint.ck_iter;
  let resumed ck = Upec.Alg1.run_with ~resume:ck O.default (countermeasure ()) in
  let before = resumed ck in
  Alcotest.(check string) "procedure" u.Upec.Report.procedure
    before.Upec.Report.procedure;
  Alcotest.(check int) "iteration 7 conflicts" (iter7 u) (iter7 before);
  Alcotest.(check string) "s_final" (s_final u) (s_final before);
  let cap =
    match ck.Upec.Checkpoint.ck_costliest with
    | Some c -> max 4096 (2 * c)
    | None -> Alcotest.fail "checkpoint without the cap state"
  in
  let after = resumed { ck with Upec.Checkpoint.ck_handover = Some 7 } in
  Alcotest.(check string) "procedure after the hand-over"
    u.Upec.Report.procedure after.Upec.Report.procedure;
  Alcotest.(check int) "iteration 7 without the probe" (iter7 u - cap)
    (iter7 after);
  Alcotest.(check string) "s_final after the hand-over" (s_final u)
    (s_final after)

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

(* ---- cycle-0 sharing ----

   A per-svar worker's instance B takes A's own cycle-0 state on the
   round's set (Macros.cycle0_shared). That is part of the trusted
   encoding, like Tseitin: for every obligation of a first per-svar
   round, a shared engine must answer exactly like an unshared engine
   that assumes the cycle-0 equalities instead. So must the question
   whether a state variable can differ at cycle 0 at all, which only
   a guarded cell or one outside the set can. *)

(* a two-instance engine constrained like the refinement's *)
let sharing_engine ?share spec ~k =
  let eng =
    Ipc.Engine.create
      ?share:(Option.map (Upec.Macros.cycle0_shared spec) share)
      ~two_instance:true spec.Upec.Spec.soc.Soc.Builder.netlist
  in
  Ipc.Engine.ensure_frames eng k;
  Upec.Macros.assume_env eng spec ~frames:k;
  for f = 0 to k do
    Upec.Macros.frame_constraints eng spec ~frame:f
  done;
  eng

let holds eng lits =
  match Ipc.Engine.decide ~cex:false eng (Ipc.Engine.Violation lits) with
  | Ipc.Engine.Proved -> true
  | Ipc.Engine.Refuted _ -> false
  | Ipc.Engine.Unknown reason -> Alcotest.fail ("undecided: " ^ reason)

let diff eng spec ~frame sv =
  Aig.lit_not (Upec.Macros.sv_condition eng spec ~frame sv)

(* the two engines agree on whether each state variable can differ at
   cycle 0 under [assumed] *)
let check_cycle0 spec ~shared ~plain assumed =
  let differs eng sv =
    let u = Ipc.Engine.unroller eng in
    not
      (holds eng
         (Aig.lit_not (Ipc.Unroller.svar_equal_lit u ~frame:0 sv)
         :: assumed eng))
  in
  Structural.Svar_set.iter
    (fun sv ->
      Alcotest.(check bool)
        (Structural.svar_name sv ^ "@0")
        (differs plain sv) (differs shared sv))
    (Structural.all_svars spec.Upec.Spec.soc.Soc.Builder.netlist)

(* Alg. 1's first round: can sv differ at cycle 1 under
   State_Equivalence(S) at cycle 0? Also against the run's own worker,
   whose answers reach the lemma hook. *)
let test_share_alg1 spec () =
  let spec = spec () in
  let s = Upec.Spec.s_neg_victim spec in
  let stored = Hashtbl.create 64 in
  let cache =
    {
      Upec.Alg1.sc_lookup = (fun _ ~s:_ -> None);
      sc_store =
        (fun sv ~s:s' ~holds ->
          if Structural.Svar_set.equal s' s then
            Hashtbl.replace stored (Structural.svar_name sv) holds);
    }
  in
  ignore
    (Upec.Alg1.run_with ~svar_cache:cache
       { j1 with O.max_iterations = 1 }
       spec);
  Alcotest.(check bool) "the run decided obligations" true
    (Hashtbl.length stored > 0);
  let shared = sharing_engine ~share:s spec ~k:1
  and plain = sharing_engine spec ~k:1 in
  let eqs eng =
    Structural.Svar_set.fold
      (fun sv acc -> Upec.Macros.sv_condition eng spec ~frame:0 sv :: acc)
      s []
  in
  Structural.Svar_set.iter
    (fun sv ->
      let name = Structural.svar_name sv in
      let expect = holds plain (diff plain spec ~frame:1 sv :: eqs plain) in
      Alcotest.(check bool)
        (name ^ ": shared engine") expect
        (holds shared (diff shared spec ~frame:1 sv :: eqs shared));
      Option.iter
        (Alcotest.(check bool) (name ^ ": the run's worker") expect)
        (Hashtbl.find_opt stored name))
    s;
  check_cycle0 spec ~shared ~plain eqs

(* Alg. 2's first round at depth k: can sv differ at cycle j <= k under
   frame-0 equivalence of the fixed cycle-0 set? *)
let test_share_alg2 spec () =
  let spec = spec () in
  let s0 = Upec.Spec.s_neg_victim spec in
  List.iter
    (fun k ->
      let shared = sharing_engine ~share:s0 spec ~k
      and plain = sharing_engine spec ~k in
      List.iter
        (fun eng -> Upec.Macros.state_equivalence_assume eng spec ~frame:0 s0)
        [ shared; plain ];
      check_cycle0 spec ~shared ~plain (fun _ -> []);
      for j = 1 to k do
        Structural.Svar_set.iter
          (fun sv ->
            Alcotest.(check bool)
              (Printf.sprintf "k=%d: %s@%d" k (Structural.svar_name sv) j)
              (holds plain [ diff plain spec ~frame:j sv ])
              (holds shared [ diff shared spec ~frame:j sv ]))
          s0
      done)
    [ 1; 2 ]

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
      (* Group names stay within the width of "inherit-cap": a wider one
         widens alcotest's group column and truncates the test names
         after it differently. *)
      ( "cert-search",
        [
          Alcotest.test_case "hwpe alg1" `Quick
            (test_certified_search (alg1_trace hwpe_memory) O.default);
          Alcotest.test_case "hwpe alg1 per-svar j1" `Quick
            (test_certified_search (alg1_trace hwpe_memory) j1);
          Alcotest.test_case "hwpe alg2" `Quick
            (test_certified_search (alg2_trace hwpe_memory) O.default);
          Alcotest.test_case "micro alg1" `Quick
            (test_certified_search (alg1_trace micro_secure) O.default);
          Alcotest.test_case "countermeasure alg1 hand-over" `Slow
            (test_certified_search
               ~uncertified:
                 (lazy
                   (let r, spent = Lazy.force countermeasure_default in
                    ((golden_repr ~cert:false r, r), spent)))
               ~checked:(54, 6) (alg1_trace countermeasure) O.default);
        ] );
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
          Alcotest.test_case "resume keeps the hand-over state" `Quick
            test_resume_handover;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "hwpe alg1" `Quick (test_share_alg1 hwpe_memory);
          Alcotest.test_case "hwpe alg2" `Slow (test_share_alg2 hwpe_memory);
          Alcotest.test_case "micro alg1" `Quick (test_share_alg1 micro_secure);
          Alcotest.test_case "micro alg2" `Quick (test_share_alg2 micro_secure);
          Alcotest.test_case "countermeasure alg1" `Slow
            (test_share_alg1 countermeasure);
          Alcotest.test_case "countermeasure alg2" `Slow
            (test_share_alg2 countermeasure);
        ] );
      ( "inherit-cap",
        [
          Alcotest.test_case "step conflicts sum to the solver's" `Slow
            (test_step_conflicts [ ("conclude", countermeasure_conclude) ]);
          Alcotest.test_case "s_final equals per-svar conclude's" `Slow
            test_conclude_s_final;
          golden_test ~speed:`Slow
            ( "countermeasure conclude",
              "bb5d7a107452593eb831fc25964ef6d3",
              fun () -> golden_repr (fst (Lazy.force countermeasure_conclude))
            );
        ] );
    ]
