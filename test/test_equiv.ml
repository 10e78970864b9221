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
   of the schema-3 JSON report, golden traces pinning runs of both
   procedures bit for bit, the step accounting and fixed point of the
   per-svar rounds, within one run and from Alg. 2's unrolled phase to
   its induction, and the rounds' witnesses across job counts,
   portfolios, problem reduction and lemma caches. *)

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

(* ---- simp on/off: bit-identical runs ----

   Reduction applies to witness-free portfolio races, so the Alg. 1,
   Alg. 2 and certified runs race two configurations per solve. *)

let test_alg1_simp_equiv () =
  let run ?(jobs = 1) simp =
    Upec.Alg1.run_with
      { O.default with O.simp; jobs; portfolio = 2 }
      (dma_timer Upec.Spec.Vulnerable)
  in
  check_identical "alg1 one worker" (run true) (run false);
  check_identical "alg1 two workers" (run ~jobs:2 true) (run ~jobs:2 false)

let test_alg2_simp_equiv () =
  let run ?(jobs = 1) simp =
    fst
      (Upec.Alg2.run_with
         { O.default with O.simp; jobs; portfolio = 2 }
         (hwpe_memory ()))
  in
  check_identical "alg2 one worker" (run true) (run false);
  check_identical "alg2 two workers" (run ~jobs:2 true) (run ~jobs:2 false)

let test_certified_simp_equiv () =
  (* a certified witness-free race runs on the reduced snapshot, and
     its racers' checkers vouch for it against exactly the clauses that
     snapshot holds, so a reduction bug fails this test twice over
     (verdict or certificate) *)
  let run simp =
    Upec.Alg1.run_with
      { O.default with O.simp; jobs = 2; portfolio = 2; certify = true }
      (dma_timer Upec.Spec.Vulnerable)
  in
  let on = run true and off = run false in
  check_identical "alg1 certified" on off;
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
  let o = { O.default with O.jobs = 2 } in
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
      (Upec.Alg2.run_with
         { O.default with O.jobs = 2; portfolio = 2 }
         (hwpe_memory ()))
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
  (* per-svar pair checks are witness-free races, so reduction fired *)
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

(* ---- golden traces: runs pinned bit for bit ----

   CNF variable numbering and assumption order steer the search, so a
   refactor of the refinement drivers must reproduce each run exactly:
   the procedure, the verdict with its full waveform, every step's sets,
   the degraded checks, the certificate counts, the resume point and
   the last checkpoint written. One-worker runs also pin each step's
   conflicts and propagations; on two workers the solver work depends
   on the schedule, so only the trace is pinned there. Cases named
   "incremental" or "monolithic" pin the default options, which once
   selected a strategy of their own. Re-record a digest only for a
   change meant to alter that run; a mismatch prints the run's full
   trace. *)

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
let j1 = { O.default with O.jobs = 1 }
let j2 = { O.default with O.jobs = 2 }

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

(* the Sec. 4.2 countermeasure at depth 3: a secure design, proved in
   two rounds *)
let countermeasure () =
  match Scenarios.Scenario.find "countermeasure_d3" with
  | Some s -> Upec.Cli.spec_of s.Scenarios.Scenario.sp_design
  | None -> Alcotest.fail "countermeasure_d3 is not in the catalog"

let countermeasure_default =
  lazy (metered (fun () -> Upec.Alg1.run_with O.default (countermeasure ())))

(* Alg. 2 and its induction *)
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
      "20ec2addd484626f92c87af64f13ec04",
      fun () -> alg1 O.default (hwpe_memory ()) );
    ( "hwpe alg1 per-svar j1",
      "20ec2addd484626f92c87af64f13ec04",
      fun () -> alg1 j1 (hwpe_memory ()) );
    ( "hwpe alg1 per-svar j2",
      "43ec346f5e7426e4eb7cb2f339a0a777",
      fun () -> alg1 ~stats:false j2 (hwpe_memory ()) );
    ( "hwpe alg1 certified",
      "195637b3633fb1ab418d2ec55a266fc1",
      fun () -> alg1 { O.default with O.certify = true } (hwpe_memory ()) );
    ( "hwpe alg2 incremental",
      "ea4e8e09f65df114c6334a9d39d672bb",
      fun () -> alg2 O.default (hwpe_memory ()) );
    ( "hwpe alg2 per-svar j1",
      "ea4e8e09f65df114c6334a9d39d672bb",
      fun () -> alg2 j1 (hwpe_memory ()) );
    ( "hwpe alg2 per-svar j2",
      "4d979a04961cc02c4f72bbb0d2007b9a",
      fun () -> alg2 ~stats:false j2 (hwpe_memory ()) );
    ( "hwpe alg2 reset-start k2",
      "e0631a760a0962af7f32ec944358dbdf",
      fun () -> alg2 bmc_k2 (hwpe_memory ()) );
    ( "hwpe conclude per-svar j1",
      "c4346c75704e64eda52d4391973e0378",
      fun () -> conclude j1 (hwpe_memory ()) );

    ( "hwpe alg2 per-svar starved checkpoint+resume",
      "986cf1612789eb816c9f9f56d1e7bc87",
      fun () ->
        checkpointed_then_resumed run_alg2 (starved j1) (hwpe_memory ()) );
    (* micro design (secure) *)
    ( "micro alg1 incremental",
      "d9f2b39f343773061086668ea54097bf",
      fun () -> alg1 O.default (micro_secure ()) );
    ( "micro alg1 per-svar j1",
      "d9f2b39f343773061086668ea54097bf",
      fun () -> alg1 j1 (micro_secure ()) );
    ( "micro alg1 per-svar cached",
      "40345922a252464d1dae4851d66e5bfc",
      fun () -> cached_rerun j1 (micro_secure ()) );
    ( "micro alg2 checkpoint+resume",
      "6497e1529226c12b9fcf1e87eba82d95",
      fun () ->
        checkpointed_then_resumed run_alg2 O.default (micro_secure ()) );
    ( "micro alg1 checkpoint+resume",
      "11b1d70b22365f41a3adf106ace4c236",
      fun () ->
        checkpointed_then_resumed run_alg1 O.default (micro_secure ()) );
    ( "micro alg1 per-svar starved checkpoint+resume",
      "bf7292b6ac4d8c3c151f62077108f15f",
      fun () ->
        checkpointed_then_resumed run_alg1 (starved j1) (micro_secure ()) );
    ( "micro alg1 per-svar starved",
      "fac0553559c671005d3b979885fee96e",
      fun () -> alg1 (starved j1) (micro_secure ()) );
    ( "micro alg1 monolithic starved",
      "fac0553559c671005d3b979885fee96e",
      fun () -> alg1 (starved O.default) (micro_secure ()) );
    ( "micro conclude incremental",
      "05727246fc75d5c137f8423d55836c2e",
      fun () -> conclude O.default (micro_secure ()) );
    ( "micro conclude per-svar j1",
      "05727246fc75d5c137f8423d55836c2e",
      fun () -> conclude j1 (micro_secure ()) );
    ( "micro conclude per-svar starved",
      "29918991bc8a3f826d7fb6529868b8ad",
      fun () -> conclude (starved j1) (micro_secure ()) );
    (* countermeasure (secure) *)
    ( "countermeasure alg1 hand-over",
      "e244cf94e6e3bea377629fcbe1acf975",
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

(* ---- step accounting and the fixed point ---- *)

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

(* the final S of the monolithic fixed point (Testutil.oracle_alg1) *)
let oracle_s_final spec =
  match Testutil.oracle_alg1 ~max_iterations:128 spec with
  | Testutil.Oracle_secure s -> names s
  | _ -> Alcotest.fail "the oracle found no fixed point"

(* Every solve of a sequential secure run belongs to one step, so the
   steps' conflicts add up to the solver's: the workers' own solves, a
   new worker's every round. *)
let test_step_conflicts runs () =
  List.iter
    (fun (what, run) ->
      let r, spent = Lazy.force run in
      Alcotest.(check int) (what ^ ": step conflicts") spent (step_conflicts r))
    runs

(* The rounds prove the monolithic fixed point. *)
let test_handover_s_final () =
  let r, _ = Lazy.force countermeasure_default in
  Alcotest.(check string)
    "procedure" "UPEC-SSC (Alg. 1, per-svar)" r.Upec.Report.procedure;
  Alcotest.(check string)
    "s_final of the oracle"
    (oracle_s_final (countermeasure ()))
    (s_final r)

(* Alg. 2's induction reaches the same fixed point: the unrolled
   phase never removes an svar of it. *)
let test_conclude_s_final () =
  let r, _ = Lazy.force countermeasure_conclude in
  Alcotest.(check string)
    "s_final of the oracle"
    (oracle_s_final (countermeasure ()))
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

(* ---- the rounds' witnesses ----

   A round decides its persistent obligations in order and re-decides
   the first one refuted with a model, on a solver given the history a
   sequential uncached run gives its one worker. So the trace — the verdict
   with its full waveform, every step's sets — is the same for every
   job count, with a portfolio, with problem reduction off, and with a
   lemma cache that answers the witness's obligation or one ahead of
   it. *)

let test_round_configurations run spec () =
  let base = repr_run (run O.default (spec ())) in
  List.iter
    (fun (what, o) ->
      Alcotest.(check string) what base (repr_run (run o (spec ()))))
    [
      ("jobs 2", j2);
      ("jobs 4", { O.default with O.jobs = 4 });
      ("portfolio 2", { O.default with O.portfolio = 2 });
      ("simp off", { O.default with O.simp = false });
    ]

let test_cached_witness () =
  let spec () = dma_timer Upec.Spec.Vulnerable in
  let uncached = Upec.Alg1.run_with O.default (spec ()) in
  let witness =
    match uncached.Upec.Report.verdict with
    | Upec.Report.Vulnerable { s_cex; _ } -> names s_cex
    | _ -> Alcotest.fail "expected a vulnerable verdict"
  in
  (* the S of the round that refuted the witness's obligation *)
  let round_s = ref None in
  ignore
    (Upec.Alg1.run_with
       ~svar_cache:
         {
           Upec.Alg1.sc_lookup = (fun _ ~s:_ -> None);
           sc_store =
             (fun sv ~s ~holds ->
               if (not holds) && Structural.svar_name sv = witness then
                 round_s := Some (names s));
         }
       O.default (spec ()));
  let round_s =
    match !round_s with
    | Some s -> s
    | None -> Alcotest.fail "the witness's obligation was never stored"
  in
  let answered = ref 0 in
  let cached =
    Upec.Alg1.run_with
      ~svar_cache:
        {
          Upec.Alg1.sc_lookup =
            (fun sv ~s ->
              if Structural.svar_name sv = witness && names s = round_s
              then begin
                incr answered;
                Some false
              end
              else None);
          sc_store = (fun _ ~s:_ ~holds:_ -> ());
        }
      O.default (spec ())
  in
  Alcotest.(check int) "the cache answered the witness's obligation" 1
    !answered;
  Alcotest.(check string) "trace" (repr_run uncached) (repr_run cached)

(* With one worker and a cache that answers nothing, a round looks up
   exactly the obligations it decides, and stores each: none past the
   first refuted persistent obligation (a proof farm counts every
   lookup a miss). *)
let test_lookups_decided () =
  let looked = ref [] and stored = ref [] in
  let key sv s = Structural.svar_name sv ^ "|" ^ names s in
  ignore
    (Upec.Alg1.run_with
       ~svar_cache:
         {
           Upec.Alg1.sc_lookup =
             (fun sv ~s ->
               looked := key sv s :: !looked;
               None);
           sc_store = (fun sv ~s ~holds:_ -> stored := key sv s :: !stored);
         }
       O.default
       (dma_timer Upec.Spec.Vulnerable));
  Alcotest.(check bool) "looked up" true (!looked <> []);
  Alcotest.(check (list string)) "lookups = stores" (List.rev !stored)
    (List.rev !looked)

(* A lemma that holds for a persistent obligation ahead of the
   witness's: no round worker decided it, so the witness is solved on a
   fresh worker after the sequential run's whole history. *)
let test_cached_prefix_witness () =
  let spec () = dma_timer Upec.Spec.Vulnerable in
  let uncached = Upec.Alg1.run_with O.default (spec ()) in
  let witness =
    match uncached.Upec.Report.verdict with
    | Upec.Report.Vulnerable { s_cex; _ } -> names s_cex
    | _ -> Alcotest.fail "expected a vulnerable verdict"
  in
  (* every answer stored, in order: (svar, round S, holds) *)
  let stored = ref [] in
  ignore
    (Upec.Alg1.run_with
       ~svar_cache:
         {
           Upec.Alg1.sc_lookup = (fun _ ~s:_ -> None);
           sc_store =
             (fun sv ~s ~holds ->
               stored := (Structural.svar_name sv, names s, holds) :: !stored);
         }
       O.default (spec ()));
  (* the first obligation its round stored as holding before the
     witness's *)
  let rec ahead = function
    | (n, s, false) :: _ when n = witness -> (
        match
          List.find_opt
            (fun (_, s', holds) -> holds && s' = s)
            (List.rev !stored)
        with
        | Some (n', _, _) -> (n', s)
        | None -> Alcotest.fail "no obligation ahead of the witness's")
    | _ :: rest -> ahead rest
    | [] -> Alcotest.fail "the witness's obligation was never stored"
  in
  let first, round_s = ahead (List.rev !stored) in
  let answered = ref 0 in
  let cached =
    Upec.Alg1.run_with
      ~svar_cache:
        {
          Upec.Alg1.sc_lookup =
            (fun sv ~s ->
              if Structural.svar_name sv = first && names s = round_s then begin
                incr answered;
                Some true
              end
              else None);
          sc_store = (fun _ ~s:_ ~holds:_ -> ());
        }
      O.default (spec ())
  in
  Alcotest.(check int) "the cache answered an obligation ahead" 1 !answered;
  Alcotest.(check string) "trace" (repr_run uncached) (repr_run cached)

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
      (* Group names stay within the width of "cert-search": a wider one
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
               ~checked:(108, 8) (alg1_trace countermeasure) O.default);
        ] );
      (* the group that once held the hand-over's tests; its name keeps
         the names of its cases *)
      ( "handover",
        [
          Alcotest.test_case "step conflicts sum to the solver's" `Quick
            (test_step_conflicts
               [
                 ( "conclude per-svar j1",
                   lazy
                     (metered (fun () ->
                          Upec.Alg2.conclude_with j1 (micro_secure ()))) );
                 ("countermeasure", countermeasure_default);
               ]);
          Alcotest.test_case "s_final equals per-svar's" `Quick
            test_handover_s_final;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "dma-timer alg1 jobs, portfolio, simp" `Quick
            (test_round_configurations
               (fun o spec -> Upec.Alg1.run_with o spec)
               (fun () -> dma_timer Upec.Spec.Vulnerable));
          Alcotest.test_case "dma-timer alg2 jobs, portfolio, simp" `Quick
            (test_round_configurations run_alg2 (fun () ->
                 dma_timer Upec.Spec.Vulnerable));
          Alcotest.test_case "hwpe alg2 jobs, portfolio, simp" `Quick
            (test_round_configurations run_alg2 hwpe_memory);
          Alcotest.test_case "countermeasure jobs, portfolio, simp" `Slow
            (test_round_configurations
               (fun o spec -> Upec.Alg1.run_with o spec)
               countermeasure);
          Alcotest.test_case "cached witness = uncached" `Quick
            test_cached_witness;
          Alcotest.test_case "cached prefix = uncached" `Quick
            test_cached_prefix_witness;
          Alcotest.test_case "lookups = decisions" `Quick test_lookups_decided;
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
      (* the group that once held the tests of the cap Alg. 2's
         induction inherited; its name keeps the names of its cases *)
      ( "inherit-cap",
        [
          Alcotest.test_case "step conflicts sum to the solver's" `Slow
            (test_step_conflicts [ ("conclude", countermeasure_conclude) ]);
          Alcotest.test_case "s_final equals per-svar conclude's" `Slow
            test_conclude_s_final;
          golden_test ~speed:`Slow
            ( "countermeasure conclude",
              "538b4b7783202bda3b879e49d05b502f",
              fun () -> golden_repr (fst (Lazy.force countermeasure_conclude))
            );
        ] );
    ]
