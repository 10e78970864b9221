(* End-to-end tests of the UPEC-SSC method: invariant soundness,
   vulnerability detection on the baseline SoC, and the security proof
   under the Sec. 4.2 countermeasure. *)

open Rtl

let tiny = Soc.Config.formal_tiny

let spec_of ?(cfg = tiny) ?(pers = Upec.Spec.Full_pers) variant =
  let soc = Soc.Builder.build cfg Soc.Builder.Formal in
  Upec.Spec.make ~pers_model:pers soc variant

(* These tests pin the fresh-session strategy: a new solver session per
   check, the paper's own per-iteration re-check. *)
module O = Upec.Options

let alg1_fresh = { O.default with O.incremental = false; max_iterations = 64 }
let alg2_fresh = { O.default with O.incremental = false }

(* ---- spec / classification ---- *)

let test_s_neg_victim_covers_all () =
  let spec = spec_of Upec.Spec.Vulnerable in
  let s = Upec.Spec.s_neg_victim spec in
  (* the formal netlist has no CPU, so S_neg_victim = all svars *)
  Alcotest.(check int)
    "all svars"
    (Structural.Svar_set.cardinal
       (Structural.all_svars spec.Upec.Spec.soc.Soc.Builder.netlist))
    (Structural.Svar_set.cardinal s)

let test_pers_classification () =
  let spec = spec_of Upec.Spec.Vulnerable in
  let nl = spec.Upec.Spec.soc.Soc.Builder.netlist in
  let by_name n =
    Structural.Sreg (Netlist.find_reg nl n).Netlist.rd_signal
  in
  Alcotest.(check bool) "hwpe.cnt persistent" true
    (Upec.Spec.is_pers spec (by_name "hwpe.cnt"));
  Alcotest.(check bool) "timer.value persistent" true
    (Upec.Spec.is_pers spec (by_name "timer.value"));
  Alcotest.(check bool) "xbar resp not persistent" false
    (Upec.Spec.is_pers spec (by_name "xbar_pub.pub0.resp_valid"));
  Alcotest.(check bool) "sram raddr_q not persistent" false
    (Upec.Spec.is_pers spec (by_name "pub0.raddr_q"));
  let cell =
    Structural.Smem ((Netlist.find_mem nl "pub0.mem").Netlist.md_mem, 0)
  in
  Alcotest.(check bool) "memory cell persistent" true
    (Upec.Spec.is_pers spec cell);
  (* memory-only model (cells must come from that spec's own netlist) *)
  let spec_m = spec_of ~pers:Upec.Spec.Memory_only Upec.Spec.Vulnerable in
  let nl_m = spec_m.Upec.Spec.soc.Soc.Builder.netlist in
  let cnt_m =
    Structural.Sreg (Netlist.find_reg nl_m "hwpe.cnt").Netlist.rd_signal
  in
  let cell_m =
    Structural.Smem ((Netlist.find_mem nl_m "pub0.mem").Netlist.md_mem, 0)
  in
  Alcotest.(check bool) "hwpe.cnt not pers in memory-only" false
    (Upec.Spec.is_pers spec_m cnt_m);
  Alcotest.(check bool) "cell pers in memory-only" true
    (Upec.Spec.is_pers spec_m cell_m)

let test_victim_cell_guard () =
  let spec = spec_of Upec.Spec.Vulnerable in
  let nl = spec.Upec.Spec.soc.Soc.Builder.netlist in
  let cell i =
    Structural.Smem ((Netlist.find_mem nl "pub0.mem").Netlist.md_mem, i)
  in
  (match Upec.Spec.victim_cell_guard spec (cell 0) with
  | Some _ -> ()
  | None -> Alcotest.fail "cells must have a guard");
  let reg =
    Structural.Sreg (Netlist.find_reg nl "hwpe.cnt").Netlist.rd_signal
  in
  Alcotest.(check bool) "registers have no guard" true
    (Upec.Spec.victim_cell_guard spec reg = None)

(* ---- macro semantics (Fig. 3) ---- *)

(* Is the conjunction of [lits] reachable? [Unknown] never reads as
   proved: these engines set no budget or interrupt, so one fails the
   test. *)
let reachable eng lits =
  match Ipc.Engine.decide eng (Ipc.Engine.Violation lits) with
  | Ipc.Engine.Refuted _ -> true
  | Ipc.Engine.Proved -> false
  | Ipc.Engine.Unknown r -> Alcotest.fail ("undecided: " ^ r)

let fresh_engine spec =
  let eng =
    Ipc.Engine.create ~two_instance:true spec.Upec.Spec.soc.Soc.Builder.netlist
  in
  Ipc.Engine.ensure_frames eng 1;
  Upec.Macros.assume_env eng spec ~frames:1;
  Upec.Macros.victim_task_executing eng spec ~frame:0;
  eng

let addr_sig spec =
  List.find
    (fun (s : Expr.signal) -> s.Expr.s_name = "victim.addr")
    spec.Upec.Spec.soc.Soc.Builder.netlist.Netlist.inputs

let test_macro_nonprotected_equal () =
  (* with the victim macro assumed, the two instances cannot disagree on
     a non-protected address *)
  let spec = spec_of Upec.Spec.Vulnerable in
  let eng = fresh_engine spec in
  let u = Ipc.Engine.unroller eng in
  let s = addr_sig spec in
  let addr_neq =
    Aig.lit_not (Ipc.Unroller.inputs_equal_lit u ~frame:0 s)
  in
  let prot =
    (Ipc.Unroller.blast_at u Ipc.Unroller.A ~frame:0
       (Upec.Spec.in_range spec (Expr.input s))).(0)
  in
  (* satisfiable: differing protected addresses *)
  Alcotest.(check bool) "protected addresses may differ" true
    (reachable eng [ addr_neq; prot ]);
  (* unsatisfiable: differing non-protected addresses *)
  Alcotest.(check bool) "non-protected addresses cannot differ" true
    (not (reachable eng [ addr_neq; Aig.lit_not prot ]))

let test_macro_req_we_equal () =
  let spec = spec_of Upec.Spec.Vulnerable in
  let eng = fresh_engine spec in
  let u = Ipc.Engine.unroller eng in
  let req =
    List.find
      (fun (s : Expr.signal) -> s.Expr.s_name = "victim.req")
      spec.Upec.Spec.soc.Soc.Builder.netlist.Netlist.inputs
  in
  let req_neq = Aig.lit_not (Ipc.Unroller.inputs_equal_lit u ~frame:0 req) in
  Alcotest.(check bool) "request presence is not confidential" true
    (not (reachable eng [ req_neq ]))

let test_macro_threat_model_disjoint () =
  (* the spying IPs' configured ranges cannot overlap the protected
     range under the assumed environment *)
  let spec = spec_of Upec.Spec.Vulnerable in
  let eng = fresh_engine spec in
  let u = Ipc.Engine.unroller eng in
  let dma = Option.get spec.Upec.Spec.soc.Soc.Builder.dma in
  (* dma.src itself inside the victim range *)
  let src_in_range =
    (Ipc.Unroller.blast_at u Ipc.Unroller.A ~frame:0
       (Upec.Spec.in_range spec (Soc.Dma.src_reg dma))).(0)
  in
  (* only reachable when len = 0 (an empty range is disjoint) *)
  let len_nonzero =
    (Ipc.Unroller.blast_at u Ipc.Unroller.A ~frame:0
       Expr.(
         Soc.Dma.len_reg dma
         <>: zero spec.Upec.Spec.soc.Soc.Builder.soc_cfg.Soc.Config.addr_width)).(0)
  in
  Alcotest.(check bool) "active dma src outside protected range" true
    (not (reachable eng [ src_in_range; len_nonzero ]))

(* ---- invariants ---- *)

let test_invariants_sound_vulnerable () =
  let spec = spec_of Upec.Spec.Vulnerable in
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) ("base: " ^ name) true ok)
    (Upec.Invariant.check_base spec);
  List.iter
    (fun (name, ok) -> Alcotest.(check bool) ("step: " ^ name) true ok)
    (Upec.Invariant.check_inductive spec)

let test_invariants_sound_secure () =
  let spec = spec_of Upec.Spec.Secure in
  Alcotest.(check bool) "all sound" true (Upec.Invariant.all_sound spec)

let test_secure_has_more_invariants () =
  let v = List.length (Upec.Spec.invariants (spec_of Upec.Spec.Vulnerable)) in
  let s = List.length (Upec.Spec.invariants (spec_of Upec.Spec.Secure)) in
  Alcotest.(check bool) "secure adds private-xbar invariants" true (s > v)

(* ---- Algorithm 1 ---- *)

let test_alg1_vulnerable () =
  let spec = spec_of Upec.Spec.Vulnerable in
  let report = Upec.Alg1.run_with alg1_fresh spec in
  Alcotest.(check bool) "vulnerable" true (Upec.Report.is_vulnerable report);
  match report.Upec.Report.verdict with
  | Upec.Report.Vulnerable { s_cex; cex } ->
      let pers_hits =
        Structural.Svar_set.filter (Upec.Spec.is_pers spec) s_cex
      in
      Alcotest.(check bool) "persistent state reached" true
        (not (Structural.Svar_set.is_empty pers_hits));
      (* the confidential difference must come from protected accesses *)
      let base = Bitvec.to_int (Ipc.Cex.param_value_by_name cex "victim_base") in
      let limit =
        Bitvec.to_int (Ipc.Cex.param_value_by_name cex "victim_limit")
      in
      Alcotest.(check bool) "well-formed range" true (base <= limit)
  | _ -> Alcotest.fail "expected vulnerable"

let test_alg1_secure () =
  let spec = spec_of Upec.Spec.Secure in
  let report = Upec.Alg1.run_with alg1_fresh spec in
  Alcotest.(check bool) "secure" true (Upec.Report.is_secure report);
  Alcotest.(check bool) "took multiple iterations" true
    (Upec.Report.iterations report > 1);
  match report.Upec.Report.verdict with
  | Upec.Report.Secure { s_final } ->
      (* S_pers ⊂ S_final: no persistent state was ever removed *)
      let pers =
        Structural.Svar_set.filter (Upec.Spec.is_pers spec)
          (Upec.Spec.s_neg_victim spec)
      in
      Alcotest.(check bool) "S_pers subset of final S" true
        (Structural.Svar_set.subset pers s_final);
      (* only interconnect-class state may have been removed *)
      let removed =
        Structural.Svar_set.diff (Upec.Spec.s_neg_victim spec) s_final
      in
      Structural.Svar_set.iter
        (fun sv ->
          Alcotest.(check bool)
            (Structural.svar_name sv ^ " removed is interconnect")
            true
            (Soc.Builder.is_interconnect spec.Upec.Spec.soc sv))
        removed
  | _ -> Alcotest.fail "expected secure"

let test_alg1_no_spies_secure_even_without_countermeasure () =
  (* control experiment: with no DMA and no HWPE there is no spying IP,
     and the baseline SoC is already secure w.r.t. the threat model *)
  let cfg = { tiny with Soc.Config.with_dma = false; with_hwpe = false } in
  let report =
    Upec.Alg1.run_with alg1_fresh (spec_of ~cfg Upec.Spec.Vulnerable)
  in
  Alcotest.(check bool) "secure without spying IPs" true
    (Upec.Report.is_secure report)

let test_alg1_fixed_priority_also_vulnerable () =
  let cfg = { tiny with Soc.Config.arbiter = `Fixed_priority } in
  let report =
    Upec.Alg1.run_with alg1_fresh (spec_of ~cfg Upec.Spec.Vulnerable)
  in
  Alcotest.(check bool) "vulnerable under fixed priority" true
    (Upec.Report.is_vulnerable report)

let test_alg1_fixed_priority_secure_proof () =
  let cfg = { tiny with Soc.Config.arbiter = `Fixed_priority } in
  let report =
    Upec.Alg1.run_with alg1_fresh (spec_of ~cfg Upec.Spec.Secure)
  in
  Alcotest.(check bool) "countermeasure holds under fixed priority" true
    (Upec.Report.is_secure report)

let test_incremental_agrees () =
  (* the incremental engine must reach the same verdicts and the same
     fixed point as the per-check engine *)
  let warm = { alg1_fresh with O.incremental = true } in
  let spec_v = spec_of Upec.Spec.Vulnerable in
  let rv = Upec.Alg1.run_with warm spec_v in
  Alcotest.(check bool) "vulnerable (incremental)" true
    (Upec.Report.is_vulnerable rv);
  let spec_s = spec_of Upec.Spec.Secure in
  let plain = Upec.Alg1.run_with alg1_fresh spec_s in
  let inc = Upec.Alg1.run_with warm spec_s in
  (match (plain.Upec.Report.verdict, inc.Upec.Report.verdict) with
  | Upec.Report.Secure { s_final = a }, Upec.Report.Secure { s_final = b } ->
      Alcotest.(check bool) "same fixed point" true
        (Structural.Svar_set.equal a b)
  | _ -> Alcotest.fail "both engines must prove the secured SoC")

let test_tdma_contention_free_is_secure () =
  (* the Sec. 6 future-work direction: a contention-free TDMA
     interconnect closes the channel class without remapping the
     victim's memory — proven with the *baseline* policy assumptions *)
  let cfg = { tiny with Soc.Config.arbiter = `Tdma } in
  let spec = spec_of ~cfg Upec.Spec.Vulnerable in
  Alcotest.(check bool) "tdma invariants sound" true
    (Upec.Invariant.all_sound spec);
  let report = Upec.Alg1.run_with alg1_fresh spec in
  Alcotest.(check bool) "secure without the memory countermeasure" true
    (Upec.Report.is_secure report)

let test_bmc_from_reset_misses () =
  (* E9: with a concrete reset start the same property detects nothing —
     the preparation phase lives in the symbolic starting state *)
  let spec = spec_of Upec.Spec.Vulnerable in
  let report, outcome =
    Upec.Alg2.run_with
      { alg2_fresh with O.max_k = 3; reset_start = true }
      spec
  in
  (match outcome with
  | Upec.Alg2.Found_vulnerable ->
      Alcotest.fail "BMC from reset cannot see the attack"
  | Upec.Alg2.Hold _ | Upec.Alg2.Gave_up -> ());
  Alcotest.(check bool) "reported without inductive claim" true
    (match report.Upec.Report.verdict with
    | Upec.Report.Inconclusive _ -> true
    | Upec.Report.Secure _ | Upec.Report.Vulnerable _ -> false)

(* ---- Algorithm 2 ---- *)

let test_alg2_hwpe_memory_variant () =
  (* the Sec. 4.1 scenario: accelerator + memory, no timer required;
     S_pers restricted to memory cells (footprint retrieval) and the DMA
     removed to isolate the HWPE channel *)
  let cfg = { tiny with Soc.Config.with_dma = false } in
  let spec = spec_of ~cfg ~pers:Upec.Spec.Memory_only Upec.Spec.Vulnerable in
  let report, outcome = Upec.Alg2.run_with alg2_fresh spec in
  Alcotest.(check bool) "vulnerable" true (outcome = Upec.Alg2.Found_vulnerable);
  match report.Upec.Report.verdict with
  | Upec.Report.Vulnerable { s_cex; cex } ->
      (* the retrieval vehicle is a public memory cell outside the
         protected range *)
      let is_pub_cell sv =
        match sv with
        | Structural.Smem (m, _) ->
            List.exists
              (Expr.mems_equal m)
              spec.Upec.Spec.soc.Soc.Builder.pub_mems
        | Structural.Sreg _ -> false
      in
      Alcotest.(check bool) "footprint in public memory" true
        (Structural.Svar_set.exists is_pub_cell s_cex);
      Structural.Svar_set.iter
        (fun sv ->
          Alcotest.(check bool)
            (Structural.svar_name sv ^ " outside protected range")
            false
            (Upec.Macros.cell_guard_concrete spec cex sv))
        s_cex
  | _ -> Alcotest.fail "expected vulnerable"

let test_alg2_reports_hwpe_progress () =
  (* the counterexample should show diverging HWPE progress *)
  let cfg = { tiny with Soc.Config.with_dma = false } in
  let spec = spec_of ~cfg ~pers:Upec.Spec.Memory_only Upec.Spec.Vulnerable in
  let report, _ = Upec.Alg2.run_with alg2_fresh spec in
  match report.Upec.Report.verdict with
  | Upec.Report.Vulnerable { cex; _ } ->
      let nl = spec.Upec.Spec.soc.Soc.Builder.netlist in
      let cnt =
        Structural.Sreg (Netlist.find_reg nl "hwpe.cnt").Netlist.rd_signal
      in
      let k = Ipc.Cex.frames cex in
      let any_progress_diff =
        List.exists
          (fun f ->
            not
              (Bitvec.equal
                 (Ipc.Cex.svar_value cex Ipc.Unroller.A ~frame:f cnt)
                 (Ipc.Cex.svar_value cex Ipc.Unroller.B ~frame:f cnt)))
          (List.init (k + 1) Fun.id)
      in
      Alcotest.(check bool) "hwpe progress differs somewhere" true
        any_progress_diff
  | _ -> Alcotest.fail "expected vulnerable"

let test_alg1_memory_only_secure () =
  let spec = spec_of ~pers:Upec.Spec.Memory_only Upec.Spec.Secure in
  let report = Upec.Alg1.run_with alg1_fresh spec in
  Alcotest.(check bool) "secure in memory-only model too" true
    (Upec.Report.is_secure report)

let test_report_printing () =
  let report = Upec.Alg1.run_with alg1_fresh (spec_of Upec.Spec.Vulnerable) in
  let s = Format.asprintf "%a" Upec.Report.pp report in
  let contains needle =
    let nh = String.length s and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub s i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "mentions VULNERABLE" true (contains "VULNERABLE");
  Alcotest.(check bool) "mentions iterations table" true (contains "|S|");
  let summary = Format.asprintf "%a" Upec.Report.pp_summary report in
  Alcotest.(check bool) "summary nonempty" true (String.length summary > 10)

let () =
  Alcotest.run "upec"
    [
      ( "spec",
        [
          Alcotest.test_case "S_neg_victim" `Quick test_s_neg_victim_covers_all;
          Alcotest.test_case "S_pers classification" `Quick
            test_pers_classification;
          Alcotest.test_case "victim cell guards" `Quick test_victim_cell_guard;
        ] );
      ( "macros",
        [
          Alcotest.test_case "protected vs non-protected accesses" `Quick
            test_macro_nonprotected_equal;
          Alcotest.test_case "request shape equal" `Quick
            test_macro_req_we_equal;
          Alcotest.test_case "threat-model disjointness" `Quick
            test_macro_threat_model_disjoint;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "sound on baseline" `Quick
            test_invariants_sound_vulnerable;
          Alcotest.test_case "sound on secured" `Quick
            test_invariants_sound_secure;
          Alcotest.test_case "countermeasure adds invariants" `Quick
            test_secure_has_more_invariants;
        ] );
      ( "alg1",
        [
          Alcotest.test_case "detects vulnerability" `Quick test_alg1_vulnerable;
          Alcotest.test_case "proves countermeasure secure" `Slow
            test_alg1_secure;
          Alcotest.test_case "no spies, no vulnerability" `Slow
            test_alg1_no_spies_secure_even_without_countermeasure;
          Alcotest.test_case "fixed-priority also vulnerable" `Quick
            test_alg1_fixed_priority_also_vulnerable;
          Alcotest.test_case "fixed-priority secure proof" `Slow
            test_alg1_fixed_priority_secure_proof;
          Alcotest.test_case "memory-only secure proof" `Slow
            test_alg1_memory_only_secure;
          Alcotest.test_case "incremental engine agrees" `Slow
            test_incremental_agrees;
          Alcotest.test_case "tdma interconnect secure" `Slow
            test_tdma_contention_free_is_secure;
        ] );
      ( "alg2",
        [
          Alcotest.test_case "hwpe+memory variant detected" `Quick
            test_alg2_hwpe_memory_variant;
          Alcotest.test_case "hwpe progress in cex" `Quick
            test_alg2_reports_hwpe_progress;
          Alcotest.test_case "bmc from reset misses" `Slow
            test_bmc_from_reset_misses;
        ] );
      ( "report",
        [ Alcotest.test_case "printing" `Quick test_report_printing ] );
    ]
