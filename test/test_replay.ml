(* Cross-validation of the formal stack: every counterexample produced
   by the UPEC-SSC procedures must replay exactly on the concrete
   simulator. A divergence would mean the bit-blaster, the unroller or
   the model extraction disagree with the RTL semantics. *)

open Rtl

let tiny = Soc.Config.formal_tiny

let spec_of ?(cfg = tiny) ?(pers = Upec.Spec.Full_pers) variant =
  let soc = Soc.Builder.build cfg Soc.Builder.Formal in
  Upec.Spec.make ~pers_model:pers soc variant

module O = Upec.Options

(* a fresh solver session per check; Alg. 1 capped at 64 iterations *)
let alg1_fresh = { O.default with O.incremental = false; max_iterations = 64 }
let alg2_fresh = { O.default with O.incremental = false }

let get_cex report =
  match report.Upec.Report.verdict with
  | Upec.Report.Vulnerable { cex; _ } -> cex
  | Upec.Report.Secure _ | Upec.Report.Inconclusive _ ->
      Alcotest.fail "expected a vulnerable verdict with a counterexample"

let check_replays spec report =
  let nl = spec.Upec.Spec.soc.Soc.Builder.netlist in
  let cex = get_cex report in
  let mismatches = Upec.Replay.replay nl cex in
  List.iter
    (fun mm ->
      Format.eprintf "mismatch: %a@." Upec.Replay.pp_mismatch mm)
    mismatches;
  Alcotest.(check int) "no simulator mismatches" 0 (List.length mismatches)

let test_alg1_cex_replays () =
  let spec = spec_of Upec.Spec.Vulnerable in
  check_replays spec (Upec.Alg1.run_with alg1_fresh spec)

let test_alg2_cex_replays () =
  let cfg = { tiny with Soc.Config.with_dma = false } in
  let spec = spec_of ~cfg ~pers:Upec.Spec.Memory_only Upec.Spec.Vulnerable in
  let report, _ = Upec.Alg2.run_with alg2_fresh spec in
  check_replays spec report

let test_fixed_priority_cex_replays () =
  let cfg = { tiny with Soc.Config.arbiter = `Fixed_priority } in
  let spec = spec_of ~cfg Upec.Spec.Vulnerable in
  check_replays spec (Upec.Alg1.run_with alg1_fresh spec)

let test_single_instance_cex_replays () =
  (* a plain (non-relational) IPC counterexample also replays *)
  let open Netlist.Builder in
  let b = create "ctr" in
  let en = input b "en" 1 in
  let c = reg b "c" 8 in
  set_next b c (Expr.mux en Expr.(c +: one 8) c);
  let nl = finalize b in
  let eng = Ipc.Engine.create ~two_instance:false nl in
  Ipc.Engine.ensure_frames eng 3;
  let u = Ipc.Engine.unroller eng in
  let g = Ipc.Engine.graph eng in
  let c3 =
    Ipc.Unroller.reg_vec u Ipc.Unroller.A ~frame:3
      (Netlist.find_reg nl "c").Netlist.rd_signal
  in
  (* claim: c(3) != 77 — must fail; the cex must replay *)
  let goal =
    Aig.lit_not
      (Bitblast.Blaster.v_eq g c3
         (Bitblast.Blaster.const_vec (Bitvec.of_int ~width:8 77)))
  in
  match Ipc.Engine.decide eng (Ipc.Engine.Goal goal) with
  | Ipc.Engine.Proved -> Alcotest.fail "expected cex"
  | Ipc.Engine.Unknown r -> Alcotest.fail ("undecided: " ^ r)
  | Ipc.Engine.Refuted cex ->
      Alcotest.(check bool) "replays" true
        (Upec.Replay.check nl (Option.get cex))

let () =
  Alcotest.run "replay"
    [
      ( "cex-vs-simulator",
        [
          Alcotest.test_case "alg1 counterexample" `Quick test_alg1_cex_replays;
          Alcotest.test_case "alg2 counterexample" `Quick test_alg2_cex_replays;
          Alcotest.test_case "fixed-priority counterexample" `Quick
            test_fixed_priority_cex_replays;
          Alcotest.test_case "single-instance counterexample" `Quick
            test_single_instance_cex_replays;
        ] );
    ]
