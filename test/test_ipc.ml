(* Tests for the IPC engine: unrolling with a symbolic starting state,
   single- and two-instance checks, counterexample extraction. *)

open Rtl
module Unroller = Ipc.Unroller

let bv w v = Bitvec.of_int ~width:w v

let build_counter () =
  let open Netlist.Builder in
  let b = create "counter" in
  let enable = input b "enable" 1 in
  let count = reg b "count" 8 in
  set_next b count (Expr.mux enable Expr.(count +: one 8) count);
  finalize b

(* A tiny "leaky" design: a spy register copies the secret input when
   armed. *)
let build_spy () =
  let open Netlist.Builder in
  let b = create "spy" in
  let secret = input b "secret" 4 in
  let armed = input b "armed" 1 in
  let spy = reg b "spy.value" 4 in
  let innocuous = reg b "other.value" 4 in
  set_next b spy (Expr.mux armed secret spy);
  ignore innocuous;
  finalize b

let find_count nl = (Netlist.find_reg nl "count").Netlist.rd_signal

(* An [Unknown] verdict never reads as proved: these engines set no
   budget or interrupt, so one fails the test. *)
let undecided reason = Alcotest.fail ("undecided: " ^ reason)

(* ---- single-instance checks ---- *)

let test_increment_holds () =
  (* With enable held 1, count(1) = count(0) + 1 for *any* start state. *)
  let nl = build_counter () in
  let eng = Ipc.Engine.create ~two_instance:false nl in
  Ipc.Engine.ensure_frames eng 1;
  let u = Ipc.Engine.unroller eng in
  let g = Ipc.Engine.graph eng in
  let en = Unroller.input_vec u Unroller.A ~frame:0 (List.hd nl.Netlist.inputs) in
  Ipc.Engine.assume eng en.(0);
  let c0 = Unroller.reg_vec u Unroller.A ~frame:0 (find_count nl) in
  let c1 = Unroller.reg_vec u Unroller.A ~frame:1 (find_count nl) in
  let inc = Bitblast.Blaster.v_add g c0 (Bitblast.Blaster.const_vec (bv 8 1)) in
  let goal = Bitblast.Blaster.v_eq g c1 inc in
  (match Ipc.Engine.decide eng (Ipc.Engine.Goal goal) with
  | Ipc.Engine.Proved -> ()
  | Ipc.Engine.Refuted _ -> Alcotest.fail "increment property should hold"
  | Ipc.Engine.Unknown r -> undecided r)

let test_symbolic_start_cex () =
  (* "count(1) != 5" must fail: the symbolic start state can pick 4. *)
  let nl = build_counter () in
  let eng = Ipc.Engine.create ~two_instance:false nl in
  Ipc.Engine.ensure_frames eng 1;
  let u = Ipc.Engine.unroller eng in
  let g = Ipc.Engine.graph eng in
  let en = Unroller.input_vec u Unroller.A ~frame:0 (List.hd nl.Netlist.inputs) in
  Ipc.Engine.assume eng en.(0);
  let c1 = Unroller.reg_vec u Unroller.A ~frame:1 (find_count nl) in
  let goal = Aig.lit_not (Bitblast.Blaster.v_eq g c1 (Bitblast.Blaster.const_vec (bv 8 5))) in
  match Ipc.Engine.decide eng (Ipc.Engine.Goal goal) with
  | Ipc.Engine.Proved -> Alcotest.fail "should find a counterexample"
  | Ipc.Engine.Unknown r -> undecided r
  | Ipc.Engine.Refuted cex ->
      let cex = Option.get cex in
      let sv = Structural.Sreg (find_count nl) in
      let v0 = Ipc.Cex.svar_value cex Unroller.A ~frame:0 sv in
      let v1 = Ipc.Cex.svar_value cex Unroller.A ~frame:1 sv in
      Alcotest.(check int) "start state chosen as 4" 4 (Bitvec.to_int v0);
      Alcotest.(check int) "end state is 5" 5 (Bitvec.to_int v1)

let test_multi_frame_unroll () =
  (* count(3) = count(0) + 3 under enable *)
  let nl = build_counter () in
  let eng = Ipc.Engine.create ~two_instance:false nl in
  Ipc.Engine.ensure_frames eng 3;
  let u = Ipc.Engine.unroller eng in
  let g = Ipc.Engine.graph eng in
  for f = 0 to 2 do
    let en =
      Unroller.input_vec u Unroller.A ~frame:f (List.hd nl.Netlist.inputs)
    in
    Ipc.Engine.assume eng en.(0)
  done;
  let c0 = Unroller.reg_vec u Unroller.A ~frame:0 (find_count nl) in
  let c3 = Unroller.reg_vec u Unroller.A ~frame:3 (find_count nl) in
  let plus3 = Bitblast.Blaster.v_add g c0 (Bitblast.Blaster.const_vec (bv 8 3)) in
  let goal = Bitblast.Blaster.v_eq g c3 plus3 in
  (match Ipc.Engine.decide eng (Ipc.Engine.Goal goal) with
  | Ipc.Engine.Proved -> ()
  | Ipc.Engine.Refuted _ -> Alcotest.fail "k=3 unrolling should hold"
  | Ipc.Engine.Unknown r -> undecided r)

let test_pre_encode_incremental () =
  (* the pre-encoding keeps a high-water mark: re-encoding the same
     frames allocates no new SAT variables; new frames do *)
  let nl = build_counter () in
  let eng = Ipc.Engine.create ~two_instance:false nl in
  Ipc.Engine.ensure_frames eng 1;
  Ipc.Engine.pre_encode eng;
  let n1 = Ipc.Engine.sat_vars eng in
  Alcotest.(check bool) "some vars encoded" true (n1 > 0);
  Ipc.Engine.pre_encode eng;
  Alcotest.(check int) "repeat allocates nothing" n1 (Ipc.Engine.sat_vars eng);
  Ipc.Engine.ensure_frames eng 2;
  Ipc.Engine.pre_encode eng;
  let n2 = Ipc.Engine.sat_vars eng in
  Alcotest.(check bool) "new frame allocates" true (n2 > n1);
  Ipc.Engine.pre_encode eng;
  Alcotest.(check int) "repeat after growth allocates nothing" n2
    (Ipc.Engine.sat_vars eng)

(* ---- two-instance checks ---- *)

let secret_sig nl = List.hd nl.Netlist.inputs
let armed_sig nl = List.nth nl.Netlist.inputs 1

let test_two_safety_leak_detected () =
  let nl = build_spy () in
  let eng = Ipc.Engine.create ~two_instance:true nl in
  Ipc.Engine.ensure_frames eng 1;
  let u = Ipc.Engine.unroller eng in
  (* assume: all state equal at cycle 0; the armed input equal; the
     secret input unconstrained (may differ) *)
  Structural.Svar_set.iter
    (fun sv -> Ipc.Engine.assume eng (Unroller.svar_equal_lit u ~frame:0 sv))
    (Structural.all_svars nl);
  Ipc.Engine.assume eng (Unroller.inputs_equal_lit u ~frame:0 (armed_sig nl));
  (* prove: spy.value equal at cycle 1 — must FAIL *)
  let spy_sv = Structural.Sreg (Netlist.find_reg nl "spy.value").Netlist.rd_signal in
  let goal = Unroller.svar_equal_lit u ~frame:1 spy_sv in
  match Ipc.Engine.decide eng (Ipc.Engine.Goal goal) with
  | Ipc.Engine.Proved -> Alcotest.fail "leak must be detected"
  | Ipc.Engine.Unknown r -> undecided r
  | Ipc.Engine.Refuted cex ->
      let cex = Option.get cex in
      let diffs = Ipc.Cex.diff_svars cex ~frame:1 in
      Alcotest.(check bool) "spy.value differs" true
        (Structural.Svar_set.mem spy_sv diffs);
      (* the cex must arm the spy and choose different secrets *)
      let armed = Ipc.Cex.input_value cex Unroller.A ~frame:0 (armed_sig nl) in
      Alcotest.(check int) "armed" 1 (Bitvec.to_int armed);
      let sa = Ipc.Cex.input_value cex Unroller.A ~frame:0 (secret_sig nl) in
      let sb = Ipc.Cex.input_value cex Unroller.B ~frame:0 (secret_sig nl) in
      Alcotest.(check bool) "secrets differ" false (Bitvec.equal sa sb)

let test_two_safety_noleak_when_disarmed () =
  let nl = build_spy () in
  let eng = Ipc.Engine.create ~two_instance:true nl in
  Ipc.Engine.ensure_frames eng 1;
  let u = Ipc.Engine.unroller eng in
  Structural.Svar_set.iter
    (fun sv -> Ipc.Engine.assume eng (Unroller.svar_equal_lit u ~frame:0 sv))
    (Structural.all_svars nl);
  (* disarm both instances *)
  let armed_a = Unroller.input_vec u Unroller.A ~frame:0 (armed_sig nl) in
  let armed_b = Unroller.input_vec u Unroller.B ~frame:0 (armed_sig nl) in
  Ipc.Engine.assume eng (Aig.lit_not armed_a.(0));
  Ipc.Engine.assume eng (Aig.lit_not armed_b.(0));
  let spy_sv = Structural.Sreg (Netlist.find_reg nl "spy.value").Netlist.rd_signal in
  let goal = Unroller.svar_equal_lit u ~frame:1 spy_sv in
  match Ipc.Engine.decide eng (Ipc.Engine.Goal goal) with
  | Ipc.Engine.Proved -> ()
  | Ipc.Engine.Refuted _ -> Alcotest.fail "disarmed spy cannot leak"
  | Ipc.Engine.Unknown r -> undecided r

let test_param_shared_between_instances () =
  (* A design whose register loads a param: both instances must load the
     same value, so equality holds without constraining state. *)
  let open Netlist.Builder in
  let b = create "paramtest" in
  let base = param b "layout_base" 8 in
  let r = reg b "r" 8 in
  set_next b r base;
  let nl = finalize b in
  let eng = Ipc.Engine.create ~two_instance:true nl in
  Ipc.Engine.ensure_frames eng 1;
  let u = Ipc.Engine.unroller eng in
  let r_sv = Structural.Sreg (Netlist.find_reg nl "r").Netlist.rd_signal in
  let goal = Unroller.svar_equal_lit u ~frame:1 r_sv in
  match Ipc.Engine.decide eng (Ipc.Engine.Goal goal) with
  | Ipc.Engine.Proved -> ()
  | Ipc.Engine.Refuted _ -> Alcotest.fail "shared param must equalise instances"
  | Ipc.Engine.Unknown r -> undecided r

(* ---- cycle-0 sharing ---- *)

(* [a] holds, [b] follows [a], [c] loads an input; [m] holds two
   words *)
let build_shared () =
  let open Netlist.Builder in
  let b = create "sharing" in
  let x = input b "x" 4 in
  let ra = reg b "a" 4 in
  let rb = reg b "b" 4 in
  let rc = reg b "c" 4 in
  set_next b rb Expr.(ra +: one 4);
  set_next b rc x;
  ignore (mem b "m" ~addr_width:1 ~data_width:4 ~depth:2);
  finalize b

let test_share_cycle0 () =
  let nl = build_shared () in
  let sreg n = Structural.Sreg (Netlist.find_reg nl n).Netlist.rd_signal in
  let m = (Netlist.find_mem nl "m").Netlist.md_mem in
  let shared = [ sreg "a"; Structural.Smem (m, 0) ] in
  let u =
    Unroller.create
      ~share:(fun sv -> List.exists (Structural.equal_svar sv) shared)
      (Aig.create ()) nl ~two_instance:true
  in
  Unroller.ensure_frames u 1;
  let same sv =
    Unroller.svar_vec u Unroller.A ~frame:0 sv
    = Unroller.svar_vec u Unroller.B ~frame:0 sv
  in
  List.iter
    (fun (sv, expect) ->
      Alcotest.(check bool)
        (Structural.svar_name sv ^ ": B's cycle-0 vector is A's")
        expect (same sv))
    [
      (sreg "a", true);
      (Structural.Smem (m, 0), true);
      (sreg "b", false);
      (sreg "c", false);
      (Structural.Smem (m, 1), false);
    ];
  let equal_at_1 n = Unroller.svar_equal_lit u ~frame:1 (sreg n) in
  Alcotest.(check bool)
    "b reads only shared state: equal at cycle 1" true
    (equal_at_1 "b" = Aig.true_lit);
  Alcotest.(check bool)
    "c reads an input: not folded" false
    (Aig.is_const (equal_at_1 "c"))

(* A victim-range memory cell's cycle-0 condition is guard or equality,
   so it is never shared, even when its set says so. *)
let test_share_guarded_cells () =
  let soc = Soc.Builder.build Soc.Config.formal_tiny Soc.Builder.Formal in
  let spec = Upec.Spec.make soc Upec.Spec.Secure in
  let s = Structural.all_svars soc.Soc.Builder.netlist in
  let guarded, plain =
    Structural.Svar_set.partition
      (fun sv -> Upec.Spec.victim_cell_guard spec sv <> None)
      s
  in
  Alcotest.(check bool) "the design has guarded cells" false
    (Structural.Svar_set.is_empty guarded);
  Structural.Svar_set.iter
    (fun sv ->
      Alcotest.(check bool)
        (Structural.svar_name sv ^ " is never shared")
        false
        (Upec.Macros.cycle0_shared spec s sv))
    guarded;
  Structural.Svar_set.iter
    (fun sv ->
      Alcotest.(check bool)
        (Structural.svar_name sv ^ " is shared in its set")
        true
        (Upec.Macros.cycle0_shared spec s sv);
      Alcotest.(check bool)
        (Structural.svar_name sv ^ " is not shared outside it")
        false
        (Upec.Macros.cycle0_shared spec Structural.Svar_set.empty sv))
    plain

let test_cex_pp_smoke () =
  let nl = build_spy () in
  let eng = Ipc.Engine.create ~two_instance:true nl in
  Ipc.Engine.ensure_frames eng 1;
  let u = Ipc.Engine.unroller eng in
  Structural.Svar_set.iter
    (fun sv -> Ipc.Engine.assume eng (Unroller.svar_equal_lit u ~frame:0 sv))
    (Structural.all_svars nl);
  let spy_sv = Structural.Sreg (Netlist.find_reg nl "spy.value").Netlist.rd_signal in
  let goal = Unroller.svar_equal_lit u ~frame:1 spy_sv in
  match Ipc.Engine.decide eng (Ipc.Engine.Goal goal) with
  | Ipc.Engine.Proved -> Alcotest.fail "expected cex"
  | Ipc.Engine.Unknown r -> undecided r
  | Ipc.Engine.Refuted cex ->
      let cex = Option.get cex in
      let s = Format.asprintf "%a" Ipc.Cex.pp cex in
      Alcotest.(check bool) "mentions spy.value" true
        (let rec contains i =
           i + 9 <= String.length s
           && (String.sub s i 9 = "spy.value" || contains (i + 1))
         in
         contains 0)

(* qcheck: unrolled frames agree with the simulator on concrete runs *)
let qcheck_unroller_matches_sim =
  QCheck.Test.make ~count:50 ~name:"unroller transition matches simulator"
    QCheck.(pair (int_range 0 255) (list_of_size Gen.(int_range 1 4) bool))
    (fun (start, enables) ->
      let nl = build_counter () in
      let k = List.length enables in
      (* simulator run *)
      let eng_sim = Sim.Engine.create nl in
      Sim.Engine.poke_reg eng_sim "count" (bv 8 start);
      List.iter
        (fun en ->
          Sim.Engine.set_input_int eng_sim "enable" (if en then 1 else 0);
          Sim.Engine.step eng_sim)
        enables;
      let expected = Bitvec.to_int (Sim.Engine.reg_value eng_sim "count") in
      (* symbolic run pinned to the same start state and inputs *)
      let eng = Ipc.Engine.create ~two_instance:false nl in
      Ipc.Engine.ensure_frames eng k;
      let u = Ipc.Engine.unroller eng in
      let g = Ipc.Engine.graph eng in
      let c0 = Unroller.reg_vec u Unroller.A ~frame:0 (find_count nl) in
      Ipc.Engine.assume eng
        (Bitblast.Blaster.v_eq g c0 (Bitblast.Blaster.const_vec (bv 8 start)));
      List.iteri
        (fun f en ->
          let env =
            Unroller.input_vec u Unroller.A ~frame:f (List.hd nl.Netlist.inputs)
          in
          Ipc.Engine.assume eng
            (if en then env.(0) else Aig.lit_not env.(0)))
        enables;
      let ck = Unroller.reg_vec u Unroller.A ~frame:k (find_count nl) in
      let goal =
        Bitblast.Blaster.v_eq g ck (Bitblast.Blaster.const_vec (bv 8 expected))
      in
      match Ipc.Engine.decide eng (Ipc.Engine.Goal goal) with
      | Ipc.Engine.Proved -> true
      | Ipc.Engine.Refuted _ -> false
      | Ipc.Engine.Unknown r -> undecided r)

(* qcheck: random small netlists — pin the symbolic start state and the
   inputs to concrete values; every register of every frame must then be
   forced to exactly the simulator's trajectory *)
let gen_netlist rs =
  let open Netlist.Builder in
  let b = create "rand" in
  let in0 = input b "in0" 4 in
  let in1 = input b "in1" 1 in
  let r0 = reg b "r0" 4 in
  let r1 = reg b "r1" 4 in
  let r2 = reg b "r2" 8 in
  let leaves4 = [| r0; r1; Expr.uresize r2 4; in0 |] in
  let rec gen depth w =
    if depth = 0 then
      if Random.State.bool rs then
        Expr.uresize leaves4.(Random.State.int rs 4) w
      else Expr.of_int ~width:w (Random.State.int rs (1 lsl min w 8))
    else
      let sub w = gen (depth - 1) w in
      match Random.State.int rs 8 with
      | 0 -> Expr.(sub w +: sub w)
      | 1 -> Expr.(sub w -: sub w)
      | 2 -> Expr.(sub w &: sub w)
      | 3 -> Expr.(sub w |: sub w)
      | 4 -> Expr.(sub w ^: sub w)
      | 5 -> Expr.mux (Expr.uresize in1 1) (sub w) (sub w)
      | 6 -> Expr.(uresize (sub 4 ==: sub 4) w)
      | _ -> Expr.(~:(sub w))
  in
  set_next b r0 (gen 3 4);
  set_next b r1 (gen 3 4);
  set_next b r2 (gen 3 8);
  finalize b

let qcheck_random_netlist_sim_vs_unroll =
  QCheck.Test.make ~count:40 ~name:"random netlists: unroller = simulator"
    QCheck.(int_range 0 1073741823)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let nl = gen_netlist rs in
      let k = 3 in
      let start = [ ("r0", 4); ("r1", 4); ("r2", 8) ] in
      let start_vals =
        List.map (fun (n, w) -> (n, Random.State.int rs (1 lsl w))) start
      in
      let input_vals =
        List.init k (fun _ ->
            (Random.State.int rs 16, Random.State.int rs 2))
      in
      (* simulator trajectory *)
      let eng_sim = Sim.Engine.create nl in
      List.iter
        (fun (n, v) ->
          let w = List.assoc n start in
          Sim.Engine.poke_reg eng_sim n (bv w v))
        start_vals;
      let trajectory =
        List.map
          (fun (i0, i1) ->
            Sim.Engine.set_input_int eng_sim "in0" i0;
            Sim.Engine.set_input_int eng_sim "in1" i1;
            Sim.Engine.step eng_sim;
            List.map
              (fun (n, _) -> (n, Bitvec.to_int (Sim.Engine.reg_value eng_sim n)))
              start)
          input_vals
      in
      (* symbolic run pinned to the same start and inputs *)
      let eng = Ipc.Engine.create ~two_instance:false nl in
      Ipc.Engine.ensure_frames eng k;
      let u = Ipc.Engine.unroller eng in
      let g = Ipc.Engine.graph eng in
      let pin_reg frame n v =
        let s = (Netlist.find_reg nl n).Netlist.rd_signal in
        let vec = Unroller.reg_vec u Unroller.A ~frame s in
        Bitblast.Blaster.v_eq g vec
          (Bitblast.Blaster.const_vec (bv s.Expr.s_width v))
      in
      List.iter
        (fun (n, v) -> Ipc.Engine.assume eng (pin_reg 0 n v))
        start_vals;
      List.iteri
        (fun f (i0, i1) ->
          let sig_of name =
            List.find
              (fun (s : Expr.signal) -> s.Expr.s_name = name)
              nl.Netlist.inputs
          in
          let v0 = Unroller.input_vec u Unroller.A ~frame:f (sig_of "in0") in
          let v1 = Unroller.input_vec u Unroller.A ~frame:f (sig_of "in1") in
          Ipc.Engine.assume eng
            (Bitblast.Blaster.v_eq g v0 (Bitblast.Blaster.const_vec (bv 4 i0)));
          Ipc.Engine.assume eng
            (Bitblast.Blaster.v_eq g v1 (Bitblast.Blaster.const_vec (bv 1 i1))))
        input_vals;
      let goal =
        List.fold_left
          (fun acc (f, row) ->
            List.fold_left
              (fun acc (n, v) -> Aig.mk_and g acc (pin_reg (f + 1) n v))
              acc row)
          Aig.true_lit
          (List.mapi (fun f row -> (f, row)) trajectory)
      in
      match Ipc.Engine.decide eng (Ipc.Engine.Goal goal) with
      | Ipc.Engine.Proved -> true
      | Ipc.Engine.Refuted _ -> false
      | Ipc.Engine.Unknown r -> undecided r)

(* ---- decide: budgets, interrupts, witness-free solves ---- *)

(* Factoring as a search problem: two free 8-bit registers whose 16-bit
   product is pinned to [n]. A composite [n] is reachable; a prime above
   255 is not. Either answer takes CDCL real search (conflicts). Returns
   the engine, the query, and the product of a witness's factors. *)
let factor_query n =
  let open Netlist.Builder in
  let b = create "factor" in
  let x = reg b "x" 8 and y = reg b "y" 8 in
  set_next b x x;
  set_next b y y;
  let nl = finalize b in
  let eng = Ipc.Engine.create ~two_instance:false nl in
  Ipc.Engine.ensure_frames eng 1;
  let u = Ipc.Engine.unroller eng and g = Ipc.Engine.graph eng in
  let signal name = (Netlist.find_reg nl name).Netlist.rd_signal in
  let wide name =
    Array.append
      (Unroller.reg_vec u Unroller.A ~frame:0 (signal name))
      (Array.make 8 Aig.false_lit)
  in
  let product = Bitblast.Blaster.v_mul g (wide "x") (wide "y") in
  let query =
    Ipc.Engine.Violation
      [ Bitblast.Blaster.v_eq g product (Bitblast.Blaster.const_vec (bv 16 n)) ]
  in
  let witness_product cex =
    let value name =
      Bitvec.to_int
        (Ipc.Cex.svar_value cex Unroller.A ~frame:0
           (Structural.Sreg (signal name)))
    in
    value "x" * value "y"
  in
  (eng, query, witness_product)

let composite = 251 * 241
let prime = 60493

let verdict_str = function
  | Ipc.Engine.Proved -> "Proved"
  | Ipc.Engine.Refuted (Some _) -> "Refuted (Some _)"
  | Ipc.Engine.Refuted None -> "Refuted None"
  | Ipc.Engine.Unknown r -> "Unknown " ^ r

(* the full verdict for [n]: a composite's witness must factor it *)
let check_decided n witness_product v =
  match v with
  | Ipc.Engine.Refuted (Some cex) when n = composite ->
      Alcotest.(check int) "witness factors n" n (witness_product cex)
  | Ipc.Engine.Proved when n = prime -> ()
  | v -> Alcotest.failf "%d: wrong verdict %s" n (verdict_str v)

(* [starve] makes the engine give up; [restore] lifts the limit again,
   and the same engine must then decide *)
let test_decide_unknown ~starve ~restore ~reason () =
  List.iter
    (fun n ->
      let eng, q, witness_product = factor_query n in
      starve eng;
      Alcotest.(check string)
        (Printf.sprintf "%d starved" n)
        ("Unknown " ^ reason)
        (verdict_str (Ipc.Engine.decide eng q));
      restore eng;
      check_decided n witness_product (Ipc.Engine.decide eng q))
    [ composite; prime ]

let test_decide_witness_free () =
  (* [~cex:false] answers the same question without the witness *)
  List.iter
    (fun n ->
      let eng, q, _ = factor_query n in
      let full = verdict_str (Ipc.Engine.decide eng q) in
      let eng', q', _ = factor_query n in
      let bare = verdict_str (Ipc.Engine.decide ~cex:false eng' q') in
      Alcotest.(check string)
        (Printf.sprintf "%d: same verdict, no witness" n)
        (if full = "Refuted (Some _)" then "Refuted None" else full)
        bare)
    [ composite; prime ]

(* A witness reads the SAT value of every node it encoded; that must be
   what evaluating each extracted bit's cone from the witness's own
   free variables (cycle-0 state, inputs, parameters) gives. Checked on
   a model of a two-instance SoC engine at depth 2. *)
let test_cex_reads_model () =
  let spec =
    Upec.Spec.make
      (Soc.Builder.build Soc.Config.formal_tiny Soc.Builder.Formal)
      Upec.Spec.Vulnerable
  in
  let nl = spec.Upec.Spec.soc.Soc.Builder.netlist in
  let k = 2 in
  let eng = Ipc.Engine.create ~two_instance:true nl in
  Ipc.Engine.ensure_frames eng k;
  Upec.Macros.assume_env eng spec ~frames:k;
  for f = 0 to k do
    Upec.Macros.frame_constraints eng spec ~frame:f
  done;
  let u = Ipc.Engine.unroller eng and g = Ipc.Engine.graph eng in
  let svars = Structural.all_svars nl in
  let differs =
    Structural.Svar_set.fold
      (fun sv acc -> Aig.lit_not (Unroller.svar_equal_lit u ~frame:k sv) :: acc)
      svars []
  in
  let cex =
    match
      Ipc.Engine.decide eng (Ipc.Engine.Violation [ Aig.mk_or_list g differs ])
    with
    | Ipc.Engine.Refuted (Some cex) -> cex
    | v -> Alcotest.failf "expected a witness, got %s" (verdict_str v)
  in
  let instances = [ Unroller.A; Unroller.B ] in
  (* the witness's value of every free variable *)
  let leaves = Hashtbl.create 1024 in
  let leaf vec value =
    Array.iteri
      (fun i l ->
        if (not (Aig.is_const l)) && Aig.fanins g (Aig.node_of l) = None then
          Hashtbl.replace leaves (Aig.node_of l)
            (Bitvec.bit value i <> Aig.complemented l))
      vec
  in
  List.iter
    (fun inst ->
      Structural.Svar_set.iter
        (fun sv ->
          leaf (Unroller.svar_vec u inst ~frame:0 sv)
            (Ipc.Cex.svar_value cex inst ~frame:0 sv))
        svars;
      for frame = 0 to k do
        List.iter
          (fun s ->
            leaf (Unroller.input_vec u inst ~frame s)
              (Ipc.Cex.input_value cex inst ~frame s))
          nl.Netlist.inputs
      done)
    instances;
  List.iter
    (fun s -> leaf (Unroller.param_vec u s) (Ipc.Cex.param_value cex s))
    nl.Netlist.params;
  let eval l =
    Aig.eval g (fun v -> Hashtbl.find leaves (Aig.node_of v)) l
  in
  let bits = ref 0 in
  List.iter
    (fun inst ->
      for frame = 1 to k do
        Structural.Svar_set.iter
          (fun sv ->
            let value = Ipc.Cex.svar_value cex inst ~frame sv in
            Array.iteri
              (fun i l ->
                incr bits;
                Alcotest.(check bool)
                  (Printf.sprintf "%s@%d[%d]" (Structural.svar_name sv) frame i)
                  (eval l) (Bitvec.bit value i))
              (Unroller.svar_vec u inst ~frame sv))
          svars
      done)
    instances;
  Alcotest.(check bool) "bits compared" true (!bits > 0)

let () =
  Alcotest.run "ipc"
    [
      ( "single-instance",
        [
          Alcotest.test_case "increment holds" `Quick test_increment_holds;
          Alcotest.test_case "symbolic start cex" `Quick test_symbolic_start_cex;
          Alcotest.test_case "multi-frame unroll" `Quick test_multi_frame_unroll;
          Alcotest.test_case "incremental pre-encoding" `Quick
            test_pre_encode_incremental;
        ] );
      ( "two-instance",
        [
          Alcotest.test_case "leak detected" `Quick test_two_safety_leak_detected;
          Alcotest.test_case "no leak when disarmed" `Quick
            test_two_safety_noleak_when_disarmed;
          Alcotest.test_case "params shared" `Quick
            test_param_shared_between_instances;
          Alcotest.test_case "cex printing" `Quick test_cex_pp_smoke;
          Alcotest.test_case "cycle-0 sharing" `Quick test_share_cycle0;
          Alcotest.test_case "guarded cells never shared" `Quick
            test_share_guarded_cells;
          Alcotest.test_case "witness = per-bit evaluation" `Quick
            test_cex_reads_model;
        ] );
      ( "decide",
        [
          Alcotest.test_case "budget: Unknown, then decided" `Quick
            (test_decide_unknown
               ~starve:(fun e ->
                 Ipc.Engine.set_budget e (Satsolver.Solver.conflict_budget 10))
               ~restore:(fun e ->
                 Ipc.Engine.set_budget e Satsolver.Solver.no_budget)
               ~reason:"conflict budget exhausted");
          Alcotest.test_case "interrupt: Unknown, then decided" `Quick
            (test_decide_unknown
               ~starve:(fun e ->
                 Ipc.Engine.set_interrupt e (Some (fun () -> true)))
               ~restore:(fun e -> Ipc.Engine.set_interrupt e None)
               ~reason:"interrupted");
          Alcotest.test_case "~cex:false: Refuted None" `Quick
            test_decide_witness_free;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_unroller_matches_sim; qcheck_random_netlist_sim_vs_unroll ] );
    ]
