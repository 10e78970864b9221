(* Tests for the RTL IR: bit vectors, expression smart constructors,
   netlist builder, structural analysis. *)

open Rtl

let bv w v = Bitvec.of_int ~width:w v

(* ---- Bitvec ---- *)

let test_bv_basic () =
  Alcotest.(check int) "of_int trunc" 0x3a (Bitvec.to_int (bv 8 0x13a));
  Alcotest.(check int) "neg wraps" 0xff (Bitvec.to_int (bv 8 (-1)));
  Alcotest.(check int) "signed" (-1) (Bitvec.to_signed_int (bv 8 0xff));
  Alcotest.(check int) "signed positive" 127 (Bitvec.to_signed_int (bv 8 127));
  Alcotest.(check bool) "bit" true (Bitvec.bit (bv 8 0b100) 2);
  Alcotest.(check bool) "bit low" false (Bitvec.bit (bv 8 0b100) 1);
  Alcotest.(check string) "pp" "8'h3a" (Bitvec.to_string (bv 8 0x3a))

let test_bv_arith () =
  Alcotest.(check int) "add wrap" 0 (Bitvec.to_int (Bitvec.add (bv 8 255) (bv 8 1)));
  Alcotest.(check int) "sub wrap" 255 (Bitvec.to_int (Bitvec.sub (bv 8 0) (bv 8 1)));
  Alcotest.(check int) "mul" 6 (Bitvec.to_int (Bitvec.mul (bv 8 2) (bv 8 3)));
  Alcotest.(check int) "mul wrap" ((200 * 200) land 255)
    (Bitvec.to_int (Bitvec.mul (bv 8 200) (bv 8 200)));
  Alcotest.(check int) "neg" 0xfe (Bitvec.to_int (Bitvec.neg (bv 8 2)))

let test_bv_mul_wide () =
  (* wide multiplication must not overflow the native int *)
  let a = bv 32 0xdeadbeef and b = bv 32 0x12345678 in
  let expected =
    Int64.to_int
      (Int64.logand
         (Int64.mul (Int64.of_int 0xdeadbeef) (Int64.of_int 0x12345678))
         0xffffffffL)
  in
  Alcotest.(check int) "32-bit mul" expected (Bitvec.to_int (Bitvec.mul a b))

let test_bv_shifts () =
  Alcotest.(check int) "shl" 0b100 (Bitvec.to_int (Bitvec.shl (bv 8 1) (bv 8 2)));
  Alcotest.(check int) "shl overflow" 0
    (Bitvec.to_int (Bitvec.shl (bv 8 1) (bv 8 9)));
  Alcotest.(check int) "lshr" 1 (Bitvec.to_int (Bitvec.lshr (bv 8 4) (bv 8 2)));
  Alcotest.(check int) "ashr sign" 0xff
    (Bitvec.to_int (Bitvec.ashr (bv 8 0x80) (bv 8 7)));
  Alcotest.(check int) "ashr big amount" 0xff
    (Bitvec.to_int (Bitvec.ashr (bv 8 0x80) (bv 8 200)));
  Alcotest.(check int) "lshr big amount" 0
    (Bitvec.to_int (Bitvec.lshr (bv 8 0x80) (bv 8 200)))

let test_bv_cmp () =
  Alcotest.(check int) "ult" 1 (Bitvec.to_int (Bitvec.ult (bv 8 3) (bv 8 5)));
  Alcotest.(check int) "ult false" 0 (Bitvec.to_int (Bitvec.ult (bv 8 5) (bv 8 3)));
  Alcotest.(check int) "slt negative" 1
    (Bitvec.to_int (Bitvec.slt (bv 8 0xff) (bv 8 1)));
  Alcotest.(check int) "sle equal" 1
    (Bitvec.to_int (Bitvec.sle (bv 8 7) (bv 8 7)))

let test_bv_structure () =
  Alcotest.(check int) "concat" 0xab
    (Bitvec.to_int (Bitvec.concat (bv 4 0xa) (bv 4 0xb)));
  Alcotest.(check int) "slice" 0xa
    (Bitvec.to_int (Bitvec.slice (bv 8 0xab) ~hi:7 ~lo:4));
  Alcotest.(check int) "zero_extend" 0xab
    (Bitvec.to_int (Bitvec.zero_extend (bv 8 0xab) 16));
  Alcotest.(check int) "sign_extend" 0xffab
    (Bitvec.to_int (Bitvec.sign_extend (bv 8 0xab) 16));
  Alcotest.(check int) "redxor" 1 (Bitvec.to_int (Bitvec.redxor (bv 8 0b0111)));
  Alcotest.(check int) "redand ones" 1 (Bitvec.to_int (Bitvec.redand (Bitvec.ones 5)))

let test_bv_invalid () =
  Alcotest.check_raises "width 0" (Invalid_argument "Bitvec: width 0 out of [1, 62]")
    (fun () -> ignore (bv 0 1));
  Alcotest.check_raises "slice range"
    (Invalid_argument "Bitvec.slice: [8:0] out of range for width 8") (fun () ->
      ignore (Bitvec.slice (bv 8 0) ~hi:8 ~lo:0))

(* ---- Expr smart constructors ---- *)

let test_expr_const_fold () =
  let open Expr in
  let a = of_int ~width:8 3 and b = of_int ~width:8 5 in
  (match node (a +: b) with
  | Const v -> Alcotest.(check int) "3+5" 8 (Bitvec.to_int v)
  | _ -> Alcotest.fail "expected constant fold");
  let x = input (signal "x" 8) in
  Alcotest.(check bool) "x+0 = x" true (equal (x +: zero 8) x);
  Alcotest.(check bool) "x&0 = 0" true (equal (x &: zero 8) (zero 8));
  Alcotest.(check bool) "x|x = x" true (equal (x |: x) x);
  Alcotest.(check bool) "x^x = 0" true (equal (x ^: x) (zero 8));
  Alcotest.(check bool) "x==x folds" true (equal (x ==: x) vdd);
  Alcotest.(check bool) "mux const" true (equal (mux vdd x (zero 8)) x);
  Alcotest.(check bool) "not not x" true (equal (~:(~:x)) x)

let test_expr_hashcons () =
  let open Expr in
  let x = input (signal "hx" 8) in
  let y = input (signal "hy" 8) in
  Alcotest.(check bool) "same node shared" true (equal (x +: y) (x +: y));
  Alcotest.(check bool) "different ops distinct" false (equal (x +: y) (x -: y))

let test_expr_width_check () =
  let open Expr in
  let x = input (signal "wx" 8) and y = input (signal "wy" 4) in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Expr.binop: width mismatch 8 vs 4") (fun () ->
      ignore (x +: y));
  (* the simulator computes both arms of a mux, so an over-wide
     concatenation must be rejected here, not when it is evaluated *)
  let w = input (signal "ww" 40) in
  Alcotest.check_raises "concatenation wider than max_width"
    (Invalid_argument "Expr.concat: width 80 exceeds 62") (fun () ->
      ignore (concat w w))

let test_expr_slices () =
  let open Expr in
  let x = input (signal "sx" 8) and y = input (signal "sy" 8) in
  let c = concat x y in
  Alcotest.(check bool) "slice of concat low" true
    (equal (slice c ~hi:7 ~lo:0) y);
  Alcotest.(check bool) "slice of concat high" true
    (equal (slice c ~hi:15 ~lo:8) x);
  Alcotest.(check bool) "full slice is identity" true
    (equal (slice x ~hi:7 ~lo:0) x);
  Alcotest.(check int) "nested slice" 1
    (width (bit (slice x ~hi:6 ~lo:3) 2));
  Alcotest.(check bool) "uresize narrower" true
    (equal (uresize x 4) (slice x ~hi:3 ~lo:0))

let test_mux_list () =
  let open Expr in
  let sel = input (signal "msel" 2) in
  let m =
    mux_list sel ~default:(of_int ~width:8 0)
      [ (0, of_int ~width:8 10); (3, of_int ~width:8 30) ]
  in
  Alcotest.(check int) "width" 8 (width m)

(* ---- Netlist builder ---- *)

let build_counter () =
  let open Netlist.Builder in
  let b = create "counter" in
  let enable = input b "enable" 1 in
  let count = reg b "count" 8 in
  set_next b count (Expr.mux enable Expr.(count +: one 8) count);
  output b "count_out" count;
  finalize b

let test_builder_basic () =
  let nl = build_counter () in
  Alcotest.(check int) "one input" 1 (List.length nl.Netlist.inputs);
  Alcotest.(check int) "one reg" 1 (List.length nl.Netlist.regs);
  Alcotest.(check int) "state bits" 8 (Netlist.state_bits nl);
  let rd = Netlist.find_reg nl "count" in
  Alcotest.(check int) "next width" 8 (Expr.width rd.Netlist.rd_next)

let test_builder_default_hold () =
  let open Netlist.Builder in
  let b = create "hold" in
  let r = reg b "r" 4 in
  let nl = finalize b in
  let rd = Netlist.find_reg nl "r" in
  Alcotest.(check bool) "holds value" true (Expr.equal rd.Netlist.rd_next r)

let test_builder_duplicate_names () =
  let open Netlist.Builder in
  let b = create "dup" in
  ignore (input b "x" 1);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Netlist.Builder: duplicate name x") (fun () ->
      ignore (reg b "x" 1))

let test_builder_double_set_next () =
  let open Netlist.Builder in
  let b = create "dsn" in
  let r = reg b "r" 1 in
  set_next b r Expr.gnd;
  Alcotest.check_raises "double set"
    (Invalid_argument "Netlist.Builder.set_next r: already set") (fun () ->
      set_next b r Expr.vdd)

let test_builder_mem () =
  let open Netlist.Builder in
  let b = create "memtest" in
  let waddr = input b "waddr" 3 in
  let wdata = input b "wdata" 8 in
  let wen = input b "wen" 1 in
  let m = mem b "m" ~addr_width:3 ~data_width:8 ~depth:8 in
  write_port b m ~enable:wen ~addr:waddr ~data:wdata;
  output b "rd0" (Expr.memread m (Expr.zero 3));
  let nl = finalize b in
  Alcotest.(check int) "mem state bits" 64 (Netlist.state_bits nl);
  let md = Netlist.find_mem nl "m" in
  Alcotest.(check int) "one port" 1 (List.length md.Netlist.md_ports);
  Alcotest.check_raises "init word of the wrong width"
    (Invalid_argument "Netlist.Builder.mem m2: init width") (fun () ->
      ignore
        (mem (create "badinit") "m2" ~addr_width:1 ~data_width:8 ~depth:2
           ~init:[| Bitvec.zero 8; Bitvec.zero 16 |]))

(* ---- Structural ---- *)

let build_two_ip () =
  let open Netlist.Builder in
  let b = create "soc" in
  let _ = input b "irq" 1 in
  let dma_cnt = reg b "dma.count" 8 in
  let dma_busy = reg b "dma.busy" 1 in
  let tim_val = reg b "timer.value" 8 in
  set_next b tim_val Expr.(tim_val +: uresize dma_busy 8);
  set_next b dma_cnt Expr.(dma_cnt +: one 8);
  ignore dma_busy;
  let m = mem b "sram.mem" ~addr_width:2 ~data_width:8 ~depth:4 in
  write_port b m ~enable:Expr.vdd ~addr:(Expr.uresize dma_cnt 2) ~data:dma_cnt;
  finalize b

let test_structural_svars () =
  let nl = build_two_ip () in
  let all = Structural.all_svars nl in
  Alcotest.(check int) "3 regs + 4 mem elements" 7
    (Structural.Svar_set.cardinal all);
  let dma = Structural.svars_of_ip nl "dma" in
  Alcotest.(check int) "dma has 2" 2 (Structural.Svar_set.cardinal dma);
  let sram = Structural.svars_of_ip nl "sram" in
  Alcotest.(check int) "sram has 4" 4 (Structural.Svar_set.cardinal sram)

let test_structural_cone () =
  let nl = build_two_ip () in
  let rd = Netlist.find_reg nl "timer.value" in
  let cone = Structural.cone_of rd.Netlist.rd_next in
  Alcotest.(check bool) "depends on dma.busy" true
    (Structural.Svar_set.exists
       (fun v -> Structural.svar_name v = "dma.busy")
       cone);
  Alcotest.(check bool) "independent of dma.count" false
    (Structural.Svar_set.exists
       (fun v -> Structural.svar_name v = "dma.count")
       cone)

let test_structural_support_mem () =
  let nl = build_two_ip () in
  let md = Netlist.find_mem nl "sram.mem" in
  let sup = Structural.reg_support nl (Structural.Smem (md.Netlist.md_mem, 0)) in
  Alcotest.(check bool) "mem element depends on dma.count" true
    (Structural.Svar_set.exists
       (fun v -> Structural.svar_name v = "dma.count")
       sup)

let test_svar_names () =
  let nl = build_two_ip () in
  let md = Netlist.find_mem nl "sram.mem" in
  Alcotest.(check string) "mem elem name" "sram.mem[2]"
    (Structural.svar_name (Structural.Smem (md.Netlist.md_mem, 2)));
  Alcotest.(check string) "ip of mem elem" "sram"
    (Structural.ip_of (Structural.Smem (md.Netlist.md_mem, 2)))

let test_pp_svar_set () =
  let nl = build_two_ip () in
  let md = Netlist.find_mem nl "sram.mem" in
  let set =
    Structural.Svar_set.of_list
      [
        Structural.Smem (md.Netlist.md_mem, 0);
        Structural.Smem (md.Netlist.md_mem, 1);
        Structural.Smem (md.Netlist.md_mem, 2);
      ]
  in
  let s = Format.asprintf "%a" Structural.pp_svar_set set in
  Alcotest.(check string) "ranges abbreviated" "sram.mem[0..2]" s

(* ---- pretty-printing and netlist import ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_pp_expr () =
  let open Expr in
  let x = input (signal "ppx" 8) and y = input (signal "ppy" 8) in
  let s = Pp.expr_to_string (mux (x ==: y) (x +: y) (x ^: y)) in
  Alcotest.(check bool) "mentions operands" true
    (contains s "ppx" && contains s "ppy");
  Alcotest.(check bool) "mentions mux" true (contains s "?");
  let c = Pp.expr_to_string (of_int ~width:8 0x2a) in
  Alcotest.(check string) "constant form" "8'h2a" c

let test_pp_netlist () =
  let nl = build_counter () in
  let s = Format.asprintf "%a" Pp.pp_netlist nl in
  Alcotest.(check bool) "module header" true (contains s "module counter");
  Alcotest.(check bool) "register line" true (contains s "reg    [8] count");
  Alcotest.(check bool) "output line" true (contains s "output count_out")

let test_netlist_import () =
  let original = build_counter () in
  let b = Netlist.Builder.create "extended" in
  Netlist.Builder.import b original;
  let extra = Netlist.Builder.reg b "shadow" 8 in
  let count_e =
    Expr.reg (Netlist.find_reg original "count").Netlist.rd_signal
  in
  Netlist.Builder.set_next b extra count_e;
  let nl = Netlist.Builder.finalize b in
  Alcotest.(check int) "both registers" 2 (List.length nl.Netlist.regs);
  (* semantics preserved: the extended design still counts, and the new
     register follows one cycle behind *)
  let eng = Sim.Engine.create nl in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 3;
  Alcotest.(check int) "count" 3 (Bitvec.to_int (Sim.Engine.reg_value eng "count"));
  Alcotest.(check int) "shadow lags" 2
    (Bitvec.to_int (Sim.Engine.reg_value eng "shadow"))

let test_netlist_import_name_clash () =
  let original = build_counter () in
  let b = Netlist.Builder.create "clash" in
  Netlist.Builder.import b original;
  Alcotest.check_raises "duplicate name rejected"
    (Invalid_argument "Netlist.Builder: duplicate name count") (fun () ->
      ignore (Netlist.Builder.reg b "count" 8))

let test_expr_size () =
  let open Expr in
  let x = input (signal "szx" 8) in
  let shared = x +: one 8 in
  let e = shared *: shared in
  (* sharing counts nodes once *)
  Alcotest.(check bool) "size is small" true (size e <= 4)

(* ---- qcheck: bitvec algebraic properties ---- *)

let arb_bv =
  QCheck.make
    ~print:(fun (w, v) -> Printf.sprintf "(%d, %d)" w v)
    QCheck.Gen.(
      let* w = int_range 1 32 in
      let* v = int_bound ((1 lsl w) - 1) in
      return (w, v))

let qcheck_add_comm =
  QCheck.Test.make ~count:200 ~name:"bitvec add commutative"
    (QCheck.pair arb_bv QCheck.(int_range 0 1000000))
    (fun ((w, v1), v2) ->
      let a = bv w v1 and b = bv w v2 in
      Bitvec.equal (Bitvec.add a b) (Bitvec.add b a))

let qcheck_sub_add =
  QCheck.Test.make ~count:200 ~name:"bitvec (a-b)+b = a"
    (QCheck.pair arb_bv QCheck.(int_range 0 1000000))
    (fun ((w, v1), v2) ->
      let a = bv w v1 and b = bv w v2 in
      Bitvec.equal (Bitvec.add (Bitvec.sub a b) b) a)

let qcheck_concat_slice =
  QCheck.Test.make ~count:200 ~name:"slice undoes concat"
    (QCheck.pair arb_bv arb_bv)
    (fun ((w1, v1), (w2, v2)) ->
      QCheck.assume (w1 + w2 <= Bitvec.max_width);
      let a = bv w1 v1 and b = bv w2 v2 in
      let c = Bitvec.concat a b in
      Bitvec.equal (Bitvec.slice c ~hi:(w1 + w2 - 1) ~lo:w2) a
      && Bitvec.equal (Bitvec.slice c ~hi:(w2 - 1) ~lo:0) b)

let qcheck_demorgan =
  QCheck.Test.make ~count:200 ~name:"bitvec De Morgan"
    (QCheck.pair arb_bv QCheck.(int_range 0 1000000))
    (fun ((w, v1), v2) ->
      let a = bv w v1 and b = bv w v2 in
      Bitvec.equal
        (Bitvec.lognot (Bitvec.logand a b))
        (Bitvec.logor (Bitvec.lognot a) (Bitvec.lognot b)))

let () =
  Alcotest.run "rtl"
    [
      ( "bitvec",
        [
          Alcotest.test_case "basics" `Quick test_bv_basic;
          Alcotest.test_case "arithmetic" `Quick test_bv_arith;
          Alcotest.test_case "wide multiplication" `Quick test_bv_mul_wide;
          Alcotest.test_case "shifts" `Quick test_bv_shifts;
          Alcotest.test_case "comparisons" `Quick test_bv_cmp;
          Alcotest.test_case "structure" `Quick test_bv_structure;
          Alcotest.test_case "invalid arguments" `Quick test_bv_invalid;
        ] );
      ( "expr",
        [
          Alcotest.test_case "constant folding" `Quick test_expr_const_fold;
          Alcotest.test_case "hash consing" `Quick test_expr_hashcons;
          Alcotest.test_case "width checking" `Quick test_expr_width_check;
          Alcotest.test_case "slice simplification" `Quick test_expr_slices;
          Alcotest.test_case "mux_list" `Quick test_mux_list;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "builder basics" `Quick test_builder_basic;
          Alcotest.test_case "register holds by default" `Quick
            test_builder_default_hold;
          Alcotest.test_case "duplicate names rejected" `Quick
            test_builder_duplicate_names;
          Alcotest.test_case "double set_next rejected" `Quick
            test_builder_double_set_next;
          Alcotest.test_case "memories" `Quick test_builder_mem;
        ] );
      ( "structural",
        [
          Alcotest.test_case "state variables" `Quick test_structural_svars;
          Alcotest.test_case "fan-in cones" `Quick test_structural_cone;
          Alcotest.test_case "memory support" `Quick test_structural_support_mem;
          Alcotest.test_case "svar names" `Quick test_svar_names;
          Alcotest.test_case "svar set printing" `Quick test_pp_svar_set;
        ] );
      ( "pp+import",
        [
          Alcotest.test_case "expression printing" `Quick test_pp_expr;
          Alcotest.test_case "netlist printing" `Quick test_pp_netlist;
          Alcotest.test_case "netlist import" `Quick test_netlist_import;
          Alcotest.test_case "import name clash" `Quick
            test_netlist_import_name_clash;
          Alcotest.test_case "expr size with sharing" `Quick test_expr_size;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_add_comm; qcheck_sub_add; qcheck_concat_slice; qcheck_demorgan ]
      );
    ]
