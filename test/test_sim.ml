(* Tests for the cycle-accurate simulator. *)

open Rtl

let bv w v = Bitvec.of_int ~width:w v

let build_counter () =
  let open Netlist.Builder in
  let b = create "counter" in
  let enable = input b "enable" 1 in
  let count = reg b "count" 8 in
  set_next b count (Expr.mux enable Expr.(count +: one 8) count);
  output b "next_is_five" Expr.(count +: one 8 ==: of_int ~width:8 5);
  finalize b

let test_counter_steps () =
  let eng = Sim.Engine.create (build_counter ()) in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 5;
  Alcotest.(check int) "count = 5" 5
    (Bitvec.to_int (Sim.Engine.reg_value eng "count"));
  Sim.Engine.set_input_int eng "enable" 0;
  Sim.Engine.run eng 3;
  Alcotest.(check int) "still 5" 5
    (Bitvec.to_int (Sim.Engine.reg_value eng "count"));
  Alcotest.(check int) "cycles" 8 (Sim.Engine.cycle eng)

let test_peek_output () =
  let eng = Sim.Engine.create (build_counter ()) in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 4;
  Alcotest.(check int) "combinational output" 1
    (Bitvec.to_int (Sim.Engine.peek_output eng "next_is_five"))

let test_reset_values () =
  let open Netlist.Builder in
  let b = create "resettest" in
  let r = reg b ~init:(bv 8 42) "r" 8 in
  ignore r;
  let nl = finalize b in
  let eng = Sim.Engine.create nl in
  Alcotest.(check int) "init value" 42
    (Bitvec.to_int (Sim.Engine.reg_value eng "r"));
  Sim.Engine.step eng;
  Alcotest.(check int) "held" 42 (Bitvec.to_int (Sim.Engine.reg_value eng "r"))

let build_memory_device () =
  let open Netlist.Builder in
  let b = create "mem" in
  let wen = input b "wen" 1 in
  let waddr = input b "waddr" 3 in
  let wdata = input b "wdata" 8 in
  let raddr = input b "raddr" 3 in
  let m = mem b "m" ~addr_width:3 ~data_width:8 ~depth:8 in
  write_port b m ~enable:wen ~addr:waddr ~data:wdata;
  output b "rdata" (Expr.memread m raddr);
  finalize b

let test_memory_write_read () =
  let eng = Sim.Engine.create (build_memory_device ()) in
  Sim.Engine.set_input_int eng "wen" 1;
  Sim.Engine.set_input_int eng "waddr" 3;
  Sim.Engine.set_input_int eng "wdata" 0xab;
  Sim.Engine.step eng;
  Sim.Engine.set_input_int eng "wen" 0;
  Sim.Engine.set_input_int eng "raddr" 3;
  Alcotest.(check int) "read back" 0xab
    (Bitvec.to_int (Sim.Engine.peek_output eng "rdata"));
  Alcotest.(check int) "mem_value" 0xab
    (Bitvec.to_int (Sim.Engine.mem_value eng "m" 3));
  Sim.Engine.set_input_int eng "raddr" 2;
  Alcotest.(check int) "other cell zero" 0
    (Bitvec.to_int (Sim.Engine.peek_output eng "rdata"))

let test_memory_port_priority () =
  let open Netlist.Builder in
  let b = create "prio" in
  let m = mem b "m" ~addr_width:2 ~data_width:8 ~depth:4 in
  (* two always-on ports to the same address; first must win *)
  write_port b m ~enable:Expr.vdd ~addr:(Expr.zero 2)
    ~data:(Expr.of_int ~width:8 1);
  write_port b m ~enable:Expr.vdd ~addr:(Expr.zero 2)
    ~data:(Expr.of_int ~width:8 2);
  let nl = finalize b in
  let eng = Sim.Engine.create nl in
  Sim.Engine.step eng;
  Alcotest.(check int) "first port wins" 1
    (Bitvec.to_int (Sim.Engine.mem_value eng "m" 0))

let test_two_phase_semantics () =
  (* A swap register pair must exchange values atomically. *)
  let open Netlist.Builder in
  let b = create "swap" in
  let x = reg b ~init:(bv 8 1) "x" 8 in
  let y = reg b ~init:(bv 8 2) "y" 8 in
  set_next b x y;
  set_next b y x;
  let nl = finalize b in
  let eng = Sim.Engine.create nl in
  Sim.Engine.step eng;
  Alcotest.(check int) "x got y" 2 (Bitvec.to_int (Sim.Engine.reg_value eng "x"));
  Alcotest.(check int) "y got x" 1 (Bitvec.to_int (Sim.Engine.reg_value eng "y"))

let test_params () =
  let open Netlist.Builder in
  let b = create "ptest" in
  let base = param b "base" 8 in
  let r = reg b "r" 8 in
  set_next b r Expr.(base +: one 8);
  let nl = finalize b in
  let eng = Sim.Engine.create nl in
  Sim.Engine.set_param eng "base" (bv 8 9);
  Sim.Engine.step eng;
  Alcotest.(check int) "param used" 10
    (Bitvec.to_int (Sim.Engine.reg_value eng "r"))

let test_poke () =
  let eng = Sim.Engine.create (build_counter ()) in
  Sim.Engine.poke_reg eng "count" (bv 8 100);
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.step eng;
  Alcotest.(check int) "poked then stepped" 101
    (Bitvec.to_int (Sim.Engine.reg_value eng "count"));
  Alcotest.check_raises "poke_reg of the wrong width"
    (Invalid_argument "Engine.poke_reg count: width mismatch") (fun () ->
      Sim.Engine.poke_reg eng "count" (bv 16 1));
  let eng = Sim.Engine.create (build_memory_device ()) in
  Alcotest.check_raises "poke_mem of the wrong width"
    (Invalid_argument "Engine.poke_mem m: width mismatch") (fun () ->
      Sim.Engine.poke_mem eng "m" 3 (bv 16 0x1234));
  Alcotest.(check int) "rejected word not stored" 0
    (Bitvec.to_int (Sim.Engine.mem_value eng "m" 3));
  Sim.Engine.poke_mem eng "m" 3 (bv 8 0x5a);
  Sim.Engine.set_input_int eng "raddr" 3;
  Alcotest.(check int) "poked word read back" 0x5a
    (Bitvec.to_int (Sim.Engine.peek_output eng "rdata"));
  Sim.Engine.step eng;
  Alcotest.(check int) "and kept across a step" 0x5a
    (Bitvec.to_int (Sim.Engine.mem_value eng "m" 3))

let test_trace () =
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let tr = Sim.Trace.attach eng [ ("count", Expr.reg rd.Netlist.rd_signal) ] in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 4;
  Alcotest.(check int) "trace length" 4 (Sim.Trace.length tr);
  Alcotest.(check int) "cycle 0 value" 1
    (Bitvec.to_int (Sim.Trace.get tr "count" 0));
  Alcotest.(check int) "cycle 3 value" 4
    (Bitvec.to_int (Sim.Trace.get tr "count" 3));
  let series = List.map Bitvec.to_int (Sim.Trace.series tr "count") in
  Alcotest.(check (list int)) "series" [ 1; 2; 3; 4 ] series

let test_vcd () =
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let path = Filename.temp_file "upec" ".vcd" in
  let oc = open_out path in
  let v =
    Sim.Vcd.attach eng oc [ ("count", Expr.reg rd.Netlist.rd_signal) ]
  in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 3;
  Sim.Vcd.close v;
  close_out oc;
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "header present" true (contains contents "$date");
  Alcotest.(check bool) "has var decl" true (contains contents "$var wire 8");
  Alcotest.(check bool) "has timesteps" true (contains contents "#3")

let test_vcd_hierarchical_names () =
  (* hierarchical SoC names must come out as well-formed VCD: sanitised
     identifiers, a memory-cell suffix as the standard bit-select token,
     and a proper $timescale declaration *)
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let sig_ = Expr.reg rd.Netlist.rd_signal in
  let path = Filename.temp_file "upec" ".vcd" in
  let oc = open_out path in
  let v =
    Sim.Vcd.attach eng oc ~module_name:"instance_A"
      [
        ("soc.sram0.mem[3]", sig_);
        ("xbar_pub.pub0.arb.last", sig_);
        ("weird name!@#", sig_);
      ]
  in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 2;
  Sim.Vcd.close v;
  close_out oc;
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "timescale declared" true
    (contains contents "$timescale 1 ns $end");
  Alcotest.(check bool) "scope named" true
    (contains contents "$scope module instance_A $end");
  (* the memory-cell index becomes a separate bit-select token *)
  Alcotest.(check bool) "bit-select token" true
    (contains contents "soc.sram0.mem [3] $end");
  Alcotest.(check bool) "plain hierarchical name kept" true
    (contains contents "xbar_pub.pub0.arb.last $end");
  (* no raw illegal characters survive in any $var line *)
  Alcotest.(check bool) "illegal chars sanitised" false
    (contains contents "weird name!@#");
  Alcotest.(check bool) "sanitised replacement present" true
    (contains contents "weird_name___ $end")

let test_trace_error_semantics () =
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let tr = Sim.Trace.attach eng [ ("count", Expr.reg rd.Netlist.rd_signal) ] in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 2;
  (* unknown names and out-of-range cycles raise the same exception
     with an identifying message — no bare Not_found anywhere *)
  Alcotest.check_raises "get unknown signal"
    (Invalid_argument "Trace.index_of: unknown signal nope") (fun () ->
      ignore (Sim.Trace.get tr "nope" 0));
  Alcotest.check_raises "series unknown signal"
    (Invalid_argument "Trace.index_of: unknown signal nope") (fun () ->
      ignore (Sim.Trace.series tr "nope"));
  Alcotest.check_raises "cycle past the end"
    (Invalid_argument "Trace.get: cycle out of range") (fun () ->
      ignore (Sim.Trace.get tr "count" 2));
  Alcotest.check_raises "negative cycle"
    (Invalid_argument "Trace.get: cycle out of range") (fun () ->
      ignore (Sim.Trace.get tr "count" (-1)));
  (* and the trace keeps recording correctly after the failed lookups *)
  Sim.Engine.run eng 1;
  Alcotest.(check int) "value after errors" 3
    (Bitvec.to_int (Sim.Trace.get tr "count" 2))

let test_trace_accessor_perf () =
  (* O(1) accessors: random access over a long trace must not rescan
     the row list. 2000 cycles x 2000 random gets was minutes with the
     old list representation; generous bound, but quadratic blows it. *)
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let tr = Sim.Trace.attach eng [ ("count", Expr.reg rd.Netlist.rd_signal) ] in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 2000;
  let t0 = Unix.gettimeofday () in
  for i = 0 to 1999 do
    let cycle = i * 997 mod 2000 in
    ignore (Sim.Trace.get tr "count" cycle)
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "length" 2000 (Sim.Trace.length tr);
  Alcotest.(check bool)
    (Printf.sprintf "2000 random gets fast enough (%.3fs)" dt)
    true (dt < 1.0)

let test_vcd_final_timestep () =
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let path = Filename.temp_file "upec" ".vcd" in
  let oc = open_out path in
  let v = Sim.Vcd.attach eng oc [ ("count", Expr.reg rd.Netlist.rd_signal) ] in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 3;
  Sim.Vcd.close v;
  Sim.Vcd.close v (* idempotent *);
  let size_at_close = (Unix.stat path).Unix.st_size in
  (* the hook is dead after close: further steps add nothing *)
  Sim.Engine.run eng 5;
  flush oc;
  close_out oc;
  let ic = open_in path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let final_size = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "last cycle marker" true (contains contents "#3");
  (* close emits a final timestamp past the last cycle so viewers show
     the last values for a full cycle *)
  Alcotest.(check bool) "final timestamp from close" true
    (contains contents "#4");
  Alcotest.(check int) "no output after close" size_at_close final_size

let test_vcd_wide_dump_perf () =
  (* last-value tracking must not be quadratic in signal count: 400
     signals x 300 cycles was multi-second with the assoc list. *)
  let nl = build_counter () in
  let eng = Sim.Engine.create nl in
  let rd = Netlist.find_reg nl "count" in
  let sig_ = Expr.reg rd.Netlist.rd_signal in
  let signals =
    List.init 400 (fun i -> (Printf.sprintf "sig%d" i, sig_))
  in
  let path = Filename.temp_file "upec" ".vcd" in
  let oc = open_out path in
  let t0 = Unix.gettimeofday () in
  let v = Sim.Vcd.attach eng oc signals in
  Sim.Engine.set_input_int eng "enable" 1;
  Sim.Engine.run eng 300;
  Sim.Vcd.close v;
  let dt = Unix.gettimeofday () -. t0 in
  close_out oc;
  Sys.remove path;
  Alcotest.(check bool)
    (Printf.sprintf "wide dump fast enough (%.3fs)" dt)
    true (dt < 5.0)

(* qcheck: simulator counter matches a functional model *)
let qcheck_counter_model =
  QCheck.Test.make ~count:100 ~name:"counter matches functional model"
    QCheck.(list_of_size Gen.(int_range 1 30) bool)
    (fun enables ->
      let eng = Sim.Engine.create (build_counter ()) in
      let expected = ref 0 in
      List.iter
        (fun en ->
          Sim.Engine.set_input_int eng "enable" (if en then 1 else 0);
          Sim.Engine.step eng;
          if en then expected := (!expected + 1) land 0xff)
        enables;
      Bitvec.to_int (Sim.Engine.reg_value eng "count") = !expected)

(* ---- differential test: the compiled step against a reference ---- *)

(* The reference simulator: every value a [Bitvec.t] in a table, every
   expression evaluated by [Eval] against the pre-edge state, then one
   commit in which later write ports go first so earlier ports win. *)
module Ref = struct
  type t = {
    nl : Netlist.t;
    vals : (string, Bitvec.t) Hashtbl.t;  (** inputs, params, registers *)
    mems : (string, Bitvec.t array) Hashtbl.t;
  }

  let create (nl : Netlist.t) =
    let vals = Hashtbl.create 16 and mems = Hashtbl.create 4 in
    List.iter
      (fun (s : Expr.signal) ->
        Hashtbl.replace vals s.Expr.s_name (Bitvec.zero s.Expr.s_width))
      (nl.Netlist.inputs @ nl.Netlist.params);
    List.iter
      (fun rd ->
        let s = rd.Netlist.rd_signal in
        Hashtbl.replace vals s.Expr.s_name
          (Option.value rd.Netlist.rd_init ~default:(Bitvec.zero s.Expr.s_width)))
      nl.Netlist.regs;
    List.iter
      (fun md ->
        let m = md.Netlist.md_mem in
        Hashtbl.replace mems m.Expr.m_name
          (match md.Netlist.md_init with
          | Some a -> Array.copy a
          | None -> Array.make m.Expr.m_depth (Bitvec.zero m.Expr.m_data_width)))
      nl.Netlist.mems;
    { nl; vals; mems }

  let eval t e =
    let lookup (s : Expr.signal) = Hashtbl.find t.vals s.Expr.s_name in
    Sim.Eval.eval
      {
        Sim.Eval.lookup_input = lookup;
        lookup_param = lookup;
        lookup_reg = lookup;
        lookup_mem = (fun m i -> (Hashtbl.find t.mems m.Expr.m_name).(i));
      }
      e

  let step t =
    let reg_next =
      List.map
        (fun rd -> (rd.Netlist.rd_signal, eval t rd.Netlist.rd_next))
        t.nl.Netlist.regs
    in
    let mem_writes =
      List.map
        (fun md ->
          ( md.Netlist.md_mem,
            List.filter_map
              (fun wp ->
                if Bitvec.is_zero (eval t wp.Netlist.wp_enable) then None
                else
                  Some
                    ( Bitvec.to_int (eval t wp.Netlist.wp_addr),
                      eval t wp.Netlist.wp_data ))
              md.Netlist.md_ports ))
        t.nl.Netlist.mems
    in
    List.iter
      (fun ((s : Expr.signal), v) -> Hashtbl.replace t.vals s.Expr.s_name v)
      reg_next;
    List.iter
      (fun ((m : Expr.mem), writes) ->
        let arr = Hashtbl.find t.mems m.Expr.m_name in
        List.iter
          (fun (addr, data) -> if addr < m.Expr.m_depth then arr.(addr) <- data)
          (List.rev writes))
      mem_writes
end

type poke = Poke_reg of string * Bitvec.t | Poke_mem of string * int * Bitvec.t

type cycle = {
  c_inputs : (string * Bitvec.t) list;
  c_poke : poke option;
  c_peek : Expr.t;  (** a random node of the netlist *)
}

type case = {
  nl : Netlist.t;
  params : (string * Bitvec.t) list;
  cycles : cycle list;
}

(* Widths are drawn half from the edges (1, around 31/32 where [mul]
   splits, 61/62) and half uniformly. *)
let edge_widths = [| 1; 2; 3; 7; 8; 16; 30; 31; 32; 33; 47; 61; 62 |]
let pick rs a = a.(Random.State.int rs (Array.length a))

let gen_width rs =
  if Random.State.bool rs then pick rs edge_widths
  else 1 + Random.State.int rs Bitvec.max_width

(* Values: all zeros, all ones, small (shift amounts below the width,
   in-range addresses) or any 62-bit pattern. *)
let gen_value rs w =
  match Random.State.int rs 4 with
  | 0 -> Bitvec.zero w
  | 1 -> Bitvec.ones w
  | 2 -> Bitvec.of_int ~width:w (Random.State.int rs 8)
  | _ ->
      let bits () = Random.State.bits rs in
      Bitvec.of_int ~width:w (bits () lor (bits () lsl 30) lor (bits () lsl 60))

(* [fit rs e w]: [e] as a [w]-bit expression, by a random slice,
   zero-extension or sign-extension. *)
let fit rs e w =
  let ew = Expr.width e in
  if ew = w then e
  else if ew > w then
    let lo = Random.State.int rs (ew - w + 1) in
    Expr.slice e ~hi:(lo + w - 1) ~lo
  else if Random.State.bool rs then Expr.zero_extend e w
  else Expr.sign_extend e w

let unops = [| Expr.Not; Expr.Neg; Expr.Redand; Expr.Redor; Expr.Redxor |]

let binops =
  Expr.
    [|
      Add; Sub; Mul; And; Or; Xor; Eq; Ne; Ult; Ule; Slt; Sle; Shl; Lshr; Ashr;
    |]

let gen_case rs =
  let open Netlist.Builder in
  let b = create "diff" in
  let some n f = List.init n (fun i -> f (string_of_int i)) in
  let inputs =
    some (2 + Random.State.int rs 3) (fun i -> input b ("i" ^ i) (gen_width rs))
  in
  let params =
    some (1 + Random.State.int rs 2) (fun i -> param b ("p" ^ i) (gen_width rs))
  in
  let regs =
    some (2 + Random.State.int rs 4) (fun i ->
        let w = gen_width rs in
        let init = if Random.State.bool rs then Some (gen_value rs w) else None in
        reg b ?init ("r" ^ i) w)
  in
  (* depth < 2^addr_width, so some addresses are out of range *)
  let mems =
    some (1 + Random.State.int rs 2) (fun i ->
        let addr_width = 1 + Random.State.int rs 4 in
        let depth =
          (1 lsl addr_width) - 1 - Random.State.int rs (1 lsl (addr_width - 1))
        in
        let data_width = gen_width rs in
        let init =
          if Random.State.bool rs then
            Some (Array.init depth (fun _ -> gen_value rs data_width))
          else None
        in
        mem b ?init ("m" ^ i) ~addr_width ~data_width ~depth)
  in
  let pool = ref (Array.of_list (inputs @ params @ regs)) in
  let any () =
    (* favour recent, deeper nodes *)
    let n = Array.length !pool in
    if Random.State.bool rs then !pool.(n - 1 - Random.State.int rs (min n 8))
    else pick rs !pool
  in
  let add e = pool := Array.append !pool [| e |] in
  for _ = 1 to 2 do
    let w = gen_width rs in
    add (Expr.const (gen_value rs w))
  done;
  List.iter
    (fun (m : Expr.mem) -> add (Expr.memread m (fit rs (any ()) m.Expr.m_addr_width)))
    mems;
  for _ = 1 to 12 + Random.State.int rs 24 do
    let a = any () in
    let wa = Expr.width a in
    add
      (match Random.State.int rs 7 with
      | 0 -> Expr.unop (pick rs unops) a
      | 1 | 2 -> (
          match pick rs binops with
          | (Expr.Shl | Expr.Lshr | Expr.Ashr) as op ->
              (* 1-8 bit amounts reach 255, past every width *)
              Expr.binop op a (fit rs (any ()) (1 + Random.State.int rs 8))
          | op -> Expr.binop op a (fit rs (any ()) wa))
      | 3 -> Expr.mux (fit rs (any ()) 1) a (fit rs (any ()) wa)
      | 4 ->
          let room = Bitvec.max_width - wa in
          if room = 0 then Expr.slice a ~hi:(wa - 2) ~lo:0
          else
            let c = any () in
            Expr.concat a (fit rs c (min (Expr.width c) room))
      | 5 ->
          let lo = Random.State.int rs wa in
          Expr.slice a ~hi:(lo + Random.State.int rs (wa - lo)) ~lo
      | _ ->
          let m = pick rs (Array.of_list mems) in
          Expr.memread m (fit rs a m.Expr.m_addr_width))
  done;
  List.iter (fun r -> set_next b r (fit rs (any ()) (Expr.width r))) regs;
  (* 2-3 ports per memory, some on one shared address, some always on *)
  List.iter
    (fun (m : Expr.mem) ->
      let clash = fit rs (any ()) m.Expr.m_addr_width in
      for _ = 1 to 2 + Random.State.int rs 2 do
        let enable =
          if Random.State.int rs 3 = 0 then Expr.vdd else fit rs (any ()) 1
        in
        let addr =
          if Random.State.bool rs then clash
          else fit rs (any ()) m.Expr.m_addr_width
        in
        write_port b m ~enable ~addr
          ~data:(fit rs (any ()) m.Expr.m_data_width)
      done)
    mems;
  List.iteri
    (fun i e -> output b (Printf.sprintf "o%d" i) e)
    (List.init (2 + Random.State.int rs 3) (fun _ -> any ()));
  let nl = finalize b in
  let value_of e = gen_value rs (Expr.width e) in
  let name e =
    match Expr.node e with
    | Expr.Input s | Expr.Param s | Expr.Reg s -> s.Expr.s_name
    | _ -> assert false
  in
  let poke () =
    match Random.State.int rs 6 with
    | 0 ->
        let r = pick rs (Array.of_list regs) in
        Some (Poke_reg (name r, value_of r))
    | 1 ->
        let m = pick rs (Array.of_list mems) in
        Some
          (Poke_mem
             ( m.Expr.m_name,
               Random.State.int rs m.Expr.m_depth,
               gen_value rs m.Expr.m_data_width ))
    | _ -> None
  in
  {
    nl;
    params = List.map (fun p -> (name p, value_of p)) params;
    cycles =
      List.init (16 + Random.State.int rs 9) (fun _ ->
          {
            c_inputs = List.map (fun i -> (name i, value_of i)) inputs;
            c_poke = poke ();
            c_peek = pick rs !pool;
          });
  }

let print_case c =
  Format.asprintf "%a@.params: %s@.%d cycles" Pp.pp_netlist c.nl
    (String.concat ", "
       (List.map (fun (n, v) -> n ^ " = " ^ Bitvec.to_string v) c.params))
    (List.length c.cycles)

(* Every register, memory word and output, plus one random node, must
   agree between the two simulators. *)
let compare_states ~cycle (c : case) eng r (peek : Expr.t) =
  let same what got want =
    if not (Bitvec.equal got want) then
      QCheck.Test.fail_reportf "cycle %d, %s: engine %s, reference %s" cycle
        what (Bitvec.to_string got) (Bitvec.to_string want)
  in
  List.iter
    (fun rd ->
      let n = rd.Netlist.rd_signal.Expr.s_name in
      same n (Sim.Engine.reg_value eng n) (Hashtbl.find r.Ref.vals n))
    c.nl.Netlist.regs;
  List.iter
    (fun md ->
      let m = md.Netlist.md_mem in
      Array.iteri
        (fun i v ->
          same
            (Printf.sprintf "%s[%d]" m.Expr.m_name i)
            (Sim.Engine.mem_value eng m.Expr.m_name i)
            v)
        (Hashtbl.find r.Ref.mems m.Expr.m_name))
    c.nl.Netlist.mems;
  List.iter
    (fun (n, e) -> same n (Sim.Engine.peek_output eng n) (Ref.eval r e))
    c.nl.Netlist.outputs;
  same
    ("peek " ^ Pp.expr_to_string peek)
    (Sim.Engine.peek eng peek) (Ref.eval r peek)

let qcheck_compiled_step =
  QCheck.Test.make ~count:300 ~name:"compiled step = Eval reference"
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let eng = Sim.Engine.create c.nl and r = Ref.create c.nl in
      List.iter
        (fun (n, v) ->
          Sim.Engine.set_param eng n v;
          Hashtbl.replace r.Ref.vals n v)
        c.params;
      List.iteri
        (fun cycle cy ->
          List.iter
            (fun (n, v) ->
              Sim.Engine.set_input eng n v;
              Hashtbl.replace r.Ref.vals n v)
            cy.c_inputs;
          compare_states ~cycle c eng r cy.c_peek;
          (match cy.c_poke with
          | Some (Poke_reg (n, v)) ->
              Sim.Engine.poke_reg eng n v;
              Hashtbl.replace r.Ref.vals n v
          | Some (Poke_mem (n, i, v)) ->
              Sim.Engine.poke_mem eng n i v;
              (Hashtbl.find r.Ref.mems n).(i) <- v
          | None -> ());
          Sim.Engine.step eng;
          Ref.step r;
          compare_states ~cycle c eng r cy.c_peek)
        c.cycles;
      true)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "counter" `Quick test_counter_steps;
          Alcotest.test_case "peek output" `Quick test_peek_output;
          Alcotest.test_case "reset values" `Quick test_reset_values;
          Alcotest.test_case "memory write/read" `Quick test_memory_write_read;
          Alcotest.test_case "memory port priority" `Quick
            test_memory_port_priority;
          Alcotest.test_case "two-phase semantics" `Quick
            test_two_phase_semantics;
          Alcotest.test_case "parameters" `Quick test_params;
          Alcotest.test_case "poke" `Quick test_poke;
        ] );
      ( "trace+vcd",
        [
          Alcotest.test_case "trace" `Quick test_trace;
          Alcotest.test_case "trace error semantics" `Quick
            test_trace_error_semantics;
          Alcotest.test_case "trace accessor perf" `Quick
            test_trace_accessor_perf;
          Alcotest.test_case "vcd dump" `Quick test_vcd;
          Alcotest.test_case "vcd final timestep + close" `Quick
            test_vcd_final_timestep;
          Alcotest.test_case "vcd wide dump perf" `Quick
            test_vcd_wide_dump_perf;
          Alcotest.test_case "vcd hierarchical names" `Quick
            test_vcd_hierarchical_names;
        ] );
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_counter_model; qcheck_compiled_step ] );
    ]
