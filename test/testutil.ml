(* Shared helpers for SoC-level tests: drive the formal-mode netlist's
   victim bus port from a simulator, mimicking CPU transactions. *)

open Rtl

let bv w v = Bitvec.of_int ~width:w v

let build_formal ?(cfg = Soc.Config.formal_tiny) () =
  Soc.Builder.build cfg Soc.Builder.Formal

let engine_of (soc : Soc.Builder.t) = Sim.Engine.create soc.Soc.Builder.netlist

let set_victim eng (cfg : Soc.Config.t) ~req ~addr ~we ~wdata =
  Sim.Engine.set_input_int eng "victim.req" req;
  Sim.Engine.set_input eng "victim.addr" (bv cfg.Soc.Config.addr_width addr);
  Sim.Engine.set_input_int eng "victim.we" we;
  Sim.Engine.set_input eng "victim.wdata" (bv cfg.Soc.Config.data_width wdata)

let victim_idle eng cfg = set_victim eng cfg ~req:0 ~addr:0 ~we:0 ~wdata:0

exception Bus_timeout of string

(* Issue one write; returns the number of cycles it stalled for. *)
let bus_write ?(max_wait = 50) eng cfg ~addr ~data =
  let rec wait n =
    if n > max_wait then raise (Bus_timeout (Printf.sprintf "write @%x" addr));
    set_victim eng cfg ~req:1 ~addr ~we:1 ~wdata:data;
    let gnt = Bitvec.to_int (Sim.Engine.peek_output eng "victim.gnt") in
    Sim.Engine.step eng;
    if gnt = 1 then n else wait (n + 1)
  in
  let stalls = wait 0 in
  victim_idle eng cfg;
  stalls

(* Issue one read; returns (value, stall_cycles). *)
let bus_read ?(max_wait = 50) eng cfg ~addr =
  let rec wait n =
    if n > max_wait then raise (Bus_timeout (Printf.sprintf "read @%x" addr));
    set_victim eng cfg ~req:1 ~addr ~we:0 ~wdata:0;
    let gnt = Bitvec.to_int (Sim.Engine.peek_output eng "victim.gnt") in
    Sim.Engine.step eng;
    if gnt = 1 then n else wait (n + 1)
  in
  let stalls = wait 0 in
  victim_idle eng cfg;
  (* response arrives in the cycle after the grant *)
  let rvalid = Bitvec.to_int (Sim.Engine.peek_output eng "victim.rvalid") in
  if rvalid <> 1 then raise (Bus_timeout (Printf.sprintf "rvalid @%x" addr));
  let v = Bitvec.to_int (Sim.Engine.peek_output eng "victim.rdata") in
  Sim.Engine.step eng;
  (v, stalls)

let bus_read_value ?max_wait eng cfg ~addr = fst (bus_read ?max_wait eng cfg ~addr)

(* Peripheral register addresses *)
let periph_addr cfg p reg = Soc.Memmap.periph_reg_addr cfg p reg

(* Simulation-mode SoC running a firmware image. *)
let build_sim ?(cfg = Soc.Config.sim_default) program =
  let rom = Isa.Asm.assemble program in
  Soc.Builder.build cfg (Soc.Builder.Sim { rom })

let run_until_halt ?(max_cycles = 20000) eng =
  let rec go n =
    if n > max_cycles then failwith "run_until_halt: cycle budget exhausted";
    if Bitvec.to_int (Sim.Engine.peek_output eng "halted") = 1 then n
    else begin
      Sim.Engine.step eng;
      go (n + 1)
    end
  in
  go 0

let cpu_reg eng i =
  if i = 0 then 0 else Bitvec.to_int (Sim.Engine.mem_value eng "cpu.regs" i)

(* The Fig. 3 fixed point computed the way the paper's Alg. 1 states
   it: one two-instance engine without any cycle-0 sharing, one check
   of the whole property per iteration, S_cex read from that check's
   model. Kept as an oracle independent of the per-svar rounds of
   {!Upec.Refine}: both must reach the same verdict class and, on a
   secure design, the same final S (the greatest fixed point below the
   start set). *)
type oracle =
  | Oracle_secure of Structural.Svar_set.t
  | Oracle_vulnerable of Structural.Svar_set.t
  | Oracle_frontier of int * Structural.Svar_set.t
      (** [max_iterations] reached: the next iteration and its S *)

let oracle_alg1 ?(max_iterations = 64) spec =
  let module Svars = Structural.Svar_set in
  let eng =
    Ipc.Engine.create ~two_instance:true spec.Upec.Spec.soc.Soc.Builder.netlist
  in
  Ipc.Engine.ensure_frames eng 1;
  Upec.Macros.assume_env eng spec ~frames:1;
  for f = 0 to 1 do
    Upec.Macros.frame_constraints eng spec ~frame:f
  done;
  let g = Ipc.Engine.graph eng in
  let cond ~frame sv = Upec.Macros.sv_condition eng spec ~frame sv in
  let rec loop i s =
    if i > max_iterations then Oracle_frontier (i, s)
    else begin
      (* the iteration's obligation, armed by its own activation literal *)
      let act = Aig.fresh_var g in
      Ipc.Engine.assume_implication eng act
        (Aig.mk_or_list g
           (Svars.fold
              (fun sv acc -> Aig.lit_not (cond ~frame:1 sv) :: acc)
              s []));
      let eqs = Svars.fold (fun sv acc -> cond ~frame:0 sv :: acc) s [] in
      match Ipc.Engine.decide eng (Ipc.Engine.Violation (act :: eqs)) with
      | Ipc.Engine.Proved -> Oracle_secure s
      | Ipc.Engine.Unknown reason -> failwith ("oracle: " ^ reason)
      | Ipc.Engine.Refuted cex ->
          let s_cex =
            Upec.Macros.violations eng spec (Option.get cex) ~frame:1 s
          in
          if Svars.is_empty s_cex then failwith "oracle: spurious model";
          if Svars.exists (Upec.Spec.is_pers spec) s_cex then
            Oracle_vulnerable s_cex
          else loop (i + 1) (Svars.diff s s_cex)
    end
  in
  loop 1 (Upec.Spec.s_neg_victim spec)
