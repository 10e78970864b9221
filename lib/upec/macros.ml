open Rtl
module U = Ipc.Unroller

let victim_input_signals (spec : Spec.t) =
  let nl = spec.Spec.soc.Soc.Builder.netlist in
  List.filter
    (fun (s : Expr.signal) ->
      List.mem s.Expr.s_name spec.Spec.soc.Soc.Builder.victim_port)
    nl.Netlist.inputs

let other_input_signals (spec : Spec.t) =
  let nl = spec.Spec.soc.Soc.Builder.netlist in
  List.filter
    (fun (s : Expr.signal) ->
      not (List.mem s.Expr.s_name spec.Spec.soc.Soc.Builder.victim_port))
    nl.Netlist.inputs

let input_by_name (spec : Spec.t) name =
  List.find
    (fun (s : Expr.signal) -> s.Expr.s_name = name)
    spec.Spec.soc.Soc.Builder.netlist.Netlist.inputs

let assume_env_at eng spec ~frame =
  let env = Spec.assumed_env spec in
  let u = Ipc.Engine.unroller eng in
  List.iter
    (fun inst ->
      let v = U.blast_at u inst ~frame env in
      Ipc.Engine.assume eng v.(0))
    [ U.A; U.B ]

let assume_env eng spec ~frames =
  for f = 0 to frames do
    assume_env_at eng spec ~frame:f
  done

let primary_input_constraints eng spec ~frame =
  let u = Ipc.Engine.unroller eng in
  List.iter
    (fun (s : Expr.signal) ->
      Ipc.Engine.assume eng (U.inputs_equal_lit u ~frame s))
    (other_input_signals spec)

let victim_port_equal eng spec ~frame =
  let u = Ipc.Engine.unroller eng in
  List.iter
    (fun (s : Expr.signal) ->
      Ipc.Engine.assume eng (U.inputs_equal_lit u ~frame s))
    (victim_input_signals spec)

let victim_task_executing eng spec ~frame =
  let u = Ipc.Engine.unroller eng in
  let g = Ipc.Engine.graph eng in
  let sig_of n = input_by_name spec n in
  (* request shape equal in both instances *)
  Ipc.Engine.assume eng (U.inputs_equal_lit u ~frame (sig_of "victim.req"));
  Ipc.Engine.assume eng (U.inputs_equal_lit u ~frame (sig_of "victim.we"));
  (* both instances touch protected addresses at the same cycles *)
  let prot inst =
    let e = Spec.in_range spec (Expr.input (sig_of "victim.addr")) in
    (U.blast_at u inst ~frame e).(0)
  in
  let prot_a = prot U.A and prot_b = prot U.B in
  Ipc.Engine.assume eng (Aig.mk_xnor g prot_a prot_b);
  (* outside the protected range, address and data are identical *)
  let addr_eq = U.inputs_equal_lit u ~frame (sig_of "victim.addr") in
  let wdata_eq = U.inputs_equal_lit u ~frame (sig_of "victim.wdata") in
  Ipc.Engine.assume eng (Aig.mk_implies g (Aig.lit_not prot_a) addr_eq);
  Ipc.Engine.assume eng (Aig.mk_implies g (Aig.lit_not prot_a) wdata_eq)

(* Fig. 4: Victim_Task_Executing during t..t+1 only; beyond that the
   victim port carries equal traffic in both instances *)
let frame_constraints eng spec ~frame =
  primary_input_constraints eng spec ~frame;
  if frame <= 1 then victim_task_executing eng spec ~frame
  else victim_port_equal eng spec ~frame

let assume_reset_state eng (spec : Spec.t) =
  let nl = spec.Spec.soc.Soc.Builder.netlist in
  let u = Ipc.Engine.unroller eng in
  let g = Ipc.Engine.graph eng in
  let pin vec value =
    Ipc.Engine.assume eng
      (Bitblast.Blaster.v_eq g vec (Bitblast.Blaster.const_vec value))
  in
  List.iter
    (fun inst ->
      List.iter
        (fun rd ->
          let s = rd.Netlist.rd_signal in
          let value =
            match rd.Netlist.rd_init with
            | Some v -> v
            | None -> Bitvec.zero s.Expr.s_width
          in
          pin (U.reg_vec u inst ~frame:0 s) value)
        nl.Netlist.regs;
      List.iter
        (fun md ->
          let m = md.Netlist.md_mem in
          for i = 0 to m.Expr.m_depth - 1 do
            let value =
              match md.Netlist.md_init with
              | Some a -> a.(i)
              | None -> Bitvec.zero m.Expr.m_data_width
            in
            pin (U.mem_vec u inst ~frame:0 m i) value
          done)
        nl.Netlist.mems)
    [ U.A; U.B ]

(* equal-or-protected condition for one state variable *)
let sv_condition eng spec ~frame sv =
  let u = Ipc.Engine.unroller eng in
  let g = Ipc.Engine.graph eng in
  let eq = U.svar_equal_lit u ~frame sv in
  match Spec.victim_cell_guard spec sv with
  | None -> eq
  | Some guard ->
      (* the guard is over parameters only; any instance/frame works *)
      let gl = (U.blast_at u U.A ~frame:0 guard).(0) in
      Aig.mk_or g gl eq

let cycle0_shared spec s sv =
  Structural.Svar_set.mem sv s && Spec.victim_cell_guard spec sv = None

let state_equivalence_assume eng spec ~frame set =
  Structural.Svar_set.iter
    (fun sv -> Ipc.Engine.assume eng (sv_condition eng spec ~frame sv))
    set

let state_equivalence_goal eng spec ~frame set =
  let g = Ipc.Engine.graph eng in
  Structural.Svar_set.fold
    (fun sv acc -> Aig.mk_and g acc (sv_condition eng spec ~frame sv))
    set Aig.true_lit

let cell_guard_concrete spec cex sv =
  match sv with
  | Structural.Smem (m, i) -> (
      match spec.Spec.soc.Soc.Builder.cell_addr m i with
      | Some a ->
          let base =
            Bitvec.to_int (Ipc.Cex.param_value_by_name cex "victim_base")
          in
          let limit =
            Bitvec.to_int (Ipc.Cex.param_value_by_name cex "victim_limit")
          in
          base <= a && a <= limit
      | None -> false)
  | Structural.Sreg _ -> false

let violations _eng spec cex ~frame set =
  Structural.Svar_set.filter
    (fun sv ->
      (not (cell_guard_concrete spec cex sv))
      && not
           (Bitvec.equal
              (Ipc.Cex.svar_value cex U.A ~frame sv)
              (Ipc.Cex.svar_value cex U.B ~frame sv)))
    set
