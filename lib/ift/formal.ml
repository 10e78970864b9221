open Rtl
module U = Ipc.Unroller

type verdict =
  | No_flow of { k : int }
  | Flow of { k : int; tainted : Structural.svar list }

(* the shadow of an svar is itself a register of the instrumented
   netlist; recover it as an svar so it can be read out of a cex *)
let shadow_svar sh sv =
  match Taint.shadow_of_svar sh sv with
  | Some te -> (
      match Expr.node te with
      | Expr.Reg s -> Some (Structural.Sreg s)
      | Expr.Input _ | Expr.Param _ | Expr.Const _ | Expr.Memread _
      | Expr.Unop _ | Expr.Binop _ | Expr.Mux _ | Expr.Concat _ | Expr.Slice _
        ->
          None)
  | None -> None

let analyze ?(max_k = 4) (spec : Upec.Spec.t) =
  let t0 = Unix.gettimeofday () in
  let soc = spec.Upec.Spec.soc in
  let nl = soc.Soc.Builder.netlist in
  let inst_nl, sh =
    Taint.instrument nl ~taint_inputs:soc.Soc.Builder.victim_port
  in
  let pers_svars =
    Structural.Svar_set.filter
      (Upec.Spec.is_pers spec)
      (Structural.all_svars nl)
  in
  let input_by_name name =
    List.find (fun (s : Expr.signal) -> s.Expr.s_name = name) nl.Netlist.inputs
  in
  let shadow_in name =
    Option.get (Taint.shadow_input sh (input_by_name name))
  in
  let rec try_k k =
    if k > max_k then (No_flow { k = max_k }, Unix.gettimeofday () -. t0)
    else begin
      let eng = Ipc.Engine.create ~two_instance:false inst_nl in
      Ipc.Engine.ensure_frames eng k;
      let u = Ipc.Engine.unroller eng in
      let g = Ipc.Engine.graph eng in
      (* environment assumptions at every cycle *)
      let env = Upec.Spec.assumed_env spec in
      for f = 0 to k do
        Ipc.Engine.assume eng (U.blast_at u U.A ~frame:f env).(0)
      done;
      (* taint-free symbolic start *)
      Structural.Svar_set.iter
        (fun sv ->
          match Taint.shadow_of_svar sh sv with
          | None -> ()
          | Some te ->
              let v = U.blast_at u U.A ~frame:0 te in
              Array.iter (fun l -> Ipc.Engine.assume eng (Aig.lit_not l)) v)
        (Structural.all_svars nl);
      (* taint source: protected accesses raise address and data taint *)
      let addr_sig = input_by_name "victim.addr" in
      let prot_expr = Upec.Spec.in_range spec (Expr.input addr_sig) in
      for f = 0 to k - 1 do
        let prot = (U.blast_at u U.A ~frame:f prot_expr).(0) in
        let tie name =
          let tvec = U.blast_at u U.A ~frame:f (shadow_in name) in
          Array.iter (fun l -> Ipc.Engine.assume eng (Aig.mk_xnor g l prot)) tvec
        in
        tie "victim.addr";
        tie "victim.wdata";
        let untaint name =
          let tvec = U.blast_at u U.A ~frame:f (shadow_in name) in
          Array.iter (fun l -> Ipc.Engine.assume eng (Aig.lit_not l)) tvec
        in
        untaint "victim.req";
        untaint "victim.we"
      done;
      (* target: some persistent, non-protected state variable tainted
         at cycle k *)
      let targets =
        Structural.Svar_set.fold
          (fun sv acc ->
            match Taint.shadow_of_svar sh sv with
            | None -> acc
            | Some te ->
                let bits = U.blast_at u U.A ~frame:k te in
                let tainted = Aig.mk_or_list g (Array.to_list bits) in
                let relevant =
                  match Upec.Spec.victim_cell_guard spec sv with
                  | None -> tainted
                  | Some guard ->
                      let gl = (U.blast_at u U.A ~frame:0 guard).(0) in
                      Aig.mk_and g tainted (Aig.lit_not gl)
                in
                (sv, relevant) :: acc)
          pers_svars []
      in
      let goal = Aig.mk_or_list g (List.map snd targets) in
      match Ipc.Engine.decide eng (Ipc.Engine.Violation [ goal ]) with
      | Ipc.Engine.Proved -> try_k (k + 1)
      | Ipc.Engine.Unknown reason -> failwith ("Ift.Formal.analyze: " ^ reason)
      | Ipc.Engine.Refuted c ->
          let cex = Option.get c in
          let tainted =
            List.filter_map
              (fun (sv, _) ->
                match shadow_svar sh sv with
                | Some ssv
                  when not
                         (Bitvec.is_zero
                            (Ipc.Cex.svar_value cex U.A ~frame:k ssv))
                       && not (Upec.Macros.cell_guard_concrete spec cex sv) ->
                    Some sv
                | Some _ | None -> None)
              targets
          in
          (Flow { k; tainted }, Unix.gettimeofday () -. t0)
    end
  in
  try_k 1
