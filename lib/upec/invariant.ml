open Rtl
module U = Ipc.Unroller

let check_inductive ?solver_options spec =
  let invs = Spec.invariants spec in
  let nl = spec.Spec.soc.Soc.Builder.netlist in
  List.map
    (fun (name, inv) ->
      let eng = Ipc.Engine.create ?solver_options ~two_instance:false nl in
      Ipc.Engine.ensure_frames eng 1;
      let u = Ipc.Engine.unroller eng in
      let env = Spec.assumed_env spec in
      Ipc.Engine.assume eng (U.blast_at u U.A ~frame:0 env).(0);
      (* the environment's non-invariant parts also hold at cycle 1
         (configuration legality is assumed throughout the window) *)
      let env1 =
        Expr.and_list
          [ Spec.range_wellformed spec; Spec.threat_model spec; Spec.policy spec ]
      in
      Ipc.Engine.assume eng (U.blast_at u U.A ~frame:1 env1).(0);
      let goal = (U.blast_at u U.A ~frame:1 inv).(0) in
      let ok =
        match Ipc.Engine.decide eng (Ipc.Engine.Goal goal) with
        | Ipc.Engine.Proved -> true
        | Ipc.Engine.Refuted _ | Ipc.Engine.Unknown _ -> false
      in
      (name, ok))
    invs

let check_base spec =
  let nl = spec.Spec.soc.Soc.Builder.netlist in
  let aw = spec.Spec.soc.Soc.Builder.soc_cfg.Soc.Config.addr_width in
  let engines =
    List.map
      (fun (b, l) ->
        let eng = Sim.Engine.create nl in
        Sim.Engine.set_param eng "victim_base" (Bitvec.of_int ~width:aw b);
        Sim.Engine.set_param eng "victim_limit" (Bitvec.of_int ~width:aw l);
        eng)
      [ (0, 0); (0, (1 lsl aw) - 1); (3, 7); (64, 71) ]
  in
  List.map
    (fun (name, inv) ->
      ( name,
        List.for_all
          (fun eng -> Bitvec.to_int (Sim.Engine.peek eng inv) = 1)
          engines ))
    (Spec.invariants spec)

let all_sound ?solver_options spec =
  List.for_all snd (check_inductive ?solver_options spec)
  && List.for_all snd (check_base spec)
