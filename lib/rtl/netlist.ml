type write_port = { wp_enable : Expr.t; wp_addr : Expr.t; wp_data : Expr.t }

type reg_def = {
  rd_signal : Expr.signal;
  rd_next : Expr.t;
  rd_init : Bitvec.t option;
}

type mem_def = {
  md_mem : Expr.mem;
  md_ports : write_port list;
  md_init : Bitvec.t array option;
}

type t = {
  name : string;
  inputs : Expr.signal list;
  params : Expr.signal list;
  regs : reg_def list;
  mems : mem_def list;
  outputs : (string * Expr.t) list;
}

module Builder = struct
  type pending_reg = {
    pr_signal : Expr.signal;
    pr_init : Bitvec.t option;
    mutable pr_next : Expr.t option;
  }

  type pending_mem = {
    pm_mem : Expr.mem;
    pm_init : Bitvec.t array option;
    mutable pm_ports : write_port list;  (** reversed *)
  }

  type builder = {
    b_name : string;
    mutable b_inputs : Expr.signal list;  (** reversed *)
    mutable b_params : Expr.signal list;  (** reversed *)
    mutable b_regs : pending_reg list;  (** reversed *)
    mutable b_mems : pending_mem list;  (** reversed *)
    mutable b_outputs : (string * Expr.t) list;  (** reversed *)
    b_reg_by_id : (int, pending_reg) Hashtbl.t;
    b_names : (string, unit) Hashtbl.t;
  }

  let create name =
    {
      b_name = name;
      b_inputs = [];
      b_params = [];
      b_regs = [];
      b_mems = [];
      b_outputs = [];
      b_reg_by_id = Hashtbl.create 64;
      b_names = Hashtbl.create 64;
    }

  let claim_name b name =
    if Hashtbl.mem b.b_names name then
      invalid_arg (Printf.sprintf "Netlist.Builder: duplicate name %s" name);
    Hashtbl.add b.b_names name ()

  let input b name w =
    claim_name b name;
    let s = Expr.signal name w in
    b.b_inputs <- s :: b.b_inputs;
    Expr.input s

  let param b name w =
    claim_name b name;
    let s = Expr.signal name w in
    b.b_params <- s :: b.b_params;
    Expr.param s

  let reg b ?init name w =
    claim_name b name;
    (match init with
    | Some v when Bitvec.width v <> w ->
        invalid_arg (Printf.sprintf "Netlist.Builder.reg %s: init width" name)
    | _ -> ());
    let s = Expr.signal name w in
    let pr = { pr_signal = s; pr_init = init; pr_next = None } in
    b.b_regs <- pr :: b.b_regs;
    Hashtbl.add b.b_reg_by_id s.Expr.s_id pr;
    Expr.reg s

  let set_next b r next =
    match Expr.node r with
    | Expr.Reg s -> (
        match Hashtbl.find_opt b.b_reg_by_id s.Expr.s_id with
        | None ->
            invalid_arg "Netlist.Builder.set_next: register of another builder"
        | Some pr ->
            if pr.pr_next <> None then
              invalid_arg
                (Printf.sprintf "Netlist.Builder.set_next %s: already set"
                   s.Expr.s_name);
            if Expr.width next <> s.Expr.s_width then
              invalid_arg
                (Printf.sprintf "Netlist.Builder.set_next %s: width mismatch"
                   s.Expr.s_name);
            pr.pr_next <- Some next)
    | _ -> invalid_arg "Netlist.Builder.set_next: not a register expression"

  let mem b ?init name ~addr_width ~data_width ~depth =
    claim_name b name;
    (match init with
    | Some a when Array.length a <> depth ->
        invalid_arg (Printf.sprintf "Netlist.Builder.mem %s: init length" name)
    | Some a when Array.exists (fun v -> Bitvec.width v <> data_width) a ->
        invalid_arg (Printf.sprintf "Netlist.Builder.mem %s: init width" name)
    | _ -> ());
    let m = Expr.memory name ~addr_width ~data_width ~depth in
    b.b_mems <- { pm_mem = m; pm_init = init; pm_ports = [] } :: b.b_mems;
    m

  let write_port b m ~enable ~addr ~data =
    if Expr.width enable <> 1 then
      invalid_arg "Netlist.Builder.write_port: enable must be 1 bit";
    if Expr.width addr <> m.Expr.m_addr_width then
      invalid_arg "Netlist.Builder.write_port: address width";
    if Expr.width data <> m.Expr.m_data_width then
      invalid_arg "Netlist.Builder.write_port: data width";
    let pm =
      try List.find (fun pm -> pm.pm_mem.Expr.m_id = m.Expr.m_id) b.b_mems
      with Not_found ->
        invalid_arg "Netlist.Builder.write_port: memory of another builder"
    in
    pm.pm_ports <-
      { wp_enable = enable; wp_addr = addr; wp_data = data } :: pm.pm_ports

  let output b name e =
    claim_name b name;
    b.b_outputs <- (name, e) :: b.b_outputs

  let import b (nl : t) =
    List.iter
      (fun (s : Expr.signal) ->
        claim_name b s.Expr.s_name;
        b.b_inputs <- s :: b.b_inputs)
      nl.inputs;
    List.iter
      (fun (s : Expr.signal) ->
        claim_name b s.Expr.s_name;
        b.b_params <- s :: b.b_params)
      nl.params;
    List.iter
      (fun rd ->
        let s = rd.rd_signal in
        claim_name b s.Expr.s_name;
        let pr =
          { pr_signal = s; pr_init = rd.rd_init; pr_next = Some rd.rd_next }
        in
        b.b_regs <- pr :: b.b_regs;
        Hashtbl.add b.b_reg_by_id s.Expr.s_id pr)
      nl.regs;
    List.iter
      (fun md ->
        let m = md.md_mem in
        claim_name b m.Expr.m_name;
        b.b_mems <-
          { pm_mem = m; pm_init = md.md_init; pm_ports = List.rev md.md_ports }
          :: b.b_mems)
      nl.mems;
    List.iter
      (fun (name, e) ->
        claim_name b name;
        b.b_outputs <- (name, e) :: b.b_outputs)
      nl.outputs

  let finalize b =
    let regs =
      List.rev_map
        (fun pr ->
          let next =
            match pr.pr_next with
            | Some e -> e
            | None -> Expr.reg pr.pr_signal
          in
          { rd_signal = pr.pr_signal; rd_next = next; rd_init = pr.pr_init })
        b.b_regs
    in
    let mems =
      List.rev_map
        (fun pm ->
          {
            md_mem = pm.pm_mem;
            md_ports = List.rev pm.pm_ports;
            md_init = pm.pm_init;
          })
        b.b_mems
    in
    {
      name = b.b_name;
      inputs = List.rev b.b_inputs;
      params = List.rev b.b_params;
      regs;
      mems;
      outputs = List.rev b.b_outputs;
    }
end

let find_reg t name =
  List.find (fun rd -> rd.rd_signal.Expr.s_name = name) t.regs

let find_mem t name = List.find (fun md -> md.md_mem.Expr.m_name = name) t.mems

let find_output t name =
  match List.assoc_opt name t.outputs with
  | Some e -> e
  | None -> raise Not_found

let reg_signals t = List.map (fun rd -> rd.rd_signal) t.regs

let state_bits t =
  let reg_bits =
    List.fold_left (fun acc rd -> acc + rd.rd_signal.Expr.s_width) 0 t.regs
  in
  let mem_bits =
    List.fold_left
      (fun acc md ->
        acc + (md.md_mem.Expr.m_depth * md.md_mem.Expr.m_data_width))
      0 t.mems
  in
  reg_bits + mem_bits

let stats t =
  let nodes =
    let seen = Hashtbl.create 1024 in
    let count = ref 0 in
    let rec go e =
      if not (Hashtbl.mem seen (Expr.tag e)) then begin
        Hashtbl.add seen (Expr.tag e) ();
        incr count;
        match Expr.node e with
        | Expr.Const _ | Expr.Input _ | Expr.Param _ | Expr.Reg _ -> ()
        | Expr.Memread (_, a) | Expr.Unop (_, a) | Expr.Slice (a, _, _) -> go a
        | Expr.Binop (_, a, b) | Expr.Concat (a, b) ->
            go a;
            go b
        | Expr.Mux (s, a, b) ->
            go s;
            go a;
            go b
      end
    in
    List.iter (fun rd -> go rd.rd_next) t.regs;
    List.iter
      (fun md ->
        List.iter
          (fun wp ->
            go wp.wp_enable;
            go wp.wp_addr;
            go wp.wp_data)
          md.md_ports)
      t.mems;
    List.iter (fun (_, e) -> go e) t.outputs;
    !count
  in
  Printf.sprintf "%s: %d inputs, %d params, %d regs, %d mems, %d state bits, %d expr nodes"
    t.name (List.length t.inputs) (List.length t.params) (List.length t.regs)
    (List.length t.mems) (state_bits t) nodes
