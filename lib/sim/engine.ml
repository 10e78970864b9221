open Rtl
module Raw = Bitvec.Raw

(* One instruction per expression node reachable from the netlist's
   roots, in topological order. Each writes slot [dst] of the value
   array from earlier slots; constants are written once, by [create]. *)
type instr =
  | Load of { dst : int; src : int array; i : int }
  | Memread of { dst : int; mem : int array; addr : int }
  | Unop of { dst : int; op : Expr.unop; width : int; a : int }
  | Binop of { dst : int; op : Expr.binop; width : int; a : int; b : int }
  | Mux of { dst : int; sel : int; a : int; b : int }
  | Concat of { dst : int; lo_width : int; hi : int; lo : int }
  | Slice of { dst : int; hi : int; lo : int; a : int }

(* A write port in commit order, its operands as slots. *)
type port = { mem : int array; enable : int; addr : int; data : int }

(* Inputs, parameters or registers: values by position, plus the maps
   from name and from signal id to position. *)
type bank = {
  sigs : Expr.signal array;
  vals : int array;
  by_name : (string, int) Hashtbl.t;
  by_id : (int, int) Hashtbl.t;
}

type t = {
  nl : Netlist.t;
  inputs : bank;
  params : bank;
  regs : bank;
  mems : Expr.mem array;
  mem_vals : int array array;
  mem_by_name : (string, int) Hashtbl.t;
  mem_by_id : (int, int) Hashtbl.t;
  code : instr array;
  slots : int array;
  reg_next : int array;  (** slot of each register's next state *)
  ports : port list;
  outputs : (string, int * int) Hashtbl.t;  (** name -> slot, width *)
  mutable settled : bool;  (** [slots] hold the current state's values *)
  mutable cycle : int;
  mutable hooks : (t -> unit) list;  (** reversed *)
}

let index key xs =
  let h = Hashtbl.create (max 8 (Array.length xs)) in
  Array.iteri (fun i x -> Hashtbl.replace h (key x) i) xs;
  h

let bank entries =
  let sigs = Array.of_list (List.map fst entries) in
  {
    sigs;
    vals = Array.of_list (List.map snd entries);
    by_name = index (fun (s : Expr.signal) -> s.Expr.s_name) sigs;
    by_id = index (fun (s : Expr.signal) -> s.Expr.s_id) sigs;
  }

let create (nl : Netlist.t) =
  let zeros = List.map (fun s -> (s, 0)) in
  let inputs = bank (zeros nl.Netlist.inputs) in
  let params = bank (zeros nl.Netlist.params) in
  let regs =
    bank
      (List.map
         (fun rd ->
           ( rd.Netlist.rd_signal,
             Option.fold ~none:0 ~some:Bitvec.to_int rd.Netlist.rd_init ))
         nl.Netlist.regs)
  in
  let mem_defs = Array.of_list nl.Netlist.mems in
  let mems = Array.map (fun md -> md.Netlist.md_mem) mem_defs in
  let mem_vals =
    Array.map
      (fun md ->
        match md.Netlist.md_init with
        | Some a -> Array.map Bitvec.to_int a
        | None -> Array.make md.Netlist.md_mem.Expr.m_depth 0)
      mem_defs
  in
  let mem_by_id = index (fun (m : Expr.mem) -> m.Expr.m_id) mems in
  (* Compile: number every node reachable from a root and emit its
     instruction after its operands'. *)
  let slot_of = Hashtbl.create 1024 in
  let code = ref [] and consts = ref [] and n = ref 0 in
  let fresh () =
    incr n;
    !n - 1
  in
  let emit mk =
    let dst = fresh () in
    code := mk dst :: !code;
    dst
  in
  let load (b : bank) (s : Expr.signal) =
    let i = Hashtbl.find b.by_id s.Expr.s_id in
    emit (fun dst -> Load { dst; src = b.vals; i })
  in
  let rec slot e =
    match Hashtbl.find_opt slot_of (Expr.tag e) with
    | Some s -> s
    | None ->
        let s =
          match Expr.node e with
          | Expr.Const v ->
              let dst = fresh () in
              consts := (dst, Bitvec.to_int v) :: !consts;
              dst
          | Expr.Input s -> load inputs s
          | Expr.Param s -> load params s
          | Expr.Reg s -> load regs s
          | Expr.Memread (m, a) ->
              let mem = mem_vals.(Hashtbl.find mem_by_id m.Expr.m_id) in
              let addr = slot a in
              emit (fun dst -> Memread { dst; mem; addr })
          | Expr.Unop (op, a) ->
              let width = Expr.width a and a = slot a in
              emit (fun dst -> Unop { dst; op; width; a })
          | Expr.Binop (op, a, b) ->
              let width = Expr.width a in
              let a = slot a in
              let b = slot b in
              emit (fun dst -> Binop { dst; op; width; a; b })
          | Expr.Mux (sel, a, b) ->
              let sel = slot sel in
              let a = slot a in
              let b = slot b in
              emit (fun dst -> Mux { dst; sel; a; b })
          | Expr.Concat (hi, lo) ->
              let lo_width = Expr.width lo in
              let hi = slot hi in
              let lo = slot lo in
              emit (fun dst -> Concat { dst; lo_width; hi; lo })
          | Expr.Slice (a, hi, lo) ->
              let a = slot a in
              emit (fun dst -> Slice { dst; hi; lo; a })
        in
        Hashtbl.add slot_of (Expr.tag e) s;
        s
  in
  let reg_next =
    Array.of_list (List.map (fun rd -> slot rd.Netlist.rd_next) nl.Netlist.regs)
  in
  (* Later ports are committed first so earlier ports win on an address
     clash, matching the documented priority. *)
  let ports =
    List.concat
      (List.mapi
         (fun k md ->
           List.rev_map
             (fun wp ->
               {
                 mem = mem_vals.(k);
                 enable = slot wp.Netlist.wp_enable;
                 addr = slot wp.Netlist.wp_addr;
                 data = slot wp.Netlist.wp_data;
               })
             md.Netlist.md_ports)
         nl.Netlist.mems)
  in
  let outputs = Hashtbl.create 16 in
  List.iter
    (fun (name, e) -> Hashtbl.replace outputs name (slot e, Expr.width e))
    nl.Netlist.outputs;
  let slots = Array.make !n 0 in
  List.iter (fun (dst, v) -> slots.(dst) <- v) !consts;
  {
    nl;
    inputs;
    params;
    regs;
    mems;
    mem_vals;
    mem_by_name = index (fun (m : Expr.mem) -> m.Expr.m_name) mems;
    mem_by_id;
    code = Array.of_list (List.rev !code);
    slots;
    reg_next;
    ports;
    outputs;
    settled = false;
    cycle = 0;
    hooks = [];
  }

let unop op ~width a =
  match op with
  | Expr.Not -> Raw.lognot ~width a
  | Expr.Neg -> Raw.neg ~width a
  | Expr.Redand -> Raw.redand ~width a
  | Expr.Redor -> Raw.redor a
  | Expr.Redxor -> Raw.redxor a

let binop op ~width a b =
  match op with
  | Expr.Add -> Raw.add ~width a b
  | Expr.Sub -> Raw.sub ~width a b
  | Expr.Mul -> Raw.mul ~width a b
  | Expr.And -> Raw.logand a b
  | Expr.Or -> Raw.logor a b
  | Expr.Xor -> Raw.logxor a b
  | Expr.Eq -> Raw.eq a b
  | Expr.Ne -> Raw.ne a b
  | Expr.Ult -> Raw.ult a b
  | Expr.Ule -> Raw.ule a b
  | Expr.Slt -> Raw.slt ~width a b
  | Expr.Sle -> Raw.sle ~width a b
  | Expr.Shl -> Raw.shl ~width a b
  | Expr.Lshr -> Raw.lshr ~width a b
  | Expr.Ashr -> Raw.ashr ~width a b

(* The combinational pass: every instruction once, in order. Both arms
   of a mux are computed; every operator is total, so this is safe. *)
let settle t =
  if not t.settled then begin
    let s = t.slots and code = t.code in
    for k = 0 to Array.length code - 1 do
      match code.(k) with
      | Load { dst; src; i } -> s.(dst) <- src.(i)
      | Memread { dst; mem; addr } ->
          let a = s.(addr) in
          s.(dst) <- (if a < Array.length mem then mem.(a) else 0)
      | Unop { dst; op; width; a } -> s.(dst) <- unop op ~width s.(a)
      | Binop { dst; op; width; a; b } -> s.(dst) <- binop op ~width s.(a) s.(b)
      | Mux { dst; sel; a; b } -> s.(dst) <- (if s.(sel) <> 0 then s.(a) else s.(b))
      | Concat { dst; lo_width; hi; lo } ->
          s.(dst) <- Raw.concat ~lo_width s.(hi) s.(lo)
      | Slice { dst; hi; lo; a } -> s.(dst) <- Raw.slice ~hi ~lo s.(a)
    done;
    t.settled <- true
  end

let get (b : bank) (s : Expr.signal) =
  Bitvec.of_int ~width:s.Expr.s_width b.vals.(Hashtbl.find b.by_id s.Expr.s_id)

let env t =
  {
    Eval.lookup_input = get t.inputs;
    Eval.lookup_param = get t.params;
    Eval.lookup_reg = get t.regs;
    Eval.lookup_mem =
      (fun m i ->
        Bitvec.of_int ~width:m.Expr.m_data_width
          t.mem_vals.(Hashtbl.find t.mem_by_id m.Expr.m_id).(i));
  }

(* Write [v] into a bank after checking its width against the signal's. *)
let write t what (b : bank) name v =
  let i = Hashtbl.find b.by_name name in
  if Bitvec.width v <> b.sigs.(i).Expr.s_width then
    invalid_arg (Printf.sprintf "Engine.%s %s: width mismatch" what name);
  b.vals.(i) <- Bitvec.to_int v;
  t.settled <- false

let set_param t name v = write t "set_param" t.params name v
let set_input t name v = write t "set_input" t.inputs name v

let set_input_int t name v =
  let i = Hashtbl.find t.inputs.by_name name in
  t.inputs.vals.(i) <- v land Raw.mask t.inputs.sigs.(i).Expr.s_width;
  t.settled <- false

let peek t e = Eval.eval (env t) e

let peek_output t name =
  let slot, width = Hashtbl.find t.outputs name in
  settle t;
  Bitvec.of_int ~width t.slots.(slot)

let reg_value t name =
  let i = Hashtbl.find t.regs.by_name name in
  Bitvec.of_int ~width:t.regs.sigs.(i).Expr.s_width t.regs.vals.(i)

let mem_value t name i =
  let k = Hashtbl.find t.mem_by_name name in
  Bitvec.of_int ~width:t.mems.(k).Expr.m_data_width t.mem_vals.(k).(i)

let poke_reg t name v = write t "poke_reg" t.regs name v

let poke_mem t name i v =
  let k = Hashtbl.find t.mem_by_name name in
  if Bitvec.width v <> t.mems.(k).Expr.m_data_width then
    invalid_arg (Printf.sprintf "Engine.poke_mem %s: width mismatch" name);
  t.mem_vals.(k).(i) <- Bitvec.to_int v;
  t.settled <- false

let step t =
  settle t;
  let s = t.slots in
  Array.iteri (fun i next -> t.regs.vals.(i) <- s.(next)) t.reg_next;
  List.iter
    (fun p ->
      if s.(p.enable) <> 0 then
        let a = s.(p.addr) in
        if a < Array.length p.mem then p.mem.(a) <- s.(p.data))
    t.ports;
  t.settled <- false;
  t.cycle <- t.cycle + 1;
  List.iter (fun hook -> hook t) (List.rev t.hooks)

let run t n =
  for _ = 1 to n do
    step t
  done

let cycle t = t.cycle
let netlist t = t.nl
let on_step t hook = t.hooks <- hook :: t.hooks
