type signal = { s_name : string; s_width : int; s_id : int }

type mem = {
  m_name : string;
  m_addr_width : int;
  m_data_width : int;
  m_depth : int;
  m_id : int;
}

type unop = Not | Neg | Redand | Redor | Redxor

type binop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Eq
  | Ne
  | Ult
  | Ule
  | Slt
  | Sle
  | Shl
  | Lshr
  | Ashr

type t = { tag : int; width : int; node : node }

and node =
  | Const of Bitvec.t
  | Input of signal
  | Param of signal
  | Reg of signal
  | Memread of mem * t
  | Unop of unop * t
  | Binop of binop * t * t
  | Mux of t * t * t
  | Concat of t * t
  | Slice of t * int * int

let tag e = e.tag
let width e = e.width
let node e = e.node

(* The id counters and the hash-cons table below are global, so they are
   guarded by a mutex: expressions may be built from several domains at
   once (per-worker proof engines, concurrent bench experiments). The
   lock is uncontended in single-domain runs. *)
let global_lock = Mutex.create ()
let next_signal_id = ref 0
let next_mem_id = ref 0

let signal name w =
  if w < 1 || w > Bitvec.max_width then
    invalid_arg (Printf.sprintf "Expr.signal %s: bad width %d" name w);
  Mutex.protect global_lock (fun () ->
      incr next_signal_id;
      { s_name = name; s_width = w; s_id = !next_signal_id })

let memory name ~addr_width ~data_width ~depth =
  if depth < 1 || (addr_width < Bitvec.max_width && depth > 1 lsl addr_width)
  then invalid_arg (Printf.sprintf "Expr.memory %s: bad depth %d" name depth);
  if data_width < 1 || data_width > Bitvec.max_width then
    invalid_arg (Printf.sprintf "Expr.memory %s: bad data width" name);
  Mutex.protect global_lock (fun () ->
      incr next_mem_id;
      {
        m_name = name;
        m_addr_width = addr_width;
        m_data_width = data_width;
        m_depth = depth;
        m_id = !next_mem_id;
      })

(* Hash-consing: structural key over the node shape with children
   identified by tag. *)
module Key = struct
  type k =
    | KConst of Bitvec.t
    | KInput of int
    | KParam of int
    | KReg of int
    | KMemread of int * int
    | KUnop of unop * int
    | KBinop of binop * int * int
    | KMux of int * int * int
    | KConcat of int * int
    | KSlice of int * int * int

  type key = { kw : int; kk : k }

  let of_node w = function
    | Const b -> { kw = w; kk = KConst b }
    | Input s -> { kw = w; kk = KInput s.s_id }
    | Param s -> { kw = w; kk = KParam s.s_id }
    | Reg s -> { kw = w; kk = KReg s.s_id }
    | Memread (m, a) -> { kw = w; kk = KMemread (m.m_id, a.tag) }
    | Unop (op, a) -> { kw = w; kk = KUnop (op, a.tag) }
    | Binop (op, a, b) -> { kw = w; kk = KBinop (op, a.tag, b.tag) }
    | Mux (s, a, b) -> { kw = w; kk = KMux (s.tag, a.tag, b.tag) }
    | Concat (a, b) -> { kw = w; kk = KConcat (a.tag, b.tag) }
    | Slice (a, hi, lo) -> { kw = w; kk = KSlice (a.tag, hi, lo) }

  let equal a b = a.kw = b.kw && a.kk = b.kk
  let hash a = Hashtbl.hash a
end

module Tbl = Hashtbl.Make (struct
  type t = Key.key

  let equal = Key.equal
  let hash = Key.hash
end)

let table : t Tbl.t = Tbl.create 4096
let next_tag = ref 0

let mk width node =
  let key = Key.of_node width node in
  Mutex.protect global_lock (fun () ->
      match Tbl.find_opt table key with
      | Some e -> e
      | None ->
          incr next_tag;
          let e = { tag = !next_tag; width; node } in
          Tbl.add table key e;
          e)

let const b = mk (Bitvec.width b) (Const b)
let of_int ~width v = const (Bitvec.of_int ~width v)
let zero w = of_int ~width:w 0
let one w = of_int ~width:w 1
let ones w = const (Bitvec.ones w)
let vdd = of_int ~width:1 1
let gnd = of_int ~width:1 0
let input s = mk s.s_width (Input s)
let param s = mk s.s_width (Param s)
let reg s = mk s.s_width (Reg s)

let memread m addr =
  if width addr <> m.m_addr_width then
    invalid_arg
      (Printf.sprintf "Expr.memread %s: address width %d, expected %d" m.m_name
         (width addr) m.m_addr_width);
  mk m.m_data_width (Memread (m, addr))

let as_const e = match e.node with Const b -> Some b | _ -> None

let unop_eval = function
  | Not -> Bitvec.lognot
  | Neg -> Bitvec.neg
  | Redand -> Bitvec.redand
  | Redor -> Bitvec.redor
  | Redxor -> Bitvec.redxor

let unop op a =
  let w = match op with Not | Neg -> a.width | Redand | Redor | Redxor -> 1 in
  match as_const a with
  | Some b -> const (unop_eval op b)
  | None -> (
      match (op, a.node) with
      | Not, Unop (Not, x) -> x
      | _ -> mk w (Unop (op, a)))

let binop_eval = function
  | Add -> Bitvec.add
  | Sub -> Bitvec.sub
  | Mul -> Bitvec.mul
  | And -> Bitvec.logand
  | Or -> Bitvec.logor
  | Xor -> Bitvec.logxor
  | Eq -> Bitvec.eq
  | Ne -> Bitvec.ne
  | Ult -> Bitvec.ult
  | Ule -> Bitvec.ule
  | Slt -> Bitvec.slt
  | Sle -> Bitvec.sle
  | Shl -> Bitvec.shl
  | Lshr -> Bitvec.lshr
  | Ashr -> Bitvec.ashr

let result_width op a =
  match op with
  | Add | Sub | Mul | And | Or | Xor | Shl | Lshr | Ashr -> a.width
  | Eq | Ne | Ult | Ule | Slt | Sle -> 1

let binop op a b =
  (match op with
  | Shl | Lshr | Ashr -> ()
  | _ ->
      if a.width <> b.width then
        invalid_arg
          (Printf.sprintf "Expr.binop: width mismatch %d vs %d" a.width b.width));
  match (as_const a, as_const b) with
  | Some x, Some y -> const (binop_eval op x y)
  | _ -> (
      (* Light algebraic simplification; keeps cones small. *)
      let is0 e = match as_const e with Some v -> Bitvec.is_zero v | None -> false in
      let isones e =
        match as_const e with
        | Some v -> Bitvec.equal v (Bitvec.ones (Bitvec.width v))
        | None -> false
      in
      match op with
      | Add when is0 a -> b
      | Add when is0 b -> a
      | Sub when is0 b -> a
      | And when is0 a || is0 b -> zero a.width
      | And when isones a -> b
      | And when isones b -> a
      | And when a.tag = b.tag -> a
      | Or when isones a || isones b -> ones a.width
      | Or when is0 a -> b
      | Or when is0 b -> a
      | Or when a.tag = b.tag -> a
      | Xor when is0 a -> b
      | Xor when is0 b -> a
      | Xor when a.tag = b.tag -> zero a.width
      | Eq when a.tag = b.tag -> vdd
      | Ne when a.tag = b.tag -> gnd
      | Ult when a.tag = b.tag -> gnd
      | Ule when a.tag = b.tag -> vdd
      | Shl when is0 b -> a
      | Lshr when is0 b -> a
      | Ashr when is0 b -> a
      | Add | Sub | Mul | And | Or | Xor | Eq | Ne | Ult | Ule | Slt | Sle
      | Shl | Lshr | Ashr ->
          mk (result_width op a) (Binop (op, a, b)))

let mux sel a b =
  if sel.width <> 1 then invalid_arg "Expr.mux: selector must be 1 bit";
  if a.width <> b.width then invalid_arg "Expr.mux: branch width mismatch";
  match as_const sel with
  | Some v -> if Bitvec.is_zero v then b else a
  | None -> if a.tag = b.tag then a else mk a.width (Mux (sel, a, b))

let concat hi lo =
  if hi.width + lo.width > Bitvec.max_width then
    invalid_arg
      (Printf.sprintf "Expr.concat: width %d exceeds %d" (hi.width + lo.width)
         Bitvec.max_width);
  match (as_const hi, as_const lo) with
  | Some x, Some y -> const (Bitvec.concat x y)
  | _ -> mk (hi.width + lo.width) (Concat (hi, lo))

let rec slice e ~hi ~lo =
  if lo < 0 || hi >= e.width || hi < lo then
    invalid_arg
      (Printf.sprintf "Expr.slice: [%d:%d] out of range for width %d" hi lo
         e.width);
  if lo = 0 && hi = e.width - 1 then e
  else
    match as_const e with
    | Some b -> const (Bitvec.slice b ~hi ~lo)
    | None -> (
        match e.node with
        | Concat (h, l) when lo >= l.width ->
            slice_shift h (hi - l.width) (lo - l.width)
        | Concat (_, l) when hi < l.width -> slice_shift l hi lo
        | Slice (inner, _, ilo) -> slice_shift inner (hi + ilo) (lo + ilo)
        | _ -> mk (hi - lo + 1) (Slice (e, hi, lo)))

and slice_shift e hi lo = slice e ~hi ~lo

let ( +: ) a b = binop Add a b
let ( -: ) a b = binop Sub a b
let ( *: ) a b = binop Mul a b
let ( &: ) a b = binop And a b
let ( |: ) a b = binop Or a b
let ( ^: ) a b = binop Xor a b
let ( ~: ) a = unop Not a
let ( ==: ) a b = binop Eq a b
let ( <>: ) a b = binop Ne a b
let ( <: ) a b = binop Ult a b
let ( <=: ) a b = binop Ule a b
let ( >: ) a b = binop Ult b a
let ( >=: ) a b = binop Ule b a
let slt a b = binop Slt a b
let sle a b = binop Sle a b
let shl a b = binop Shl a b
let lshr a b = binop Lshr a b
let ashr a b = binop Ashr a b
let bit e i = slice e ~hi:i ~lo:i

let zero_extend e w =
  if w < e.width then invalid_arg "Expr.zero_extend: narrower target";
  if w = e.width then e else concat (zero (w - e.width)) e

let sign_extend e w =
  if w < e.width then invalid_arg "Expr.sign_extend: narrower target";
  if w = e.width then e
  else
    let sign = bit e (e.width - 1) in
    let rec rep n acc = if n = 0 then acc else rep (n - 1) (concat sign acc) in
    rep (w - e.width) e

let uresize e w =
  if w = e.width then e
  else if w < e.width then slice e ~hi:(w - 1) ~lo:0
  else zero_extend e w

let and_list = function
  | [] -> vdd
  | e :: rest -> List.fold_left ( &: ) e rest

let or_list = function
  | [] -> gnd
  | e :: rest -> List.fold_left ( |: ) e rest

let mux_list sel ~default cases =
  let w = width sel in
  List.fold_left
    (fun acc (idx, value) -> mux (sel ==: of_int ~width:w idx) value acc)
    default cases

let equal a b = a.tag = b.tag

let size e =
  let seen = Hashtbl.create 64 in
  let rec go e =
    if Hashtbl.mem seen e.tag then ()
    else begin
      Hashtbl.add seen e.tag ();
      match e.node with
      | Const _ | Input _ | Param _ | Reg _ -> ()
      | Memread (_, a) | Unop (_, a) | Slice (a, _, _) -> go a
      | Binop (_, a, b) | Concat (a, b) ->
          go a;
          go b
      | Mux (s, a, b) ->
          go s;
          go a;
          go b
    end
  in
  go e;
  Hashtbl.length seen

let signals_equal a b = a.s_id = b.s_id
let compare_signal a b = Stdlib.compare a.s_id b.s_id
let mems_equal a b = a.m_id = b.m_id
let compare_mem a b = Stdlib.compare a.m_id b.m_id
