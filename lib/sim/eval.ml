open Rtl

type env = {
  lookup_input : Expr.signal -> Bitvec.t;
  lookup_param : Expr.signal -> Bitvec.t;
  lookup_reg : Expr.signal -> Bitvec.t;
  lookup_mem : Expr.mem -> int -> Bitvec.t;
}

let eval env e =
  let memo : (int, Bitvec.t) Hashtbl.t = Hashtbl.create 256 in
  let rec go e =
    match Hashtbl.find_opt memo (Expr.tag e) with
    | Some v -> v
    | None ->
        let v =
          match Expr.node e with
          | Expr.Const b -> b
          | Expr.Input s -> env.lookup_input s
          | Expr.Param s -> env.lookup_param s
          | Expr.Reg s -> env.lookup_reg s
          | Expr.Memread (m, a) ->
              let addr = Bitvec.to_int (go a) in
              if addr < m.Expr.m_depth then env.lookup_mem m addr
              else Bitvec.zero m.Expr.m_data_width
          | Expr.Unop (op, a) -> Expr.unop_eval op (go a)
          | Expr.Binop (op, a, b) -> Expr.binop_eval op (go a) (go b)
          | Expr.Mux (s, a, b) -> if Bitvec.is_zero (go s) then go b else go a
          | Expr.Concat (a, b) -> Bitvec.concat (go a) (go b)
          | Expr.Slice (a, hi, lo) -> Bitvec.slice (go a) ~hi ~lo
        in
        Hashtbl.add memo (Expr.tag e) v;
        v
  in
  go e
