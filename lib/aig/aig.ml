type lit = int

(* Node 0 is the constant node: literal 0 = true, literal 1 = false.
   Variable nodes have fanins (-1, -1). AND nodes store two fanin
   literals with fanin0 >= fanin1 (normalised for hashing). *)

type t = {
  mutable fanin0 : int array;
  mutable fanin1 : int array;
  mutable n : int;  (** nodes allocated *)
  mutable n_ands : int;
  strash : (int * int, int) Hashtbl.t;  (** (fanin0, fanin1) -> node *)
}

let true_lit = 0
let false_lit = 1
let lit_not l = l lxor 1
let node_of l = l lsr 1
let compl_of l = l land 1
let is_const l = node_of l = 0

let create () =
  let t =
    {
      fanin0 = Array.make 1024 (-1);
      fanin1 = Array.make 1024 (-1);
      n = 1;
      n_ands = 0;
      strash = Hashtbl.create 1024;
    }
  in
  t

let grow t =
  if t.n >= Array.length t.fanin0 then begin
    let cap = 2 * Array.length t.fanin0 in
    let f0 = Array.make cap (-1) and f1 = Array.make cap (-1) in
    Array.blit t.fanin0 0 f0 0 t.n;
    Array.blit t.fanin1 0 f1 0 t.n;
    t.fanin0 <- f0;
    t.fanin1 <- f1
  end

let fresh_var t =
  grow t;
  let node = t.n in
  t.fanin0.(node) <- -1;
  t.fanin1.(node) <- -1;
  t.n <- t.n + 1;
  2 * node

let num_nodes t = t.n
let num_ands t = t.n_ands
let complemented l = compl_of l = 1
let lit_of_node n = 2 * n

let fanins t node =
  if node < 0 || node >= t.n then invalid_arg "Aig.fanins: unallocated node";
  let f0 = t.fanin0.(node) in
  if f0 < 0 then None else Some (f0, t.fanin1.(node))

let mk_and t a b =
  (* Local simplifications. *)
  if a = false_lit || b = false_lit then false_lit
  else if a = true_lit then b
  else if b = true_lit then a
  else if a = b then a
  else if a = lit_not b then false_lit
  else begin
    let a, b = if a > b then (a, b) else (b, a) in
    match Hashtbl.find_opt t.strash (a, b) with
    | Some node -> 2 * node
    | None ->
        grow t;
        let node = t.n in
        t.fanin0.(node) <- a;
        t.fanin1.(node) <- b;
        t.n <- t.n + 1;
        t.n_ands <- t.n_ands + 1;
        Hashtbl.add t.strash (a, b) node;
        2 * node
  end

let mk_or t a b = lit_not (mk_and t (lit_not a) (lit_not b))

let mk_xor t a b =
  (* (a & ~b) | (~a & b) *)
  if a = b then false_lit
  else if a = lit_not b then true_lit
  else if a = false_lit then b
  else if b = false_lit then a
  else if a = true_lit then lit_not b
  else if b = true_lit then lit_not a
  else mk_or t (mk_and t a (lit_not b)) (mk_and t (lit_not a) b)

let mk_xnor t a b = lit_not (mk_xor t a b)

let mk_mux t sel a b =
  if sel = true_lit then a
  else if sel = false_lit then b
  else if a = b then a
  else mk_or t (mk_and t sel a) (mk_and t (lit_not sel) b)

let mk_implies t a b = mk_or t (lit_not a) b
let mk_and_list t = List.fold_left (mk_and t) true_lit
let mk_or_list t = List.fold_left (mk_or t) false_lit

let eval t var_value l =
  let memo = Hashtbl.create 64 in
  let rec node_val node =
    if node = 0 then true
    else
      match Hashtbl.find_opt memo node with
      | Some v -> v
      | None ->
          let v =
            if t.fanin0.(node) < 0 then var_value (2 * node)
            else lit_val t.fanin0.(node) && lit_val t.fanin1.(node)
          in
          Hashtbl.add memo node v;
          v
  and lit_val l =
    let v = node_val (node_of l) in
    if compl_of l = 1 then not v else v
  in
  lit_val l

module Cnf = struct
  module S = Satsolver.Solver
  module L = Satsolver.Lit

  type ctx = {
    graph : t;
    solver : S.t;
    mutable node_var : int array;  (** AIG node -> SAT var, -1 if absent *)
  }

  let create graph solver =
    let ctx = { graph; solver; node_var = Array.make graph.n (-1) } in
    (* Encode the constant node eagerly. *)
    let v = S.new_var solver in
    S.add_clause solver [ L.pos v ];
    ctx.node_var.(0) <- v;
    ctx

  let rec encode_node ctx node =
    if node >= Array.length ctx.node_var then begin
      let bigger = Array.make (max ctx.graph.n (node + 1)) (-1) in
      Array.blit ctx.node_var 0 bigger 0 (Array.length ctx.node_var);
      ctx.node_var <- bigger
    end;
    if ctx.node_var.(node) >= 0 then ctx.node_var.(node)
    else begin
      let v = S.new_var ctx.solver in
      ctx.node_var.(node) <- v;
      let f0 = ctx.graph.fanin0.(node) in
      if f0 >= 0 then begin
        let f1 = ctx.graph.fanin1.(node) in
        let a = encode_lit ctx f0 and b = encode_lit ctx f1 in
        (* v <-> a & b *)
        S.add_clause ctx.solver [ L.neg_of_var v; a ];
        S.add_clause ctx.solver [ L.neg_of_var v; b ];
        S.add_clause ctx.solver
          [ L.pos v; L.negate a; L.negate b ]
      end;
      v
    end

  and encode_lit ctx l =
    let v = encode_node ctx (node_of l) in
    if compl_of l = 1 then L.neg_of_var v else L.pos v

  let sat_lit ctx l = encode_lit ctx l
  let assert_lit ctx l = S.add_clause ctx.solver [ sat_lit ctx l ]

  let assert_implies ctx a b =
    S.add_clause ctx.solver [ L.negate (sat_lit ctx a); sat_lit ctx b ]

  (* An encoded node's Tseitin clauses make its variable equal to its
     fan-ins' conjunction in every model, so it is read, not evaluated;
     only nodes outside the encoding are evaluated, once each. *)
  let model ctx value =
    let g = ctx.graph in
    let memo = Hashtbl.create 64 in
    let rec node_val node =
      if node < Array.length ctx.node_var && ctx.node_var.(node) >= 0 then
        value (L.pos ctx.node_var.(node))
      else
        match Hashtbl.find_opt memo node with
        | Some v -> v
        | None ->
            let v =
              if g.fanin0.(node) < 0 then value (encode_lit ctx (2 * node))
              else lit_val g.fanin0.(node) && lit_val g.fanin1.(node)
            in
            Hashtbl.add memo node v;
            v
    and lit_val l =
      let v = node_val (node_of l) in
      if compl_of l = 1 then not v else v
    in
    lit_val
end
