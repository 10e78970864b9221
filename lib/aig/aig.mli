(** And-Inverter Graphs with structural hashing.

    Nodes are either the constant, free variables, or two-input AND
    gates; edges carry an optional complement. A literal is encoded as
    [2 * node + (1 if complemented)]; {!true_lit} and {!false_lit} are
    the two polarities of the constant node. Structural hashing and
    local simplification keep the graph small. *)

type t
(** A growable graph. *)

type lit = int

val create : unit -> t
val true_lit : lit
val false_lit : lit
val fresh_var : t -> lit
(** A new free variable (positive literal). *)

val lit_not : lit -> lit
val is_const : lit -> bool
val num_nodes : t -> int
(** Nodes allocated so far (constant and variables included). *)

val num_ands : t -> int

(** {1 Traversal}

    Read-only structural access, for cone-of-influence analyses and
    graph rewrites (see {!Simp}). *)

val node_of : lit -> int
(** Node index of a literal ([l / 2]). *)

val complemented : lit -> bool
(** Whether the literal carries the complement edge. *)

val lit_of_node : int -> lit
(** Positive literal of a node. *)

val fanins : t -> int -> (lit * lit) option
(** [fanins t node] is [Some (a, b)] for an AND node, [None] for the
    constant node and free variables. Raises [Invalid_argument] for
    unallocated node indices. *)

val mk_and : t -> lit -> lit -> lit
val mk_or : t -> lit -> lit -> lit
val mk_xor : t -> lit -> lit -> lit
val mk_xnor : t -> lit -> lit -> lit
val mk_mux : t -> lit -> lit -> lit -> lit
(** [mk_mux t sel a b] is [if sel then a else b]. *)

val mk_implies : t -> lit -> lit -> lit
val mk_and_list : t -> lit list -> lit
val mk_or_list : t -> lit list -> lit

(** {1 Evaluation}

    For testing: evaluate literals under an assignment of variables. *)

val eval : t -> (lit -> bool) -> lit -> bool
(** [eval t var_value l]: [var_value] is consulted for variable nodes
    (given the positive literal of the variable). *)

(** {1 CNF encoding} *)

module Cnf : sig
  type ctx
  (** Incremental Tseitin context bound to one SAT solver. Nodes are
      encoded on demand, once. *)

  val create : t -> Satsolver.Solver.t -> ctx

  val sat_lit : ctx -> lit -> Satsolver.Lit.t
  (** SAT literal equisatisfiable with the AIG literal; encodes the
      transitive fan-in into the solver on first use. *)

  val assert_lit : ctx -> lit -> unit
  (** Add a unit clause forcing the AIG literal true. *)

  val assert_implies : ctx -> lit -> lit -> unit
  (** Add clause [¬a ∨ b]. *)

  val model : ctx -> (Satsolver.Lit.t -> bool) -> lit -> bool
  (** [model ctx value] values AIG literals under a total assignment
      [value] of the solver's variables that satisfies every clause
      the context added: the same value as {!eval} with each variable
      read through {!sat_lit}. An encoded node reads its own SAT
      variable; any other node is evaluated from its fan-ins, each
      once per [model ctx value] application, and a variable never
      encoded is encoded first. *)
end
