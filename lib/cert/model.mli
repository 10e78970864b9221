(** SAT-side certification: does a claimed model really satisfy the
    formula and the obligation it answers? Trivial by design —
    evaluating clauses under an assignment involves none of the
    solver's machinery, which is the point. *)

module L = Satsolver.Lit

val check :
  clauses:L.t list list ->
  assumptions:L.t list ->
  value:(int -> bool) ->
  (unit, string) result
(** [check ~clauses ~assumptions ~value] verifies that every clause
    contains a literal made true by the assignment [value : var ->
    bool], and that every assumption literal of the solve is true: a
    model that satisfies the clauses but flips an assumption answers a
    different obligation and is rejected. *)

val check_held :
  held:((int array -> int -> int -> unit) -> unit) ->
  assumptions:L.t list ->
  value:(int -> bool) ->
  (unit, string) result
(** {!check} over clauses kept as slices of int arrays, literals in the
    {!Satsolver.Lit} int encoding: [held f] calls [f data off len] once
    per clause, for the literals [data.(off)] to [data.(off + len - 1)]
    — an incremental checker's axioms, in its arena or pending. *)
