(** Incremental DRUP certification: one checker mirrors one solver.

    A session lives as long as its solver and keeps its own clause
    database: it never reads the solver's. Input clauses enter the
    stream as trusted axioms ({!axiom}, wired to the solver's input
    hook), learnt and deleted clauses as proof steps ({!tracer}), and
    each answer is checked in place ({!check_unsat}, {!check_sat})
    while the session stays open. The steps wait and are validated on
    the solver's thread when an UNSAT answer needs them.

    Accept/reject behaviour is identical to {!Rup.check} on the recorded
    stream: each step is validated against exactly the axioms and steps
    before it.

    Threading contract: every function must be called from the thread
    driving the solver. *)

type t

type summary = {
  steps : int;  (** proof steps streamed *)
  lits : int;  (** total literals streamed *)
  adds : int;
  deletes : int;
  propagations : int;
  unhinted : int;
      (** additions whose hints did not suffice, validated by
          propagation over the whole database *)
  drain_seconds : float;  (** wall time the answer's check took *)
}

val session : unit -> t
(** An empty checker that mirrors one incremental solver for as long
    as that solver lives. Install {!axiom} with
    [Solver.set_input_hook] and {!tracer} with [Solver.set_tracer]
    before the solver's first clause. Axioms and proof steps form one
    stream in arrival order, and every step is validated against
    exactly the axioms and steps before it. The session numbers that
    stream's clauses as the solver does, so an addition is validated on
    the clauses its hints name ({!Rup.hinted_implied}), and by unit
    propagation over the whole database only when they do not
    suffice. *)

val tracer : t -> Satsolver.Solver.tracer
(** The proof-step sink to install with [Solver.set_tracer]. *)

val axiom : t -> Satsolver.Lit.t list -> unit
(** Take one input clause, exactly as the solver received it, as a
    trusted axiom at this point of the stream. Axioms are never
    deleted: a deletion step naming one is rejected like the deletion
    of a clause the checker never held. *)

val check_unsat :
  t -> assumptions:Satsolver.Lit.t list -> (summary, string) result
(** Vouch for an UNSAT answer under [assumptions]. Every step traced
    so far is validated first; then asserting the assumptions must make
    unit propagation fail on the checker's database. The summary counts
    what this answer added to the session since the previous accepted
    UNSAT answer ([drain_seconds]: the time this call took). [Error]
    names the failing step. A failed step stays failed: every later
    call returns the same [Error]. Validating steps only when an UNSAT
    answer needs them is sound because axioms are never retracted and
    RUP is monotone: a step implied by the axioms before it is implied
    by the axioms of every later answer. *)

val check_sat :
  t ->
  assumptions:Satsolver.Lit.t list ->
  value:(int -> bool) ->
  (unit, string) result
(** Vouch for a SAT answer: the model [value : var -> bool] must
    satisfy every axiom and every assumption ({!Model.check_held}). A
    model does not rest on learnt clauses, so no step is validated. *)

val check_answer :
  t ->
  assumptions:Satsolver.Lit.t list ->
  value:(int -> bool) ->
  Satsolver.Solver.result ->
  (summary, string) result
(** Vouch for a decided answer: {!check_unsat} for [Unsat]; for [Sat],
    {!check_sat} of the model [value], with a summary that counts
    nothing but the time the check took. *)

val cancel : t -> unit
(** For a session whose answer needs no check (a racer that lost or
    ran out of budget): stop taking steps and drop the pending ones.
    Idempotent; never raises. *)
