(** Incremental DRUP certification: one checker mirrors one solver.

    A session lives as long as its solver and keeps its own clause
    database: it never reads the solver's. Input clauses enter the
    stream as trusted axioms ({!axiom}, wired to the solver's input
    hook), learnt and deleted clauses as proof steps ({!tracer}), and
    each answer is checked in place ({!check_unsat}, {!check_sat})
    while the session stays open.

    With a [dispatch], a coordinator on the solver's thread replays
    the stream into the checker database by trusted replay and splits
    it into {e epochs} at the solver's barrier hints. Each closed epoch
    is RUP-validated by a checker shard ({!Rup.fork}) on the dispatch's
    workers while the solver searches (see [Parallel.Portfolio]).
    Shards share the immutable clause arena by reference; only the
    small activity prefix is copied per epoch. Without one, the steps
    wait and are validated on the solver's thread when an UNSAT answer
    needs them.

    Accept/reject behaviour is identical to {!Rup.check} on the recorded
    stream, with or without a dispatch: shard snapshots are
    semantically equal to the sequential checker's state at epoch start
    (unit propagation is confluent; deletion keeps level-0
    consequences), so each shard accepts exactly the steps the
    sequential checker would.

    Threading contract: {!tracer}, {!axiom}, {!check_unsat},
    {!check_sat}, {!check_answer}, {!settle} and {!cancel} must be
    called from the thread driving the solver (they mutate the
    coordinator). *)

type t

type summary = {
  steps : int;  (** proof steps streamed *)
  lits : int;  (** total literals streamed *)
  adds : int;
  deletes : int;
  propagations : int;  (** coordinator + all shards *)
  epochs : int;
  drain_seconds : float;
      (** wall time the answer's check took: with a dispatch, the
          residual wait after the solver was done, the non-overlapped
          cost of certification *)
}

type dispatch = {
  d_run : (unit -> unit) -> unit;
      (** run one epoch-check task, possibly on another domain; tasks
          never raise *)
  d_shutdown : unit -> unit;  (** stop the backing workers; idempotent *)
}

val inline_dispatch : dispatch
(** Runs every check on the calling thread, at epoch-close time — the
    streaming semantics without extra domains. *)

val session : ?dispatch:dispatch -> ?epoch_target:int -> unit -> t
(** An empty checker that mirrors one incremental solver for as long
    as that solver lives. Install {!axiom} with
    [Solver.set_input_hook] and {!tracer} with [Solver.set_tracer]
    before the solver's first clause. Axioms and proof steps form one
    stream in arrival order, and every step is validated against
    exactly the axioms and steps before it.

    With [dispatch], closed epochs are validated on the dispatch's
    workers while the solver searches. [epoch_target] (default 2048) is
    the step count past which the next barrier closes an epoch (hard
    cap at 4x for barrier-less configurations). Without [dispatch] the
    session has no epochs: the stream waits, and the next
    {!check_unsat} replays it in order on the calling thread.
    Accept/reject decisions are the same either way. *)

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
    so far is validated first (closing the current epoch and waiting
    for every earlier one); then asserting the assumptions must make
    unit propagation fail on the checker's database. The summary counts
    what this answer added to the session since the previous accepted
    UNSAT answer ([drain_seconds]: the time this call took). [Error]
    names the failing step (and its epoch). A failed step stays
    failed: every later call returns the same [Error]. Validating steps
    only when an UNSAT answer needs them is sound because axioms are
    never retracted and RUP is monotone: a step implied by the axioms
    before it is implied by the axioms of every later answer. *)

val check_sat :
  t ->
  assumptions:Satsolver.Lit.t list ->
  value:(int -> bool) ->
  (unit, string) result
(** Vouch for a SAT answer: the model [value : var -> bool] must
    satisfy every axiom and every assumption ({!Model.check_held}). A
    model does not rest on learnt clauses, so no step failure can
    reject it; the epochs in flight are {!settle}d first all the same. *)

val check_answer :
  t ->
  assumptions:Satsolver.Lit.t list ->
  value:(int -> bool) ->
  Satsolver.Solver.result ->
  (summary, string) result
(** Vouch for a decided answer: {!check_unsat} for [Unsat]; for [Sat],
    {!check_sat} of the model [value], with a summary that counts
    nothing but the time the check took. *)

val settle : t -> unit
(** Wait for the epochs in flight and release the checker workers, so
    nothing outlives the answer at hand; {!check_unsat} and
    {!check_sat} do this themselves, an answer without a verdict calls
    it. A failure is kept for the next {!check_unsat}. A no-op without
    a dispatch. *)

val cancel : t -> unit
(** Cooperative teardown for a session whose answer needs no check (a
    racer that lost or ran out of budget): stop accepting steps, let
    in-flight shards notice and bail, release workers. Idempotent;
    never raises. *)
