(** Pipelined parallel DRUP certification: check the certificate while
    the solver is still producing it.

    A coordinator on the solver's domain consumes the tracer stream,
    maintains the checker clause database by trusted replay, and splits
    the stream into {e epochs} at the solver's barrier hints. Each
    closed epoch is RUP-validated by a checker shard ({!Rup.fork}) —
    inline by default, on pool domains when a [dispatch] is injected
    (see [Parallel.Portfolio]). Shards share the immutable clause arena
    by reference; only the small activity prefix is copied per epoch.
    When more than [max_pending] epochs are in flight, newly closed
    epochs spill to disk in DRUP text form and are re-checked during
    {!finish} — backpressure never stalls the solver.

    Accept/reject behaviour is identical to {!Rup.check} on the recorded
    stream: shard snapshots are semantically equal to the sequential
    checker's state at epoch start (unit propagation is confluent;
    deletion keeps level-0 consequences), so each shard accepts exactly
    the steps the sequential checker would.

    The coordinator also serves one warm incremental solver across
    many solves ({!session}): input clauses enter the stream as trusted
    axioms ({!axiom}, wired to the solver's input hook), and each answer
    is checked in place ({!check_sat}, {!check_unsat}) while the session
    stays open.

    Threading contract: {!tracer}, {!axiom}, {!finish}, {!check_unsat},
    {!check_sat}, {!settle} and {!cancel} must be called from the
    thread driving the solver (they mutate the coordinator). A one-shot
    pipeline ({!create}) is finished or cancelled exactly once. *)

type t

type summary = {
  steps : int;  (** proof steps streamed *)
  lits : int;  (** total literals streamed *)
  adds : int;
  deletes : int;
  propagations : int;  (** coordinator + all shards *)
  epochs : int;
  spilled_epochs : int;
  drain_seconds : float;
      (** wall time {!finish} spent draining after the solver was done —
          the residual, non-overlapped cost of certification *)
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

val create :
  ?dispatch:dispatch ->
  ?epoch_target:int ->
  ?max_pending:int ->
  ?spill_dir:string ->
  ?assumptions:Satsolver.Lit.t list ->
  nvars:int ->
  clauses:Satsolver.Lit.t list list ->
  unit ->
  t
(** Load the original CNF (trusted) and stand ready to consume a tracer
    stream. [epoch_target] (default 2048) is the step count past which
    the next barrier closes an epoch (hard cap at 4x for barrier-less
    configurations); [max_pending] (default 4) bounds in-flight epochs
    before spilling — 0 spills every epoch; [spill_dir] defaults to the
    system temp directory. [assumptions] are the solve's assumption
    literals, needed for the final-conflict acceptance test. *)

val tracer : t -> Satsolver.Solver.tracer
(** The sink to install with [Solver.set_tracer] {e before} clause
    loading, exactly like [Proof.tracer]. *)

val finish : t -> (summary, string) result
(** Close the last epoch, drain in-flight shards, re-check spilled
    epochs, evaluate the final-conflict condition and release workers
    and spill files. [Error] reasons name the failing epoch and global
    step (including which epoch's spill file was truncated). Call after
    the solver returned UNSAT. *)

(** {1 Sessions: one checker for one incremental solver} *)

val session :
  ?dispatch:dispatch ->
  ?epoch_target:int ->
  ?max_pending:int ->
  ?spill_dir:string ->
  unit ->
  t
(** An empty checker that mirrors one incremental solver for as long
    as that solver lives. Install {!axiom} with
    [Solver.set_input_hook] and {!tracer} with [Solver.set_tracer]
    before the solver's first clause. The checker never reads the
    solver's clause database: it keeps its own arena. Axioms and proof
    steps form one stream in arrival order, and every step is
    validated against exactly the axioms and steps before it.

    With [dispatch], closed epochs are validated on the dispatch's
    workers while the solver searches, as in {!create}. Without it the
    session has no epochs: the stream waits, and the next
    {!check_unsat} replays it in order on the calling thread.
    Accept/reject decisions are the same either way. *)

val axiom : t -> Satsolver.Lit.t list -> unit
(** Take one input clause, exactly as the solver received it, as a
    trusted axiom at this point of the stream. Axioms are never
    deleted: a deletion step naming one is rejected like the deletion
    of a clause the checker never held. *)

val check_unsat :
  t -> assumptions:Satsolver.Lit.t list -> (summary, string) result
(** Vouch for an UNSAT answer under [assumptions]. Every step traced
    so far is validated first (closing the current epoch and waiting
    for every earlier one, spilled ones included); then asserting the
    assumptions must make unit propagation fail on the checker's
    database. The summary counts what this answer added to the session
    since the previous accepted UNSAT answer ([drain_seconds]: the time
    this call took). A failed step stays failed: every later call
    returns the same [Error]. Validating steps only when an UNSAT answer
    needs them is sound because axioms are never retracted and RUP is
    monotone: a step implied by the axioms before it is implied by the
    axioms of every later answer. *)

val check_sat :
  t ->
  assumptions:Satsolver.Lit.t list ->
  value:(int -> bool) ->
  (unit, string) result
(** Vouch for a SAT answer: the model [value : var -> bool] must
    satisfy every axiom and every assumption ({!Model.check_held}). A
    model does not rest on learnt clauses, so no step failure can
    reject it; the epochs in flight are {!settle}d first all the same. *)

val settle : t -> unit
(** Wait for the epochs in flight, re-check the spilled ones and
    release the checker workers and spill files, so nothing outlives
    the answer at hand; {!check_unsat} and {!check_sat} do this
    themselves, an answer without a verdict calls it. A failure is kept
    for the next {!check_unsat}. A no-op without a dispatch. *)

val cancel : t -> unit
(** Cooperative teardown for losers and non-UNSAT outcomes: stop
    accepting steps, let in-flight shards notice and bail, release
    workers and spill files. Idempotent; never raises. *)

val spill_files : t -> string list
(** Paths of currently spilled epochs (before {!finish} removes them) —
    for audit and tests. *)

val busy_seconds : t -> float
(** Total wall time shards spent checking (overlapped work). *)
