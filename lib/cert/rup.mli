(** Independent forward RUP certificate checker.

    Validates a DRUP certificate (a {!Proof.step} stream) against the
    original CNF using only unit propagation over its own clause
    database — none of the solver's search machinery is reused, so a
    bug in the solver's learning, restarts or deletion cannot also hide
    in the checker. The only shared convention is the literal encoding
    of {!Satsolver.Lit}.

    Clauses live in a flat, append-only arena (payload array + offset /
    size tables, dense ids in insertion order); watched literals are
    kept in per-state side tables rather than by reordering clause
    literals in place. Nothing ever mutates a written clause, so
    {!fork} can hand the arena prefix to a checker shard on another
    domain by reference — the basis of the pipelined parallel checker
    in {!Pipeline}. *)

module L = Satsolver.Lit

(** {1 High-level entry point} *)

type summary = {
  adds : int;  (** addition steps processed *)
  deletes : int;  (** deletion steps processed *)
  propagations : int;  (** literals propagated while checking *)
}

val check :
  ?assumptions:L.t list ->
  nvars:int ->
  clauses:L.t list list ->
  proof:Proof.step list ->
  unit ->
  (summary, string) result
(** [check ~assumptions ~nvars ~clauses ~proof ()] replays the
    certificate forward: each added clause must be derivable from the
    current database by unit propagation (or be satisfied at level 0);
    each deleted clause must be present. The certificate is accepted
    when a conflict is established — either the empty clause is derived
    (plain unsatisfiability), or, for UNSAT-under-assumptions verdicts,
    asserting the assumption literals makes unit propagation fail on
    the final database. Returns [Error reason] otherwise; a corrupted
    certificate is reported with its failing step index. *)

(** {1 Checker-state engine}

    Low-level interface used by {!Pipeline} (and by {!check} itself).
    The record is exposed so a coordinator can snapshot arena bounds and
    trail lengths without copying; treat every field as read-only unless
    you are the state's owner. *)

type ivec = { mutable data : int array; mutable len : int }

type t = {
  mutable a_data : int array;  (** arena: flat literal payload *)
  mutable a_dlen : int;
  mutable a_offs : int array;  (** arena: cid to offset *)
  mutable a_sizes : int array;  (** arena: cid to literal count *)
  mutable a_n : int;  (** clause ids in [\[0, a_n)] are readable *)
  base : int;
      (** activity of cids below [base] lives in [prefix_active] (a
          private copy taken by {!fork}); owner states have [base = 0] *)
  prefix_active : Bytes.t;
  mutable active : Bytes.t;  (** activity of cids at or above [base] *)
  mutable wa : int array;  (** watched literal per cid (-1: unwatched) *)
  mutable wb : int array;
  mutable nv : int;
  mutable assigns : int array;
  mutable watches : ivec array;
  mutable trail : int array;
  mutable trail_len : int;
  mutable qhead : int;
  index : (int list, int list ref) Hashtbl.t;
  mutable contradiction : bool;
  mutable props : int;
}

val create : int -> t
(** [create nvars] is a fresh owner state (empty arena). *)

val normalize : int list -> int array option
(** Sort, deduplicate; [None] for tautologies. Every clause entering
    the arena is normalized. *)

val step_lits : L.t array -> int array option
(** {!normalize} of a certificate step's literals. *)

val insert : t -> int array -> int
(** Append a normalized clause to the arena, register it for deletion
    lookup, activate it (watches / level-0 consequence / contradiction).
    Returns its clause id. No RUP validation — callers decide whether
    the clause is trusted (CNF, coordinator replay) or must pass
    {!rup_implied} first (checking). *)

val insert_axiom : t -> int array -> int
(** {!insert} for a clause that is never deleted (an incremental
    checker's input clauses): no deletion-index entry, so a deletion
    step naming it finds nothing. *)

val delete : t -> int array -> int option
(** Deactivate the most recent active clause with these literals
    (lazy detach; level-0 consequences are kept, matching drat-trim's
    forward mode). Returns its cid, or [None] if absent. *)

val activate : t -> int -> unit
(** Activate an arena clause by id (shards activating their epoch's
    additions, {!fork} rebuilding a prefix). *)

val deactivate : t -> int -> unit

val rup_implied : t -> int array -> bool
(** Is the clause derivable from the active database by unit
    propagation? Leaves the state unchanged. *)

val assumptions_conflict : t -> int list -> bool
(** Does asserting the assumption literals make propagation fail on the
    active database? Leaves the state unchanged. *)

val propagate_root : t -> unit
(** Propagate to fixpoint; a conflict sets [contradiction]. *)

val clause_lits : t -> int -> int array
(** Copy of an arena clause's literals. *)

val fork :
  data:int array ->
  offs:int array ->
  sizes:int array ->
  visible:int ->
  base:int ->
  prefix_active:Bytes.t ->
  trail:int array ->
  trail_len:int ->
  contradiction:bool ->
  nv:int ->
  t
(** Build a shard state over captured arena arrays (readable up to
    [visible]; append-only, so the capture stays valid while the owner
    grows) with the given epoch-start snapshot: activity of cids below
    [base] from [prefix_active] (ownership transfers to the fork, which
    may flip flags when its epoch deletes prefix clauses), the trusted
    root trail replanted verbatim, and watches rebuilt over the active
    prefix. Cross-domain use requires the caller to publish the capture
    with a happens-before edge (e.g. a work-queue lock). *)

val validate_step : t -> Proof.step -> (unit, string) result
(** Check one certificate step against the active database and apply
    it: an addition must be RUP (then it is inserted), a deletion must
    name a clause the deletion index holds (then it is deactivated).
    [Error] carries the reason; the step index is the caller's to add.
    {!check} is this step over the whole stream. *)

val not_rup_reason : string
(** The reason for an addition that unit propagation does not imply. *)

val final_conflict : t -> L.t list -> bool
(** The acceptance condition on the final database: a derived
    contradiction, or propagation failure under the assumptions. *)

val no_conflict_reason : string
(** The [Error] reason when {!final_conflict} is false at stream end. *)
