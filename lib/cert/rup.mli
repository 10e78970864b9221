(** Independent forward RUP certificate checker.

    Validates a DRUP certificate (a {!Proof.step} stream) against the
    original CNF using only unit propagation over its own clause
    database — none of the solver's search machinery is reused, so a
    bug in the solver's learning, restarts or deletion cannot also hide
    in the checker. The only shared convention is the literal encoding
    of {!Satsolver.Lit}.

    Clauses live in a flat, append-only arena (payload array + offset /
    size tables, dense ids in insertion order); watched literals are
    kept in side tables rather than by reordering clause literals in
    place. *)

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
    The record is exposed so a session can read the clauses it holds;
    treat every field as read-only. *)

type ivec = { mutable data : int array; mutable len : int }

type t = {
  mutable a_data : int array;  (** arena: flat literal payload *)
  mutable a_dlen : int;
  mutable a_offs : int array;  (** arena: cid to offset *)
  mutable a_sizes : int array;  (** arena: cid to literal count *)
  mutable a_n : int;  (** clause ids in [\[0, a_n)] are readable *)
  mutable active : Bytes.t;  (** activity flag by cid *)
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
(** [create nvars] is a fresh state (empty arena). *)

val normalize : int list -> int array option
(** Sort, deduplicate; [None] for tautologies. Every clause entering
    the arena is normalized. *)

val insert_axiom : t -> int array -> int
(** Append a normalized clause that is never deleted (an incremental
    checker's input clauses) to the arena and activate it, without RUP
    validation and without a deletion-index entry, so a deletion step
    naming it finds nothing. Returns its clause id. *)

val validate_step : t -> Proof.step -> (unit, string) result
(** Check one certificate step against the active database and apply
    it: an addition must be RUP (then it is inserted), a deletion must
    name a clause the deletion index holds (then it is deactivated).
    [Error] carries the reason; the step index is the caller's to add.
    {!check} is this step over the whole stream. *)

val final_conflict : t -> L.t list -> bool
(** The acceptance condition on the final database: a derived
    contradiction, or propagation failure under the assumptions. *)

val no_conflict_reason : string
(** The [Error] reason when {!final_conflict} is false at stream end. *)
