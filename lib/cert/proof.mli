(** DRUP certificate steps, an in-memory recorder, and certification
    accounting.

    A proof is the ordered stream of clause additions and deletions
    emitted by {!Satsolver.Solver} through its tracer hook. Interpreted
    as a DRUP certificate, each added clause must be derivable from the
    original formula plus the earlier (undeleted) additions by unit
    propagation alone. {!Pipeline} checks the stream as the solver
    emits it; the recorder keeps it whole for {!Rup.check}, the
    sequential checker that serves as its test oracle. *)

module L = Satsolver.Lit

type step = Add of L.t array | Delete of L.t array

type t
(** In-memory recorder (append-only). *)

val create : unit -> t
val record : t -> step -> unit
val tracer : t -> Satsolver.Solver.tracer
(** The sink to install with [Solver.set_tracer]. *)

val steps : t -> step list
(** Steps in emission order. *)

val length : t -> int
(** Total step count. *)

(** {1 Certification accounting} *)

type totals = {
  unsat_checked : int;  (** UNSAT answers whose proof steps were validated *)
  sat_checked : int;  (** SAT models checked against the axioms *)
  unknown_skipped : int;
      (** solves that ended [Unknown] (budget exhausted / interrupted):
          nothing to certify, but the gap is accounted, not hidden *)
  proof_steps : int;
  proof_lits : int;
  solve_seconds : float;  (** wall time of the certified solves *)
  check_seconds : float;  (** wall time spent checking certificates *)
}

val zero_totals : totals
val add_totals : totals -> totals -> totals
val pp_totals : Format.formatter -> totals -> unit
