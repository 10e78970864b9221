(** Property checking over an unrolled design.

    A session owns the AIG, the unroller and one SAT solver. Properties
    are given as AIG literals: assumptions are asserted permanently;
    each solve temporarily asserts its proof obligation through solver
    assumptions, so successive solves reuse all learnt clauses.

    With [portfolio > 1], every solve exports the current CNF and races
    that many diversified solver configurations in parallel domains (see
    {!Parallel.Portfolio}); the verdict is identical to the sequential
    one, but learnt clauses are not carried between checks.

    With [certify], every solve is self-checking; a rejected
    certificate raises {!Certification_failed} rather than returning an
    unvouched verdict. A sequential engine keeps searching on its warm
    solver, exactly as without [certify], and one incremental checker
    ({!Cert.Pipeline.session}) lives as long as that solver and mirrors
    it: it takes every input clause as the solver receives it and every
    learnt and deleted clause from the DRUP tracer, in its own arena. A
    SAT answer is accepted when the model satisfies every input clause
    and assumption ({!Cert.Model}); an UNSAT answer when every step
    traced before it is RUP-valid ({!Cert.Rup}) and the solve's
    assumptions propagate to a conflict. A certified run therefore makes
    the same decisions, conflicts and verdicts as an uncertified one.
    With [portfolio > 1], each race runs on one exported CNF snapshot,
    every racer's solver is mirrored by a session of its own, and the
    winner's session vouches for the winner's answer.

    With [simp] (the default), witness-free solves — {!decide} with
    [~cex:false] — are answered on a {e reduced} problem: only the cone
    of influence of the permanent constraints and the obligation is
    encoded ({!Simp}). Witness-producing solves always encode the full
    extraction set, so counterexamples are bit-identical with [simp] on
    or off; a certified reduced race's sessions take the reduced CNF it
    actually solved as their axioms. *)

type t

exception Certification_failed of string
(** A solver verdict whose certificate the independent checker rejected
    — either the solver or the checker is wrong, and the verdict cannot
    be trusted. *)

val create :
  ?solver_options:Satsolver.Solver.options ->
  ?portfolio:int ->
  ?portfolio_configs:Satsolver.Solver.options list ->
  ?certify:bool ->
  ?simp:bool ->
  ?share:(Rtl.Structural.svar -> bool) ->
  two_instance:bool ->
  Rtl.Netlist.t ->
  t
(** [simp] (default [true]) enables cone-of-influence reduction for
    witness-free solves; it never changes verdicts or counterexamples.

    [share] goes to {!Unroller.create}: instance B's cycle-0 state of
    those state variables is A's own, so the engine can only answer
    queries that assume their cycle-0 equality. A witness extracted
    from such an engine shows them equal at cycle 0. *)

val unroller : t -> Unroller.t
val graph : t -> Aig.t

val ensure_frames : t -> int -> unit

val assume : t -> Aig.lit -> unit
(** Permanently assume the literal. *)

val assume_implication : t -> Aig.lit -> Aig.lit -> unit
(** Permanently assume [a -> b]; with a fresh activation variable as
    [a], this arms retractable obligations for incremental checking.
    When [a] is a free variable it must be a dedicated activation
    literal occurring nowhere else in the problem: problem reduction
    drops obligations whose activation variable a given solve does not
    assume. *)

val pre_encode : t -> unit
(** Force SAT encodings for every state variable, input and parameter of
    all materialised frames. Called implicitly before each
    witness-producing solve; incremental — frames already encoded are
    skipped. *)

val sat_vars : t -> int
(** Number of SAT variables allocated so far (observability hook for the
    incremental pre-encoding). *)

val set_budget : t -> Satsolver.Solver.budget -> unit
(** Resource budget applied to every subsequent solve (each portfolio
    racer gets the full budget independently). Default
    {!Satsolver.Solver.no_budget}. *)

val budget : t -> Satsolver.Solver.budget

val set_interrupt : t -> (unit -> bool) option -> unit
(** Cooperative cancellation hook, polled from inside every subsequent
    solve. When it returns [true] the solve unwinds and reports
    [Unknown "interrupted"]; the engine stays usable. *)

(** {1 Deciding proof obligations} *)

type query =
  | Goal of Aig.lit  (** do the assumptions imply this literal? *)
  | Violation of Aig.lit list
      (** is the conjunction of these literals reachable under the
          assumptions? *)

type verdict =
  | Proved  (** the goal holds / the violation is unreachable *)
  | Refuted of Cex.t option
      (** a witness exists; carried unless the call said [~cex:false] *)
  | Unknown of string
      (** budget ran out or the interrupt fired — a resource fact about
          this solve, not a property of the instance *)

val decide : ?cex:bool -> t -> query -> verdict
(** The one entry point every solve goes through. [Goal g] asks whether
    the assumptions imply [g] ([Proved] iff assumptions ∧ ¬g is UNSAT);
    [Violation ls] asks whether assumptions ∧ ⋀ls is reachable
    ([Refuted] iff SAT — the violation exists). With [~cex:false]
    (default [true]) no counterexample is extracted and the solve may
    run on the reduced problem; [Refuted None] then only reports
    existence. *)

(** {1 Statistics} *)

val reduction_stats : t -> Simp.reduction option
(** Reduction accounting for this engine: how many solves ran on a
    reduced problem and the CNF size of the unreduced encoding versus
    what was actually given to the solver. Both sides are measured, not
    estimated; the first call finalises the accounting (it may encode
    the remaining extraction set to measure the unreduced size), so call
    it only once the run is over. [None] when the engine was created
    with [~simp:false] or no solve was ever reduced. *)

val solve_stats : t -> Satsolver.Solver.stats
(** Cumulative statistics of the engine's own solver (sequential solves
    only; portfolio solves run in throwaway solvers). *)

val last_stats : t -> Satsolver.Solver.stats
(** Statistics of the most recent solve alone: the per-check delta in
    sequential mode, the winning configuration's totals in portfolio
    mode. *)

val last_winner : t -> int option
(** Index of the configuration that won the most recent portfolio race;
    [None] after a sequential solve. *)

val last_losers_stats : t -> Satsolver.Solver.stats
(** Summed statistics of the losing configurations of the most recent
    portfolio race — zero after a sequential solve. *)

val certifying : t -> bool

val simplifying : t -> bool
(** Whether problem reduction is enabled for witness-free solves. *)

val cert_totals : t -> Cert.Proof.totals
(** Cumulative certification accounting for this engine: verdicts
    checked, proof sizes, and solve vs check wall time. *)
