(** CDCL SAT solver.

    Conflict-driven clause learning with two-watched-literal
    propagation, first-UIP learning with recursive clause minimisation,
    EVSIDS branching, phase saving, Luby restarts and LBD-based learnt
    clause database reduction. Supports incremental solving under
    assumptions; clauses may be added between [solve] calls.

    Feature toggles exist so benches can ablate individual heuristics. *)

type t

type options = {
  use_vsids : bool;  (** activity-ordered decisions (else lowest index) *)
  use_restarts : bool;
  use_phase_saving : bool;
  use_minimization : bool;  (** learnt clause minimisation *)
  var_decay : float;  (** EVSIDS decay, in (0, 1) *)
  clause_decay : float;
  restart_base : int;  (** conflicts per Luby unit *)
  max_learnts_factor : float;  (** learnt DB size as fraction of clauses *)
  init_polarity : bool;
      (** initial saved phase of fresh variables (portfolio diversification) *)
}

val default_options : options
val create : ?options:options -> unit -> t

val new_var : t -> int
(** Allocate a fresh variable; returns its index. *)

val nvars : t -> int

val nclauses : t -> int
(** Number of problem clauses in the {!export} view: original clauses
    plus the root-level trail as unit clauses; learnt clauses excluded.
    Observability hook for the CNF-reduction accounting. *)

val add_clause : t -> Lit.t list -> unit
(** Add a problem clause. Duplicate literals are removed; tautologies
    are dropped; an empty (or falsified-at-level-0) clause makes the
    instance trivially unsatisfiable. *)

type result = Sat | Unsat

exception Interrupted
(** Raised out of {!solve} when the termination callback fires. The
    solver unwinds to decision level 0 and stays usable. *)

val solve : ?assumptions:Lit.t list -> t -> result
(** Solve the current clause set under the given assumptions. *)

(** {1 Resource budgets} *)

type budget = {
  max_conflicts : int;  (** per-call conflict cap; negative = unlimited *)
  max_propagations : int;  (** per-call propagation cap; negative = unlimited *)
  max_seconds : float;  (** per-call wall-clock cap; nonpositive = unlimited *)
}
(** Per-[solve_bounded] resource limits, measured from the start of the
    call (the cumulative counters keep running across calls). *)

val no_budget : budget
val conflict_budget : int -> budget
val time_budget : float -> budget

val scale_budget : budget -> float -> budget
(** Multiply every finite limit by the factor (escalating retries);
    unlimited components stay unlimited. *)

val pp_budget : Format.formatter -> budget -> unit

type outcome = Solved of result | Unknown of string
(** [Unknown reason] when the budget ran out before a verdict; [reason]
    names the exhausted resource. *)

val solve_bounded : ?assumptions:Lit.t list -> ?budget:budget -> t -> outcome
(** Like {!solve}, but gives up with [Unknown] once the budget is
    exhausted instead of searching forever. The solver unwinds to
    decision level 0 and stays usable — clauses learnt before the
    exhaustion are kept, so a retry with a larger budget resumes from a
    strictly stronger clause database. A termination callback firing
    still raises {!Interrupted}: cancellation is a control transfer,
    exhaustion is a result. *)

val set_terminate : t -> (unit -> bool) option -> unit
(** Install (or clear) a callback polled once per search-loop step
    (conflict or decision). When it returns [true], the current [solve]
    raises {!Interrupted}. Used by the portfolio runner to cancel
    losers through a shared atomic flag. *)

(** {1 Proof tracing (DRUP)} *)

type tracer = {
  trace_add : Lit.t array -> unit;
  trace_delete : Lit.t array -> unit;
  trace_barrier : unit -> unit;
}
(** Certificate sink. [trace_add] fires for every clause the solver adds
    beyond the clauses given to {!add_clause}: learnt clauses (unit and
    multi-literal), input clauses strengthened at level 0 (false
    literals dropped), and the empty clause when unsatisfiability is
    detected without assumptions. [trace_delete] fires when a learnt
    clause is removed by database reduction. Every traced addition is
    RUP with respect to the input clauses plus the previously traced
    additions (minus deletions), so the stream — interpreted as a DRUP
    certificate — can be validated by unit propagation alone. The
    arrays are fresh; the callee may keep them.

    [trace_barrier] fires at restarts and after learnt-database
    reductions — natural phase boundaries of the search. It carries no
    proof content and any point between steps is a valid DRUP split; the
    barrier is a pacing hint, and a sink that only records steps (every
    sink in this repository) ignores it. *)

val set_tracer : t -> tracer option -> unit
(** Install (or clear) the certificate sink. Install it before the
    first {!add_clause} so level-0 strengthenings are captured. *)

val set_input_hook : t -> (Lit.t list -> unit) option -> unit
(** Install (or clear) a sink that receives every clause given to
    {!add_clause}, exactly as given and before any simplification — the
    axioms a certificate traced by the {!tracer} rests on. An
    incremental checker installs both before the first {!add_clause}
    and mirrors the solver's clause database without reading it
    ([Cert.Pipeline.session]). *)

val export : t -> int * Lit.t list list
(** [(nvars, clauses)]: a snapshot of the problem — every original
    clause plus the root-level trail as unit clauses (learnt clauses
    are implied and omitted). Loading the snapshot into a fresh solver
    yields an equisatisfiable instance with identical variable
    numbering; a trivially-unsat solver exports the empty clause. *)

val value : t -> Lit.t -> bool
(** Value of a literal in the model of the last [Sat] answer. Raises
    [Invalid_argument] if the last call did not return [Sat]. *)

val value_var : t -> int -> bool

val unsat_assumptions : t -> Lit.t list
(** After an [Unsat] answer under assumptions: a subset of the
    assumptions sufficient for unsatisfiability (the final conflict
    clause restricted to assumption literals). Empty when the clause set
    itself is unsatisfiable. *)

(** {1 Statistics} *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;
  deleted_clauses : int;
}

val stats : t -> stats
val diff_stats : stats -> stats -> stats
(** Componentwise [a - b]: the cost of one check on a cumulative
    counter. *)

val add_stats : stats -> stats -> stats
val zero_stats : stats

val pp_stats : Format.formatter -> stats -> unit
