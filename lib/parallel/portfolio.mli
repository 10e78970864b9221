(** Portfolio SAT: race diversified solver configurations on one CNF.

    Every configuration is a complete, sound CDCL solver, so the
    verdict is deterministic — identical to a sequential solve — even
    though which configuration finishes first (and hence the reported
    model and statistics) depends on scheduling. The first finisher
    publishes itself through an atomic flag; the losers poll it via
    {!Satsolver.Solver.set_terminate} and abandon their search. *)

type verdict =
  | Sat of bool array  (** model, indexed by variable *)
  | Unsat
  | Unknown of string
      (** no racer decided within its budget (or all were interrupted);
          the string names the exhausted resource *)

type outcome = {
  verdict : verdict;
  winner : int;  (** -1 when the verdict is [Unknown] *)
  stats : Satsolver.Solver.stats;
      (** the winner's counters; for [Unknown], the summed counters of
          every racer — the work spent learning nothing *)
  losers_stats : Satsolver.Solver.stats;
      (** summed counters of every losing configuration — the wasted
          work the race paid for its latency win; zero when [jobs <= 1] *)
  cert : (Cert.Pipeline.summary, string) result option;
      (** with [certify]: the winner's session vouching for its own
          answer ({!Cert.Pipeline.check_answer}), present exactly when
          the verdict is [Sat] or [Unsat]. [Error] carries the reason
          the answer was rejected. *)
}

val default_configs : int -> Satsolver.Solver.options list
(** [default_configs k] returns [k] configurations. Configuration 0 is
    always {!Satsolver.Solver.default_options}; the rest vary restart
    pacing, decay, phase saving, initial polarity and clause
    minimisation. VSIDS is never disabled: index-order branching is
    hopeless at proof-obligation sizes. *)

val session : Satsolver.Solver.t -> Cert.Pipeline.t
(** A {!Cert.Pipeline.session} mirroring [s], installed as [s]'s input
    hook and tracer: call it before [s]'s first clause. Its steps are
    validated on the solver's thread when an UNSAT answer needs them. *)

val solve :
  ?configs:Satsolver.Solver.options list ->
  ?certify:bool ->
  ?budget:Satsolver.Solver.budget ->
  ?interrupt:(unit -> bool) ->
  jobs:int ->
  nvars:int ->
  clauses:Satsolver.Lit.t list list ->
  assumptions:Satsolver.Lit.t list ->
  unit ->
  outcome
(** Race [min jobs (length configs)] configurations, each in its own
    domain with its own solver over a private copy of the CNF. With
    [jobs <= 1] only configuration 0 runs, inline — bit-for-bit the
    sequential solve. With [certify], every racer's solver is mirrored
    by its own {!session}, and the winner's session vouches for the
    winner's answer — what is checked is always the search whose
    verdict is reported. Losers' sessions are cancelled.

    [budget] applies to every racer independently. A racer that runs
    out of budget retires quietly; it never aborts the race. The
    outcome is [Unknown] only when {e no} configuration decides the
    instance. [interrupt] is polled by every racer and cancels the
    whole race cooperatively (outcome [Unknown "interrupted"] if no
    winner had been published). *)
