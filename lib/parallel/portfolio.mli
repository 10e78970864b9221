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
  proof : Cert.Proof.t option;
      (** the winner's recorded DRUP certificate when [certify] was set
          and [cert_jobs = 0] (post-hoc checking mode) *)
  cert : (Cert.Pipeline.summary, string) result option;
      (** pipelined mode ([certify] with [cert_jobs > 0]): the result of
          checking the winner's stream, present exactly when the verdict
          is [Unsat]. [Ok] means the certificate was validated while (and
          just after) the solver ran; [Error] carries the failing epoch
          and step. *)
}

val default_configs : int -> Satsolver.Solver.options list
(** [default_configs k] returns [k] configurations. Configuration 0 is
    always {!Satsolver.Solver.default_options}; the rest vary restart
    pacing, decay, phase saving, initial polarity and clause
    minimisation. VSIDS is never disabled: index-order branching is
    hopeless at proof-obligation sizes. *)

val pool_dispatch : jobs:int -> Cert.Pipeline.dispatch
(** Checker domains for one pipeline: a pool of [jobs] domains created
    at the first dispatched epoch and shut down by [d_shutdown], after
    which the next epoch creates a fresh one. Every hook must be called
    from the one thread that drives the pipeline. *)

val solve :
  ?configs:Satsolver.Solver.options list ->
  ?certify:bool ->
  ?cert_jobs:int ->
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
    sequential solve. With [certify], every racer records a DRUP
    certificate and the winner's is returned — the proof that is
    checked is always the proof of the solver whose verdict is
    reported.

    [cert_jobs > 0] switches certification from post-hoc recording to
    the pipelined checker ({!Cert.Pipeline}): each racer streams its
    certificate into checker shards on [max 1 (cert_jobs / k)] pool
    domains while it searches. Only the winner's stream is checked to
    completion (its result lands in [cert]); losers' streams are
    cancelled cooperatively, leaving no stuck domains. The checker
    pool of a racer is created lazily at its first full epoch, so
    small proofs pay for no extra domains.

    [budget] applies to every racer independently. A racer that runs
    out of budget retires quietly; it never aborts the race. The
    outcome is [Unknown] only when {e no} configuration decides the
    instance. [interrupt] is polled by every racer and cancels the
    whole race cooperatively (outcome [Unknown "interrupted"] if no
    winner had been published). *)
