(** One record for every knob of the UPEC-SSC procedures.

    {!Alg1.run_with}, {!Alg2.run_with} and {!Alg2.conclude_with} take
    this record instead of a dozen optional arguments; build it with a
    functional update of {!default}:

    {[ Upec.Alg1.run_with { Upec.Options.default with jobs = Some 4 } spec ]} *)

type t = {
  max_iterations : int;  (** refinement-iteration cap (default 128) *)
  max_k : int;  (** Alg2 unrolling-depth cap (default 8) *)
  solver_options : Satsolver.Solver.options option;
  incremental : bool;
      (** reuse one solver session across the default strategy's
          monolithic checks — assumptions and activation literals
          instead of fresh engines — keeping learnt clauses and
          branching heuristics warm (default [true]). [false] gives
          every check a fresh session, the paper's own per-iteration
          re-check. A SECURE proof's final inductive check reaches the
          hand-over cap in either mode (see [jobs]); a warm session
          then lends its engine to the per-svar worker, a fresh run
          builds one. Warm sessions win every row of bench A5: they
          find counterexamples 2–4× faster and finish proofs in fewer
          conflicts. Ignored under [jobs = Some _]: the per-svar
          strategy is already incremental within each worker. Verdict
          classes are unaffected; the reported witness set of a
          monolithic run may differ (both are correct). *)
  simp : bool;
      (** cone-of-influence problem reduction for witness-free solves
          (default [true]); never changes verdicts or counterexamples —
          see {!Ipc.Engine.create} *)
  jobs : int option;
      (** [Some j] selects the per-svar strategy on [j] workers from the
          first iteration. [None] (default) selects the default
          strategy: one monolithic check per iteration until a check
          reaches the hand-over cap, then per-svar on one worker for
          that iteration and every later one. A run's first check is
          uncapped; each later one is capped at
          [max 4096 (2 × the costliest earlier check's conflicts)],
          counting every retry of a check. The cap applies to a check
          only when it is below [budget]'s conflict limit; otherwise the
          check runs under [budget] alone, takes the retry path and,
          still undecided, ends the run Inconclusive as before. The report's procedure names the
          hand-over iteration, e.g. [UPEC-SSC (Alg. 1, incremental,
          per-svar from iteration 7)]. Detection runs stay monolithic,
          where they find witnesses in a few thousand conflicts; proofs
          hand their final inductive check to per-svar, which needs
          about half the conflicts. *)
  portfolio : int;  (** solver configurations raced per SAT call *)
  certify : bool;  (** self-checking verdicts (DRUP / model / replay) *)
  cert_jobs : int;
      (** with [certify], [> 0] streams each UNSAT certificate into the
          pipelined parallel checker on that many domains while the
          solver searches ({!Cert.Pipeline}); [0] (default) keeps the
          post-hoc sequential check. Accept/reject is identical. *)
  cex_vcd : string option;  (** waveform-pair prefix for counterexamples *)
  budget : Satsolver.Solver.budget;  (** per-solve resource budget *)
  budget_retries : int;
  budget_escalation : float;
  checkpoint_file : string option;
  should_stop : (unit -> bool) option;  (** cooperative interrupt *)
  reset_start : bool;  (** Alg2 only: BMC-from-reset comparison mode *)
}

val default : t

val pp : Format.formatter -> t -> unit
(** One-line summary of the strategy-determining fields. *)
