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
      (** reuse one solver session across iterations — assumptions and
          activation literals instead of fresh engines — keeping learnt
          clauses and branching heuristics warm (default [true]).
          [false] gives every check a fresh session, the paper's own
          per-iteration re-check. Neither side wins everywhere (bench
          A5): warm sessions find counterexamples 1.8–3.8× faster, while
          fresh sessions finish SECURE proofs, whose cost is the final
          inductive UNSAT check, in fewer conflicts. Monolithic
          strategies only; the per-svar strategy is already incremental
          within each worker. Verdict classes are unaffected; the
          reported witness set of a monolithic run may differ (both are
          correct). *)
  simp : bool;
      (** cone-of-influence problem reduction for witness-free solves
          (default [true]); never changes verdicts or counterexamples —
          see {!Ipc.Engine.create} *)
  jobs : int option;
      (** [Some j] selects the per-svar strategy on [j] workers; [None]
          the monolithic strategy *)
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
