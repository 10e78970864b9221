(** One record for every knob of the UPEC-SSC procedures.

    {!Alg1.run_with}, {!Alg2.run_with} and {!Alg2.conclude_with} take
    this record instead of a dozen optional arguments; build it with a
    functional update of {!default}:

    {[ Upec.Alg1.run_with { Upec.Options.default with jobs = Some 4 } spec ]} *)

type t = {
  max_iterations : int;  (** refinement-iteration cap (default 128) *)
  max_k : int;  (** Alg2 unrolling-depth cap (default 8) *)
  solver_options : Satsolver.Solver.options option;
  simp : bool;
      (** cone-of-influence problem reduction for witness-free solves
          (default [true]); never changes verdicts or counterexamples —
          see {!Ipc.Engine.create} *)
  jobs : int option;
      (** [Some j] selects the per-svar strategy on [j] workers from the
          first iteration. [None] (default) selects the default
          strategy: one monolithic check per iteration, all on one warm
          solver session (assumptions and activation literals keep
          learnt clauses and branching heuristics across iterations),
          until a check reaches the hand-over cap; then per-svar on one
          worker for that iteration and every later one. Per-svar
          workers, in both strategies, are built per round and share
          instance B's cycle-0 state with instance A on the round's
          set. A run's first check is uncapped; each later one is
          capped at [max 4096 (2 × the costliest earlier check's
          conflicts)], counting every retry of a check. The induction of
          {!Alg2.conclude_with} inherits the unrolled phase's costliest
          check, so its first check is capped too. The cap applies to a
          check only when it is below [budget]'s conflict limit;
          otherwise the check runs under [budget] alone, takes the retry
          path and, still undecided, ends the run Inconclusive as
          before. The report's procedure names the hand-over iteration,
          e.g. [UPEC-SSC (Alg. 1, incremental, per-svar from iteration
          7)]. Detection runs stay monolithic, where they find witnesses
          in a few thousand conflicts; proofs hand their final inductive
          check to per-svar, which needs a fraction of the conflicts.
          A checkpoint carries the cap state and the hand-over
          iteration, so a resumed run continues both. *)
  portfolio : int;  (** solver configurations raced per SAT call *)
  certify : bool;
      (** self-checking verdicts (DRUP / model / replay). A sequential
          run certifies on its warm solver session, so it searches
          exactly like the uncertified run; a portfolio race on each
          racer's solver; see {!Ipc.Engine.create} *)
  cex_vcd : string option;  (** waveform-pair prefix for counterexamples *)
  budget : Satsolver.Solver.budget;  (** per-solve resource budget *)
  budget_retries : int;
  budget_escalation : float;
  checkpoint_file : string option;
  should_stop : (unit -> bool) option;  (** cooperative interrupt *)
  reset_start : bool;  (** Alg2 only: BMC-from-reset comparison mode *)
}

val default : t
