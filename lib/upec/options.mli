(** One record for every knob of the UPEC-SSC procedures.

    {!Alg1.run_with}, {!Alg2.run_with} and {!Alg2.conclude_with} take
    this record instead of a dozen optional arguments; build it with a
    functional update of {!default}:

    {[ Upec.Alg1.run_with { Upec.Options.default with jobs = 4 } spec ]} *)

type t = {
  max_iterations : int;  (** refinement-iteration cap (default 128) *)
  max_k : int;  (** Alg2 unrolling-depth cap (default 8) *)
  solver_options : Satsolver.Solver.options option;
  simp : bool;
      (** cone-of-influence problem reduction for witness-free
          portfolio races (default [true]); a round's workers are fully
          encoded when built, so it only applies with [portfolio > 1].
          Never changes verdicts or counterexamples — see
          {!Ipc.Engine.create} *)
  jobs : int;
      (** workers of each per-svar round (default 1; values below 1
          mean 1). A round decides its persistent obligations in order,
          up to the first refuted one, and then its other obligations,
          each phase on all the workers; they are built for the round
          and share instance B's cycle-0 state with instance A on the
          round's set. Verdicts, refinement traces and witnesses are the
          same for every count. *)
  portfolio : int;
      (** solver configurations raced per witness-free SAT call; a
          witness is solved on its worker's own solver *)
  certify : bool;
      (** self-checking verdicts (DRUP / model / replay). A sequential
          solve is certified on its worker's warm solver session, so it
          searches exactly like the uncertified one; a portfolio race
          on each racer's solver; see {!Ipc.Engine.create} *)
  cex_vcd : string option;  (** waveform-pair prefix for counterexamples *)
  budget : Satsolver.Solver.budget;  (** per-solve resource budget *)
  budget_retries : int;
  budget_escalation : float;
  checkpoint_file : string option;
  should_stop : (unit -> bool) option;  (** cooperative interrupt *)
  reset_start : bool;  (** Alg2 only: BMC-from-reset comparison mode *)
}

val default : t
