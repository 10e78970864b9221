open Rtl

(** The refinement driver shared by {!Alg1} and {!Alg2}.

    Both procedures shrink candidate sets until a property holds:
    Alg. 1 the Fig. 3 two-cycle property over one set S, Alg. 2 the
    Fig. 4 property unrolled to depth k over one set per cycle.
    Everything around the SAT calls is one procedure and lives here:
    engine setup, budget retries, the iteration loop and its cap, the
    classification of monolithic results, the hand-over from
    monolithic checks to the per-svar round, the per-svar round
    (persistent obligations first, deterministic witness re-derived on
    a fresh engine and validated by simulation), degraded obligations,
    checkpoints and the report. An algorithm supplies a {!property}:
    its encodings, its obligations' assumption literals and its
    set-update rules.

    The driver keeps the creation order of engines, the assertion order
    of constraints and the order of assumption lists fixed: CNF variable
    numbering steers the search, so every run is reproducible. *)

type t
(** One run of one algorithm: options, spec, resume state, engine
    registry, degraded obligations and the steps recorded so far. *)

val create :
  Checkpoint.alg ->
  ?resume:Checkpoint.t ->
  ?costliest:int ->
  Options.t ->
  Spec.t ->
  t
(** Start a run. With [resume], the checkpoint must have been written
    by the same algorithm under the same config hash, and every svar
    it names must exist; [Invalid_argument] otherwise. [costliest]
    seeds the hand-over cap state (see {!decide}) with the conflicts
    of an earlier phase's costliest monolithic decision. A resumed run
    takes its cap state and hand-over iteration from the checkpoint
    instead, so it is capped, and hands over, like the run that wrote
    it; a checkpoint without them resumes uncapped. *)

val resumed : t -> (int * Structural.Svar_set.t array) option
(** The resumed checkpoint's unroll depth and candidate sets (Alg. 1
    has one set; Alg. 2 one per cycle [0..k]). *)

val costliest : t -> int option
(** The hand-over cap state: the conflicts of the costliest monolithic
    decision so far, the seed included; [None] before the first. *)

val engine : ?share:Structural.Svar_set.t -> t -> k:int -> Ipc.Engine.t
(** A registered two-instance session for the property unrolled to
    depth [k] (1 = the two-cycle property), racing
    [Options.portfolio] configurations: environment assumptions over
    every frame, then per frame the primary-input constraints and the
    victim's transaction (cycles 0-1) or equal victim-port traffic
    (later cycles). Alg. 2 under [Options.reset_start] also pins
    cycle 0 to the reset state.

    [share] is the session's cycle-0 equivalence set: instance B's
    cycle-0 state of every svar in it that has no
    {!Spec.victim_cell_guard} is A's own ({!Ipc.Unroller.create}), so
    every query on the session must assume State_Equivalence([share])
    at cycle 0. A guarded cell keeps its own B copy, because its
    cycle-0 condition is guard or equality. *)

type decision
(** A monolithic check's outcome — holds, a model with its per-cycle
    divergences, stopped by the hand-over cap, or undecided — and the
    solver work it took. *)

val decide :
  t ->
  Ipc.Engine.t ->
  goals:(int * Structural.Svar_set.t) list ->
  Ipc.Engine.query ->
  decision
(** One monolithic decision under [Options.budget] with escalating
    retries (an interrupt is never retried); its work counts every
    attempt. The run's first decision is otherwise unlimited unless
    {!create} seeded the cap state; every later one is capped at
    [max 4096 (2 × the costliest decision's conflicts so far)] when
    that is below the budget's conflict limit, and a decision the cap
    stops hands the run over to the per-svar round (see {!run}). A
    model's divergences are read against [goals]: per cycle, the set
    that must stay equal. *)

type obligation = int * Structural.svar
(** [(j, sv)]: can [sv] differ at cycle [j]? Alg. 1 asks at cycle 1
    only. *)

type frontier = {
  k : int;  (** unroll depth of the iteration's check *)
  s0 : Structural.Svar_set.t;
      (** cycle-0 equivalence set a per-svar witness is re-derived
          under *)
  goals : (int * Structural.Svar_set.t) list;
      (** cycles [1..k] with the set that must stay equal there *)
}

type 'st step = Next of 'st | Stop of Report.verdict

type lemmas = {
  lookup : obligation -> bool option;  (** [Some holds]: do not solve *)
  store : obligation -> holds:bool -> unit;
      (** every freshly decided obligation; Unknowns are never offered *)
}

type 'st property = {
  frontier : 'st -> frontier;
  holds : 'st -> 'st step;
      (** every obligation of the iteration held: a fixed point, or
          a deeper unrolling *)
  refine : 'st -> (int * Structural.Svar_set.t) list -> 'st;
      (** remove the per-cycle S_cex of a non-persistent divergence *)
  save : 'st -> int * Structural.Svar_set.t array;
      (** the checkpointed unroll depth and candidate sets *)
  monolithic : unit -> 'st -> decision;
      (** default strategy: called once, before the first iteration,
          to build the monolithic checker of the whole run, one warm
          session *)
  worker : frontier -> Ipc.Engine.t * (obligation -> Aig.lit list);
      (** per-svar round: a fresh engine for one frontier's unroll depth
          and cycle-0 set, built with {!engine}[ ~share:fr.s0], and the
          assumption literals that make one of the frontier's
          obligations satisfiable iff its svar can differ. Built once
          per pool domain and frontier, also for a hand-over round *)
  lemmas : 'st -> lemmas option;  (** per-svar memoisation *)
}
(** What is specific to one algorithm. ['st] is its refinement state. *)

val run : t -> 'st property -> 'st -> Report.run
(** Iterate from the given state (from the checkpoint's iteration when
    resuming) until a verdict. [Options.jobs = Some j] decides every
    obligation separately on a pool of [max 1 j] workers, persistent
    svars first. [None] decides one monolithic check per iteration
    until the hand-over cap stops one (see {!decide}); that iteration
    and every later one then run the per-svar round on one worker, the
    capped check's work counts towards the iteration's step, and the
    report's procedure names the iteration. After every refinement the
    new state is checkpointed when [Options.checkpoint_file] is set.
    Any degraded obligation turns a Secure verdict into
    [Inconclusive]. *)

val concluded : ?unrolled:Report.run -> Report.run -> Report.run
(** The report of an unrolled run followed by its Alg. 1 induction
    (or of a resumed induction alone): steps, unknowns, time,
    certification and reduction accounting of both phases. *)
