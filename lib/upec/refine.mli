open Rtl

(** The refinement driver shared by {!Alg1} and {!Alg2}.

    Both procedures shrink candidate sets until a property holds:
    Alg. 1 the Fig. 3 two-cycle property over one set S, Alg. 2 the
    Fig. 4 property unrolled to depth k over one set per cycle.
    Everything around the SAT calls is one procedure and lives here:
    engine setup, budget retries, the iteration loop, the per-svar
    round (persistent obligations first, in order, up to the first one
    refuted, whose witness is re-decided on the worker that refuted it
    and validated by simulation), degraded obligations, checkpoints and
    the report. An algorithm supplies a {!property}: its encodings, its
    obligations' assumption literals and its set-update rules.

    The driver keeps the creation order of engines, the assertion order
    of constraints and the order of assumption lists fixed: CNF variable
    numbering steers the search, so every run is reproducible. *)

type t
(** One run of one algorithm: options, spec, resume state, engine
    registry, degraded obligations and the steps recorded so far. *)

val create : Checkpoint.alg -> ?resume:Checkpoint.t -> Options.t -> Spec.t -> t
(** Start a run. With [resume], the checkpoint must have been written
    by the same algorithm under the same config hash, and every svar
    it names must exist; [Invalid_argument] otherwise. *)

val resumed : t -> (int * Structural.Svar_set.t array) option
(** The resumed checkpoint's unroll depth and candidate sets (Alg. 1
    has one set; Alg. 2 one per cycle [0..k]). *)

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

type obligation = int * Structural.svar
(** [(j, sv)]: can [sv] differ at cycle [j]? Alg. 1 asks at cycle 1
    only. *)

type frontier = {
  k : int;  (** unroll depth of the iteration's check *)
  s0 : Structural.Svar_set.t;
      (** cycle-0 equivalence set the round's workers share *)
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
  worker : frontier -> Ipc.Engine.t * (obligation -> Aig.lit list);
      (** a fresh engine for one frontier's unroll depth and cycle-0
          set, built with {!engine}[ ~share:fr.s0], and the assumption
          literals that make one of the frontier's obligations
          satisfiable iff its svar can differ. Built at most once per
          pool domain and round *)
  lemmas : 'st -> lemmas option;  (** per-svar memoisation *)
}
(** What is specific to one algorithm. ['st] is its refinement state. *)

val run : t -> 'st property -> 'st -> Report.run
(** Iterate from the given state (from the checkpoint's iteration when
    resuming) until a verdict, one per-svar round per iteration on
    workers built for that round alone, [max 1 Options.jobs] of them.

    A round first decides the persistent obligations on the pool in
    obligation order (cycle, then svar), skipping those past the first
    refuted one found, so every obligation up to the first refuted one
    is decided; a lemma answer counts as a decision. That obligation is
    then re-decided with a model, without a budget, on a solver that has
    made exactly the witness-free decisions a sequential uncached run's
    worker 0 makes up to it: a round worker whose history is a prefix of
    those replays the rest, or else a fresh worker replays them all. So
    the witness, the round's S_cex (that one svar) and the report are
    the same for every job count, portfolio and cache. Otherwise the
    non-persistent obligations go to the pool and S_cex is every one
    refuted. Workers pre-encode the witness variables when they are
    built, so their CNF is the same with [Options.simp] on or off.

    After every refinement the new state is checkpointed when
    [Options.checkpoint_file] is set. Any degraded obligation turns a
    Secure verdict into [Inconclusive]. *)

val concluded : ?unrolled:Report.run -> Report.run -> Report.run
(** The report of an unrolled run followed by its Alg. 1 induction
    (or of a resumed induction alone): steps, unknowns, time,
    certification and reduction accounting of both phases. *)
