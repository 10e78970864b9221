open Rtl

(** Algorithm 2: the unrolled UPEC-SSC procedure (Fig. 4).

    Maintains one state set per cycle; the property is unrolled cycle
    by cycle until either a persistent state variable diverges (a
    vulnerability, with an {e explicit} multi-cycle counterexample as
    Sec. 3.5 advocates) or no new state variables are influenced at the
    deepest cycle. A [Hold] outcome still requires the inductive proof,
    which {!conclude_with} performs by running Algorithm 1 from the
    final set. *)

type outcome =
  | Hold of { s_final : Structural.Svar_set.t; k : int }
  | Found_vulnerable
  | Gave_up

val run_with :
  ?resume:Checkpoint.t -> Options.t -> Spec.t -> Report.run * outcome
(** Every knob lives in {!Options.t}.

    [Options.reset_start] pins cycle 0 to the concrete reset state,
    degrading IPC to plain bounded model checking — the E9 comparison.
    A [Hold] outcome under [reset_start] carries no inductive meaning;
    it shows BMC finding nothing within the window.

    {b Strategy selection.} [Options.jobs = Some j] decides each pair
    [(cycle, sv)] independently on a pool of [j] workers. The unrolled
    property only assumes equivalence at cycle 0 — a set that never
    shrinks — so pair verdicts are semantic and the trace is identical
    for every job count. [Options.jobs = None] runs one monolithic
    check per iteration on a single warm solver session, reused across
    iterations {e and} across unroll-depth growth — when the depth
    grows only the new frame's constraints are appended, and the
    shrinking per-cycle goal travels on solver assumptions, so learnt
    clauses survive the whole refinement. A check that reaches the
    hand-over cap (see {!Options.t.jobs}) hands that iteration and
    every later one to the per-svar round on one worker. A per-svar
    worker is built per unroll depth, and its instance B shares A's
    cycle-0 state on the fixed cycle-0 set.

    {b Problem reduction.} [Options.simp] (on by default) restricts
    witness-free solves to the cone of influence of the property; it
    never changes verdicts, and counterexample extraction always runs
    on the full encoding. [Options.portfolio] races that many solver
    configurations per SAT call.

    [Options.certify] and [Options.cex_vcd] behave as in
    {!Alg1.run_with}: every UNSAT result is revalidated by the
    independent RUP checker, SAT models by clause evaluation, and a
    vulnerable verdict's multi-cycle counterexample is replayed through
    the standalone simulator before it is reported.

    {b Resource governance} works as in {!Alg1.run_with}; in the
    per-svar strategy a pair [(j, sv)] still Unknown after the last
    retry stays in the cycle-[j] set but is no longer checked, recorded
    in [Report.unknowns] as ["name@j"]. Any undecided pair degrades a
    standalone Secure verdict to [Inconclusive]; the [Hold] outcome
    survives, because {!conclude_with}'s induction re-decides every
    svar from scratch and subsumes the bounded window.

    {b Checkpoint/resume} also as in {!Alg1.run_with}; the checkpoint
    stores the full per-cycle frame array and the current unroll depth.
    [resume] refuses checkpoints written by Algorithm 1
    ([Invalid_argument]); use {!conclude_with} to resume a combined run
    from either phase. *)

val conclude_with :
  ?resume:Checkpoint.t ->
  ?svar_cache:Alg1.svar_cache ->
  Options.t ->
  Spec.t ->
  Report.run
(** Run the unrolled procedure; on [Hold], finish with the Algorithm 1
    induction from the computed set and merge the reports
    (certification and reduction accounting from both phases is
    summed).

    The induction inherits the unrolled phase's hand-over cap state
    (see {!Options.t.jobs}): its first monolithic check is capped at
    [max 4096 (2 × the conflicts of the unrolled phase's costliest
    monolithic check)] and, when the cap stops it, hands over to the
    per-svar round like any later check of one run. A per-svar
    unrolled phase makes no monolithic check and seeds nothing.

    With [Options.checkpoint_file], the unrolled phase writes Alg2
    checkpoints and the induction phase overwrites them with Alg1
    checkpoints; a [resume] checkpoint of either kind is routed to the
    right phase (an Alg1 checkpoint skips the unrolled phase
    entirely, so the resumed induction's first check is uncapped).

    [svar_cache] memoises the induction phase's per-svar checks (see
    {!Alg1.svar_cache}); the unrolled phase never consults it — its
    (cycle, svar) obligations live in a k-deep formula that no 2-cycle
    lemma answers. *)
