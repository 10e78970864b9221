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

    {b Rounds.} Every iteration decides each pair [(cycle, sv)]
    independently: persistent pairs first, in order, up to the first
    one that can diverge (a vulnerability, with that pair's explicit
    witness), then the rest on a pool of [Options.jobs] workers
    ({!Refine.run}). The unrolled property only assumes equivalence at
    cycle 0 — a set that never shrinks — so pair verdicts are semantic
    and the trace and witness are identical for every job count. A
    worker is built per round, and its instance B shares A's cycle-0
    state on the fixed cycle-0 set.

    {b Problem reduction.} [Options.simp] (on by default) restricts
    witness-free portfolio races to the cone of influence of the
    property; it never changes verdicts, and counterexample extraction
    always runs on the full encoding. [Options.portfolio] races that many solver
    configurations per SAT call.

    [Options.certify] and [Options.cex_vcd] behave as in
    {!Alg1.run_with}: every UNSAT result is revalidated by the
    independent RUP checker, SAT models by clause evaluation, and a
    vulnerable verdict's multi-cycle counterexample is replayed through
    the standalone simulator before it is reported.

    {b Resource governance} works as in {!Alg1.run_with}; a pair
    [(j, sv)] still Unknown after the last
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

    With [Options.checkpoint_file], the unrolled phase writes Alg2
    checkpoints and the induction phase overwrites them with Alg1
    checkpoints; a [resume] checkpoint of either kind is routed to the
    right phase (an Alg1 checkpoint skips the unrolled phase
    entirely).

    [svar_cache] memoises the induction phase's per-svar checks (see
    {!Alg1.svar_cache}); the unrolled phase never consults it — its
    (cycle, svar) obligations live in a k-deep formula that no 2-cycle
    lemma answers. *)
