open Rtl

(** Algorithm 1: the fixed-point UPEC-SSC procedure over the two-cycle
    property of Fig. 3.

    Starting from S = S_not_victim (or a caller-provided S, e.g. the
    result of the unrolled procedure for the final induction step), each
    iteration checks the 2-cycle property for the current S. A failing
    check yields S_cex; persistent hits mean the design is vulnerable;
    otherwise S_cex is removed from S and the check repeats. When the
    property holds, it is inductive for the final S, which proves —
    with unbounded validity — that the victim cannot influence any
    attacker-visible persistent state (the induction base being the
    cycle before the victim's first transaction). *)

type svar_cache = {
  sc_lookup : Structural.svar -> s:Structural.Svar_set.t -> bool option;
      (** [Some holds] answers the per-svar check [check(sv, S)]
          without solving; [None] forces a fresh solve *)
  sc_store : Structural.svar -> s:Structural.Svar_set.t -> holds:bool -> unit;
      (** called for every freshly decided check; Unknown results are
          never offered (exhaustion is a property of the budget, not
          the formula) *)
}
(** Memoisation hook for the per-svar strategy, used by the proof farm
    ({!Farm.Exec}) with {!Fingerprint.check_key}-addressed lemmas. A
    sound cache must only answer when the design content the check
    depends on is unchanged; the hook itself is trusted. Only the
    per-svar round consults it: from the first iteration under
    [Options.jobs = Some _], from the hand-over on under the default
    strategy. A monolithic check solves one formula for all of S,
    which no per-svar lemma answers. *)

val run_with :
  ?initial:Structural.Svar_set.t * int option ->
  ?resume:Checkpoint.t ->
  ?svar_cache:svar_cache ->
  Options.t ->
  Spec.t ->
  Report.run
(** Every knob lives in {!Options.t}
    (strategy, problem reduction, certification, budgets, checkpoints
    — see there). [initial = (s, costliest)] starts from [s] instead
    of S_not_victim and seeds the hand-over cap with [costliest], the
    conflicts of an earlier phase's costliest monolithic check ([None]:
    it made none, and the first check runs uncapped); it is how
    {!Alg2.conclude_with} runs the final induction. [resume] restarts
    from a checkpoint, verifying its config hash ([Invalid_argument]
    on mismatch) — the final verdict is identical to an uninterrupted
    run's. [Options.max_k] and [Options.reset_start] are Alg2-only and
    ignored here.

    {b Strategy selection.} [Options.jobs = Some j] decides every
    state variable of S independently on a pool of [j] workers
    (verdicts are semantic facts, so the refinement trace and verdict
    are identical for every job count); [None] runs one monolithic
    check per iteration, reusing a single warm solver session across
    iterations, until a check reaches the hand-over cap (see
    {!Options.t.jobs}). That iteration and every later one then run
    per-svar on one worker. A per-svar worker is built for its round's
    S, and its instance B shares A's cycle-0 state on S (METHOD.md
    §4).

    {b Resource governance.} Every SAT call runs under
    [Options.budget] with escalating retries; a svar still undecided
    after the last retry is degraded — kept in the equivalence
    assumption, no longer checked, recorded in [Report.unknowns] —
    and any degraded svar turns a would-be Secure verdict into
    [Inconclusive]. A Vulnerable verdict rests on a concrete validated
    witness and stands. The run never hangs, crashes or aborts on
    exhaustion.

    {b Interrupts.} [Options.should_stop] is polled from inside every
    solve; when it fires, in-flight solves unwind cooperatively, the
    partially-completed iteration is discarded (the checkpoint keeps
    the last {e completed} iteration) and the run returns
    [Inconclusive "interrupted"]. *)
