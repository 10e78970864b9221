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
(** Memoisation hook for the per-svar checks, used by the proof farm
    ({!Farm.Exec}) with {!Fingerprint.check_key}-addressed lemmas. A
    sound cache must only answer when the design content the check
    depends on is unchanged; the hook itself is trusted. Every round
    consults it before any worker solves; an answer counts as a
    decision, and a refuted persistent check still gets its witness
    from a solve (see {!Refine.run}). *)

val run_with :
  ?initial:Structural.Svar_set.t ->
  ?resume:Checkpoint.t ->
  ?svar_cache:svar_cache ->
  Options.t ->
  Spec.t ->
  Report.run
(** Every knob lives in {!Options.t}
    (workers, problem reduction, certification, budgets, checkpoints
    — see there). [initial] starts from that set instead of
    S_not_victim; it is how {!Alg2.conclude_with} runs the final
    induction. [resume] restarts
    from a checkpoint, verifying its config hash ([Invalid_argument]
    on mismatch) — the final verdict is identical to an uninterrupted
    run's. [Options.max_k] and [Options.reset_start] are Alg2-only and
    ignored here.

    {b Rounds.} Every iteration decides, for each state variable of
    S, whether it can diverge at cycle 1 under State_Equivalence(S) at
    cycle 0: persistent ones first, in order, up to the first that can
    (a vulnerability, with that svar's witness), then the rest on a
    pool of [Options.jobs] workers ({!Refine.run}). Verdicts are
    semantic facts, so the refinement trace, verdict and witness are
    identical for every job count. A worker is built for its round's
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
