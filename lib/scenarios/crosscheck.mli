(** Formal/statistical cross-check over {!Scenario.spec}s.

    One scenario, two verdicts: the UPEC-SSC procedure on the
    formal-scale design and the {!Stat} detector on paired
    simulation-scale trials. Agreement is asserted in both directions
    — a formal VULNERABLE must come with a statistically significant
    timing delta {e and} a counterexample that replays on the concrete
    simulator ({!Certval.validate}); a formal SECURE must come with
    no significant delta. The matrix run treats any disagreement (or a
    formal Inconclusive) as a failure. *)

type outcome = {
  oc_spec : Scenario.spec;  (** canonicalised *)
  oc_report : Upec.Report.run;
      (** the formal report, with [("scenario", …)] and [("stat", …)]
          schema-3 extension blocks attached *)
  oc_stat : Stat.result;
  oc_replay : bool option;
      (** [Some ok] when the verdict carried a counterexample *)
  oc_agree : bool;  (** formal and statistical verdicts agree *)
  oc_expected_ok : bool;  (** formal verdict matches [sp_expected] *)
  oc_stat_seconds : float;
}

val formal_verdict_string : Upec.Report.run -> string
(** ["secure"] / ["vulnerable"] / ["inconclusive"]. *)

val run :
  ?options:Upec.Options.t ->
  ?stat_init_n:int ->
  ?stat_max_n:int ->
  Scenario.spec ->
  outcome
(** Full cross-check of one scenario. [options] configures the formal
    run (default {!Upec.Options.default}); [stat_init_n] / [stat_max_n]
    forward to {!Stat.escalating}. *)

val run_matrix :
  ?options:Upec.Options.t ->
  ?stat_init_n:int ->
  ?stat_max_n:int ->
  ?progress:(outcome -> unit) ->
  Scenario.spec list ->
  outcome list
(** {!run} over a scenario list, calling [progress] after each. *)

val to_json : outcome -> Upec.Json.t
(** One BENCH_matrix entry: identity, fingerprint, formal verdict and
    cost, the statistical block, replay status and the agreement
    flags. *)

val matrix_to_json : outcome list -> Upec.Json.t
(** The BENCH_matrix.json artefact: totals, disagreement counts and
    the per-scenario entries. *)
