(** Execute one farm job against a cache store.

    Two cache levels:
    - {b report}: key = canonical design-spec digest × options digest
      ({!Upec.Fingerprint.design_spec}). A hit returns the stored
      artefact (with its [cache] block re-marked [report_hit]) without
      building a netlist or an engine at all; jobs spelled as
      deprecated CLI flags and as {!Scenarios.Scenario} specs hit the
      same entries.
    - {b lemma}: within a miss, every per-svar Algorithm 1 check is
      answered from {!Upec.Fingerprint.check_key}-addressed lemmas
      when its key matches ({!Upec.Alg1.svar_cache}); the refinement
      loop replays with cached answers, so the warm verdict — and the
      whole iteration table — is bit-identical to the cold run's. An
      RTL delta changes exactly the keys whose check content it
      touches; only that cone re-solves.

    [run] never writes the store: new lemmas and the report travel in
    the {!outcome} for the daemon (the single writer) to merge. *)

type outcome = {
  oc_id : string;  (** echo of the job's correlation id *)
  oc_report : Upec.Json.t;
  oc_report_key : string;
  oc_report_hit : bool;
  oc_lemma_hits : int;
  oc_lemma_misses : int;
  oc_invalidated : int;
      (** misses on svars that had cached lemmas under other keys *)
  oc_new_lemmas : (string * string * bool) list;  (** svar, key, holds *)
  oc_seconds : float;
}

val report_key : Job.t -> string
(** Digest of the canonical design spec and the options wire encoding;
    O(1) — no SoC build, no solving. *)

val cached : store:Store.t -> Job.t -> string * outcome option
(** The job's {!report_key} and, when the store holds its report, the
    hit: the stored artefact with its [cache] block re-marked
    [report_hit] (every other byte as the cold run wrote it), no
    lemmas, [oc_seconds = 0.0]. The daemon answers unchanged jobs
    with it in-line; {!run} starts with it. *)

val run : store:Store.t -> Job.t -> outcome
(** {!cached}, timed; on a miss, the solve. *)

val outcome_to_json : outcome -> Upec.Json.t
val outcome_of_json : Upec.Json.t -> outcome
(** Wire codec for the worker protocol; [Upec.Json.Parse_error] on
    malformed input. *)
