open Rtl

(** Verdicts and run reports for the UPEC-SSC procedures. *)

type step = {
  st_iter : int;  (** 1-based iteration number *)
  st_k : int;  (** unrolling depth of this check *)
  st_s_size : int;  (** |S| going into the check *)
  st_cex : Structural.Svar_set.t;  (** S_cex (empty when the check held) *)
  st_pers_hit : Structural.Svar_set.t;  (** S_cex ∩ S_pers *)
  st_unknown : Structural.Svar_set.t;
      (** svars whose check stayed Unknown after every budgeted retry:
          kept in the equivalence assumption but no longer checked *)
  st_seconds : float;
  st_stats : Satsolver.Solver.stats option;
      (** aggregate solver work of this iteration, when recorded *)
  st_winner : int option;
      (** portfolio configuration that won this iteration's last race *)
  st_losers : Satsolver.Solver.stats option;
      (** summed work of the losing portfolio configurations — the
          price paid for racing, visible next to the winner's cost *)
}

type verdict =
  | Secure of { s_final : Structural.Svar_set.t }
      (** the property became inductive for [s_final] *)
  | Vulnerable of { s_cex : Structural.Svar_set.t; cex : Ipc.Cex.t }
  | Inconclusive of string
      (** iteration budget exhausted or an internal anomaly *)

type cert_info = {
  ct_totals : Cert.Proof.totals;
      (** aggregated over every engine the run created *)
  ct_cex_validated : bool option;
      (** [Some ok] when a counterexample went through simulator
          validation; [None] for runs without a counterexample *)
}

type cache_info = {
  ca_fingerprint : string;  (** {!Fingerprint.design} of the job *)
  ca_report_hit : bool;
      (** the whole report was served from the farm's verdict cache *)
  ca_lemma_hits : int;  (** per-svar checks answered from cached lemmas *)
  ca_lemma_misses : int;  (** per-svar checks actually solved *)
  ca_invalidated : int;
      (** misses whose svar had a cached lemma under an older design —
          the re-solved cone of an RTL delta *)
  ca_cached_svars : string list;
      (** names of the state variables whose verdicts were served from
          cache (sorted, deduplicated) *)
}
(** Cache accounting attached by the proof farm ({!Farm.Exec});
    standalone runs carry [None]. *)

type run = {
  procedure : string;
      (** the procedure and strategy that produced the run, built by
          {!Refine}, with [S] one of [""] (fresh monolithic sessions),
          [", incremental"] or [", per-svar"], the first two followed
          by [", per-svar from iteration N"] when the default strategy
          handed over at iteration N:
          - ["UPEC-SSC (Alg. 1S)"] — {!Alg1.run_with};
          - ["UPEC-SSC-unrolled (Alg. 2S)"] — {!Alg2.run_with};
          - ["BMC-from-reset (Alg. 2 propertyS)"] — {!Alg2.run_with}
            under [Options.reset_start];
          - ["UPEC-SSC-unrolled + induction"] — {!Alg2.conclude_with}
            when the induction ran. *)
  variant : Spec.variant;
  verdict : verdict;
  steps : step list;  (** chronological *)
  total_seconds : float;
  state_bits : int;
  svar_count : int;
  cert : cert_info option;  (** present when the run was certified *)
  unknowns : (string * string) list;
      (** every svar (Alg1) or cycle\@svar pair (Alg2) degraded to
          Unknown over the whole run, with the exhausted-resource
          reason; any unknown downgrades a Secure verdict to
          [Inconclusive], since the fixed point assumed the undecided
          equalities without proving them *)
  resumed_from : int option;
      (** iteration the run was resumed at, when started from a
          checkpoint *)
  metrics : Obs.Metrics.snapshot option;
      (** process-wide cumulative {!Obs.Metrics} snapshot taken when
          the report was assembled; for a [conclude] run (unrolled +
          induction) the induction-phase snapshot covers both phases *)
  options : Options.t;  (** the options record the run was configured with *)
  simp : Simp.reduction option;
      (** problem-reduction accounting aggregated over every engine the
          run created; [None] when reduction was disabled *)
  cache : cache_info option;
      (** farm cache accounting; [None] outside the proof farm *)
  extra : (string * Json.t) list;
      (** schema-3 extension blocks appended verbatim to the JSON
          artefact under their own member names — the stable place for
          per-scenario metadata ([("scenario", …)]) and statistical
          cross-check results ([("stat", …)]) attached by layers above
          this library; the procedures always produce [[]] *)
}

val merge_cert : cert_info option -> cert_info option -> cert_info option

val is_secure : run -> bool
val is_vulnerable : run -> bool
val iterations : run -> int
val final_k : run -> int

val pp_verdict : Format.formatter -> verdict -> unit
val pp : Format.formatter -> run -> unit
(** Full report: per-iteration table and the verdict; for vulnerable
    runs, the S_cex classification and the counterexample waveform
    digest. *)

val pp_summary : Format.formatter -> run -> unit
(** One line: verdict, iterations, time. *)

val schema_version : int
(** Version stamped into the ["schema"] member of {!to_json} —
    currently 3. Schema 3 extends schema 2 with optional trailing
    extension blocks ({!type-run.extra}); parsers accept both (see
    {!Json.schema_version}). *)

val to_json : run -> Json.t
(** The machine-readable artefact, ["schema": 3]: verdict, iteration
    table, degraded checks, certification accounting, the {!Options.t}
    echo, the problem-reduction statistics and the [extra] extension
    blocks. Counterexample waveforms are summarised (frame count), not
    serialised — the VCD artefact carries them. *)

val simp_json : Simp.reduction -> Json.t
(** The ["simp"] member of {!to_json}: reduced solves and the CNF sizes
    before and after reduction. *)

val pp_metrics : Format.formatter -> run -> unit
(** The embedded {!Obs.Metrics} snapshot as a human table; a notice
    when the run recorded none. *)

val pp_stats : Format.formatter -> run -> unit
(** Per-iteration solver statistics and portfolio winners, plus the
    aggregate. Separate from {!pp} so that reports remain comparable
    across job counts — solver work is scheduling-dependent, the
    verdict and iteration table are not. *)
