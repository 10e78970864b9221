(* Every metric the ledger prints, with its unit and direction. The
   ledger emits exactly these names; BENCHMARK.json declares the same
   ones (test_ledger keeps the two equal). *)

type metric = {
  name : string;
  unit : string;
  better : Stats.better;
  floor : float;
      (** smallest change, in [unit], that [compare] can call worse *)
}

let workloads = [ "prove_secure"; "detect"; "crosscheck"; "farm" ]
let m ?(better = Stats.Lower) ?(floor = 0.0) name unit = { name; unit; better; floor }

(* Printed by every untraced run ([--trace 0]). Set-up takes a few
   milliseconds, where a relative bound alone would flag scheduler
   noise, so [compare] needs it to grow by at least 1 ms. *)
let end_to_end =
  [ m ~floor:0.001 "setup_s" "s"; m "pass_s" "s"; m "peak_rss_mb" "MB" ]

(* Layer spans the ledger opens around its calls into the program. *)
let ledger_spans =
  [ "soc"; "upec.spec"; "upec.alg"; "upec.replay"; "scenarios.crosscheck"; "farm" ]

(* Spans the program opens itself, nested under the ledger's. *)
let library_spans =
  [
    "alg1.iter";
    "alg2.iter";
    "ipc.check";
    "ipc.pre_encode";
    "unroll.advance";
    "simp.snapshot";
    "simp.rebuild";
    "sat.solve";
    "cert.check";
    "farm.job";
  ]

let hi = Stats.Higher

(* Printed by every traced run ([--trace 1]). Per-pass values (the
   median over the run's traced passes), except the soc/upec.spec
   set-up metrics, which are per set-up. *)
let per_layer =
  [
    m "soc.build_s" "s";
    m "soc.state_bits" "bits";
    m "upec.spec_s" "s";
    m "upec.svars" "count";
    m "ipc.checks" "count";
    m "ipc.unroll_s" "s";
    m "ipc.pre_encode_s" "s";
    m ~better:hi "simp.reduced_solves" "count";
    m ~better:hi "simp.vars_saved" "count";
    m ~better:hi "simp.clauses_saved" "count";
    m "simp.rebuild_s" "s";
    m "sat.solve_s" "s";
    m "sat.solves" "count";
    m "sat.conflicts" "count";
    m "sat.propagations" "count";
    m "sat.restarts" "count";
    m ~better:hi "sat.props_per_s" "1/s";
    m "sat.budget_exhausted" "count";
    m "sat.longest_solve_s" "s";
    m "sat.longest_solve_conflicts" "count";
    m "upec.alg_s" "s";
    m "upec.alg_self_s" "s";
    m "upec.iterations" "count";
    m "upec.replay_s" "s";
    m "upec.replays" "count";
    m ~better:hi "upec.replay_ok_ratio" "ratio";
    m "cert.solve_s" "s";
    m "cert.check_s" "s";
    m "cert.check_ratio" "ratio";
    m "cert.proof_steps" "count";
    m ~better:hi "cert.unsat_checked" "count";
    m ~better:hi "cert.sat_checked" "count";
    m "stat.s" "s";
    m "stat.trials" "count";
    m "stat.trial_s" "s";
    m "stat.escalations" "count";
    m "crosscheck.formal_s" "s";
    m ~better:hi "crosscheck.agree_ratio" "ratio";
    m "farm.cold_s" "s";
    m ~better:hi "farm.warm_jobs_per_s" "1/s";
    m "farm.delta_s" "s";
    m ~better:hi "farm.report_hits" "count";
    m "farm.report_misses" "count";
    m ~better:hi "farm.warm_hit_ratio" "ratio";
    m ~better:hi "farm.lemma_hits" "count";
    m "farm.lemma_misses" "count";
    m "farm.invalidated" "count";
    m "farm.job_s" "s";
    m "farm.wait_s" "s";
    m "farm.worker_failures" "count";
    m "farm.job_retries" "count";
    m "farm.store_lemmas" "count";
    m "farm.store_reports" "count";
    m ~better:hi "trace.coverage" "ratio";
    m "trace.overhead" "ratio";
  ]
  @ List.map (fun s -> m (s ^ ".self_s") "s") (ledger_spans @ library_spans)

(* Counts that repeat exactly from pass to pass and run to run; the
   [compare] subcommand requires them to be equal, not close. *)
let deterministic =
  [
    "sat.conflicts";
    "sat.propagations";
    "sat.solves";
    "ipc.checks";
    "upec.iterations";
    "cert.proof_steps";
    "stat.trials";
    "farm.delta_lemma_hits";
    "farm.delta_lemma_misses";
  ]
