(* Command-line driver for the UPEC-SSC analyses.

   Examples:
     upec_ssc check --variant vulnerable --alg 2
     upec_ssc check --variant secure --alg 1 --depth 8
     upec_ssc invariants --variant secure
     upec_ssc stats --depth 16 *)

open Cmdliner

(* The design/options semantics (string enumerations, defaults, budget
   assembly) live in Upec.Cli, shared with the proof farm's JSON job
   codec; this file only contributes the Cmdliner flag layer. *)

let variant_arg =
  let doc = "SoC variant to analyse: 'vulnerable' or 'secure'." in
  Arg.(value & opt string "vulnerable" & info [ "variant" ] ~doc)

let alg_arg =
  let doc = "Procedure: 1 (fixed point, Alg. 1) or 2 (unrolled, Alg. 2)." in
  Arg.(value & opt int 1 & info [ "alg" ] ~doc)

let pers_arg =
  let doc = "S_pers model: 'full' or 'memory' (footprint-only retrieval)." in
  Arg.(value & opt string "full" & info [ "pers" ] ~doc)

let depth_arg =
  let doc = "Words per SRAM bank." in
  Arg.(value & opt int 8 & info [ "depth" ] ~doc)

let banks_arg =
  let doc = "SRAM banks per region (power of two)." in
  Arg.(value & opt int 2 & info [ "banks" ] ~doc)

let arbiter_arg =
  let doc = "Arbitration policy: 'rr', 'fixed' or 'tdma'." in
  Arg.(value & opt string "rr" & info [ "arbiter" ] ~doc)

let no_dma_arg =
  let doc = "Build the SoC without the DMA engine." in
  Arg.(value & flag & info [ "no-dma" ] ~doc)

let no_hwpe_arg =
  let doc = "Build the SoC without the HWPE accelerator." in
  Arg.(value & flag & info [ "no-hwpe" ] ~doc)

let no_uart_arg =
  let doc = "Build the SoC without the UART." in
  Arg.(value & flag & info [ "no-uart" ] ~doc)

let timer_width_arg =
  let doc = "Timer counter width in bits (an easy one-IP RTL delta)." in
  Arg.(
    value
    & opt int Upec.Cli.default_design.Upec.Cli.d_timer_width
    & info [ "timer-width" ] ~doc ~docv:"BITS")

(* Deprecated shim layer: each flag desugars onto the declarative
   design record (the same record a --scenario spec carries), so a
   flag invocation and the equivalent Scenario.spec build bit-identical
   specs and hit the same farm cache entries. New design knobs are not
   given flags — describe them in a scenario file instead. *)
let design_term =
  let make variant pers depth banks arbiter no_dma no_hwpe no_uart timer_width
      =
    {
      Upec.Cli.default_design with
      Upec.Cli.d_variant = variant;
      d_pers = pers;
      d_depth = depth;
      d_banks = banks;
      d_arbiter = arbiter;
      d_dma = not no_dma;
      d_hwpe = not no_hwpe;
      d_uart = not no_uart;
      d_timer_width = timer_width;
    }
  in
  Term.(
    const make $ variant_arg $ pers_arg $ depth_arg $ banks_arg $ arbiter_arg
    $ no_dma_arg $ no_hwpe_arg $ no_uart_arg $ timer_width_arg)

let scenario_arg =
  let doc =
    "Run a named catalog scenario (e.g. 'busted_timer_d4') or a scenario \
     spec file (JSON, see Scenarios.Scenario). The scenario supplies the \
     design and the procedure; the individual design flags and --alg are \
     ignored."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~doc ~docv:"NAME|FILE")

let resolve_scenario name =
  if Sys.file_exists name then (
    try Scenarios.Scenario.load_file name
    with Upec.Json.Parse_error msg | Sys_error msg ->
      Format.eprintf "upec_ssc: bad scenario file %s: %s@." name msg;
      exit 3)
  else
    match Scenarios.Scenario.find name with
    | Some s -> s
    | None ->
        Format.eprintf
          "upec_ssc: unknown scenario %s (not a file, not in the catalog)@."
          name;
        Format.eprintf "known scenarios:@.";
        List.iter
          (fun s ->
            Format.eprintf "  %s@." s.Scenarios.Scenario.sp_name)
          Scenarios.Scenario.catalog;
        exit 3

let max_k_arg =
  let doc = "Maximum unrolling depth for Alg. 2." in
  Arg.(value & opt int 8 & info [ "max-k" ] ~doc)

let full_cex_arg =
  let doc = "Print the full counterexample waveform." in
  Arg.(value & flag & info [ "full-cex" ] ~doc)

let no_simp_arg =
  let doc =
    "Escape hatch: disable problem reduction (cone-of-influence \
     restriction of the witness-free SAT calls that $(b,--portfolio) \
     races; other calls are never reduced). Verdicts are identical with \
     and without it."
  in
  Arg.(value & flag & info [ "no-simp" ] ~doc)

let json_arg =
  let doc =
    "Write the machine-readable report (schema 3: verdict, iteration \
     table, options echo, reduction statistics and, with --scenario, the \
     scenario block) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")

let jobs_arg =
  let doc =
    "Run each refinement round on N worker domains (default 1; 0 or \
     negative = auto: $(b,UPEC_JOBS) or the recommended domain count). A \
     round decides the persistent state variables first, in order, and \
     stops at the first that can diverge; then the others. Verdicts, \
     witnesses and reports are identical for every N."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc ~docv:"N")

let portfolio_arg =
  let doc =
    "Race K diversified solver configurations inside every SAT call."
  in
  Arg.(value & opt int 1 & info [ "portfolio" ] ~doc ~docv:"K")

let stats_flag_arg =
  let doc = "Print per-iteration solver statistics and portfolio winners." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let certify_arg =
  let doc =
    "Certify every verdict: UNSAT results are revalidated by an independent \
     RUP proof checker, SAT models by clause evaluation, and vulnerable \
     counterexamples are replayed through the standalone simulator. The \
     checker mirrors the solver's warm session, so a certified run searches \
     exactly like an uncertified one."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let cex_vcd_arg =
  let doc =
    "Dump the counterexample as paired VCD waveforms $(docv).A.vcd / \
     $(docv).B.vcd (one file per instance)."
  in
  Arg.(value & opt (some string) None & info [ "cex-vcd" ] ~doc ~docv:"PREFIX")

let conflict_budget_arg =
  let doc =
    "Give up on any single SAT call after $(docv) conflicts (0 = \
     unlimited). Exhausted calls are retried with escalating budgets; a \
     state variable still undecided afterwards is excluded conservatively \
     and reported, it never aborts the run."
  in
  Arg.(value & opt int 0 & info [ "conflict-budget" ] ~doc ~docv:"N")

let prop_budget_arg =
  let doc = "Per-SAT-call propagation cap (0 = unlimited)." in
  Arg.(value & opt int 0 & info [ "prop-budget" ] ~doc ~docv:"N")

let timeout_arg =
  let doc = "Per-SAT-call wall-clock cap in seconds (0 = unlimited)." in
  Arg.(value & opt float 0.0 & info [ "timeout" ] ~doc ~docv:"SECS")

let budget_retries_arg =
  let doc = "Extra attempts for a budget-exhausted SAT call." in
  Arg.(value & opt int 2 & info [ "budget-retries" ] ~doc ~docv:"N")

let budget_escalation_arg =
  let doc = "Budget scale factor applied on each retry." in
  Arg.(value & opt float 4.0 & info [ "budget-escalation" ] ~doc ~docv:"F")

let checkpoint_arg =
  let doc =
    "Persist the iteration state to $(docv) (atomic rename) after every \
     completed iteration, and on SIGINT/SIGTERM. Resume with $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~doc ~docv:"FILE")

let resume_arg =
  let doc =
    "Resume from a checkpoint written by $(b,--checkpoint). The stored \
     config hash must match the current design/variant/persistence options; \
     a mismatch is refused."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~doc ~docv:"FILE")

let trace_arg =
  let doc =
    "Stream observability spans (solver, unroller, pool, per-iteration \
     phases) to $(docv) as JSONL. The sink is buffered with whole lines \
     and flushed on exit — also on interrupt — so the file is always \
     parseable."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let metrics_arg =
  let doc =
    "Write the final metrics registry (counters, gauges, log-scale \
     histograms) to $(docv) as JSON on exit."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~doc ~docv:"FILE")

let check_cmd =
  let run design alg scenario max_k full_cex no_simp json_file
      jobs portfolio stats certify cex_vcd conflict_budget
      prop_budget timeout budget_retries budget_escalation checkpoint_file
      resume_file trace_file metrics_file =
    let scenario = Option.map resolve_scenario scenario in
    let design, alg =
      match scenario with
      | Some s -> (s.Scenarios.Scenario.sp_design, s.Scenarios.Scenario.sp_alg)
      | None -> (design, alg)
    in
    (* [exit] is used for status codes below, so scope-based closing
       (Fun.protect) would never run: close the sink from [at_exit],
       which fires on every exit path including the interrupt ones.
       Obs.Trace.close is idempotent and flushes whole lines only. *)
    (match trace_file with
    | Some path ->
        Obs.Trace.set_sink (open_out path);
        at_exit Obs.Trace.close
    | None -> ());
    (match metrics_file with
    | Some path -> at_exit (fun () -> Obs.Metrics.dump_file path)
    | None -> ());
    let spec = Upec.Cli.spec_of design in
    let jobs = Upec.Cli.resolve_jobs jobs in
    let budget =
      Upec.Cli.budget_of ~conflicts:conflict_budget ~props:prop_budget
        ~seconds:timeout
    in
    let resume =
      match resume_file with
      | None -> None
      | Some file -> (
          match Upec.Checkpoint.load file with
          | Ok ck -> Some ck
          | Error msg ->
              Format.eprintf "upec_ssc: cannot resume from %s: %s@." file msg;
              exit 3)
    in
    (* Cooperative interruption: the handler only flips a flag; every
       in-flight solve polls it and unwinds, the algorithm discards the
       partial iteration (the checkpoint keeps the last completed one)
       and we still get a partial report before the nonzero exit. *)
    let stop = Atomic.make false in
    let on_signal _ = Atomic.set stop true in
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle on_signal))
      [ Sys.sigint; Sys.sigterm ];
    let should_stop () = Atomic.get stop in
    let options =
      {
        Upec.Options.default with
        Upec.Options.max_k;
        simp = not no_simp;
        jobs;
        portfolio;
        certify;
        cex_vcd;
        budget;
        budget_retries;
        budget_escalation;
        checkpoint_file;
        should_stop = Some should_stop;
      }
    in
    let report =
      try
        if alg = 2 then Upec.Alg2.conclude_with ?resume options spec
        else Upec.Alg1.run_with ?resume options spec
      with Invalid_argument msg when resume <> None ->
        Format.eprintf "upec_ssc: checkpoint refused: %s@." msg;
        exit 3
    in
    let report =
      match scenario with
      | Some s ->
          {
            report with
            Upec.Report.extra =
              [ ("scenario", Scenarios.Scenario.to_json s) ];
          }
      | None -> report
    in
    Format.printf "%a@." Upec.Report.pp report;
    (match json_file with
    | Some path ->
        let oc = open_out path in
        output_string oc (Upec.Json.to_string (Upec.Report.to_json report));
        close_out oc
    | None -> ());
    if stats then begin
      Format.printf "%a@." Upec.Report.pp_stats report;
      Format.printf "%a@." Upec.Report.pp_metrics report
    end;
    (match (full_cex, report.Upec.Report.verdict) with
    | true, Upec.Report.Vulnerable { cex; _ } ->
        Format.printf "%a@." Ipc.Cex.pp_full cex
    | _ -> ());
    if Atomic.get stop then begin
      (match checkpoint_file with
      | Some file when Sys.file_exists file ->
          Format.eprintf
            "upec_ssc: interrupted; resume with --resume %s@." file
      | _ -> Format.eprintf "upec_ssc: interrupted@.");
      exit 130
    end;
    if Upec.Report.is_vulnerable report then exit 10 else exit 0
  in
  let doc = "Run the UPEC-SSC security analysis." in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const run $ design_term $ alg_arg $ scenario_arg $ max_k_arg
      $ full_cex_arg $ no_simp_arg $ json_arg $ jobs_arg
      $ portfolio_arg $ stats_flag_arg $ certify_arg $ cex_vcd_arg $ conflict_budget_arg $ prop_budget_arg $ timeout_arg
      $ budget_retries_arg $ budget_escalation_arg $ checkpoint_arg
      $ resume_arg $ trace_arg $ metrics_arg)

let invariants_cmd =
  let run design =
    let spec = Upec.Cli.spec_of design in
    Format.printf "base case (reset state):@.";
    List.iter
      (fun (name, ok) ->
        Format.printf "  [%s] %s@." (if ok then "ok" else "FAIL") name)
      (Upec.Invariant.check_base spec);
    Format.printf "induction step:@.";
    List.iter
      (fun (name, ok) ->
        Format.printf "  [%s] %s@." (if ok then "ok" else "FAIL") name)
      (Upec.Invariant.check_inductive spec)
  in
  let doc = "Check that the assumed reachability invariants are sound." in
  Cmd.v (Cmd.info "invariants" ~doc) Term.(const run $ design_term)

let emit_cmd =
  let run design out =
    let soc =
      Soc.Builder.build (Upec.Cli.config_of design) Soc.Builder.Formal
    in
    Rtl.Verilog.write_file out soc.Soc.Builder.netlist;
    Format.printf "wrote %s (%s)@." out
      (Rtl.Netlist.stats soc.Soc.Builder.netlist)
  in
  let out_arg =
    Arg.(value & opt string "soc.v" & info [ "o"; "output" ] ~doc:"Output file.")
  in
  let doc = "Export the formal-mode SoC netlist as Verilog." in
  Cmd.v (Cmd.info "emit" ~doc) Term.(const run $ design_term $ out_arg)

let stats_cmd =
  let run design =
    let soc =
      Soc.Builder.build (Upec.Cli.config_of design) Soc.Builder.Formal
    in
    print_endline (Rtl.Netlist.stats soc.Soc.Builder.netlist)
  in
  let doc = "Print netlist statistics for a configuration." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run $ design_term)

(* The 4-scenario CI slice: two expected-vulnerable and two
   expected-secure families whose formal runs are cheap. *)
let smoke_names =
  [
    "busted_timer_d3";
    "hwpe_progressive_d3";
    "no_spies_d3";
    "tdma_interconnect_d3";
  ]

let matrix_cmd =
  let run smoke names out_dir json_file jobs stat_max_n =
    let specs =
      match (smoke, names) with
      | true, [] -> List.map resolve_scenario smoke_names
      | _, [] -> Scenarios.Scenario.catalog
      | _, names -> List.map resolve_scenario names
    in
    let jobs = Upec.Cli.resolve_jobs jobs in
    let options = { Upec.Options.default with Upec.Options.jobs } in
    (match out_dir with
    | Some dir when not (Sys.file_exists dir) -> Unix.mkdir dir 0o755
    | _ -> ());
    Format.printf
      "%-28s %-12s %8s | %-12s %9s %8s | %-6s %s@." "scenario" "formal"
      "seconds" "stat" "p" "d" "replay" "status";
    let progress o =
      let open Scenarios.Crosscheck in
      (match out_dir with
      | Some dir ->
          let path =
            Filename.concat dir (o.oc_spec.Scenarios.Scenario.sp_name ^ ".json")
          in
          let oc = open_out path in
          output_string oc
            (Upec.Json.to_string (Upec.Report.to_json o.oc_report));
          close_out oc
      | None -> ());
      Format.printf "%-28s %-12s %8.1f | %-12s %9.2e %8.2f | %-6s %s@."
        o.oc_spec.Scenarios.Scenario.sp_name
        (formal_verdict_string o.oc_report)
        o.oc_report.Upec.Report.total_seconds
        (Scenarios.Stat.verdict_to_string o.oc_stat.Scenarios.Stat.st_verdict)
        o.oc_stat.Scenarios.Stat.st_p o.oc_stat.Scenarios.Stat.st_d
        (match o.oc_replay with
        | Some true -> "ok"
        | Some false -> "FAIL"
        | None -> "-")
        (if o.oc_agree && o.oc_expected_ok then "ok"
         else if not o.oc_agree then "DISAGREE"
         else "UNEXPECTED")
    in
    let outcomes =
      Scenarios.Crosscheck.run_matrix ~options ?stat_max_n ~progress specs
    in
    let artifact = Scenarios.Crosscheck.matrix_to_json outcomes in
    (match json_file with
    | Some path ->
        let oc = open_out path in
        output_string oc (Upec.Json.to_string artifact);
        close_out oc
    | None -> ());
    let bad =
      List.filter
        (fun o ->
          not
            (o.Scenarios.Crosscheck.oc_agree
            && o.Scenarios.Crosscheck.oc_expected_ok))
        outcomes
    in
    Format.printf "@.%d scenarios, %d disagreement(s), %d unexpected verdict(s)@."
      (List.length outcomes)
      (List.length
         (List.filter
            (fun o -> not o.Scenarios.Crosscheck.oc_agree)
            outcomes))
      (List.length
         (List.filter
            (fun o -> not o.Scenarios.Crosscheck.oc_expected_ok)
            outcomes));
    if bad <> [] then exit 10
  in
  let smoke_arg =
    let doc =
      "Run only the 4-scenario CI slice (2 expected-vulnerable, 2 \
       expected-secure) instead of the full catalog."
    in
    Arg.(value & flag & info [ "smoke" ] ~doc)
  in
  let names_arg =
    let doc = "Run only the named scenarios (overrides --smoke)." in
    Arg.(value & pos_all string [] & info [] ~doc ~docv:"NAME")
  in
  let out_arg =
    let doc = "Write one schema-3 report per scenario into $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~doc ~docv:"DIR")
  in
  let matrix_json_arg =
    let doc =
      "Write the matrix artefact (per-scenario verdicts, statistics and \
       agreement flags) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~doc ~docv:"FILE")
  in
  let stat_max_arg =
    let doc = "Cap the statistical sample escalation at $(docv) pairs." in
    Arg.(value & opt (some int) None & info [ "stat-max" ] ~doc ~docv:"N")
  in
  let doc =
    "Cross-check the scenario matrix: formal verdict vs statistical timing \
     evidence. Exits 10 on any disagreement or unexpected verdict."
  in
  Cmd.v (Cmd.info "matrix" ~doc)
    Term.(
      const run $ smoke_arg $ names_arg $ out_arg $ matrix_json_arg $ jobs_arg
      $ stat_max_arg)

let () =
  let doc = "UPEC-SSC: formal detection of MCU-wide timing side channels" in
  let info = Cmd.info "upec_ssc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ check_cmd; matrix_cmd; invariants_cmd; stats_cmd; emit_cmd ]))
