(* Cross-checking the formal verdict against empirical timing.

   For one scenario: run the UPEC-SSC procedure the spec names on the
   formal-scale design, run the statistical detector on the
   simulation-scale sibling, and demand that the two agree —
   VULNERABLE must come with a significant timing delta (and a
   counterexample that replays on the concrete simulator), SECURE must
   come with no significant delta. A disagreement means either a
   modelling gap between the two scales or a bug in one of the
   stacks; the matrix treats it as a hard failure. *)

module Json = Upec.Json

type outcome = {
  oc_spec : Scenario.spec;
  oc_report : Upec.Report.run;  (* carries scenario + stat extra blocks *)
  oc_stat : Stat.result;
  oc_replay : bool option;  (* [Some ok] for vulnerable verdicts *)
  oc_agree : bool;
  oc_expected_ok : bool;
  oc_stat_seconds : float;
}

let formal_verdict_string (r : Upec.Report.run) =
  match r.Upec.Report.verdict with
  | Upec.Report.Secure _ -> "secure"
  | Upec.Report.Vulnerable _ -> "vulnerable"
  | Upec.Report.Inconclusive _ -> "inconclusive"

let run_formal ?(options = Upec.Options.default) (s : Scenario.spec) =
  let spec = Upec.Cli.spec_of s.Scenario.sp_design in
  let report =
    match s.Scenario.sp_alg with
    | 2 -> Upec.Alg2.conclude_with options spec
    | _ -> Upec.Alg1.run_with options spec
  in
  (spec, report)

let run_stat ?stat_init_n ?stat_max_n (s : Scenario.spec) =
  Stat.escalating ?init_n:stat_init_n ?max_n:stat_max_n
    ~sample:(fun seed -> Scenario.sample_pair s ~seed)
    ()

let agreement (report : Upec.Report.run) (stat : Stat.result) replay =
  match (report.Upec.Report.verdict, stat.Stat.st_verdict) with
  | Upec.Report.Vulnerable _, Stat.Leak ->
      (* the formal witness must also survive concrete replay *)
      replay = Some true
  | Upec.Report.Secure _, Stat.No_leak -> true
  | _ -> false

let expected_ok (s : Scenario.spec) (report : Upec.Report.run) =
  match (s.Scenario.sp_expected, report.Upec.Report.verdict) with
  | Scenario.Expect_vulnerable, Upec.Report.Vulnerable _ -> true
  | Scenario.Expect_secure, Upec.Report.Secure _ -> true
  | _ -> false

let run ?options ?stat_init_n ?stat_max_n (s : Scenario.spec) =
  let s = Scenario.canonical s in
  let spec, report = run_formal ?options s in
  let replay =
    match report.Upec.Report.verdict with
    | Upec.Report.Vulnerable { cex; _ } ->
        (* replay the formal witness as one empirical sample: the
           counterexample trajectory must reproduce on the concrete
           simulator of the same netlist *)
        Some
          (Certval.validate spec.Upec.Spec.soc.Soc.Builder.netlist cex)
            .Certval.v_ok
    | _ -> None
  in
  let t0 = Unix.gettimeofday () in
  let stat = run_stat ?stat_init_n ?stat_max_n s in
  let stat_seconds = Unix.gettimeofday () -. t0 in
  let report =
    {
      report with
      Upec.Report.extra =
        [ ("scenario", Scenario.to_json s); ("stat", Stat.to_json stat) ];
    }
  in
  {
    oc_spec = s;
    oc_report = report;
    oc_stat = stat;
    oc_replay = replay;
    oc_agree = agreement report stat replay;
    oc_expected_ok = expected_ok s report;
    oc_stat_seconds = stat_seconds;
  }

let to_json o =
  let r = o.oc_report in
  Json.Obj
    [
      ("name", Json.Str o.oc_spec.Scenario.sp_name);
      ( "family",
        Json.Str (Scenario.family_to_string o.oc_spec.Scenario.sp_family) );
      ( "expected",
        Json.Str (Scenario.expectation_to_string o.oc_spec.Scenario.sp_expected)
      );
      ("fingerprint", Json.Str (Scenario.fingerprint o.oc_spec));
      ( "formal",
        Json.Obj
          [
            ("verdict", Json.Str (formal_verdict_string r));
            ("procedure", Json.Str r.Upec.Report.procedure);
            ("seconds", Json.Float r.Upec.Report.total_seconds);
            ("iterations", Json.Int (Upec.Report.iterations r));
          ] );
      ("stat", Stat.to_json o.oc_stat);
      ("stat_seconds", Json.Float o.oc_stat_seconds);
      ( "replay_ok",
        match o.oc_replay with Some b -> Json.Bool b | None -> Json.Null );
      ("agree", Json.Bool o.oc_agree);
      ("expected_ok", Json.Bool o.oc_expected_ok);
    ]

let run_matrix ?options ?stat_init_n ?stat_max_n ?(progress = fun _ -> ())
    specs =
  List.map
    (fun s ->
      let o = run ?options ?stat_init_n ?stat_max_n s in
      progress o;
      o)
    specs

let matrix_to_json outcomes =
  let disagreements =
    List.length (List.filter (fun o -> not o.oc_agree) outcomes)
  in
  let unexpected =
    List.length (List.filter (fun o -> not o.oc_expected_ok) outcomes)
  in
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("total", Json.Int (List.length outcomes));
      ("disagreements", Json.Int disagreements);
      ("unexpected", Json.Int unexpected);
      ("scenarios", Json.List (List.map to_json outcomes));
    ]
