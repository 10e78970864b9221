(* Scenario-matrix subsystem: spec codec round-trips, fingerprint
   stability/sensitivity, the statistical detector on synthetic
   distributions, flag-shim/spec equivalence (verdicts and farm cache
   keys), and a cheap end-to-end cross-check. *)

module Json = Upec.Json
module Scenario = Scenarios.Scenario
module Stat = Scenarios.Stat

(* ---- generators ---- *)

let family_gen = QCheck.Gen.oneofl Scenario.all_families

let design_gen =
  let open QCheck.Gen in
  let* variant = oneofl [ "vulnerable"; "secure" ] in
  let* pers = oneofl [ "full"; "memory" ] in
  let* depth = int_range 2 16 in
  let* banks = oneofl [ 1; 2; 4 ] in
  let* arbiter = oneofl [ "rr"; "fixed"; "tdma" ] in
  let* dma = bool in
  let* hwpe = bool in
  let* uart = bool in
  let* timer = bool in
  let* dma_on_private = bool in
  let* timer_width = int_range 2 32 in
  return
    {
      Upec.Cli.d_variant = variant;
      d_pers = pers;
      d_depth = depth;
      d_banks = banks;
      d_arbiter = arbiter;
      d_dma = dma;
      d_hwpe = hwpe;
      d_uart = uart;
      d_timer = timer;
      d_dma_on_private = dma_on_private;
      d_timer_width = timer_width;
    }

let spec_gen =
  let open QCheck.Gen in
  let* family = family_gen in
  let* design = design_gen in
  let* alg = oneofl [ 1; 2 ] in
  let* secret = int_range 0 64 in
  let* public = int_range 0 64 in
  let* expected =
    oneofl [ Scenario.Expect_vulnerable; Scenario.Expect_secure ]
  in
  let* name = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
  return
    {
      Scenario.sp_name = name;
      sp_family = family;
      sp_design = design;
      sp_alg = alg;
      sp_secret = secret;
      sp_public = public;
      sp_expected = expected;
    }

let spec_arb =
  QCheck.make spec_gen ~print:(fun s -> Json.to_string (Scenario.to_json s))

(* ---- spec codec ---- *)

let prop_spec_roundtrip =
  QCheck.Test.make ~count:200 ~name:"spec JSON round-trip" spec_arb (fun s ->
      Scenario.of_json (Scenario.to_json s) = s)

let prop_fingerprint_stable =
  QCheck.Test.make ~count:200 ~name:"fingerprint canonicalisation-stable"
    spec_arb (fun s ->
      Scenario.fingerprint s = Scenario.fingerprint (Scenario.canonical s)
      && Scenario.fingerprint s
         = Scenario.fingerprint (Scenario.of_json (Scenario.to_json s)))

let prop_fingerprint_sensitive =
  QCheck.Test.make ~count:200 ~name:"fingerprint sensitive to every member"
    spec_arb (fun s ->
      let fp = Scenario.fingerprint s in
      let changed =
        [
          { s with Scenario.sp_secret = s.Scenario.sp_secret + 1 };
          { s with Scenario.sp_alg = (if s.Scenario.sp_alg = 1 then 2 else 1) };
          { s with Scenario.sp_name = s.Scenario.sp_name ^ "x" };
          {
            s with
            Scenario.sp_design =
              {
                s.Scenario.sp_design with
                Upec.Cli.d_depth = s.Scenario.sp_design.Upec.Cli.d_depth + 1;
              };
          };
        ]
      in
      List.for_all (fun s' -> Scenario.fingerprint s' <> fp) changed)

let test_spec_defaults () =
  (* only "family" is required; everything else from the template *)
  let s = Scenario.of_json (Json.Obj [ ("family", Json.Str "countermeasure") ]) in
  Alcotest.(check bool)
    "template design" true
    (s = Scenario.default_for Scenario.Countermeasure);
  (* design members override the template, not the global default *)
  let s =
    Scenario.of_json
      (Json.Obj
         [
           ("family", Json.Str "tdma_interconnect");
           ("design", Json.Obj [ ("depth", Json.Int 3) ]);
         ])
  in
  Alcotest.(check string)
    "family design delta kept" "tdma"
    s.Scenario.sp_design.Upec.Cli.d_arbiter;
  Alcotest.(check int)
    "spec design delta applied" 3 s.Scenario.sp_design.Upec.Cli.d_depth;
  match Scenario.of_json (Json.Obj [ ("family", Json.Str "nonsense") ]) with
  | _ -> Alcotest.fail "unknown family accepted"
  | exception Json.Parse_error _ -> ()

let test_catalog_shape () =
  Alcotest.(check bool)
    "at least 8 families" true
    (List.length Scenario.all_families >= 8);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Scenario.family_to_string f ^ ": >= 3 sweep points")
        true
        (List.length (Scenario.sweep_points f) >= 3))
    Scenario.all_families;
  let names = List.map (fun s -> s.Scenario.sp_name) Scenario.catalog in
  Alcotest.(check int)
    "catalog names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun s ->
      match Scenario.find s.Scenario.sp_name with
      | Some s' -> Alcotest.(check bool) "find returns the entry" true (s = s')
      | None -> Alcotest.failf "catalog entry %s not found" s.Scenario.sp_name)
    Scenario.catalog;
  (* a bare family name resolves to the family default *)
  Alcotest.(check bool)
    "bare family name" true
    (Scenario.find "busted_timer" = Some (Scenario.default_for Scenario.Busted_timer))

(* ---- statistical detector on synthetic distributions ---- *)

let test_stat_leaky () =
  let secret = Array.init 20 (fun i -> 100.0 +. float_of_int (i mod 5)) in
  let public = Array.init 20 (fun i -> 50.0 +. float_of_int (i mod 5)) in
  let r = Stat.test ~secret ~public () in
  Alcotest.(check bool) "leak detected" true (r.Stat.st_verdict = Stat.Leak);
  Alcotest.(check bool) "huge effect" true (Float.abs r.Stat.st_d > 0.8);
  Alcotest.(check bool) "tiny p" true (r.Stat.st_p < 1e-6)

let test_stat_constant_time () =
  let a = Array.init 16 (fun i -> 40.0 +. float_of_int (i mod 3)) in
  let r = Stat.test ~secret:a ~public:(Array.copy a) () in
  Alcotest.(check bool)
    "no leak on identical samples" true
    (r.Stat.st_verdict = Stat.No_leak);
  (* noiseless constant split: certain leak, capped effect *)
  let r =
    Stat.test ~secret:(Array.make 8 60.0) ~public:(Array.make 8 59.0) ()
  in
  Alcotest.(check bool)
    "constant split is a leak" true
    (r.Stat.st_verdict = Stat.Leak);
  Alcotest.(check (float 0.0)) "p = 0" 0.0 r.Stat.st_p

let test_stat_inconclusive_band () =
  (* a mid-band effect at low n: neither significant nor negligible *)
  let secret = [| 10.0; 11.0; 12.0; 13.0; 14.0; 15.0 |] in
  let public = Array.map (fun x -> x +. 0.7) secret in
  let r = Stat.test ~secret ~public () in
  Alcotest.(check bool)
    "mid-band at low n is inconclusive" true
    (r.Stat.st_verdict = Stat.Inconclusive)

let test_stat_escalation () =
  (* deterministic noisy sampler: a real but small shift needs more
     than the initial sample size *)
  let noise i = float_of_int ((i * 7919) mod 13) in
  let calls = ref 0 in
  let sample i =
    incr calls;
    (100.0 +. noise i +. 4.0, 100.0 +. noise i)
  in
  let r = Stat.escalating ~init_n:4 ~max_n:64 ~sample () in
  Alcotest.(check bool) "leak found" true (r.Stat.st_verdict = Stat.Leak);
  Alcotest.(check bool) "escalated at least once" true (r.Stat.st_escalations >= 1);
  Alcotest.(check int) "samples drawn once and reused" r.Stat.st_n !calls

let test_p_value_reference () =
  let close what expected got =
    if Float.abs (expected -. got) > 1e-3 then
      Alcotest.failf "%s: expected %.6f, got %.6f" what expected got
  in
  close "p(t=2, df=10)" 0.073388 (Stat.p_value ~t:2.0 ~df:10.0);
  close "p(t=3, df=20)" 0.007076 (Stat.p_value ~t:3.0 ~df:20.0);
  close "p(t=0.5, df=5)" 0.638299 (Stat.p_value ~t:0.5 ~df:5.0)

(* ---- flag shim vs Scenario.spec: verdicts and farm cache keys ---- *)

(* What `upec_ssc check --depth 3 --no-uart --timer-width 6` desugars
   to in the deprecated flag layer... *)
let shim_design =
  {
    Upec.Cli.default_design with
    Upec.Cli.d_depth = 3;
    d_uart = false;
    d_timer_width = 6;
  }

(* ...and the same design spelled as a scenario spec. *)
let spec_design =
  (Scenario.of_json
     (Json.Obj
        [
          ("family", Json.Str "busted_timer");
          ( "design",
            Json.Obj
              [
                ("depth", Json.Int 3);
                ("uart", Json.Bool false);
                ("timer_width", Json.Int 6);
              ] );
        ]))
    .Scenario.sp_design

(* wall-clock members are the only legitimate difference between two
   runs of the same check; zero them before comparing *)
let rec scrub_times j =
  match j with
  | Json.Obj ms ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             if
               String.length k >= 7
               && String.sub k (String.length k - 7) 7 = "seconds"
             then (k, Json.Float 0.0)
             else (k, scrub_times v))
           ms)
  | Json.List xs -> Json.List (List.map scrub_times xs)
  | j -> j

let test_shim_spec_identical_verdicts () =
  Alcotest.(check bool) "design records equal" true (shim_design = spec_design);
  let run d =
    scrub_times
      (Upec.Report.to_json
         (Upec.Alg1.run_with Upec.Options.default (Upec.Cli.spec_of d)))
  in
  Alcotest.(check string)
    "bit-identical reports (timing scrubbed)"
    (Json.to_string (run shim_design))
    (Json.to_string (run spec_design))

let test_shim_spec_identical_cache () =
  let job d =
    {
      Farm.Job.jb_id = "t";
      jb_design = d;
      jb_alg = 1;
      jb_options = Upec.Options.default;
    }
  in
  Alcotest.(check string)
    "identical report keys"
    (Farm.Exec.report_key (job shim_design))
    (Farm.Exec.report_key (job spec_design));
  Alcotest.(check string)
    "spec fingerprints agree"
    (Upec.Fingerprint.design_spec shim_design)
    (Upec.Fingerprint.design_spec spec_design);
  (* a run submitted through the flag shim serves the spec-spelled job
     from the report cache *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "scenario-cache-%d" (Unix.getpid ()))
  in
  let store = Farm.Store.load ~writer:true ~dir () in
  let cold = Farm.Exec.run ~store (job shim_design) in
  Alcotest.(check bool) "cold run misses" false cold.Farm.Exec.oc_report_hit;
  Farm.Store.add_report store ~key:cold.Farm.Exec.oc_report_key
    cold.Farm.Exec.oc_report;
  let warm = Farm.Exec.run ~store (job spec_design) in
  Alcotest.(check bool)
    "spec-spelled job hits the shim's entry" true
    warm.Farm.Exec.oc_report_hit

let test_scenario_job_wire () =
  let j = Farm.Job.of_json (Json.Obj [ ("scenario", Json.Str "busted_timer_d3") ]) in
  Alcotest.(check string) "id defaults to scenario name" "busted_timer_d3"
    j.Farm.Job.jb_id;
  Alcotest.(check int) "design from catalog" 3
    j.Farm.Job.jb_design.Upec.Cli.d_depth;
  let j =
    Farm.Job.of_json
      (Json.Obj
         [
           ( "scenario",
             Json.Obj
               [
                 ("family", Json.Str "busted_timer_free");
                 ("design", Json.Obj [ ("depth", Json.Int 4) ]);
               ] );
         ])
  in
  Alcotest.(check int) "inline spec names its procedure" 2 j.Farm.Job.jb_alg;
  Alcotest.(check int) "inline spec design" 4
    j.Farm.Job.jb_design.Upec.Cli.d_depth;
  (match
     Farm.Job.of_json
       (Json.Obj
          [ ("scenario", Json.Str "busted_timer"); ("design", Json.Obj []) ])
   with
  | _ -> Alcotest.fail "design+scenario accepted"
  | exception Json.Parse_error _ -> ());
  match Farm.Job.of_json (Json.Obj [ ("scenario", Json.Str "no_such") ]) with
  | _ -> Alcotest.fail "unknown scenario accepted"
  | exception Json.Parse_error _ -> ()

(* ---- end-to-end cross-check on the two cheapest scenarios ---- *)

let test_crosscheck_smoke () =
  List.iter
    (fun (name, expect_leak) ->
      let s =
        match Scenario.find name with
        | Some s -> s
        | None -> Alcotest.failf "%s not in catalog" name
      in
      let o = Scenarios.Crosscheck.run s in
      Alcotest.(check bool) (name ^ ": agree") true
        o.Scenarios.Crosscheck.oc_agree;
      Alcotest.(check bool) (name ^ ": expected") true
        o.Scenarios.Crosscheck.oc_expected_ok;
      Alcotest.(check bool) (name ^ ": stat verdict") expect_leak
        (o.Scenarios.Crosscheck.oc_stat.Stat.st_verdict = Stat.Leak);
      (* the report carries the schema-3 extension blocks *)
      let j = Upec.Report.to_json o.Scenarios.Crosscheck.oc_report in
      Alcotest.(check bool) (name ^ ": scenario block") true
        (Json.member "scenario" j <> Json.Null);
      Alcotest.(check bool) (name ^ ": stat block") true
        (Json.member "stat" j <> Json.Null))
    [ ("busted_timer_d3", true); ("no_spies_d3", false) ]
(* The simulated timing samples themselves, not only the verdicts drawn
   from them: every catalog scenario at seeds 0-11, digested. Any change
   to the simulator's cycle-exact behaviour moves the digest. *)
let test_sample_digest () =
  let b = Buffer.create 16384 in
  List.iter
    (fun s ->
      for seed = 0 to 11 do
        let secret, public = Scenario.sample_pair s ~seed in
        Buffer.add_string b
          (Printf.sprintf "%s %d %d %d\n" s.Scenario.sp_name seed
             (int_of_float secret) (int_of_float public))
      done)
    Scenario.catalog;
  Alcotest.(check int) "27 scenarios" 27 (List.length Scenario.catalog);
  Alcotest.(check string)
    "sample digest" "e66477bb11957b143c73258cbdd56de4"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* `upec_ssc --jobs` and a farm job's "jobs" both resolve through
   [Upec.Cli.resolve_jobs]: any non-positive count means "auto", so the
   report echoes the job count that actually ran *)
let test_resolve_jobs () =
  let auto = Some (Parallel.Pool.default_jobs ()) in
  let resolved = Upec.Cli.resolve_jobs in
  Alcotest.(check (option int)) "negative = auto" auto (resolved (Some (-3)));
  Alcotest.(check (option int)) "zero = auto" auto (resolved (Some 0));
  Alcotest.(check (option int)) "explicit count kept" (Some 2)
    (resolved (Some 2));
  Alcotest.(check (option int)) "monolithic kept" None (resolved None)

let () =
  Alcotest.run "scenarios"
    [
      ( "spec",
        [
          QCheck_alcotest.to_alcotest prop_spec_roundtrip;
          QCheck_alcotest.to_alcotest prop_fingerprint_stable;
          QCheck_alcotest.to_alcotest prop_fingerprint_sensitive;
          Alcotest.test_case "family templates and overrides" `Quick
            test_spec_defaults;
          Alcotest.test_case "catalog shape" `Quick test_catalog_shape;
        ] );
      ( "stat",
        [
          Alcotest.test_case "leaky distribution" `Quick test_stat_leaky;
          Alcotest.test_case "constant time" `Quick test_stat_constant_time;
          Alcotest.test_case "inconclusive band" `Quick
            test_stat_inconclusive_band;
          Alcotest.test_case "sample-size escalation" `Quick
            test_stat_escalation;
          Alcotest.test_case "p-value reference points" `Quick
            test_p_value_reference;
        ] );
      ( "shim",
        [
          Alcotest.test_case "flag shim = spec: verdicts" `Quick
            test_shim_spec_identical_verdicts;
          Alcotest.test_case "flag shim = spec: farm cache" `Quick
            test_shim_spec_identical_cache;
          Alcotest.test_case "scenario jobs on the wire" `Quick
            test_scenario_job_wire;
          Alcotest.test_case "non-positive job counts resolve to auto" `Quick
            test_resolve_jobs;
        ] );
      ( "crosscheck",
        [
          Alcotest.test_case "smoke" `Quick test_crosscheck_smoke;
          Alcotest.test_case "sample digest" `Quick test_sample_digest;
        ] );
    ]
