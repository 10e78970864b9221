(* Resource governance and crash-safe orchestration: checkpoint
   (de)serialization properties, interrupted-then-resumed runs reaching
   the verdict of an uninterrupted run across job counts, config-hash
   refusal, and graceful degradation under SAT budgets. *)

module Ck = Upec.Checkpoint
module O = Upec.Options

(* Alg. 1 capped at 64 iterations *)
let alg1_opts = { O.default with O.max_iterations = 64 }

let spec_of variant =
  let soc = Soc.Builder.build Soc.Config.formal_tiny Soc.Builder.Formal in
  Upec.Spec.make soc variant

let verdict_str r = Format.asprintf "%a" Upec.Report.pp_verdict r.Upec.Report.verdict

(* ---- checkpoint format ---- *)

let gen_checkpoint =
  QCheck.Gen.(
    let raw_string =
      (* arbitrary bytes: names and reasons must survive spaces,
         newlines, '%' and the '@' used by Alg2 pair entries *)
      string_size ~gen:char (int_range 0 16)
    in
    let* alg = oneofl [ Ck.Alg1; Ck.Alg2 ] in
    let* variant = raw_string in
    let* hash = raw_string in
    let* iter = int_range 0 1000 in
    let* k = int_range 0 16 in
    let* frames =
      array_size (int_range 1 5) (list_size (int_range 0 8) raw_string)
    in
    let* unknown = list_size (int_range 0 6) (pair raw_string raw_string) in
    return
      {
        Ck.ck_alg = alg;
        ck_variant = variant;
        ck_config_hash = hash;
        ck_iter = iter;
        ck_k = k;
        ck_frames = frames;
        ck_unknown = unknown;
      })

(* [ck]'s text as written by runs that could hand over from monolithic
   checks to per-svar rounds: with the hand-over cap state members *)
let with_handover_members ?costliest ?handover ck =
  let module J = Upec.Json in
  match J.of_string (Ck.to_string ck) with
  | J.Obj m ->
      J.to_string
        (J.Obj
           (m
           @ List.filter_map
               (fun (name, v) -> Option.map (fun n -> (name, J.Int n)) v)
               [ ("costliest", costliest); ("handover", handover) ]))
  | _ -> failwith "a checkpoint is a JSON object"

(* Every checkpoint round-trips, and reads the same with the hand-over
   members of older checkpoints added. *)
let qcheck_roundtrip =
  QCheck.Test.make ~count:300 ~name:"checkpoint to_string/of_string roundtrip"
    (QCheck.make
       ~print:(fun (ck, _, _) -> Format.asprintf "%a" Ck.pp ck)
       QCheck.Gen.(
         triple gen_checkpoint
           (opt (int_range 0 1_000_000))
           (opt (int_range 1 1000))))
    (fun (ck, costliest, handover) ->
      let parsed what text =
        match Ck.of_string text with
        | Ok ck' -> ck' = ck
        | Error m -> QCheck.Test.fail_reportf "%s: parse failed: %s" what m
      in
      parsed "written" (Ck.to_string ck)
      && parsed "with hand-over members"
           (with_handover_members ?costliest ?handover ck))

let sample_ck () =
  {
    Ck.ck_alg = Ck.Alg2;
    ck_variant = "secure";
    ck_config_hash = "deadbeef";
    ck_iter = 3;
    ck_k = 2;
    ck_frames = [| [ "a"; "b c" ]; []; [ "weird%name@1" ] |];
    ck_unknown = [ ("x@2", "conflict budget exhausted") ];
  }

let test_save_load_roundtrip () =
  let path = Filename.temp_file "governance" ".ck" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let ck = sample_ck () in
      Ck.save path ck;
      match Ck.load path with
      | Ok ck' -> Alcotest.(check bool) "load = saved" true (ck' = ck)
      | Error m -> Alcotest.fail ("load failed: " ^ m))

let test_rejects_truncation () =
  let text = Ck.to_string (sample_ck ()) in
  (* cut the document's last 4 bytes: a torn write must be refused *)
  let cut = String.sub text 0 (String.length text - 4) in
  (match Ck.of_string cut with
  | Ok _ -> Alcotest.fail "truncated checkpoint accepted"
  | Error m ->
      Alcotest.(check bool)
        "mentions truncation" true
        (String.length m > 0));
  match Ck.of_string "not a checkpoint at all\n" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let test_rejects_malformed_members () =
  let module J = Upec.Json in
  let members =
    match J.of_string (Ck.to_string (sample_ck ())) with
    | J.Obj m -> m
    | _ -> Alcotest.fail "a checkpoint is a JSON object"
  in
  let with_member k v =
    J.to_string
      (J.Obj (List.map (fun (k', v') -> (k', if k' = k then v else v')) members))
  in
  (* a member checkpoints no longer carry, as older ones did *)
  let with_extra k v = J.to_string (J.Obj (members @ [ (k, v) ])) in
  List.iter
    (fun (what, text) ->
      match Ck.of_string text with
      | Ok _ -> Alcotest.failf "%s accepted" what
      | Error _ -> ())
    [
      ( "version-1 text form",
        "upec-ssc-checkpoint 1\nhash x\nalg alg1\nvariant secure\niter 1\n\
         k 1\nframes 0\nend\n" );
      ("version 1", with_member "version" (J.Int 1));
      ("wrong magic", with_member "magic" (J.Str "upec-farm-cache"));
      ("negative iter", with_member "iter" (J.Int (-1)));
      ("ill-typed k", with_member "k" (J.Str "1"));
      ("ill-typed frame", with_member "frames" (J.List [ J.Int 0 ]));
      ("negative costliest", with_extra "costliest" (J.Int (-1)));
      ("ill-typed costliest", with_extra "costliest" (J.Str "7"));
      ("negative handover", with_extra "handover" (J.Int (-7)));
      ("ill-typed handover", with_extra "handover" (J.Bool true));
      ( "unknown without reason",
        with_member "unknown" (J.List [ J.Obj [ ("name", J.Str "x") ] ]) );
      ("missing hash", J.to_string (J.Obj (List.remove_assoc "hash" members)));
    ]

(* Checkpoints are written without the hand-over cap state that runs
   handing over from monolithic checks once kept, and load. *)
let test_loads_without_handover_state () =
  let module J = Upec.Json in
  let ck = sample_ck () in
  let text = Ck.to_string ck in
  (match J.of_string text with
  | J.Obj m ->
      Alcotest.(check (list string))
        "no hand-over members written" []
        (List.filter
           (fun k -> k = "costliest" || k = "handover")
           (List.map fst m))
  | _ -> Alcotest.fail "a checkpoint is a JSON object");
  match Ck.of_string text with
  | Ok ck' -> Alcotest.(check bool) "loads as written" true (ck' = ck)
  | Error m -> Alcotest.fail ("refused: " ^ m)

(* A checkpoint of a run that checked the whole property once per
   iteration, with the hand-over members such a run wrote (before and
   after its hand-over), resumes to the verdict and final S of an
   uninterrupted run: its S is a frontier the rounds refine further. *)
let test_resumes_monolithic_checkpoint () =
  let spec () = spec_of Upec.Spec.Secure in
  let uninterrupted = Upec.Alg1.run_with alg1_opts (spec ()) in
  let iter, s =
    match Testutil.oracle_alg1 ~max_iterations:2 (spec ()) with
    | Testutil.Oracle_frontier (i, s) -> (i, s)
    | _ -> Alcotest.fail "the oracle needs more than two iterations here"
  in
  let ck =
    {
      Ck.ck_alg = Ck.Alg1;
      ck_variant = "secure";
      ck_config_hash = Ck.config_hash ~alg:Ck.Alg1 (spec ());
      ck_iter = iter;
      ck_k = 1;
      ck_frames =
        [|
          List.map Rtl.Structural.svar_name
            (Rtl.Structural.Svar_set.elements s);
        |];
      ck_unknown = [];
    }
  in
  List.iter
    (fun (what, text) ->
      match Ck.of_string text with
      | Error m -> Alcotest.failf "%s: refused: %s" what m
      | Ok ck ->
          let resumed = Upec.Alg1.run_with ~resume:ck alg1_opts (spec ()) in
          Alcotest.(check string)
            (what ^ ": verdict and final S")
            (verdict_str uninterrupted) (verdict_str resumed);
          Alcotest.(check (option int))
            (what ^ ": resumed from its iteration") (Some iter)
            resumed.Upec.Report.resumed_from)
    [
      ("before the hand-over", with_handover_members ~costliest:3121 ck);
      ( "after the hand-over",
        with_handover_members ~costliest:3121 ~handover:(iter - 1) ck );
    ]

let test_load_missing_is_error () =
  match Ck.load "/nonexistent/governance.ck" with
  | Ok _ -> Alcotest.fail "loaded a nonexistent file"
  | Error _ -> ()

(* ---- config-hash and algorithm-kind refusal ---- *)

let test_hash_mismatch_refused () =
  (* checkpoint fingerprinted for the secure variant must be refused by
     a vulnerable-variant run instead of silently misread *)
  let ck =
    {
      Ck.ck_alg = Ck.Alg1;
      ck_variant = "secure";
      ck_config_hash = Ck.config_hash ~alg:Ck.Alg1 (spec_of Upec.Spec.Secure);
      ck_iter = 2;
      ck_k = 1;
      ck_frames = [| [] |];
      ck_unknown = [];
    }
  in
  match
    Upec.Alg1.run_with ~resume:ck alg1_opts
      (spec_of Upec.Spec.Vulnerable)
  with
  | _ -> Alcotest.fail "hash mismatch not refused"
  | exception Invalid_argument _ -> ()

let test_alg_kind_refused () =
  let spec = spec_of Upec.Spec.Secure in
  let ck =
    {
      Ck.ck_alg = Ck.Alg1;
      ck_variant = "secure";
      ck_config_hash = Ck.config_hash ~alg:Ck.Alg1 spec;
      ck_iter = 2;
      ck_k = 1;
      ck_frames = [| [] |];
      ck_unknown = [];
    }
  in
  match
    Upec.Alg2.run_with ~resume:ck O.default spec
  with
  | _ -> Alcotest.fail "Alg2 accepted an Alg1 checkpoint"
  | exception Invalid_argument _ -> ()

(* ---- interrupt + resume: identical verdict ---- *)

let with_ck_file f =
  let path = Filename.temp_file "governance" ".ck" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* [should_stop] fires as soon as the first checkpoint has been
   published, i.e. from iteration 2's first solve onwards — a
   deterministic stand-in for SIGTERM that needs no wall-clock timing. *)
let stop_after_first_checkpoint path () = Sys.file_exists path

let test_alg1_interrupt_resume ~stop_jobs ~resume_jobs ?(certify = false) () =
  let resume_opts = { alg1_opts with O.jobs = resume_jobs; certify } in
  let baseline = Upec.Alg1.run_with resume_opts (spec_of Upec.Spec.Secure) in
  with_ck_file (fun path ->
      let interrupted =
        Upec.Alg1.run_with
          {
            alg1_opts with
            O.jobs = stop_jobs;
            certify;
            checkpoint_file = Some path;
            should_stop = Some (stop_after_first_checkpoint path);
          }
          (spec_of Upec.Spec.Secure)
      in
      (match interrupted.Upec.Report.verdict with
      | Upec.Report.Inconclusive "interrupted" -> ()
      | v ->
          Alcotest.failf "expected an interrupted run, got %s"
            (Format.asprintf "%a" Upec.Report.pp_verdict v));
      let ck =
        match Ck.load path with
        | Ok ck -> ck
        | Error m -> Alcotest.fail ("checkpoint unreadable: " ^ m)
      in
      let resumed =
        Upec.Alg1.run_with ~resume:ck resume_opts (spec_of Upec.Spec.Secure)
      in
      Alcotest.(check string)
        "resumed verdict = uninterrupted verdict" (verdict_str baseline)
        (verdict_str resumed);
      Alcotest.(check bool)
        "resume recorded" true
        (resumed.Upec.Report.resumed_from <> None))

let test_conclude_interrupt_resume () =
  let jobs1 = O.default in
  let baseline = Upec.Alg2.conclude_with jobs1 (spec_of Upec.Spec.Secure) in
  with_ck_file (fun path ->
      let interrupted =
        Upec.Alg2.conclude_with
          {
            O.default with
            O.jobs = 4;
            checkpoint_file = Some path;
            should_stop = Some (stop_after_first_checkpoint path);
          }
          (spec_of Upec.Spec.Secure)
      in
      (match interrupted.Upec.Report.verdict with
      | Upec.Report.Inconclusive "interrupted" -> ()
      | _ -> Alcotest.fail "expected an interrupted run");
      let ck =
        match Ck.load path with
        | Ok ck -> ck
        | Error m -> Alcotest.fail ("checkpoint unreadable: " ^ m)
      in
      (* resume on a different job count: the checkpoint is a semantic
         frontier, not a schedule, so the verdict must not change *)
      let resumed =
        Upec.Alg2.conclude_with ~resume:ck jobs1 (spec_of Upec.Spec.Secure)
      in
      Alcotest.(check string)
        "resumed verdict = uninterrupted verdict" (verdict_str baseline)
        (verdict_str resumed))

(* ---- budgets: graceful degradation ---- *)

(* per-svar on 2 workers, each SAT call capped at [conflicts] *)
let budgeted base ~conflicts ~retries =
  {
    base with
    O.jobs = 2;
    budget = Satsolver.Solver.conflict_budget conflicts;
    budget_retries = retries;
  }

let test_budget_degrades_not_poisons () =
  (* a starved run on the secure design must end Inconclusive with the
     starved checks accounted for — never Vulnerable (soundness) and
     never Secure (honesty), and it must terminate *)
  let r =
    Upec.Alg1.run_with
      (budgeted alg1_opts ~conflicts:5 ~retries:0)
      (spec_of Upec.Spec.Secure)
  in
  Alcotest.(check bool) "not vulnerable" false (Upec.Report.is_vulnerable r);
  Alcotest.(check bool) "not secure" false (Upec.Report.is_secure r);
  Alcotest.(check bool) "unknowns accounted" true (r.Upec.Report.unknowns <> [])

let test_budget_generous_still_secure () =
  (* with escalating retries the same run converges to the unbudgeted
     verdict: budgets bound single calls, not the result *)
  let r =
    Upec.Alg1.run_with
      (budgeted alg1_opts ~conflicts:1_000 ~retries:2)
      (spec_of Upec.Spec.Secure)
  in
  Alcotest.(check bool) "secure" true (Upec.Report.is_secure r);
  Alcotest.(check (list (pair string string)))
    "no unknowns" [] r.Upec.Report.unknowns

let test_budget_vulnerable_never_secure () =
  let r =
    Upec.Alg1.run_with
      (budgeted alg1_opts ~conflicts:50 ~retries:1)
      (spec_of Upec.Spec.Vulnerable)
  in
  Alcotest.(check bool)
    "a starved run never claims security" false
    (Upec.Report.is_secure r)

let test_budget_conclude_terminates () =
  let r =
    Upec.Alg2.conclude_with
      (budgeted O.default ~conflicts:5 ~retries:0)
      (spec_of Upec.Spec.Secure)
  in
  Alcotest.(check bool) "not vulnerable" false (Upec.Report.is_vulnerable r);
  Alcotest.(check bool) "not secure" false (Upec.Report.is_secure r)

let () =
  Alcotest.run "governance"
    [
      ( "checkpoint",
        [
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
          Alcotest.test_case "save/load roundtrip" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "rejects truncation" `Quick test_rejects_truncation;
          Alcotest.test_case "rejects malformed members" `Quick
            test_rejects_malformed_members;
          Alcotest.test_case "loads without hand-over state" `Quick
            test_loads_without_handover_state;
          Alcotest.test_case "resumes a monolithic run's checkpoint" `Slow
            test_resumes_monolithic_checkpoint;
          Alcotest.test_case "load of missing file is Error" `Quick
            test_load_missing_is_error;
          Alcotest.test_case "config-hash mismatch refused" `Slow
            test_hash_mismatch_refused;
          Alcotest.test_case "algorithm kind refused" `Slow
            test_alg_kind_refused;
        ] );
      ( "interrupt-resume",
        [
          Alcotest.test_case "alg1 jobs 1 -> 1" `Slow
            (test_alg1_interrupt_resume ~stop_jobs:1 ~resume_jobs:1);
          Alcotest.test_case "alg1 jobs 4 -> 4" `Slow
            (test_alg1_interrupt_resume ~stop_jobs:4 ~resume_jobs:4);
          Alcotest.test_case "alg1 jobs 4 -> 1" `Slow
            (test_alg1_interrupt_resume ~stop_jobs:4 ~resume_jobs:1);
          Alcotest.test_case "alg1 certified" `Slow
            (test_alg1_interrupt_resume ~stop_jobs:2 ~resume_jobs:2
               ~certify:true);
          Alcotest.test_case "alg2 conclude jobs 4 -> 1" `Slow
            test_conclude_interrupt_resume;
        ] );
      ( "budget",
        [
          Alcotest.test_case "starved run degrades, never poisons" `Slow
            test_budget_degrades_not_poisons;
          Alcotest.test_case "generous budget converges to secure" `Slow
            test_budget_generous_still_secure;
          Alcotest.test_case "starved vulnerable never secure" `Slow
            test_budget_vulnerable_never_secure;
          Alcotest.test_case "starved conclude terminates" `Slow
            test_budget_conclude_terminates;
        ] );
    ]
