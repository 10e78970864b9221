(* The layer ledger: one UPEC-SSC workload per process, timed end to
   end with tracing off ([--trace 0]) or split over the pipeline's
   layers ([--trace 1]). The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. README.md
   lists the workloads, the metrics and why each was chosen.

   ledger.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
              [--out FILE]
   ledger.exe compare DIR_A DIR_B   (from the repository root) *)

open Ledger_core
module Json = Upec.Json
module Report = Upec.Report
module Scenario = Scenarios.Scenario
module Crosscheck = Scenarios.Crosscheck

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* CPU seconds of the ledger and of its reaped children (the farm's
   workers). The end-to-end times use this clock: on a shared virtual
   machine it leaves out the time the host gives to other tenants
   (steal), which wall time counts. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

let span = Obs.Trace.with_span

(* Every per-layer value of one set-up or one pass, by metric name. *)
type tally = (string, float) Hashtbl.t

let get (t : tally) k = Option.value ~default:0.0 (Hashtbl.find_opt t k)
let add (t : tally) k v = Hashtbl.replace t k (get t k +. v)
let count t k n = add t k (float_of_int n)

type pass = {
  first : bool;
  tally : tally;
  mutable latencies : float list;  (** per operation, wall seconds *)
  mutable cpu_s : float;  (** the whole pass, {!cpu} seconds *)
  mutable attempted : int;
  mutable failed : int;
  mutable counters : (string * int) list;  (** deterministic counts *)
}

let failures = ref []

(* A gate that does not hold is a failed operation, never a skip. *)
let gate p ok msg =
  if not ok then begin
    p.failed <- p.failed + 1;
    failures := msg :: !failures;
    prerr_endline ("ledger: FAILED " ^ msg)
  end

(* One operation of [jobs] jobs that took [dt] seconds; its latency
   sample is the time per job. *)
let record p ~jobs dt =
  p.latencies <- (dt /. float_of_int jobs) :: p.latencies;
  p.attempted <- p.attempted + jobs

let op p f =
  let v, dt = time f in
  record p ~jobs:1 dt;
  v

let shuffle ~seed xs =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* The first pass runs the jobs in their listed order, so the peak RSS
   read after it does not depend on the seed; the seed orders the
   later passes. *)
let order p ~seed xs = if p.first then xs else shuffle ~seed xs

let scenario name =
  match Scenario.find name with
  | Some s -> Scenario.canonical s
  | None -> failwith ("ledger: unknown scenario " ^ name)

(* ---------------------------------------------------------------- *)
(* Layer calls                                                      *)
(* ---------------------------------------------------------------- *)

(* The body of [Upec.Cli.spec_of], split so that elaboration and the
   S-set compilation are timed as two layers. *)
let elaborate setup (d : Upec.Cli.design) =
  let soc, soc_s =
    time (fun () ->
        span "soc" (fun () ->
            Soc.Builder.build (Upec.Cli.config_of d) Soc.Builder.Formal))
  in
  let variant =
    match d.Upec.Cli.d_variant with
    | "secure" -> Upec.Spec.Secure
    | _ -> Upec.Spec.Vulnerable
  in
  let pers_model =
    match d.Upec.Cli.d_pers with
    | "memory" -> Upec.Spec.Memory_only
    | _ -> Upec.Spec.Full_pers
  in
  let (spec, svars), spec_s =
    time (fun () ->
        span "upec.spec" (fun () ->
            let spec = Upec.Spec.make ~pers_model soc variant in
            ( spec,
              Rtl.Structural.Svar_set.cardinal (Upec.Spec.s_neg_victim spec) )))
  in
  add setup "soc.build_s" soc_s;
  count setup "soc.state_bits" (Rtl.Netlist.state_bits soc.Soc.Builder.netlist);
  add setup "upec.spec_s" spec_s;
  count setup "upec.svars" svars;
  spec

let account_report p (r : Report.run) =
  count p.tally "upec.iterations" (Report.iterations r);
  match r.Report.cert with
  | None -> ()
  | Some c ->
      let t = c.Report.ct_totals in
      add p.tally "cert.solve_s" t.Cert.Proof.solve_seconds;
      add p.tally "cert.check_s" t.Cert.Proof.check_seconds;
      count p.tally "cert.proof_steps" t.Cert.Proof.proof_steps;
      count p.tally "cert.unsat_checked" t.Cert.Proof.unsat_checked;
      count p.tally "cert.sat_checked" t.Cert.Proof.sat_checked

let decide p ~alg options spec =
  let r, dt =
    time (fun () ->
        span "upec.alg" (fun () ->
            match alg with
            | 2 -> Upec.Alg2.conclude_with options spec
            | _ -> Upec.Alg1.run_with options spec))
  in
  add p.tally "upec.alg_s" dt;
  account_report p r;
  r

let replay p (spec : Upec.Spec.t) cex =
  let ok, dt =
    time (fun () ->
        span "upec.replay" (fun () ->
            Upec.Replay.check spec.Upec.Spec.soc.Soc.Builder.netlist cex))
  in
  add p.tally "upec.replay_s" dt;
  count p.tally "upec.replays" 1;
  if ok then count p.tally "upec.replay_ok" 1;
  ok

let expected (s : Scenario.spec) (r : Report.run) =
  match (s.Scenario.sp_expected, r.Report.verdict) with
  | Scenario.Expect_vulnerable, Report.Vulnerable _
  | Scenario.Expect_secure, Report.Secure _ ->
      true
  | _ -> false

(* ---------------------------------------------------------------- *)
(* Workloads                                                        *)
(* ---------------------------------------------------------------- *)

type workload = {
  name : string;
  setup : seed:int -> tally -> (pass -> unit) * (unit -> unit);
      (** elaborate the workload's designs into [tally]; returns the
          function that runs one pass and the one that releases what
          set-up opened (not part of the set-up time) *)
}

let no_teardown () = ()

(* prove_secure: the Sec. 4.2 countermeasure proved SECURE. The paper's
   E3 design (all peripherals, depth 8) takes about 45 s, 97% of it one
   final inductive UNSAT solve of 189k conflicts. This design keeps all
   of E3 but its depth, 4; its proof is still one final UNSAT solve, of
   70k conflicts at a similar 470 propagations per conflict, 94% of its
   time. It takes 14-28 s, one pass per run. The seed is ignored: the
   proof has no job order. *)
let prove_designs =
  let e3 = { Upec.Cli.default_design with Upec.Cli.d_variant = "secure" } in
  Upec.Cli.[ ("e3-depth4", { e3 with d_depth = 4 }) ]

let prove_secure =
  let setup ~seed:_ tally =
    let jobs =
      List.map (fun (label, d) -> (label, elaborate tally d)) prove_designs
    in
    ( (fun p ->
        List.iter
          (fun (label, spec) ->
            op p (fun () ->
                let r = decide p ~alg:1 Upec.Options.default spec in
                gate p (Report.is_secure r)
                  (Printf.sprintf "prove_secure %s: %s (expected secure)" label
                     (Crosscheck.formal_verdict_string r))))
          jobs),
      no_teardown )
  in
  { name = "prove_secure"; setup }

(* detect: short satisfiable solves, witness extraction and replay on
   five depth-3 vulnerable families; two of them again with
   certification, which no other workload exercises. *)
let detect_plain =
  [
    "busted_timer_d3";
    "busted_timer_free_d3";
    "hwpe_progressive_d3";
    "interrupt_victim_d3";
    "prefetcher_d3";
  ]

let detect_certified = [ "busted_timer_d3"; "busted_timer_free_d3" ]

let detect =
  let setup ~seed tally =
    let specs =
      List.map
        (fun n ->
          let s = scenario n in
          (n, (s, elaborate tally s.Scenario.sp_design)))
        detect_plain
    in
    let jobs =
      List.map (fun n -> (n, false)) detect_plain
      @ List.map (fun n -> (n, true)) detect_certified
    in
    ( (fun p ->
      List.iter
        (fun (n, certify) ->
          let s, spec = List.assoc n specs in
          op p (fun () ->
              let options = { Upec.Options.default with Upec.Options.certify } in
              let r = decide p ~alg:s.Scenario.sp_alg options spec in
              let replayed =
                match r.Report.verdict with
                | Report.Vulnerable { cex; _ } -> replay p spec cex
                | _ -> false
              in
              let certified =
                (not certify)
                ||
                match r.Report.cert with
                | Some c -> c.Report.ct_cex_validated = Some true
                | None -> false
              in
              gate p
                (expected s r && replayed && certified)
                (Printf.sprintf
                   "detect %s%s: verdict %s, replay %b, certified %b" n
                   (if certify then " (certified)" else "")
                   (Crosscheck.formal_verdict_string r) replayed certified)))
        (order p ~seed jobs)),
      no_teardown )
  in
  { name = "detect"; setup }

(* crosscheck: formal verdict plus the statistical detector on
   simulated timing; Sim.Engine and Scenarios.Stat dominate. *)
let crosscheck_names =
  [ "busted_timer_d3"; "interrupt_victim_d3"; "prefetcher_d3"; "no_spies_d3" ]

let crosscheck =
  let setup ~seed tally =
    let specs =
      List.map
        (fun n ->
          let s = scenario n in
          ignore (elaborate tally s.Scenario.sp_design);
          s)
        crosscheck_names
    in
    ( (fun p ->
      List.iter
        (fun s ->
          op p (fun () ->
              let o =
                span "scenarios.crosscheck" (fun () ->
                    Crosscheck.run ~options:Upec.Options.default s)
              in
              let r = o.Crosscheck.oc_report in
              let st = o.Crosscheck.oc_stat in
              account_report p r;
              add p.tally "upec.alg_s" r.Report.total_seconds;
              add p.tally "crosscheck.formal_s" r.Report.total_seconds;
              count p.tally "crosscheck.runs" 1;
              if o.Crosscheck.oc_agree then count p.tally "crosscheck.agree" 1;
              add p.tally "stat.s" o.Crosscheck.oc_stat_seconds;
              count p.tally "stat.trials" st.Scenarios.Stat.st_n;
              count p.tally "stat.escalations" st.Scenarios.Stat.st_escalations;
              (match o.Crosscheck.oc_replay with
              | Some ok ->
                  count p.tally "upec.replays" 1;
                  if ok then count p.tally "upec.replay_ok" 1
              | None -> ());
              gate p
                (o.Crosscheck.oc_agree && o.Crosscheck.oc_expected_ok)
                (Printf.sprintf "crosscheck %s: formal %s, stat %s, agree %b"
                   s.Scenario.sp_name (Crosscheck.formal_verdict_string r)
                   (Scenarios.Stat.verdict_to_string st.Scenarios.Stat.st_verdict)
                   o.Crosscheck.oc_agree)))
        (order p ~seed specs)),
      no_teardown )
  in
  { name = "crosscheck"; setup }

(* farm: the only workload on the per-svar strategy and the only one
   that writes the store (cold, delta) as well as reading it (warm).
   Cold and delta batches go in longest-job-first, so the 2-worker
   makespan does not depend on the seed; the seed orders the warm
   batches and the delta widths. A latency sample is a batch's wall
   time per job. The warm batches take about 30% of a pass's CPU time,
   so cache lookups twice as slow move pass_s past its 0.25 bound. *)
let farm_names =
  [
    "hwpe_progressive_d3";
    "busted_timer_free_d4_b4";
    "prefetcher_d3";
    "no_spies_d4_b4";
    "no_spies_d3";
  ]

let farm_workers = 2
let farm_warm_jobs = 100_000
let farm_widths = [ 7; 6; 5 ]
let work_dir = Filename.concat "bench" (Filename.concat "ledger" "_work")

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let farm_job (s : Scenario.spec) =
  Json.Obj
    [
      ("id", Json.Str s.Scenario.sp_name);
      ("scenario", Scenario.to_json s);
      ("options", Json.Obj [ ("jobs", Json.Int 1) ]);
    ]

let with_width w (s : Scenario.spec) =
  {
    s with
    Scenario.sp_name = Printf.sprintf "%s_tw%d" s.Scenario.sp_name w;
    sp_design = { s.Scenario.sp_design with Upec.Cli.d_timer_width = w };
  }

let member_int k j = Option.value ~default:0 (Json.to_int (Json.member k j))
let member_bool k j = Json.to_bool (Json.member k j) = Some true

(* A warm reply must be the cold verdict: only effort telemetry (the
   cache/simp/cert blocks and the timings) may differ. *)
let semantic report =
  let strip_seconds = function
    | Json.Obj fields -> Json.Obj (List.remove_assoc "seconds" fields)
    | j -> j
  in
  match report with
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             match (k, v) with
             | ("cache" | "total_seconds" | "simp" | "cert"), _ -> None
             | "steps", Json.List steps ->
                 Some (k, Json.List (List.map strip_seconds steps))
             | _ -> Some (k, v))
           fields)
  | j -> j

(* Problem reduction happens in the workers; their reports carry it. *)
let account_simp p reply =
  let simp = Json.member "simp" (Json.member "report" reply) in
  let n k = member_int k simp in
  count p.tally "simp.reduced_solves" (n "reduced_solves");
  count p.tally "simp.vars_saved" (n "full_vars" - n "reduced_vars");
  count p.tally "simp.clauses_saved" (n "full_clauses" - n "reduced_clauses")

let farm =
  let setup ~seed tally =
    let worker_exe =
      Filename.concat
        (Filename.dirname Sys.executable_name)
        (Filename.concat ".." (Filename.concat ".." "bin/upec_farm.exe"))
    in
    let specs =
      List.map
        (fun n ->
          let s = scenario n in
          ignore (elaborate tally s.Scenario.sp_design);
          s)
        farm_names
    in
    let cache_dir = Filename.concat work_dir "farm-cache" in
    let server () =
      rm_rf cache_dir;
      mkdir_p cache_dir;
      span "farm" (fun () ->
          Farm.Server.create ~cache_dir
            ~worker_argv:[| worker_exe; "worker"; "--cache"; cache_dir |]
            ~workers:farm_workers ~job_timeout:0.0 ())
    in
    (* set-up covers Server.create, which loads the store; closing it
       publishes the store index, which is teardown *)
    let setup_server = server () in
    let cold_jobs = List.map farm_job specs in
    ( (fun p ->
      let ok r = member_bool "ok" r in
      let warm_order = order p ~seed (List.init (List.length specs) Fun.id) in
      let widths = order p ~seed farm_widths in
      let t = server () in
      let submit jobs = span "farm" (fun () -> Farm.Server.run_batch t ~jobs) in
      let batch jobs =
        let replies, dt = time (fun () -> submit jobs) in
        record p ~jobs:(List.length jobs) dt;
        (replies, dt)
      in
      Fun.protect
        ~finally:(fun () -> span "farm" (fun () -> Farm.Server.close t))
        (fun () ->
          gate p (Sys.file_exists worker_exe)
            ("farm: worker binary missing: " ^ worker_exe);
          let cold, cold_s = batch cold_jobs in
          add p.tally "farm.cold_s" cold_s;
          List.iter
            (fun r ->
              account_simp p r;
              add p.tally "farm.job_s"
                (Option.value ~default:0.0 (Json.to_float (Json.member "seconds" r)));
              gate p
                (ok r && not (member_bool "cached" r))
                ("farm cold: bad reply " ^ Json.to_string_compact r))
            cold;
          add p.tally "farm.wait_s"
            ((float_of_int farm_workers *. cold_s) -. get p.tally "farm.job_s");
          let nth l = List.map (List.nth l) warm_order in
          let warm_jobs = nth cold_jobs in
          let expect = nth (List.map (fun r -> semantic (Json.member "report" r)) cold) in
          let warm_n = ref 0 and warm_hits = ref 0 and warm_s = ref 0.0 in
          while !warm_n < farm_warm_jobs do
            let replies, dt = batch warm_jobs in
            warm_s := !warm_s +. dt;
            List.iter2
              (fun r e ->
                incr warm_n;
                let hit = member_bool "cached" r in
                if hit then incr warm_hits;
                gate p
                  (ok r && hit && semantic (Json.member "report" r) = e)
                  ("farm warm: reply differs from cold: "
                  ^ Json.to_string_compact (Json.member "id" r)))
              replies expect
          done;
          add p.tally "farm.warm_jobs_per_s" (float_of_int !warm_n /. !warm_s);
          add p.tally "farm.warm_hit_ratio"
            (float_of_int !warm_hits /. float_of_int !warm_n);
          let delta_s =
            List.map
              (fun w ->
                let replies, dt =
                  batch (List.map (fun s -> farm_job (with_width w s)) specs)
                in
                List.iter (account_simp p) replies;
                let sum k = List.fold_left (fun a r -> a + member_int k r) 0 replies in
                let hits = sum "lemma_hits"
                and misses = sum "lemma_misses"
                and inval = sum "invalidated" in
                count p.tally "farm.delta_lemma_hits" hits;
                count p.tally "farm.delta_lemma_misses" misses;
                count p.tally "farm.invalidated" inval;
                gate p
                  (List.for_all ok replies && hits > 0 && inval = misses)
                  (Printf.sprintf
                     "farm delta tw=%d: lemma_hits %d, lemma_misses %d, \
                      invalidated %d"
                     w hits misses inval);
                dt)
              widths
          in
          add p.tally "farm.delta_s" (Stats.median delta_s);
          let lemmas, reports =
            span "farm" (fun () -> Farm.Store.counts (Farm.Server.store t))
          in
          count p.tally "farm.store_lemmas" lemmas;
          count p.tally "farm.store_reports" reports)),
      fun () -> Farm.Server.close setup_server )
  in
  { name = "farm"; setup }

let workloads = [ prove_secure; detect; crosscheck; farm ]

(* ---------------------------------------------------------------- *)
(* Measurement                                                      *)
(* ---------------------------------------------------------------- *)

let setup_reps = 31

(* Counters of the program's own registry, as per-pass deltas. *)
let registry_counters =
  [
    "sat.solves";
    "sat.conflicts";
    "sat.propagations";
    "sat.restarts";
    "sat.budget_exhausted";
    "ipc.checks";
    "simp.reduced_solves";
    "simp.vars_saved";
    "simp.clauses_saved";
    "farm.report_hits";
    "farm.report_misses";
    "farm.lemma_hits";
    "farm.lemma_misses";
    "farm.worker_failures";
    "farm.job_retries";
  ]

let registry_seconds =
  [
    ("sat.solve_s", "sat.solve_seconds");
    ("ipc.unroll_s", "unroll.frame_seconds");
    ("ipc.pre_encode_s", "ipc.pre_encode_seconds");
    ("simp.rebuild_s", "simp.rebuild_seconds");
  ]

let registry_delta (t : tally) (s0 : Obs.Metrics.snapshot) s1 =
  let c (s : Obs.Metrics.snapshot) k =
    Option.value ~default:0 (List.assoc_opt k s.Obs.Metrics.counters)
  in
  let h (s : Obs.Metrics.snapshot) k =
    match List.assoc_opt k s.Obs.Metrics.histograms with
    | Some hs -> hs.Obs.Metrics.hs_sum
    | None -> 0.0
  in
  List.iter (fun k -> count t k (c s1 k - c s0 k)) registry_counters;
  List.iter (fun (k, hk) -> add t k (h s1 hk -. h s0 hk)) registry_seconds

(* Ratios and differences, from the sums of one pass. *)
let derive (t : tally) =
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  add t "sat.props_per_s" (ratio (get t "sat.propagations") (get t "sat.solve_s"));
  add t "upec.alg_self_s"
    (get t "upec.alg_s" -. get t "sat.solve_s" -. get t "ipc.unroll_s"
   -. get t "ipc.pre_encode_s");
  add t "upec.replay_ok_ratio" (ratio (get t "upec.replay_ok") (get t "upec.replays"));
  add t "cert.check_ratio" (ratio (get t "cert.check_s") (get t "cert.solve_s"));
  add t "stat.trial_s" (ratio (get t "stat.s") (get t "stat.trials"));
  add t "crosscheck.agree_ratio"
    (ratio (get t "crosscheck.agree") (get t "crosscheck.runs"))

(* ---------- traced run: spans -> self time and coverage ---------- *)

type span_rec = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;
  sp_dom : int;
  sp_t0 : float;
  mutable sp_t1 : float;
  sp_conflicts : int;  (** a [sat.solve] span's conflicts *)
}

let read_spans path =
  let spans = Hashtbl.create 4096 in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try
        while true do
          let j = Json.of_string (input_line ic) in
          let id = member_int "id" j in
          let t = Option.value ~default:0.0 (Json.to_float (Json.member "t" j)) in
          match Json.to_str (Json.member "ev" j) with
          | Some "begin" ->
              Hashtbl.replace spans id
                {
                  sp_id = id;
                  sp_name = Option.value ~default:"" (Json.to_str (Json.member "name" j));
                  sp_parent = member_int "parent" j;
                  sp_dom = member_int "dom" j;
                  sp_t0 = t;
                  sp_t1 = t;
                  sp_conflicts = member_int "conflicts" (Json.member "attrs" j);
                }
          | Some "end" -> (
              match Hashtbl.find_opt spans id with
              | Some s -> s.sp_t1 <- t
              | None -> ())
          | _ -> ()
        done
      with End_of_file -> ());
  Hashtbl.fold (fun _ s acc -> s :: acc) spans []

(* Self time per span name, attributing every instant of a domain's
   timeline to the innermost span open at that instant (the one begun
   last). Spans the program emits after the fact (an Alg. 1 iteration)
   overlap the spans of the calls they summarise rather than enclose
   them; the sweep still counts each instant once. Also returns the
   total of the ledger's root spans. *)
let self_times spans =
  let self = Hashtbl.create 32 in
  let domains = List.sort_uniq compare (List.map (fun s -> s.sp_dom) spans) in
  List.iter
    (fun dom ->
      let events =
        List.filter (fun s -> s.sp_dom = dom) spans
        |> List.concat_map (fun s -> [ (s.sp_t0, 1, s); (s.sp_t1, 0, s) ])
        |> List.sort (fun (t, k, s) (t', k', s') -> compare (t, k, s.sp_id) (t', k', s'.sp_id))
      in
      let innermost active =
        List.fold_left
          (fun best s ->
            match best with
            | Some b when (b.sp_t0, b.sp_id) >= (s.sp_t0, s.sp_id) -> best
            | _ -> Some s)
          None active
      in
      ignore
        (List.fold_left
           (fun (active, prev) (t, kind, s) ->
             (match innermost active with
             | Some top -> add self top.sp_name (t -. prev)
             | None -> ());
             let active =
               if kind = 1 then s :: active else List.filter (fun a -> a != s) active
             in
             (active, t))
           ([], 0.0) events))
    domains;
  let roots =
    List.fold_left
      (fun acc s ->
        if s.sp_parent = 0 && List.mem s.sp_name Schema.ledger_spans then
          acc +. (s.sp_t1 -. s.sp_t0)
        else acc)
      0.0 spans
  in
  (self, roots)

(* The pass's longest single SAT solve: the regime a workload puts the
   solver in (one long UNSAT search, or many short solves). *)
let longest_solve (t : tally) spans =
  let dur s = s.sp_t1 -. s.sp_t0 in
  match List.filter (fun s -> s.sp_name = "sat.solve") spans with
  | [] -> ()
  | s0 :: rest ->
      let s = List.fold_left (fun b s -> if dur s > dur b then s else b) s0 rest in
      add t "sat.longest_solve_s" (dur s);
      count t "sat.longest_solve_conflicts" s.sp_conflicts

let with_trace path f =
  Obs.Trace.set_sink (open_out path);
  Fun.protect ~finally:Obs.Trace.close f

let append ~src ~dst =
  let ic = open_in_bin src in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> failwith "ledger: no VmHWM in /proc/self/status"
      in
      find ())

type run = {
  r_setup_s : float list;
  r_setup : tally list;
  r_passes : (pass * float * bool) list;  (** pass, wall seconds, traced *)
  r_rss_mb : float;
      (** high-water mark after the first pass: later passes only add
          heap growth that depends on how many passes fit *)
}

let measure w ~seed ~seconds ~trace ~trace_file =
  (* only the last set-up's pass function stays reachable, so the peak
     RSS holds one copy of the workload's designs, as a user's process
     would *)
  let run_pass = ref ignore in
  let setups =
    List.init setup_reps (fun _ ->
        let t = Hashtbl.create 8 in
        let c0 = cpu () in
        let f, teardown = w.setup ~seed t in
        let dt = cpu () -. c0 in
        teardown ();
        run_pass := f;
        (t, dt))
  in
  let run_pass = !run_pass in
  let part = trace_file ^ ".part" in
  if trace then close_out (open_out trace_file);
  (* alternate untraced and traced passes: the untraced ones give the
     tracing overhead within the same run *)
  let min_passes = if trace then 2 else 1 in
  let rss = ref 0.0 in
  let t0 = now () in
  let rec loop acc i =
    let traced = trace && i mod 2 = 1 in
    let p =
      {
        first = i = 0;
        tally = Hashtbl.create 64;
        latencies = [];
        cpu_s = 0.0;
        attempted = 0;
        failed = 0;
        counters = [];
      }
    in
    let s0 = Obs.Metrics.snapshot () in
    let c0 = cpu () in
    let (), wall =
      time (fun () -> if traced then with_trace part (fun () -> run_pass p) else run_pass p)
    in
    p.cpu_s <- cpu () -. c0;
    registry_delta p.tally s0 (Obs.Metrics.snapshot ());
    derive p.tally;
    if traced then begin
      let spans = read_spans part in
      let self, roots = self_times spans in
      longest_solve p.tally spans;
      Hashtbl.iter (fun name s -> add p.tally (name ^ ".self_s") s) self;
      add p.tally "trace.coverage" (roots /. wall);
      append ~src:part ~dst:trace_file;
      Sys.remove part
    end;
    p.counters <-
      List.map (fun k -> (k, int_of_float (get p.tally k))) Schema.deterministic;
    if i = 0 then rss := peak_rss_mb ();
    let acc = (p, wall, traced) :: acc in
    if i + 1 < min_passes || now () -. t0 +. wall <= seconds then loop acc (i + 1)
    else List.rev acc
  in
  let passes = loop [] 0 in
  {
    r_setup_s = List.map snd setups;
    r_setup = List.map fst setups;
    r_passes = passes;
    r_rss_mb = !rss;
  }

(* ---------------------------------------------------------------- *)
(* Results                                                          *)
(* ---------------------------------------------------------------- *)

let metric_json (m : Schema.metric) v =
  (m.Schema.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.Schema.unit) ])

let median_or_zero = function [] -> 0.0 | xs -> Stats.median xs

let end_to_end run =
  let untraced = List.filter (fun (_, _, traced) -> not traced) run.r_passes in
  let values =
    [
      ("setup_s", Stats.median run.r_setup_s);
      ("pass_s", Stats.median (List.map (fun (p, _, _) -> p.cpu_s) untraced));
      ("peak_rss_mb", run.r_rss_mb);
    ]
  in
  List.map (fun m -> metric_json m (List.assoc m.Schema.name values)) Schema.end_to_end

let per_layer run =
  let traced = List.filter (fun (_, _, traced) -> traced) run.r_passes in
  let untraced = List.filter (fun (_, _, traced) -> not traced) run.r_passes in
  let walls which = List.map (fun (_, wall, _) -> wall) which in
  let value (m : Schema.metric) =
    let k = m.Schema.name in
    match k with
    | "trace.overhead" ->
        (Stats.median (walls traced) /. Stats.median (walls untraced)) -. 1.0
    | "soc.build_s" | "soc.state_bits" | "upec.spec_s" | "upec.svars" ->
        median_or_zero (List.map (fun t -> get t k) run.r_setup)
    | _ -> median_or_zero (List.map (fun (p, _, _) -> get p.tally k) traced)
  in
  List.map (fun m -> metric_json m (value m)) Schema.per_layer

let summary w run =
  let passes = run.r_passes in
  let lat = List.concat_map (fun (p, _, traced) -> if traced then [] else p.latencies) passes in
  Printf.eprintf "ledger: %s: %d pass(es) of %s s (cpu/wall); %d operation(s)\n%!"
    w.name (List.length passes)
    (String.concat ", "
       (List.map
          (fun (p, wall, traced) ->
            Printf.sprintf "%.3f/%.3f%s" p.cpu_s wall (if traced then "t" else ""))
          passes))
    (List.length lat);
  (match Stats.tail_percentile (List.length lat) with
  | Some p ->
      Printf.eprintf "ledger: job latency p%d = %.6f s over %d samples\n%!" p
        (Stats.percentile p lat) (List.length lat)
  | None -> ())

let record w ~seed ~seconds ~trace run result =
  let passes = run.r_passes in
  let counters =
    match passes with
    | (p, _, _) :: _ -> p.counters
    | [] -> []
  in
  let stable = List.for_all (fun (p, _, _) -> p.counters = counters) passes in
  Json.Obj
    [
      ("workload", Json.Str w.name);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ("result", result);
      ("setup_s", Json.List (List.map (fun s -> Json.Float s) run.r_setup_s));
      ( "passes",
        Json.List
          (List.map
             (fun (p, wall, traced) ->
               Json.Obj
                 [
                   ("wall_s", Json.Float wall);
                   ("cpu_s", Json.Float p.cpu_s);
                   ("traced", Json.Bool traced);
                   ("operations", Json.Int (List.length p.latencies));
                   ( "layers",
                     Json.Obj
                       (Hashtbl.fold
                          (fun k v acc -> if v = 0.0 then acc else (k, Json.Float v) :: acc)
                          p.tally []
                       |> List.sort compare) );
                 ])
             passes) );
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters) );
      ("counters_stable", Json.Bool stable);
      ("failures", Json.List (List.rev_map (fun s -> Json.Str s) !failures));
    ]

let run_workload ~workload ~seed ~seconds ~trace ~out =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "ledger: unknown workload %S (one of: %s)\n" workload
          (String.concat ", " Schema.workloads);
        exit 2
  in
  mkdir_p work_dir;
  let trace_file = Filename.concat work_dir (w.name ^ ".trace.jsonl") in
  let run = measure w ~seed ~seconds ~trace ~trace_file in
  summary w run;
  let passes = run.r_passes in
  let attempted = List.fold_left (fun a (p, _, _) -> a + p.attempted) 0 passes in
  let failed = List.fold_left (fun a (p, _, _) -> a + p.failed) 0 passes in
  let metrics = if trace then per_layer run else end_to_end run in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ("metrics", Json.Obj metrics);
      ]
  in
  (match out with
  | Some path ->
      let oc = open_out path in
      output_string oc (Json.to_string (record w ~seed ~seconds ~trace run result));
      close_out oc
  | None -> ());
  print_endline (Json.to_string_compact result)

(* ---------------------------------------------------------------- *)
(* compare DIR_A DIR_B                                              *)
(* ---------------------------------------------------------------- *)

let load_records dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.map (fun f ->
         let ic = open_in (Filename.concat dir f) in
         Fun.protect
           ~finally:(fun () -> close_in_noerr ic)
           (fun () -> Json.of_string (really_input_string ic (in_channel_length ic))))
  |> List.filter (fun r -> Json.to_bool (Json.member "trace" r) = Some false)

let declared_end_to_end () =
  let ic = open_in "BENCHMARK.json" in
  let j =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Json.of_string (really_input_string ic (in_channel_length ic)))
  in
  List.map
    (fun m ->
      let str k = Option.value ~default:"" (Json.to_str (Json.member k m)) in
      ( str "name",
        Option.get (Stats.better_of_string (str "better")),
        Option.value ~default:0.0 (Json.to_float (Json.member "bound" m)) ))
    (Option.value ~default:[] (Json.to_list (Json.member "end_to_end" j)))

let compare_dirs dir_a dir_b =
  let metrics = declared_end_to_end () in
  let a = load_records dir_a and b = load_records dir_b in
  let of_workload w rs =
    List.filter (fun r -> Json.to_str (Json.member "workload" r) = Some w) rs
  in
  let value name r =
    Json.member "value" (Json.member name (Json.member "metrics" (Json.member "result" r)))
    |> Json.to_float
  in
  let floor name =
    match List.find_opt (fun m -> m.Schema.name = name) Schema.end_to_end with
    | Some m -> m.Schema.floor
    | None -> 0.0
  in
  let worse = ref 0 and differ = ref 0 in
  Printf.printf "%-13s %-12s %24s %24s %8s %6s %8s  %s\n" "workload" "metric"
    "A median [q1, q3]" "B median [q1, q3]" "change" "B wins" "welch p" "verdict";
  List.iter
    (fun w ->
      let ra = of_workload w a and rb = of_workload w b in
      if ra <> [] && rb <> [] then begin
        List.iter
          (fun (name, better, bound) ->
            let xs = List.filter_map (value name) ra
            and ys = List.filter_map (value name) rb in
            if List.length xs >= 2 && List.length ys >= 2 then begin
              let c =
                Stats.compare_runs ~floor:(floor name) ~better ~bound ~a:xs ~b:ys ()
              in
              if c.Stats.cmp_verdict = Stats.Worse then incr worse;
              let q xs =
                let q1, q2, q3 = Stats.quartiles xs in
                Printf.sprintf "%.4g [%.4g, %.4g]" q2 q1 q3
              in
              let t, df = Scenarios.Stat.welch_t (Array.of_list xs) (Array.of_list ys) in
              Printf.printf "%-13s %-12s %24s %24s %+7.1f%% %6.2f %8s  %s\n" w name
                (q xs) (q ys) (100.0 *. c.Stats.cmp_change) c.Stats.cmp_b_wins
                (if Float.is_nan t then "-"
                 else Printf.sprintf "%.2g" (Scenarios.Stat.p_value ~t ~df))
                (Stats.verdict_to_string c.Stats.cmp_verdict)
            end)
          metrics;
        List.iter
          (fun k ->
            let vals =
              List.filter_map
                (fun r -> Json.to_int (Json.member k (Json.member "counters" r)))
                (ra @ rb)
              |> List.sort_uniq compare
            in
            match vals with
            | [ 0 ] | [] -> ()
            | [ v ] -> Printf.printf "%-13s %-26s %d in every run (exact)\n" w k v
            | vs ->
                incr differ;
                Printf.printf "%-13s %-26s DIFFERS: %s\n" w k
                  (String.concat ", " (List.map string_of_int vs)))
          Schema.deterministic;
        (* a run whose passes disagree on a counter *)
        List.iter
          (fun r ->
            if Json.to_bool (Json.member "counters_stable" r) <> Some true then begin
              incr differ;
              Printf.printf "%-13s counters differ between the passes of seed %d\n" w
                (member_int "seed" r)
            end)
          (ra @ rb)
      end)
    Schema.workloads;
  if !worse > 0 then Printf.printf "%d metric(s) worse\n" !worse;
  if !differ > 0 then Printf.printf "%d counter mismatch(es)\n" !differ;
  if !worse > 0 || !differ > 0 then exit 1

(* ---------------------------------------------------------------- *)
(* Command line                                                     *)
(* ---------------------------------------------------------------- *)

let usage =
  "ledger.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
   ledger.exe compare DIR_A DIR_B"

let () =
  match Array.to_list Sys.argv with
  | [ _; "compare"; a; b ] -> compare_dirs a b
  | _ :: "compare" :: _ ->
      prerr_endline usage;
      exit 2
  | _ ->
      let workload = ref "" and seed = ref 1 and seconds = ref 25.0 in
      let trace = ref 0 and out = ref None in
      let specs =
        [
          ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " Schema.workloads);
          ("--seed", Arg.Set_int seed, "N  job-order seed (default 1)");
          ("--seconds", Arg.Set_float seconds, "S  measuring time (default 25)");
          ("--trace", Arg.Set_int trace, "0|1  1 = traced run, per-layer metrics");
          ("--out", Arg.String (fun f -> out := Some f), "FILE  full run record (for compare)");
        ]
      in
      Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
      if !workload = "" || (!trace <> 0 && !trace <> 1) then begin
        prerr_endline usage;
        exit 2
      end;
      run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds
        ~trace:(!trace = 1) ~out:!out
