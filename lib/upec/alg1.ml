open Rtl
module U = Ipc.Unroller
module S = Satsolver.Solver

(* Shared two-instance session setup for the 2-cycle property.
   [register] lets the caller keep a handle on every engine a run
   creates (certification and reduction totals are summed over all of
   them); the cooperative cancellation hook comes from
   [o.should_stop], polled from inside every solve. [portfolio] is
   explicit rather than read from [o] because counterexample
   re-derivation always runs sequentially. *)
let setup_engine (o : Options.t) ~portfolio
    ?(register = fun (_ : Ipc.Engine.t) -> ()) spec =
  let eng =
    Ipc.Engine.create ?solver_options:o.Options.solver_options ~portfolio
      ~certify:o.Options.certify ~cert_jobs:o.Options.cert_jobs
      ~simp:o.Options.simp ~two_instance:true
      spec.Spec.soc.Soc.Builder.netlist
  in
  register eng;
  Ipc.Engine.set_interrupt eng o.Options.should_stop;
  Ipc.Engine.ensure_frames eng 1;
  Macros.assume_env eng spec ~frames:1;
  for f = 0 to 1 do
    Macros.primary_input_constraints eng spec ~frame:f;
    Macros.victim_task_executing eng spec ~frame:f
  done;
  eng

(* Escalating-budget retry around one engine decision: attempt 0 runs
   under [o.budget]; every budget-exhausted Unknown is retried with the
   limits scaled by [o.budget_escalation], at most [o.budget_retries]
   extra times. An interrupt is a control transfer, not exhaustion —
   never retried. *)
let with_retries (o : Options.t) eng (solve : unit -> Ipc.Engine.verdict) =
  let rec attempt n b =
    Ipc.Engine.set_budget eng b;
    match solve () with
    | Ipc.Engine.Unknown reason
      when reason <> "interrupted" && n < o.Options.budget_retries ->
        attempt (n + 1) (S.scale_budget b o.Options.budget_escalation)
    | r -> r
  in
  attempt 0 o.Options.budget

let check_once (o : Options.t) ?register spec s =
  let eng = setup_engine o ~portfolio:o.Options.portfolio ?register spec in
  Macros.state_equivalence_assume eng spec ~frame:0 s;
  let goal = Macros.state_equivalence_goal eng spec ~frame:1 s in
  let r =
    match
      with_retries o eng (fun () -> Ipc.Engine.decide eng (Ipc.Engine.Goal goal))
    with
    | Ipc.Engine.Proved -> `Holds
    | Ipc.Engine.Refuted c ->
        let cex = Option.get c in
        `Cex (cex, Macros.violations eng spec cex ~frame:1 s)
    | Ipc.Engine.Unknown reason -> `Unknown reason
  in
  ( r,
    Ipc.Engine.last_stats eng,
    Ipc.Engine.last_winner eng,
    Ipc.Engine.last_losers_stats eng )

(* Incremental variant: one engine for the whole fixed-point loop. The
   State_Equivalence(S) assumption travels through solver assumptions
   and each iteration's obligation is armed by an activation literal,
   so learnt clauses survive across iterations. *)
let make_incremental_checker (o : Options.t) ?register spec s0 =
  let eng = setup_engine o ~portfolio:o.Options.portfolio ?register spec in
  let g = Ipc.Engine.graph eng in
  (* per-svar condition literals at both cycles, computed once *)
  let conds = Hashtbl.create 256 in
  Structural.Svar_set.iter
    (fun sv ->
      let eq0 = Macros.sv_condition eng spec ~frame:0 sv in
      let diff1 = Aig.lit_not (Macros.sv_condition eng spec ~frame:1 sv) in
      Hashtbl.replace conds (Structural.svar_name sv) (eq0, diff1))
    s0;
  fun s ->
    let act = Aig.fresh_var g in
    let diffs =
      Structural.Svar_set.fold
        (fun sv acc -> snd (Hashtbl.find conds (Structural.svar_name sv)) :: acc)
        s []
    in
    Ipc.Engine.assume_implication eng act (Aig.mk_or_list g diffs);
    let assumptions =
      act
      :: Structural.Svar_set.fold
           (fun sv acc ->
             fst (Hashtbl.find conds (Structural.svar_name sv)) :: acc)
           s []
    in
    let r =
      match
        with_retries o eng (fun () ->
            Ipc.Engine.decide eng (Ipc.Engine.Violation assumptions))
      with
      | Ipc.Engine.Proved -> `Holds
      | Ipc.Engine.Refuted c ->
          let cex = Option.get c in
          `Cex (cex, Macros.violations eng spec cex ~frame:1 s)
      | Ipc.Engine.Unknown reason -> `Unknown reason
    in
    ( r,
      Ipc.Engine.last_stats eng,
      Ipc.Engine.last_winner eng,
      Ipc.Engine.last_losers_stats eng )

(* --- lemma cache hook -----------------------------------------------

   Each per-svar check is a semantic fact about (sv, S) and the design
   content; the proof farm memoises them across runs. [sc_lookup]
   answers [Some holds] when a cached lemma applies — the check is not
   solved at all and contributes zero solver stats; [sc_store] is
   called for every freshly decided check. Unknown results are never
   offered to the cache: exhaustion is a property of the budget, not
   of the formula. *)
type svar_cache = {
  sc_lookup : Structural.svar -> s:Structural.Svar_set.t -> bool option;
  sc_store : Structural.svar -> s:Structural.Svar_set.t -> holds:bool -> unit;
}

(* --- per-svar decomposition (the parallel strategy) ------------------

   Instead of one monolithic check whose S_cex is whatever happens to
   differ in the solver's model, decide for every state variable
   independently whether it *can* differ at cycle 1 under
   State_Equivalence(S) at cycle 0:

     S_cex := { sv in S | SAT( eq-assumptions(S)@0 /\ diff_sv@1 ) }

   Each membership is a semantic fact about the formula, so S_cex — and
   with it the whole refinement trace and the final S — is identical for
   every job count and schedule. It is also at least as large as any
   single model's violation set, so the fixed point is reached in no
   more iterations than the monolithic check needs.

   Persistent svars are checked first: any satisfiable one proves the
   design vulnerable and ends the run without touching the rest. *)

type worker_state = {
  w_eng : Ipc.Engine.t;
  w_conds : (string, Aig.lit * Aig.lit) Hashtbl.t;
      (* svar name -> (eq@0 assumption, activation literal arming diff@1) *)
}

let make_worker (o : Options.t) ?register spec s0 =
  let eng = setup_engine o ~portfolio:o.Options.portfolio ?register spec in
  let g = Ipc.Engine.graph eng in
  let conds = Hashtbl.create 256 in
  Structural.Svar_set.iter
    (fun sv ->
      let eq0 = Macros.sv_condition eng spec ~frame:0 sv in
      let diff1 = Aig.lit_not (Macros.sv_condition eng spec ~frame:1 sv) in
      let act = Aig.fresh_var g in
      Ipc.Engine.assume_implication eng act diff1;
      Hashtbl.replace conds (Structural.svar_name sv) (eq0, act))
    s0;
  { w_eng = eng; w_conds = conds }

let check_svar (o : Options.t) w s sv =
  Obs.Trace.with_span "alg1.svar"
    ~attrs:[ ("svar", Obs.Trace.Str (Structural.svar_name sv)) ]
  @@ fun () ->
  let assumptions =
    snd (Hashtbl.find w.w_conds (Structural.svar_name sv))
    :: Structural.Svar_set.fold
         (fun sv' acc ->
           fst (Hashtbl.find w.w_conds (Structural.svar_name sv')) :: acc)
         s []
  in
  ( with_retries o w.w_eng (fun () ->
        Ipc.Engine.decide ~cex:false w.w_eng
          (Ipc.Engine.Violation assumptions)),
    Ipc.Engine.last_stats w.w_eng,
    Ipc.Engine.last_winner w.w_eng,
    Ipc.Engine.last_losers_stats w.w_eng )

(* Deterministic counterexample for the report: a worker's engine has
   solved a schedule-dependent sequence of obligations, so its model is
   not reproducible. Re-derive the witness on a fresh sequential engine
   for one fixed svar, without a budget — only an interrupt can stop it,
   surfacing as a missing witness. *)
let extract_cex (o : Options.t) ?register spec s sv =
  let eng = setup_engine o ~portfolio:1 ?register spec in
  Macros.state_equivalence_assume eng spec ~frame:0 s;
  match
    Ipc.Engine.decide eng
      (Ipc.Engine.Violation
         [ Aig.lit_not (Macros.sv_condition eng spec ~frame:1 sv) ])
  with
  | Ipc.Engine.Refuted c -> c
  | Ipc.Engine.Proved | Ipc.Engine.Unknown _ -> None

let run_per_svar ?svar_cache (o : Options.t) ~jobs ~register ~start_iter
    ~initial_unknown ~stopped ~note_unknowns ~post_iter spec s0 finish
    record_step validate_cex =
  Parallel.Pool.with_pool ~jobs (fun pool ->
      let engines = Array.make (Parallel.Pool.jobs pool) None in
      let worker wid =
        match engines.(wid) with
        | Some w -> w
        | None ->
            let w = make_worker o ~register spec s0 in
            engines.(wid) <- Some w;
            w
      in
      (* Cached checks are answered before the pool sees them; fresh
         results are offered back to the cache, and the merged batch
         keeps the caller's svar order so the rest of the loop cannot
         tell the difference (a cached SAT carries no model — witness
         extraction always re-solves on a fresh engine). *)
      let check_batch s svs =
        let cached, fresh =
          match svar_cache with
          | None -> ([], svs)
          | Some c ->
              List.partition_map
                (fun sv ->
                  match c.sc_lookup sv ~s with
                  | Some holds -> Either.Left (sv, holds)
                  | None -> Either.Right sv)
                svs
        in
        let fresh_results =
          Parallel.Pool.map_wid pool
            (fun wid sv ->
              let verdict, stats, winner, losers =
                check_svar o (worker wid) s sv
              in
              (sv, verdict, stats, winner, losers))
            fresh
        in
        match svar_cache with
        | None -> fresh_results
        | Some c ->
            List.iter
              (fun (sv, (v : Ipc.Engine.verdict), _, _, _) ->
                match v with
                | Ipc.Engine.Proved -> c.sc_store sv ~s ~holds:true
                | Ipc.Engine.Refuted _ -> c.sc_store sv ~s ~holds:false
                | Ipc.Engine.Unknown _ -> ())
              fresh_results;
            let by_name = Hashtbl.create (List.length fresh_results) in
            List.iter
              (fun ((sv, _, _, _, _) as r) ->
                Hashtbl.replace by_name (Structural.svar_name sv) r)
              fresh_results;
            List.map
              (fun sv ->
                match Hashtbl.find_opt by_name (Structural.svar_name sv) with
                | Some r -> r
                | None ->
                    let holds = List.assq sv cached in
                    ( sv,
                      (if holds then Ipc.Engine.Proved
                       else Ipc.Engine.Refuted None),
                      S.zero_stats,
                      None,
                      S.zero_stats ))
              svs
      in
      let stats_of results =
        List.fold_left
          (fun (acc, w, lacc) (_, _, st, win, lo) ->
            ( S.add_stats acc st,
              (match win with Some _ -> win | None -> w),
              S.add_stats lacc lo ))
          (S.zero_stats, None, S.zero_stats)
          results
      in
      let sat_set results =
        List.fold_left
          (fun acc (sv, v, _, _, _) ->
            match v with
            | Ipc.Engine.Refuted _ -> Structural.Svar_set.add sv acc
            | _ -> acc)
          Structural.Svar_set.empty results
      in
      (* budget-degraded svars of a batch; interrupts are excluded — an
         interrupted iteration is discarded wholesale, never recorded as
         degradation (that would make resume schedule-dependent) *)
      let unknown_list results =
        List.filter_map
          (fun (sv, (v : Ipc.Engine.verdict), _, _, _) ->
            match v with
            | Ipc.Engine.Unknown reason when reason <> "interrupted" ->
                Some (sv, reason)
            | _ -> None)
          results
      in
      (* Unknown svars stay in S — and with it in the cycle-0 equality
         assumption of every later check — but leave the goal set: we
         stop trying to decide them. Removing them from S would weaken
         the assumptions and could manufacture spurious divergences
         (false VULNERABLE on a secure design); keeping them assumed is
         sound for SAT answers (a model under extra equalities is still
         a real trace pair) and the unproven equalities degrade any
         Secure claim to Inconclusive at [finish]. *)
      let undecided = ref initial_unknown in
      let rec loop iter s =
        if iter > o.Options.max_iterations then
          finish (Report.Inconclusive "iteration budget exhausted")
        else begin
          let it0 = Unix.gettimeofday () in
          let pers, rest =
            Structural.Svar_set.partition (Spec.is_pers spec)
              (Structural.Svar_set.diff s !undecided)
          in
          let pers_results =
            check_batch s (Structural.Svar_set.elements pers)
          in
          if stopped () then finish (Report.Inconclusive "interrupted")
          else begin
            let pers_hit = sat_set pers_results in
            if not (Structural.Svar_set.is_empty pers_hit) then begin
              (* Vulnerable: no need to classify the remaining svars.
                 Another svar's Unknown cannot retract a concrete SAT. *)
              let stats, winner, losers = stats_of pers_results in
              let unknown = unknown_list pers_results in
              note_unknowns unknown;
              record_step ~iter ~s ~s_cex:pers_hit ~pers_hit
                ~unknown:
                  (List.fold_left
                     (fun acc (sv, _) -> Structural.Svar_set.add sv acc)
                     Structural.Svar_set.empty unknown)
                ~seconds:(Unix.gettimeofday () -. it0)
                ~stats:(Some stats) ~winner ~losers:(Some losers);
              let witness = Structural.Svar_set.min_elt pers_hit in
              match extract_cex o ~register spec s witness with
              | Some cex ->
                  if
                    validate_cex ~claimed:(Structural.Svar_set.singleton witness)
                      cex
                  then finish (Report.Vulnerable { s_cex = pers_hit; cex })
                  else
                    finish
                      (Report.Inconclusive
                         "counterexample rejected by simulator validation")
              | None ->
                  finish
                    (Report.Inconclusive
                       (if stopped () then "interrupted"
                        else "per-svar SAT not reproducible on a fresh engine"))
            end
            else begin
              let rest_results =
                check_batch s (Structural.Svar_set.elements rest)
              in
              if stopped () then finish (Report.Inconclusive "interrupted")
              else begin
                let s_cex = sat_set rest_results in
                let unknown = unknown_list pers_results @ unknown_list rest_results in
                note_unknowns unknown;
                let unknown_set =
                  List.fold_left
                    (fun acc (sv, _) -> Structural.Svar_set.add sv acc)
                    Structural.Svar_set.empty unknown
                in
                undecided := Structural.Svar_set.union !undecided unknown_set;
                let stats, winner, losers =
                  let s1, w1, l1 = stats_of pers_results in
                  let s2, w2, l2 = stats_of rest_results in
                  ( S.add_stats s1 s2,
                    (match w2 with Some _ -> w2 | None -> w1),
                    S.add_stats l1 l2 )
                in
                record_step ~iter ~s ~s_cex ~pers_hit:Structural.Svar_set.empty
                  ~unknown:unknown_set
                  ~seconds:(Unix.gettimeofday () -. it0)
                  ~stats:(Some stats) ~winner ~losers:(Some losers);
                if Structural.Svar_set.is_empty s_cex then
                  (* every goal still being decided held under the full
                     assumption set: fixed point (a non-empty [undecided]
                     degrades the verdict at [finish]) *)
                  finish (Report.Secure { s_final = s })
                else begin
                  let s' = Structural.Svar_set.diff s s_cex in
                  post_iter ~next_iter:(iter + 1) ~s:s';
                  loop (iter + 1) s'
                end
              end
            end
          end
        end
      in
      loop start_iter s0)

let svar_table nl =
  let tbl = Hashtbl.create 256 in
  Structural.Svar_set.iter
    (fun sv -> Hashtbl.replace tbl (Structural.svar_name sv) sv)
    (Structural.all_svars nl);
  tbl

let resolve_names tbl names ~what =
  List.fold_left
    (fun acc n ->
      match Hashtbl.find_opt tbl n with
      | Some sv -> Structural.Svar_set.add sv acc
      | None ->
          invalid_arg
            (Printf.sprintf "%s: checkpoint names unknown state var %s" what n))
    Structural.Svar_set.empty names

let variant_tag = function
  | Spec.Vulnerable -> "vulnerable"
  | Spec.Secure -> "secure"

let run_with ?initial_s ?resume ?svar_cache (o : Options.t) spec =
  let nl = spec.Spec.soc.Soc.Builder.netlist in
  let t0 = Unix.gettimeofday () in
  let config_hash = lazy (Checkpoint.config_hash ~alg:Checkpoint.Alg1 spec) in
  let unknowns_acc = ref [] (* reverse order *) in
  let note_unknowns us =
    List.iter
      (fun (sv, reason) ->
        let entry = (Structural.svar_name sv, reason) in
        if not (List.mem entry !unknowns_acc) then
          unknowns_acc := entry :: !unknowns_acc)
      us
  in
  let start_iter, s0 =
    match resume with
    | None -> (
        ( 1,
          match initial_s with
          | Some s -> s
          | None -> Spec.s_neg_victim spec ))
    | Some ck ->
        if ck.Checkpoint.ck_alg <> Checkpoint.Alg1 then
          invalid_arg
            "Alg1.run_with: checkpoint was written by another algorithm";
        if ck.Checkpoint.ck_config_hash <> Lazy.force config_hash then
          invalid_arg
            "Alg1.run_with: checkpoint config hash mismatch (different design, \
             variant or persistence model)";
        unknowns_acc := List.rev ck.Checkpoint.ck_unknown;
        let tbl = svar_table nl in
        ( ck.Checkpoint.ck_iter,
          resolve_names tbl ck.Checkpoint.ck_frames.(0) ~what:"Alg1.run_with" )
  in
  let stopped () =
    match o.Options.should_stop with Some f -> f () | None -> false
  in
  let post_iter ~next_iter ~s =
    match o.Options.checkpoint_file with
    | None -> ()
    | Some path ->
        Checkpoint.save path
          {
            Checkpoint.ck_alg = Checkpoint.Alg1;
            ck_variant = variant_tag spec.Spec.variant;
            ck_config_hash = Lazy.force config_hash;
            ck_iter = next_iter;
            ck_k = 1;
            ck_frames =
              [|
                List.map Structural.svar_name (Structural.Svar_set.elements s);
              |];
            ck_unknown = List.rev !unknowns_acc;
          }
  in
  let steps = ref [] in
  let procedure =
    match o.Options.jobs with
    | Some _ -> "UPEC-SSC (Alg. 1, per-svar)"
    | None ->
        if o.Options.incremental then "UPEC-SSC (Alg. 1, incremental)"
        else "UPEC-SSC (Alg. 1)"
  in
  (* engine registry: workers create engines inside pool domains, so the
     list is mutex-protected; reads happen after the pool has drained *)
  let reg_mu = Mutex.create () in
  let engines = ref [] in
  let register e =
    Mutex.lock reg_mu;
    engines := e :: !engines;
    Mutex.unlock reg_mu
  in
  let cex_validated = ref None in
  let validate_cex ~claimed cex =
    if o.Options.certify then begin
      let v =
        Certval.validate ?vcd_prefix:o.Options.cex_vcd ~claimed nl cex
      in
      cex_validated := Some v.Certval.v_ok;
      v.Certval.v_ok
    end
    else begin
      (match o.Options.cex_vcd with
      | Some _ ->
          ignore
            (Certval.validate ?vcd_prefix:o.Options.cex_vcd ~claimed nl cex)
      | None -> ());
      true
    end
  in
  let finish verdict =
    let unknowns = List.rev !unknowns_acc in
    (* the fixed point assumed equality of every undecided svar without
       proving it, so a Secure claim is contaminated by any Unknown —
       degrade. A Vulnerable verdict rests on a concrete validated
       witness (extra equality assumptions only restrict the start
       space, never invent traces) and stands. *)
    let undecided_names =
      List.sort_uniq compare (List.map fst unknowns)
    in
    let verdict =
      match verdict with
      | Report.Secure _ when undecided_names <> [] ->
          Report.Inconclusive
            (Printf.sprintf "budget exhausted on %d state var(s): %s"
               (List.length undecided_names)
               (String.concat ", " undecided_names))
      | v -> v
    in
    {
      Report.procedure;
      variant = spec.Spec.variant;
      verdict;
      steps = List.rev !steps;
      total_seconds = Unix.gettimeofday () -. t0;
      state_bits = Netlist.state_bits nl;
      svar_count = Structural.Svar_set.cardinal (Structural.all_svars nl);
      cert =
        (if o.Options.certify then
           Some
             {
               Report.ct_totals =
                 List.fold_left
                   (fun acc e ->
                     Cert.Proof.add_totals acc (Ipc.Engine.cert_totals e))
                   Cert.Proof.zero_totals !engines;
               ct_cex_validated = !cex_validated;
             }
         else None);
      unknowns;
      resumed_from =
        (match resume with
        | Some ck -> Some ck.Checkpoint.ck_iter
        | None -> None);
      metrics = Some (Obs.Metrics.snapshot ());
      options = o;
      simp =
        List.fold_left
          (fun acc e ->
            match Ipc.Engine.reduction_stats e with
            | None -> acc
            | Some r -> (
                match acc with
                | None -> Some r
                | Some a -> Some (Simp.merge_reduction a r)))
          None !engines;
      cache = None;
      extra = [];
    }
  in
  let record_step ~iter ~s ~s_cex ~pers_hit ~unknown ~seconds ~stats ~winner
      ~losers =
    (* [record_step] is the single funnel both the sequential and the
       per-svar paths go through, so the per-iteration span lives here
       as a manual (non-lexical) span reconstructed from [seconds]. *)
    (if Obs.Trace.enabled () then
       let t1 = Unix.gettimeofday () in
       Obs.Trace.emit_span "alg1.iter" ~t0:(t1 -. seconds) ~t1
         ~attrs:
           [
             ("iter", Obs.Trace.Int iter);
             ("s_size", Obs.Trace.Int (Structural.Svar_set.cardinal s));
             ("cex_size", Obs.Trace.Int (Structural.Svar_set.cardinal s_cex));
           ]);
    steps :=
      {
        Report.st_iter = iter;
        st_k = 1;
        st_s_size = Structural.Svar_set.cardinal s;
        st_cex = s_cex;
        st_pers_hit = pers_hit;
        st_unknown = unknown;
        st_seconds = seconds;
        st_stats = stats;
        st_winner = winner;
        st_losers = losers;
      }
      :: !steps
  in
  match o.Options.jobs with
  | Some j ->
      let initial_unknown =
        match resume with
        | None -> Structural.Svar_set.empty
        | Some ck ->
            resolve_names (svar_table nl)
              (List.map fst ck.Checkpoint.ck_unknown)
              ~what:"Alg1.run_with"
      in
      run_per_svar ?svar_cache o ~jobs:(max 1 j) ~register ~start_iter
        ~initial_unknown ~stopped ~note_unknowns ~post_iter spec s0 finish
        record_step validate_cex
  | None ->
      let checker =
        if o.Options.incremental then
          make_incremental_checker o ~register spec s0
        else check_once o ~register spec
      in
      let rec loop iter s =
        if iter > o.Options.max_iterations then
          finish (Report.Inconclusive "iteration budget exhausted")
        else begin
          let it0 = Unix.gettimeofday () in
          let result, stats, winner, losers = checker s in
          match result with
          | `Unknown reason ->
              (* a monolithic check cannot attribute exhaustion to one
                 svar; the run ends inconclusive — but never crashes *)
              finish
                (Report.Inconclusive
                   (if stopped () || reason = "interrupted" then "interrupted"
                    else "undecided within budget: " ^ reason))
          | `Holds ->
              record_step ~iter ~s ~s_cex:Structural.Svar_set.empty
                ~pers_hit:Structural.Svar_set.empty
                ~unknown:Structural.Svar_set.empty
                ~seconds:(Unix.gettimeofday () -. it0)
                ~stats:(Some stats) ~winner ~losers:(Some losers);
              finish (Report.Secure { s_final = s })
          | `Cex (cex, s_cex) ->
              if stopped () then finish (Report.Inconclusive "interrupted")
              else begin
                let pers_hit =
                  Structural.Svar_set.filter (Spec.is_pers spec) s_cex
                in
                record_step ~iter ~s ~s_cex ~pers_hit
                  ~unknown:Structural.Svar_set.empty
                  ~seconds:(Unix.gettimeofday () -. it0)
                  ~stats:(Some stats) ~winner ~losers:(Some losers);
                if Structural.Svar_set.is_empty s_cex then
                  finish
                    (Report.Inconclusive
                       "counterexample without S_cex (spurious model)")
                else if not (Structural.Svar_set.is_empty pers_hit) then
                  if validate_cex ~claimed:s_cex cex then
                    finish (Report.Vulnerable { s_cex; cex })
                  else
                    finish
                      (Report.Inconclusive
                         "counterexample rejected by simulator validation")
                else begin
                  let s' = Structural.Svar_set.diff s s_cex in
                  post_iter ~next_iter:(iter + 1) ~s:s';
                  loop (iter + 1) s'
                end
              end
        end
      in
      loop start_iter s0
