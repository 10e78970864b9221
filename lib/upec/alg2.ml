open Rtl
module U = Ipc.Unroller
module S = Satsolver.Solver

type outcome =
  | Hold of { s_final : Structural.Svar_set.t; k : int }
  | Found_vulnerable
  | Gave_up

(* Shared session setup for the Fig. 4 unrolled property at depth k.
   [portfolio] is explicit rather than read from [o] because
   counterexample re-derivation always runs sequentially. *)
let setup_engine (o : Options.t) ~portfolio
    ?(register = fun (_ : Ipc.Engine.t) -> ()) spec k =
  let eng =
    Ipc.Engine.create ?solver_options:o.Options.solver_options ~portfolio
      ~certify:o.Options.certify ~cert_jobs:o.Options.cert_jobs
      ~simp:o.Options.simp ~two_instance:true
      spec.Spec.soc.Soc.Builder.netlist
  in
  register eng;
  Ipc.Engine.set_interrupt eng o.Options.should_stop;
  Ipc.Engine.ensure_frames eng k;
  if o.Options.reset_start then Macros.assume_reset_state eng spec;
  Macros.assume_env eng spec ~frames:k;
  for f = 0 to k do
    Macros.primary_input_constraints eng spec ~frame:f;
    (* Fig. 4: Victim_Task_Executing during t..t+1 only; beyond that the
       victim port carries equal traffic in both instances *)
    if f <= 1 then Macros.victim_task_executing eng spec ~frame:f
    else Macros.victim_port_equal eng spec ~frame:f
  done;
  eng

(* Escalating-budget retry; see Alg1. Interrupts are never retried. *)
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

(* Decide the depth-k unrolled property on one engine whose frames
   0..k are fully constrained, and classify the result. The goal — the
   conjunction of the per-cycle equivalence obligations — rides on
   solver assumptions through {!Ipc.Engine.decide}, never asserted, so
   a warm engine can be re-asked with shrunken sets. *)
let decide_unrolled (o : Options.t) eng spec s_frames k =
  let g = Ipc.Engine.graph eng in
  let goal = ref Aig.true_lit in
  for j = 1 to k do
    goal :=
      Aig.mk_and g !goal
        (Macros.state_equivalence_goal eng spec ~frame:j s_frames.(j))
  done;
  let r =
    match
      with_retries o eng (fun () ->
          Ipc.Engine.decide eng (Ipc.Engine.Goal !goal))
    with
    | Ipc.Engine.Proved -> `Holds
    | Ipc.Engine.Refuted c ->
        let cex = Option.get c in
        let per_frame =
          List.init k (fun j ->
              let j = j + 1 in
              (j, Macros.violations eng spec cex ~frame:j s_frames.(j)))
        in
        `Cex (cex, per_frame)
    | Ipc.Engine.Unknown reason -> `Unknown reason
  in
  ( r,
    Ipc.Engine.last_stats eng,
    Ipc.Engine.last_winner eng,
    Ipc.Engine.last_losers_stats eng )

let check_once (o : Options.t) ?register spec s_frames k =
  (* s_frames: array of length k+1 with the per-cycle sets *)
  let eng = setup_engine o ~portfolio:o.Options.portfolio ?register spec k in
  Macros.state_equivalence_assume eng spec ~frame:0 s_frames.(0);
  decide_unrolled o eng spec s_frames k

(* Incremental monolithic session: one engine across iterations AND
   unroll-depth growth. Frame-0 equivalence is asserted once (sound —
   the cycle-0 set never shrinks); when k grows, only the new frame's
   environment and input constraints are appended. Learnt clauses and
   branching heuristics stay warm across the whole refinement. *)
type session = { i_eng : Ipc.Engine.t; mutable i_frames : int }

let extend_frame eng spec f =
  Macros.assume_env_at eng spec ~frame:f;
  Macros.primary_input_constraints eng spec ~frame:f;
  if f <= 1 then Macros.victim_task_executing eng spec ~frame:f
  else Macros.victim_port_equal eng spec ~frame:f

let make_session (o : Options.t) ~register spec s0 =
  let eng = setup_engine o ~portfolio:o.Options.portfolio ~register spec 1 in
  Macros.state_equivalence_assume eng spec ~frame:0 s0;
  { i_eng = eng; i_frames = 1 }

let check_incr (o : Options.t) sess spec s_frames k =
  if k > sess.i_frames then begin
    Ipc.Engine.ensure_frames sess.i_eng k;
    for f = sess.i_frames + 1 to k do
      extend_frame sess.i_eng spec f
    done;
    sess.i_frames <- k
  end;
  decide_unrolled o sess.i_eng spec s_frames k

(* Per-(frame, svar) decomposition for the parallel strategy. The
   unrolled property assumes equivalence only at cycle 0 — and sf.(0)
   never shrinks — so the assumption set of every individual check is
   constant: frame-0 equivalence is asserted permanently at worker
   construction, and each pair (j, sv) gets one activation literal
   arming diff_sv@j. Pair verdicts are therefore semantic facts, and
   the whole trace is identical for every job count. *)
type worker_state = {
  w_k : int;
  w_eng : Ipc.Engine.t;
  w_acts : (int * string, Aig.lit) Hashtbl.t;  (* (frame, svar) -> act *)
}

let make_worker (o : Options.t) ~register spec s0 k =
  let eng = setup_engine o ~portfolio:o.Options.portfolio ~register spec k in
  Macros.state_equivalence_assume eng spec ~frame:0 s0;
  let g = Ipc.Engine.graph eng in
  let acts = Hashtbl.create 1024 in
  for j = 1 to k do
    Structural.Svar_set.iter
      (fun sv ->
        let diff = Aig.lit_not (Macros.sv_condition eng spec ~frame:j sv) in
        let act = Aig.fresh_var g in
        Ipc.Engine.assume_implication eng act diff;
        Hashtbl.replace acts (j, Structural.svar_name sv) act)
      s0
  done;
  { w_k = k; w_eng = eng; w_acts = acts }

let extract_cex (o : Options.t) ~register spec s0 k (j, sv) =
  let eng = setup_engine o ~portfolio:1 ~register spec k in
  Macros.state_equivalence_assume eng spec ~frame:0 s0;
  match
    Ipc.Engine.decide eng
      (Ipc.Engine.Violation
         [ Aig.lit_not (Macros.sv_condition eng spec ~frame:j sv) ])
  with
  | Ipc.Engine.Refuted c -> c
  | Ipc.Engine.Proved | Ipc.Engine.Unknown _ -> None

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

(* Undecided (frame, svar) pairs are recorded in checkpoints and reports
   as "name@j"; the reason string stays plain. *)
let pair_entry j sv = Printf.sprintf "%s@%d" (Structural.svar_name sv) j

let parse_pair_entry n =
  match String.rindex_opt n '@' with
  | None -> None
  | Some i -> (
      match
        int_of_string_opt (String.sub n (i + 1) (String.length n - i - 1))
      with
      | Some j -> Some (j, String.sub n 0 i)
      | None -> None)

let run_with ?resume (o : Options.t) spec =
  let nl = spec.Spec.soc.Soc.Builder.netlist in
  let t0 = Unix.gettimeofday () in
  let s0 = Spec.s_neg_victim spec in
  let steps = ref [] in
  let per_svar = o.Options.jobs <> None in
  let reset_start = o.Options.reset_start in
  let config_hash = lazy (Checkpoint.config_hash ~alg:Checkpoint.Alg2 spec) in
  let unknowns_acc = ref [] in
  (* undecided (frame, svar-name) pairs: excluded from the goal lists
     but NOT from the per-cycle sets — the sets feed the induction's
     assumption side, and weakening it could manufacture spurious
     divergences (see Alg1) *)
  let undecided : (int * string, unit) Hashtbl.t = Hashtbl.create 64 in
  let note_unknown j sv reason =
    Hashtbl.replace undecided (j, Structural.svar_name sv) ();
    let entry = (pair_entry j sv, reason) in
    if not (List.mem entry !unknowns_acc) then
      unknowns_acc := entry :: !unknowns_acc
  in
  let stopped () =
    match o.Options.should_stop with Some f -> f () | None -> false
  in
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
  let finish verdict outcome =
    let unknowns = List.rev !unknowns_acc in
    (* undecided pairs are unproven goals, so a standalone Secure claim
       is degraded; the [Hold] outcome survives — {!conclude_with}'s
       induction re-decides every svar from scratch and subsumes the
       bounded window, so unrolled-phase Unknowns cannot contaminate
       its verdict *)
    let verdict =
      match verdict with
      | Report.Secure _ when unknowns <> [] ->
          Report.Inconclusive
            (Printf.sprintf
               "budget exhausted on %d (cycle, state var) pair(s): %s"
               (List.length unknowns)
               (String.concat ", " (List.map fst unknowns)))
      | v -> v
    in
    ( {
        Report.procedure =
          (let base =
             if reset_start then "BMC-from-reset (Alg. 2 property"
             else "UPEC-SSC-unrolled (Alg. 2"
           in
           let strategy =
             if per_svar then ", per-svar)"
             else if o.Options.incremental then ", incremental)"
             else ")"
           in
           base ^ strategy);
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
      },
      outcome )
  in
  let record ?stats ?winner ?losers ~unknown iter k s_size cex pers dt =
    (if Obs.Trace.enabled () then
       let t1 = Unix.gettimeofday () in
       Obs.Trace.emit_span "alg2.iter" ~t0:(t1 -. dt) ~t1
         ~attrs:
           [
             ("iter", Obs.Trace.Int iter);
             ("k", Obs.Trace.Int k);
             ("s_size", Obs.Trace.Int s_size);
           ]);
    steps :=
      {
        Report.st_iter = iter;
        st_k = k;
        st_s_size = s_size;
        st_cex = cex;
        st_pers_hit = pers;
        st_unknown = unknown;
        st_seconds = dt;
        st_stats = stats;
        st_winner = winner;
        st_losers = losers;
      }
      :: !steps
  in
  (* growable array of per-cycle sets *)
  let s_frames = ref [| s0; s0 |] in
  let start_iter, start_k =
    match resume with
    | None -> (1, 1)
    | Some ck ->
        if ck.Checkpoint.ck_alg <> Checkpoint.Alg2 then
          invalid_arg
            "Alg2.run_with: checkpoint was written by another algorithm";
        if ck.Checkpoint.ck_config_hash <> Lazy.force config_hash then
          invalid_arg
            "Alg2.run_with: checkpoint config hash mismatch (different design, \
             variant or persistence model)";
        unknowns_acc := List.rev ck.Checkpoint.ck_unknown;
        List.iter
          (fun (n, _) ->
            match parse_pair_entry n with
            | Some (j, name) -> Hashtbl.replace undecided (j, name) ()
            | None -> ())
          ck.Checkpoint.ck_unknown;
        let tbl = svar_table nl in
        s_frames :=
          Array.map
            (fun names -> resolve_names tbl names ~what:"Alg2.run_with")
            ck.Checkpoint.ck_frames;
        (ck.Checkpoint.ck_iter, ck.Checkpoint.ck_k)
  in
  let post_iter ~next_iter ~k =
    match o.Options.checkpoint_file with
    | None -> ()
    | Some path ->
        Checkpoint.save path
          {
            Checkpoint.ck_alg = Checkpoint.Alg2;
            ck_variant = variant_tag spec.Spec.variant;
            ck_config_hash = Lazy.force config_hash;
            ck_iter = next_iter;
            ck_k = k;
            ck_frames =
              Array.map
                (fun s ->
                  List.map Structural.svar_name
                    (Structural.Svar_set.elements s))
                !s_frames;
            ck_unknown = List.rev !unknowns_acc;
          }
  in
  match o.Options.jobs with
  | None ->
      let session = ref None in
      let checker sf k =
        if o.Options.incremental then begin
          let sess =
            match !session with
            | Some s -> s
            | None ->
                let s = make_session o ~register spec sf.(0) in
                session := Some s;
                s
          in
          check_incr o sess spec sf k
        end
        else check_once o ~register spec sf k
      in
      let rec loop iter k =
        if iter > o.Options.max_iterations then
          finish (Report.Inconclusive "iteration budget exhausted") Gave_up
        else begin
          let it0 = Unix.gettimeofday () in
          let sf = !s_frames in
          let result, st, win, lo = checker sf k in
          match result with
          | `Unknown reason ->
              finish
                (Report.Inconclusive
                   (if stopped () || reason = "interrupted" then "interrupted"
                    else "undecided within budget: " ^ reason))
                Gave_up
          | `Holds ->
              let dt = Unix.gettimeofday () -. it0 in
              record ~stats:st ?winner:win ~losers:lo
                ~unknown:Structural.Svar_set.empty iter k
                (Structural.Svar_set.cardinal sf.(k))
                Structural.Svar_set.empty Structural.Svar_set.empty dt;
              if Structural.Svar_set.equal sf.(k) sf.(k - 1) then
                if reset_start then
                  (* a concrete-start (BMC) pass proves nothing beyond the
                     window: report it as such *)
                  finish
                    (Report.Inconclusive
                       (Printf.sprintf
                          "BMC from reset: no detection within %d cycles (no \
                           inductive meaning)" k))
                    (Hold { s_final = sf.(k); k })
                else
                  finish
                    (Report.Secure { s_final = sf.(k) })
                    (Hold { s_final = sf.(k); k })
              else if k >= o.Options.max_k then
                finish (Report.Inconclusive "max unrolling reached") Gave_up
              else begin
                s_frames := Array.append sf [| sf.(k) |];
                post_iter ~next_iter:(iter + 1) ~k:(k + 1);
                loop (iter + 1) (k + 1)
              end
          | `Cex (cex, per_frame) ->
              if stopped () then
                finish (Report.Inconclusive "interrupted") Gave_up
              else begin
                let dt = Unix.gettimeofday () -. it0 in
                let all_cex =
                  List.fold_left
                    (fun acc (_, v) -> Structural.Svar_set.union acc v)
                    Structural.Svar_set.empty per_frame
                in
                let pers_hit =
                  Structural.Svar_set.filter (Spec.is_pers spec) all_cex
                in
                record ~stats:st ?winner:win ~losers:lo
                  ~unknown:Structural.Svar_set.empty iter k
                  (Structural.Svar_set.cardinal sf.(k))
                  all_cex pers_hit dt;
                if Structural.Svar_set.is_empty all_cex then
                  finish
                    (Report.Inconclusive
                       "counterexample without S_cex (spurious model)")
                    Gave_up
                else if not (Structural.Svar_set.is_empty pers_hit) then
                  if validate_cex ~claimed:all_cex cex then
                    finish
                      (Report.Vulnerable { s_cex = all_cex; cex })
                      Found_vulnerable
                  else
                    finish
                      (Report.Inconclusive
                         "counterexample rejected by simulator validation")
                      Gave_up
                else begin
                  List.iter
                    (fun (j, v) -> sf.(j) <- Structural.Svar_set.diff sf.(j) v)
                    per_frame;
                  post_iter ~next_iter:(iter + 1) ~k;
                  loop (iter + 1) k
                end
              end
        end
      in
      loop start_iter start_k
  | Some j ->
      let jobs = max 1 j in
      Parallel.Pool.with_pool ~jobs (fun pool ->
          let engines = Array.make (Parallel.Pool.jobs pool) None in
          let worker k wid =
            match engines.(wid) with
            | Some w when w.w_k = k -> w
            | _ ->
                let w = make_worker o ~register spec s0 k in
                engines.(wid) <- Some w;
                w
          in
          let check_pairs k pairs =
            Parallel.Pool.map_wid pool
              (fun wid (j, sv) ->
                Obs.Trace.with_span "alg2.pair"
                  ~attrs:
                    [
                      ("svar", Obs.Trace.Str (Structural.svar_name sv));
                      ("frame", Obs.Trace.Int j);
                    ]
                @@ fun () ->
                let w = worker k wid in
                let act = Hashtbl.find w.w_acts (j, Structural.svar_name sv) in
                ( (j, sv),
                  with_retries o w.w_eng (fun () ->
                      Ipc.Engine.decide ~cex:false w.w_eng
                        (Ipc.Engine.Violation [ act ])),
                  Ipc.Engine.last_stats w.w_eng,
                  Ipc.Engine.last_winner w.w_eng,
                  Ipc.Engine.last_losers_stats w.w_eng ))
              pairs
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
          (* budget-degraded pairs join [undecided]; interrupts are
             excluded — an interrupted iteration is discarded wholesale *)
          let handle_unknowns results =
            List.fold_left
              (fun acc ((j, sv), (v : Ipc.Engine.verdict), _, _, _) ->
                match v with
                | Ipc.Engine.Unknown reason when reason <> "interrupted" ->
                    note_unknown j sv reason;
                    Structural.Svar_set.add sv acc
                | _ -> acc)
              Structural.Svar_set.empty results
          in
          let rec loop iter k =
            if iter > o.Options.max_iterations then
              finish (Report.Inconclusive "iteration budget exhausted") Gave_up
            else begin
              let it0 = Unix.gettimeofday () in
              let sf = !s_frames in
              let pairs p =
                List.concat_map
                  (fun j ->
                    Structural.Svar_set.fold
                      (fun sv acc ->
                        if
                          p sv
                          && not
                               (Hashtbl.mem undecided
                                  (j, Structural.svar_name sv))
                        then (j, sv) :: acc
                        else acc)
                      sf.(j) []
                    |> List.rev)
                  (List.init k (fun i -> i + 1))
              in
              (* Persistent svars first: any hit ends the run early. *)
              let pers_results = check_pairs k (pairs (Spec.is_pers spec)) in
              if stopped () then
                finish (Report.Inconclusive "interrupted") Gave_up
              else begin
                let pers_sat =
                  List.filter
                    (fun (_, v, _, _, _) ->
                      match v with Ipc.Engine.Refuted _ -> true | _ -> false)
                    pers_results
                in
                if pers_sat <> [] then begin
                  let pers_hit =
                    List.fold_left
                      (fun acc ((_, sv), _, _, _, _) ->
                        Structural.Svar_set.add sv acc)
                      Structural.Svar_set.empty pers_sat
                  in
                  let st, win, lo = stats_of pers_results in
                  let unknown = handle_unknowns pers_results in
                  record ~stats:st ?winner:win ~losers:lo ~unknown iter k
                    (Structural.Svar_set.cardinal sf.(k))
                    pers_hit pers_hit
                    (Unix.gettimeofday () -. it0);
                  (* deterministic witness: smallest frame, then svar order *)
                  let witness =
                    List.fold_left
                      (fun acc ((j, sv), _, _, _, _) ->
                        match acc with
                        | None -> Some (j, sv)
                        | Some (j', sv') ->
                            if
                              j < j'
                              || (j = j' && Structural.compare_svar sv sv' < 0)
                            then Some (j, sv)
                            else acc)
                      None pers_sat
                    |> Option.get
                  in
                  match extract_cex o ~register spec s0 k witness with
                  | Some cex ->
                      if
                        validate_cex
                          ~claimed:(Structural.Svar_set.singleton (snd witness))
                          cex
                      then
                        finish
                          (Report.Vulnerable { s_cex = pers_hit; cex })
                          Found_vulnerable
                      else
                        finish
                          (Report.Inconclusive
                             "counterexample rejected by simulator validation")
                          Gave_up
                  | None ->
                      finish
                        (Report.Inconclusive
                           (if stopped () then "interrupted"
                            else
                              "per-svar SAT not reproducible on a fresh engine"))
                        Gave_up
                end
                else begin
                  let rest_results =
                    check_pairs k (pairs (fun sv -> not (Spec.is_pers spec sv)))
                  in
                  if stopped () then
                    finish (Report.Inconclusive "interrupted") Gave_up
                  else begin
                    let per_frame =
                      List.init k (fun i ->
                          let j = i + 1 in
                          ( j,
                            List.fold_left
                              (fun acc ((j', sv), v, _, _, _) ->
                                match v with
                                | Ipc.Engine.Refuted _ when j' = j ->
                                    Structural.Svar_set.add sv acc
                                | _ -> acc)
                              Structural.Svar_set.empty rest_results ))
                    in
                    let all_cex =
                      List.fold_left
                        (fun acc (_, v) -> Structural.Svar_set.union acc v)
                        Structural.Svar_set.empty per_frame
                    in
                    let st, win, lo =
                      let s1, w1, l1 = stats_of pers_results in
                      let s2, w2, l2 = stats_of rest_results in
                      ( S.add_stats s1 s2,
                        (match w2 with Some _ -> w2 | None -> w1),
                        S.add_stats l1 l2 )
                    in
                    let unknown =
                      Structural.Svar_set.union
                        (handle_unknowns pers_results)
                        (handle_unknowns rest_results)
                    in
                    record ~stats:st ?winner:win ~losers:lo ~unknown iter k
                      (Structural.Svar_set.cardinal sf.(k))
                      all_cex Structural.Svar_set.empty
                      (Unix.gettimeofday () -. it0);
                    if Structural.Svar_set.is_empty all_cex then
                      if Structural.Svar_set.equal sf.(k) sf.(k - 1) then
                        if reset_start then
                          finish
                            (Report.Inconclusive
                               (Printf.sprintf
                                  "BMC from reset: no detection within %d \
                                   cycles (no inductive meaning)" k))
                            (Hold { s_final = sf.(k); k })
                        else
                          finish
                            (Report.Secure { s_final = sf.(k) })
                            (Hold { s_final = sf.(k); k })
                      else if k >= o.Options.max_k then
                        finish
                          (Report.Inconclusive "max unrolling reached")
                          Gave_up
                      else begin
                        s_frames := Array.append sf [| sf.(k) |];
                        post_iter ~next_iter:(iter + 1) ~k:(k + 1);
                        loop (iter + 1) (k + 1)
                      end
                    else begin
                      List.iter
                        (fun (j, v) ->
                          sf.(j) <- Structural.Svar_set.diff sf.(j) v)
                        per_frame;
                      post_iter ~next_iter:(iter + 1) ~k;
                      loop (iter + 1) k
                    end
                  end
                end
              end
            end
          in
          loop start_iter start_k)

let merge_simp a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Simp.merge_reduction a b)

(* [svar_cache] feeds only the induction phase: its obligations are
   exactly Alg. 1's 2-cycle per-svar checks, so farm lemmas apply
   verbatim. The unrolled phase's (frame, svar) obligations live in a
   k-deep formula no 2-cycle lemma answers — they always solve. *)
let conclude_with ?resume ?svar_cache (o : Options.t) spec =
  match resume with
  | Some ck when ck.Checkpoint.ck_alg = Checkpoint.Alg1 ->
      (* the unrolled phase had already reached Hold when this Alg. 1
         checkpoint was written: resume the induction directly *)
      let induction = Alg1.run_with ~resume:ck ?svar_cache o spec in
      {
        induction with
        Report.procedure = "UPEC-SSC-unrolled + induction";
      }
  | _ -> (
      let report, outcome = run_with ?resume o spec in
      match outcome with
      | Found_vulnerable | Gave_up -> report
      | Hold { s_final; k = _ } ->
          let induction = Alg1.run_with ~initial_s:s_final ?svar_cache o spec in
          {
            induction with
            Report.procedure = "UPEC-SSC-unrolled + induction";
            steps = report.Report.steps @ induction.Report.steps;
            total_seconds =
              report.Report.total_seconds +. induction.Report.total_seconds;
            cert = Report.merge_cert report.Report.cert induction.Report.cert;
            unknowns = report.Report.unknowns @ induction.Report.unknowns;
            resumed_from = report.Report.resumed_from;
            simp = merge_simp report.Report.simp induction.Report.simp;
          }
      )
