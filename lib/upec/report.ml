open Rtl

type step = {
  st_iter : int;
  st_k : int;
  st_s_size : int;
  st_cex : Structural.Svar_set.t;
  st_pers_hit : Structural.Svar_set.t;
  st_unknown : Structural.Svar_set.t;
  st_seconds : float;
  st_stats : Satsolver.Solver.stats option;
  st_winner : int option;
  st_losers : Satsolver.Solver.stats option;
}

type verdict =
  | Secure of { s_final : Structural.Svar_set.t }
  | Vulnerable of { s_cex : Structural.Svar_set.t; cex : Ipc.Cex.t }
  | Inconclusive of string

type cert_info = {
  ct_totals : Cert.Proof.totals;
  ct_cex_validated : bool option;
}

type cache_info = {
  ca_fingerprint : string;
  ca_report_hit : bool;
  ca_lemma_hits : int;
  ca_lemma_misses : int;
  ca_invalidated : int;
  ca_cached_svars : string list;
}

type run = {
  procedure : string;
  variant : Spec.variant;
  verdict : verdict;
  steps : step list;
  total_seconds : float;
  state_bits : int;
  svar_count : int;
  cert : cert_info option;
  unknowns : (string * string) list;
  resumed_from : int option;
  metrics : Obs.Metrics.snapshot option;
  options : Options.t;
  simp : Simp.reduction option;
  cache : cache_info option;
  extra : (string * Json.t) list;
}

let merge_cert a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b ->
      Some
        {
          ct_totals = Cert.Proof.add_totals a.ct_totals b.ct_totals;
          ct_cex_validated =
            (match b.ct_cex_validated with
            | Some _ as s -> s
            | None -> a.ct_cex_validated);
        }

let is_secure r = match r.verdict with Secure _ -> true | _ -> false
let is_vulnerable r = match r.verdict with Vulnerable _ -> true | _ -> false
let iterations r = List.length r.steps

let final_k r =
  List.fold_left (fun acc s -> max acc s.st_k) 0 r.steps

let variant_name = function
  | Spec.Vulnerable -> "baseline (no countermeasure)"
  | Spec.Secure -> "with countermeasure (Sec. 4.2)"

let pp_verdict fmt = function
  | Secure { s_final } ->
      Format.fprintf fmt "SECURE (inductive for |S| = %d)"
        (Structural.Svar_set.cardinal s_final)
  | Vulnerable { s_cex; _ } ->
      Format.fprintf fmt "VULNERABLE (S_cex ∩ S_pers: %a)"
        Structural.pp_svar_set s_cex
  | Inconclusive msg -> Format.fprintf fmt "INCONCLUSIVE (%s)" msg

let pp_summary fmt r =
  Format.fprintf fmt "%s [%s]: %a, %d iteration(s), %.2fs" r.procedure
    (variant_name r.variant) pp_verdict r.verdict (iterations r)
    r.total_seconds

let pp fmt r =
  Format.fprintf fmt "@[<v>=== %s on SoC (%d state bits, %d state vars) ===@,"
    r.procedure r.state_bits r.svar_count;
  Format.fprintf fmt "variant: %s@," (variant_name r.variant);
  Format.fprintf fmt "iter  k   |S|    |S_cex|  unk  persistent hits  time@,";
  List.iter
    (fun s ->
      Format.fprintf fmt "%4d  %d  %5d  %7d  %3d  %15s  %6.2fs@," s.st_iter
        s.st_k s.st_s_size
        (Structural.Svar_set.cardinal s.st_cex)
        (Structural.Svar_set.cardinal s.st_unknown)
        (if Structural.Svar_set.is_empty s.st_pers_hit then "-"
         else
           Format.asprintf "%a" Structural.pp_svar_set s.st_pers_hit)
        s.st_seconds)
    r.steps;
  Format.fprintf fmt "verdict: %a@," pp_verdict r.verdict;
  (match r.resumed_from with
  | Some iter -> Format.fprintf fmt "resumed from iteration %d@," iter
  | None -> ());
  (match r.unknowns with
  | [] -> ()
  | us ->
      Format.fprintf fmt
        "%d check(s) left UNKNOWN (assumed but no longer checked):@,"
        (List.length us);
      List.iter
        (fun (name, reason) -> Format.fprintf fmt "  %s: %s@," name reason)
        us);
  (match r.verdict with
  | Vulnerable { cex; s_cex } ->
      Format.fprintf fmt "S_cex: %a@," Structural.pp_svar_set s_cex;
      Format.fprintf fmt "%a@," Ipc.Cex.pp cex
  | Secure _ | Inconclusive _ -> ());
  (match r.cert with
  | None -> ()
  | Some c ->
      Format.fprintf fmt "certification: %a@," Cert.Proof.pp_totals c.ct_totals;
      Format.fprintf fmt "counterexample validation: %s@,"
        (match c.ct_cex_validated with
        | Some true -> "PASSED (simulator replay reproduces the divergence)"
        | Some false -> "FAILED"
        | None -> "n/a (no counterexample)"));
  (match r.simp with
  | None -> ()
  | Some red when red.Simp.red_solves > 0 ->
      Format.fprintf fmt "reduction: %a@," Simp.pp_reduction red
  | Some _ -> ());
  Format.fprintf fmt "total: %.2fs@]" r.total_seconds

(* ---------- machine-readable artefact (schema 3) ---------- *)

let schema_version = 3

let svar_set_json s =
  Json.List
    (List.map
       (fun sv -> Json.Str (Structural.svar_name sv))
       (Structural.Svar_set.elements s))

let verdict_json = function
  | Secure { s_final } ->
      Json.Obj
        [ ("kind", Json.Str "secure"); ("s_final", svar_set_json s_final) ]
  | Vulnerable { s_cex; cex } ->
      Json.Obj
        [
          ("kind", Json.Str "vulnerable");
          ("s_cex", svar_set_json s_cex);
          ("cex_frames", Json.Int (Ipc.Cex.frames cex));
        ]
  | Inconclusive reason ->
      Json.Obj
        [ ("kind", Json.Str "inconclusive"); ("reason", Json.Str reason) ]

let step_json s =
  Json.Obj
    [
      ("iter", Json.Int s.st_iter);
      ("k", Json.Int s.st_k);
      ("s_size", Json.Int s.st_s_size);
      ("cex", svar_set_json s.st_cex);
      ("pers_hit", svar_set_json s.st_pers_hit);
      ("unknown", svar_set_json s.st_unknown);
      ("seconds", Json.Float s.st_seconds);
    ]

let opt f = function None -> Json.Null | Some x -> f x

let budget_json (b : Satsolver.Solver.budget) =
  Json.Obj
    [
      ("max_conflicts", Json.Int b.Satsolver.Solver.max_conflicts);
      ("max_propagations", Json.Int b.Satsolver.Solver.max_propagations);
      ("max_seconds", Json.Float b.Satsolver.Solver.max_seconds);
    ]

let options_json (o : Options.t) =
  Json.Obj
    [
      ("max_iterations", Json.Int o.Options.max_iterations);
      ("max_k", Json.Int o.Options.max_k);
      ( "solver_options",
        Json.Str
          (match o.Options.solver_options with
          | Some _ -> "custom"
          | None -> "default") );
      ("simp", Json.Bool o.Options.simp);
      ("jobs", opt (fun j -> Json.Int j) o.Options.jobs);
      ("portfolio", Json.Int o.Options.portfolio);
      ("certify", Json.Bool o.Options.certify);
      ("cex_vcd", opt (fun s -> Json.Str s) o.Options.cex_vcd);
      ("budget", budget_json o.Options.budget);
      ("budget_retries", Json.Int o.Options.budget_retries);
      ("budget_escalation", Json.Float o.Options.budget_escalation);
      ("checkpoint_file", opt (fun s -> Json.Str s) o.Options.checkpoint_file);
      ("reset_start", Json.Bool o.Options.reset_start);
    ]

let simp_json (red : Simp.reduction) =
  Json.Obj
    [
      ("reduced_solves", Json.Int red.Simp.red_solves);
      ("full_vars", Json.Int red.Simp.red_full_vars);
      ("full_clauses", Json.Int red.Simp.red_full_clauses);
      ("reduced_vars", Json.Int red.Simp.red_vars);
      ("reduced_clauses", Json.Int red.Simp.red_clauses);
    ]

let cert_json c =
  let t = c.ct_totals in
  let overhead =
    if t.Cert.Proof.solve_seconds > 0.0 then
      100.0 *. t.Cert.Proof.check_seconds /. t.Cert.Proof.solve_seconds
    else 0.0
  in
  Json.Obj
    [
      ("unsat_checked", Json.Int t.Cert.Proof.unsat_checked);
      ("sat_checked", Json.Int t.Cert.Proof.sat_checked);
      ("unknown_skipped", Json.Int t.Cert.Proof.unknown_skipped);
      ("proof_steps", Json.Int t.Cert.Proof.proof_steps);
      ("proof_lits", Json.Int t.Cert.Proof.proof_lits);
      ("solve_seconds", Json.Float t.Cert.Proof.solve_seconds);
      ("check_seconds", Json.Float t.Cert.Proof.check_seconds);
      ("check_overhead_percent", Json.Float overhead);
      ("cex_validated", opt (fun b -> Json.Bool b) c.ct_cex_validated);
    ]

let cache_json (c : cache_info) =
  Json.Obj
    [
      ("fingerprint", Json.Str c.ca_fingerprint);
      ("report_hit", Json.Bool c.ca_report_hit);
      ("lemma_hits", Json.Int c.ca_lemma_hits);
      ("lemma_misses", Json.Int c.ca_lemma_misses);
      ("invalidated", Json.Int c.ca_invalidated);
      ( "cached_svars",
        Json.List
          (List.map
             (fun n ->
               Json.Obj [ ("name", Json.Str n); ("cached", Json.Bool true) ])
             c.ca_cached_svars) );
    ]

(* The [extra] blocks ride at the end of the object under their own
   member names ("scenario", "stat", …), so schema-2 consumers that
   ignore unknown members keep working; a member clashing with a core
   key is dropped rather than shadowing it. *)
let to_json r =
  let core =
    [
      ("schema", Json.Int schema_version);
      ("procedure", Json.Str r.procedure);
      ("variant", Json.Str (Spec.variant_tag r.variant));
      ("verdict", verdict_json r.verdict);
      ("iterations", Json.Int (iterations r));
      ("final_k", Json.Int (final_k r));
      ("total_seconds", Json.Float r.total_seconds);
      ("state_bits", Json.Int r.state_bits);
      ("svar_count", Json.Int r.svar_count);
      ("steps", Json.List (List.map step_json r.steps));
      ( "unknowns",
        Json.List
          (List.map
             (fun (name, reason) ->
               Json.Obj
                 [ ("name", Json.Str name); ("reason", Json.Str reason) ])
             r.unknowns) );
      ("resumed_from", opt (fun i -> Json.Int i) r.resumed_from);
      ("cert", opt cert_json r.cert);
      ("options", options_json r.options);
      ("simp", opt simp_json r.simp);
      ("cache", opt cache_json r.cache);
    ]
  in
  let taken = List.map fst core in
  Json.Obj
    (core @ List.filter (fun (k, _) -> not (List.mem k taken)) r.extra)

let pp_metrics fmt r =
  match r.metrics with
  | None -> Format.fprintf fmt "(no metrics snapshot recorded)"
  | Some s -> Obs.Metrics.pp_table fmt s

let pp_stats fmt r =
  Format.fprintf fmt "@[<v>--- solver statistics (%s) ---@," r.procedure;
  Format.fprintf fmt
    "iter  conflicts  decisions  propagations  restarts  learnt  winner  \
     losers(cfl/prop)@,";
  let have_any = ref false in
  List.iter
    (fun s ->
      match s.st_stats with
      | None -> ()
      | Some st ->
          have_any := true;
          Format.fprintf fmt "%4d  %9d  %9d  %12d  %8d  %6d  %6s  %16s@,"
            s.st_iter st.Satsolver.Solver.conflicts
            st.Satsolver.Solver.decisions st.Satsolver.Solver.propagations
            st.Satsolver.Solver.restarts st.Satsolver.Solver.learnt_clauses
            (match s.st_winner with
            | Some w -> Printf.sprintf "#%d" w
            | None -> "-")
            (match s.st_losers with
            | Some l
              when l.Satsolver.Solver.conflicts > 0
                   || l.Satsolver.Solver.propagations > 0 ->
                Printf.sprintf "%d/%d" l.Satsolver.Solver.conflicts
                  l.Satsolver.Solver.propagations
            | _ -> "-"))
    r.steps;
  if not !have_any then Format.fprintf fmt "(no per-step statistics recorded)@,";
  (let total =
     List.fold_left
       (fun acc s ->
         match s.st_stats with
         | Some st -> Satsolver.Solver.add_stats acc st
         | None -> acc)
       Satsolver.Solver.zero_stats r.steps
   in
   Format.fprintf fmt "total: %a@," Satsolver.Solver.pp_stats total);
  Format.fprintf fmt "@]"
