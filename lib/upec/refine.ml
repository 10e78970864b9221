open Rtl
module S = Satsolver.Solver
module Svars = Structural.Svar_set

type t = {
  alg : Checkpoint.alg;
  o : Options.t;
  spec : Spec.t;
  t0 : float;
  config_hash : string Lazy.t;
  resume : Checkpoint.t option;
  resumed : (int * Svars.t array) option;
  (* engine registry: workers create engines inside pool domains, so
     the list is mutex-protected; reads happen after the pool drained *)
  reg_mu : Mutex.t;
  mutable engines : Ipc.Engine.t list;
  (* degraded obligations, reverse order: (entry, reason) as reported *)
  mutable unknowns : (string * string) list;
  (* undecided (cycle, svar name) obligations: out of the goal lists
     but NOT out of the candidate sets. The sets feed the assumption
     side; weakening it could manufacture spurious divergences (false
     VULNERABLE on a secure design). Keeping them assumed is sound for
     SAT answers, and [finish] degrades any Secure claim. *)
  undecided : (int * string, unit) Hashtbl.t;
  mutable steps : Report.step list;  (* reverse order *)
  mutable cex_validated : bool option;
  (* conflicts of the costliest monolithic decision so far; [None]
     until the first one, which runs uncapped (see [decide]), unless
     the run inherits an unrolled phase's *)
  mutable costliest : int option;
  (* the iteration at which the default strategy handed over to the
     per-svar round *)
  mutable handover : int option;
}

let netlist ctx = ctx.spec.Spec.soc.Soc.Builder.netlist

(* ---- per-algorithm names ---- *)

let caller = function
  | Checkpoint.Alg1 -> "Alg1.run_with"
  | Checkpoint.Alg2 -> "Alg2.run_with"

let procedure ctx =
  let o = ctx.o in
  let base =
    match ctx.alg with
    | Checkpoint.Alg1 -> "UPEC-SSC (Alg. 1"
    | Checkpoint.Alg2 when o.Options.reset_start ->
        "BMC-from-reset (Alg. 2 property"
    | Checkpoint.Alg2 -> "UPEC-SSC-unrolled (Alg. 2"
  in
  let strategy =
    match (o.Options.jobs, ctx.handover) with
    | Some _, _ -> [ "per-svar" ]
    | None, handover ->
        "incremental"
        :: List.map (Printf.sprintf "per-svar from iteration %d")
             (Option.to_list handover)
  in
  String.concat ", " (base :: strategy) ^ ")"

(* Undecided Alg. 2 pairs are recorded in checkpoints and reports as
   "name@j"; the reason string stays plain. *)
let entry alg (j, sv) =
  match alg with
  | Checkpoint.Alg1 -> Structural.svar_name sv
  | Checkpoint.Alg2 -> Printf.sprintf "%s@%d" (Structural.svar_name sv) j

let parse_pair_entry n =
  match String.rindex_opt n '@' with
  | None -> None
  | Some i -> (
      match
        int_of_string_opt (String.sub n (i + 1) (String.length n - i - 1))
      with
      | Some j -> Some (j, String.sub n 0 i)
      | None -> None)

(* ---- checkpoint names ---- *)

let svar_table nl =
  let tbl = Hashtbl.create 256 in
  Svars.iter
    (fun sv -> Hashtbl.replace tbl (Structural.svar_name sv) sv)
    (Structural.all_svars nl);
  tbl

let resolve_names tbl names ~what =
  List.fold_left
    (fun acc n ->
      match Hashtbl.find_opt tbl n with
      | Some sv -> Svars.add sv acc
      | None ->
          invalid_arg
            (Printf.sprintf "%s: checkpoint names unknown state var %s" what n))
    Svars.empty names

let create alg ?resume ?costliest (o : Options.t) spec =
  let t0 = Unix.gettimeofday () in
  let config_hash = lazy (Checkpoint.config_hash ~alg spec) in
  let undecided = Hashtbl.create 64 in
  let resumed =
    Option.map
      (fun (ck : Checkpoint.t) ->
        let what = caller alg in
        if ck.Checkpoint.ck_alg <> alg then
          invalid_arg (what ^ ": checkpoint was written by another algorithm");
        if ck.Checkpoint.ck_config_hash <> Lazy.force config_hash then
          invalid_arg
            (what
           ^ ": checkpoint config hash mismatch (different design, variant \
              or persistence model)");
        let tbl = svar_table spec.Spec.soc.Soc.Builder.netlist in
        let frames =
          match alg with
          | Checkpoint.Alg1 -> [| ck.Checkpoint.ck_frames.(0) |]
          | Checkpoint.Alg2 -> ck.Checkpoint.ck_frames
        in
        let frames = Array.map (fun ns -> resolve_names tbl ns ~what) frames in
        List.iter
          (fun (n, _) ->
            match alg with
            | Checkpoint.Alg1 ->
                ignore (resolve_names tbl [ n ] ~what);
                Hashtbl.replace undecided (1, n) ()
            | Checkpoint.Alg2 ->
                Option.iter
                  (fun key -> Hashtbl.replace undecided key ())
                  (parse_pair_entry n))
          ck.Checkpoint.ck_unknown;
        (ck.Checkpoint.ck_k, frames))
      resume
  in
  {
    alg;
    o;
    spec;
    t0;
    config_hash;
    resume;
    resumed;
    reg_mu = Mutex.create ();
    engines = [];
    unknowns =
      (match resume with
      | Some ck -> List.rev ck.Checkpoint.ck_unknown
      | None -> []);
    undecided;
    steps = [];
    cex_validated = None;
    costliest;
    handover = None;
  }

let resumed ctx = ctx.resumed
let costliest ctx = ctx.costliest

let stopped ctx =
  match ctx.o.Options.should_stop with Some f -> f () | None -> false

(* ---- engines ---- *)

(* Shared two-instance session setup. The cooperative cancellation hook
   comes from [should_stop], polled from inside every solve. [portfolio]
   is explicit because witness re-derivation always runs sequentially. *)
let setup_engine ctx ~portfolio ~k =
  let o = ctx.o and spec = ctx.spec in
  let eng =
    Ipc.Engine.create ?solver_options:o.Options.solver_options ~portfolio
      ~certify:o.Options.certify ~cert_jobs:o.Options.cert_jobs
      ~simp:o.Options.simp ~two_instance:true (netlist ctx)
  in
  Mutex.protect ctx.reg_mu (fun () -> ctx.engines <- eng :: ctx.engines);
  Ipc.Engine.set_interrupt eng o.Options.should_stop;
  Ipc.Engine.ensure_frames eng k;
  if ctx.alg = Checkpoint.Alg2 && o.Options.reset_start then
    Macros.assume_reset_state eng spec;
  Macros.assume_env eng spec ~frames:k;
  for f = 0 to k do
    Macros.frame_constraints eng spec ~frame:f
  done;
  eng

let engine ctx ~k = setup_engine ctx ~portfolio:ctx.o.Options.portfolio ~k

(* ---- decisions ---- *)

type 'a solved = {
  result : 'a;
  stats : S.stats;
  winner : int option;
  losers : S.stats;
}

let solved eng result =
  {
    result;
    stats = Ipc.Engine.last_stats eng;
    winner = Ipc.Engine.last_winner eng;
    losers = Ipc.Engine.last_losers_stats eng;
  }

(* [d] with [w]'s work added before it: stats and losers sum, the later
   portfolio winner stands *)
let add_work w d =
  {
    d with
    stats = S.add_stats w.stats d.stats;
    winner = (match d.winner with Some _ -> d.winner | None -> w.winner);
    losers = S.add_stats w.losers d.losers;
  }

let no_work =
  { result = (); stats = S.zero_stats; winner = None; losers = S.zero_stats }

(* Escalating-budget retry around one engine decision: attempt 0 runs
   under [budget]; every budget-exhausted Unknown is retried with the
   limits scaled by [budget_escalation], at most [budget_retries] extra
   times. An interrupt is a control transfer, not exhaustion — never
   retried. The work reported is that of every attempt. A [cap] below
   the budget's conflict limit at attempt 0 replaces that limit in
   every attempt, and the bool next to the verdict says the cap stopped
   the solve, which is then not retried; a cap at or above the budget's
   limit is ignored, so the budget keeps its retries. *)
let with_retries ?cap (o : Options.t) eng (solve : unit -> Ipc.Engine.verdict)
    =
  let budget = o.Options.budget in
  let cap =
    match cap with
    | Some c when budget.S.max_conflicts < 0 || c < budget.S.max_conflicts ->
        Some c
    | _ -> None
  in
  let rec attempt n b work =
    Ipc.Engine.set_budget eng
      (match cap with Some c -> { b with S.max_conflicts = c } | None -> b);
    let v = solve () in
    let work = add_work work (solved eng ()) in
    match v with
    | Ipc.Engine.Unknown "conflict budget exhausted" when cap <> None ->
        ({ work with result = v }, true)
    | Ipc.Engine.Unknown reason
      when reason <> "interrupted" && n < o.Options.budget_retries ->
        attempt (n + 1) (S.scale_budget b o.Options.budget_escalation) work
    | _ -> ({ work with result = v }, false)
  in
  attempt 0 budget no_work

type check =
  | Holds
  | Cex of Ipc.Cex.t * (int * Svars.t) list
      (* a model, with the svars it shows diverging per cycle *)
  | Capped  (* stopped by the hand-over cap: the per-svar round takes over *)
  | Unknown of string

type decision = check solved

(* The hand-over cap of the default strategy. A run's first monolithic
   decision is uncapped, unless the run inherits the costliest decision
   of an unrolled phase; every later one is capped at [handover_factor]
   times the conflicts of the costliest decision so far, at least
   [handover_floor]. Monolithic refinement finds a witness in a few
   thousand conflicts, while a proof's last, inductive UNSAT check can
   take a hundred thousand, which the per-svar round decides in about
   half. A run that never reaches the cap is the plain monolithic run:
   a conflict limit changes the search only once it is exhausted. *)
let handover_floor = 4096
let handover_factor = 2

let decide ctx eng ~goals query =
  let cap =
    Option.map
      (fun c -> max handover_floor (handover_factor * c))
      ctx.costliest
  in
  let d, capped =
    with_retries ?cap ctx.o eng (fun () -> Ipc.Engine.decide eng query)
  in
  ctx.costliest <-
    Some (max d.stats.S.conflicts (Option.value ctx.costliest ~default:0));
  {
    d with
    result =
      (match d.result with
      | _ when capped -> Capped
      | Ipc.Engine.Proved -> Holds
      | Ipc.Engine.Refuted c ->
          let cex = Option.get c in
          Cex
            ( cex,
              List.map
                (fun (j, s) ->
                  (j, Macros.violations eng ctx.spec cex ~frame:j s))
                goals )
      | Ipc.Engine.Unknown reason -> Unknown reason);
  }

(* summed work of several decisions, on top of [init]; the last
   portfolio winner *)
let sum ?(init = no_work) results =
  let w =
    List.fold_left (fun w r -> add_work w { r with result = () }) init results
  in
  (w.stats, w.winner, w.losers)

(* ---- witnesses ---- *)

(* A witness is replayed through the standalone simulator when the run
   is certified (a rejected replay withholds the verdict) or when its
   waveforms are to be dumped. *)
let validate_cex ctx ~claimed ~s_cex cex =
  let o = ctx.o in
  let ok =
    if o.Options.certify || o.Options.cex_vcd <> None then begin
      let v =
        Certval.validate ?vcd_prefix:o.Options.cex_vcd ~claimed (netlist ctx)
          cex
      in
      if o.Options.certify then ctx.cex_validated <- Some v.Certval.v_ok;
      v.Certval.v_ok || not o.Options.certify
    end
    else true
  in
  if ok then Report.Vulnerable { s_cex; cex }
  else Report.Inconclusive "counterexample rejected by simulator validation"

type obligation = int * Structural.svar

type frontier = {
  k : int;
  s0 : Svars.t;
  goals : (int * Svars.t) list;
}

(* Deterministic counterexample for a per-svar hit: a worker's engine
   has solved a schedule-dependent sequence of obligations, so its model
   is not reproducible. Re-derive the witness on a fresh sequential
   engine for one fixed obligation, without a budget — only an
   interrupt can stop it, surfacing as a missing witness. *)
let extract_cex ctx fr (j, sv) =
  let eng = setup_engine ctx ~portfolio:1 ~k:fr.k in
  Macros.state_equivalence_assume eng ctx.spec ~frame:0 fr.s0;
  match
    Ipc.Engine.decide eng
      (Ipc.Engine.Violation
         [ Aig.lit_not (Macros.sv_condition eng ctx.spec ~frame:j sv) ])
  with
  | Ipc.Engine.Refuted c -> c
  | Ipc.Engine.Proved | Ipc.Engine.Unknown _ -> None

(* ---- report ---- *)

let merge_simp a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Simp.merge_reduction a b)

(* [record] is the single funnel of every strategy, so the
   per-iteration span lives here as a manual (non-lexical) span from
   the iteration's start. *)
let record ctx ~iter fr ~it0 ~s_cex ~pers_hit ~unknown (stats, winner, losers)
    =
  let t1 = Unix.gettimeofday () in
  let s_size = Svars.cardinal (List.assoc fr.k fr.goals) in
  if Obs.Trace.enabled () then
    Obs.Trace.emit_span
      (match ctx.alg with
      | Checkpoint.Alg1 -> "alg1.iter"
      | Checkpoint.Alg2 -> "alg2.iter")
      ~t0:it0 ~t1
      ~attrs:
        [
          ("iter", Obs.Trace.Int iter);
          ("k", Obs.Trace.Int fr.k);
          ("s_size", Obs.Trace.Int s_size);
          ("cex_size", Obs.Trace.Int (Svars.cardinal s_cex));
        ];
  ctx.steps <-
    {
      Report.st_iter = iter;
      st_k = fr.k;
      st_s_size = s_size;
      st_cex = s_cex;
      st_pers_hit = pers_hit;
      st_unknown = unknown;
      st_seconds = t1 -. it0;
      st_stats = Some stats;
      st_winner = winner;
      st_losers = Some losers;
    }
    :: ctx.steps

(* Budget-degraded obligations of a batch join [undecided]. Interrupts
   are excluded: an interrupted iteration is discarded wholesale, never
   recorded as degradation (that would make resume schedule-dependent). *)
let note_unknowns ctx results =
  List.fold_left
    (fun acc r ->
      match r.result with
      | ((j, sv), Ipc.Engine.Unknown reason) when reason <> "interrupted" ->
          Hashtbl.replace ctx.undecided (j, Structural.svar_name sv) ();
          let e = (entry ctx.alg (j, sv), reason) in
          if not (List.mem e ctx.unknowns) then
            ctx.unknowns <- e :: ctx.unknowns;
          Svars.add sv acc
      | _ -> acc)
    Svars.empty results

let finish ctx verdict =
  let nl = netlist ctx in
  let unknowns = List.rev ctx.unknowns in
  (* the fixed point assumed equality of every undecided obligation
     without proving it, so a Secure claim is contaminated by any
     Unknown — degrade. A Vulnerable verdict rests on a concrete
     validated witness (extra equality assumptions only restrict the
     start space, never invent traces) and stands. *)
  let verdict =
    match verdict with
    | Report.Secure _ when unknowns <> [] ->
        let what, names =
          match ctx.alg with
          | Checkpoint.Alg1 ->
              ("state var(s)", List.sort_uniq compare (List.map fst unknowns))
          | Checkpoint.Alg2 ->
              ("(cycle, state var) pair(s)", List.map fst unknowns)
        in
        Report.Inconclusive
          (Printf.sprintf "budget exhausted on %d %s: %s" (List.length names)
             what
             (String.concat ", " names))
    | v -> v
  in
  let o = ctx.o in
  {
    Report.procedure = procedure ctx;
    variant = ctx.spec.Spec.variant;
    verdict;
    steps = List.rev ctx.steps;
    total_seconds = Unix.gettimeofday () -. ctx.t0;
    state_bits = Netlist.state_bits nl;
    svar_count = Svars.cardinal (Structural.all_svars nl);
    cert =
      (if o.Options.certify then
         Some
           {
             Report.ct_totals =
               List.fold_left
                 (fun acc e ->
                   Cert.Proof.add_totals acc (Ipc.Engine.cert_totals e))
                 Cert.Proof.zero_totals ctx.engines;
             ct_cex_validated = ctx.cex_validated;
           }
       else None);
    unknowns;
    resumed_from =
      Option.map (fun ck -> ck.Checkpoint.ck_iter) ctx.resume;
    metrics = Some (Obs.Metrics.snapshot ());
    options = o;
    simp =
      List.fold_left
        (fun acc e -> merge_simp acc (Ipc.Engine.reduction_stats e))
        None ctx.engines;
    cache = None;
    extra = [];
  }

let concluded ?unrolled (induction : Report.run) =
  let procedure = "UPEC-SSC-unrolled + induction" in
  match unrolled with
  | None -> { induction with Report.procedure }
  | Some (u : Report.run) ->
      {
        induction with
        Report.procedure;
        steps = u.Report.steps @ induction.Report.steps;
        total_seconds =
          u.Report.total_seconds +. induction.Report.total_seconds;
        cert = Report.merge_cert u.Report.cert induction.Report.cert;
        unknowns = u.Report.unknowns @ induction.Report.unknowns;
        resumed_from = u.Report.resumed_from;
        simp = merge_simp u.Report.simp induction.Report.simp;
      }

let save ctx ~next_iter (k, frames) =
  match ctx.o.Options.checkpoint_file with
  | None -> ()
  | Some path ->
      Checkpoint.save path
        {
          Checkpoint.ck_alg = ctx.alg;
          ck_variant = Spec.variant_tag ctx.spec.Spec.variant;
          ck_config_hash = Lazy.force ctx.config_hash;
          ck_iter = next_iter;
          ck_k = k;
          ck_frames =
            Array.map
              (fun s -> List.map Structural.svar_name (Svars.elements s))
              frames;
          ck_unknown = List.rev ctx.unknowns;
        }

(* ---- the refinement loop ---- *)

type 'st step = Next of 'st | Stop of Report.verdict

type lemmas = {
  lookup : obligation -> bool option;
  store : obligation -> holds:bool -> unit;
}

type ('st, 'w) property = {
  frontier : 'st -> frontier;
  holds : 'st -> 'st step;
  refine : 'st -> (int * Svars.t) list -> 'st;
  save : 'st -> int * Svars.t array;
  monolithic : unit -> ('st -> decision) * (k:int -> 'w);
  worker : k:int -> 'w;
  query : 'st -> 'w -> obligation -> Ipc.Engine.t * Aig.lit list;
  lemmas : 'st -> lemmas option;
}

let union per_frame =
  List.fold_left (fun acc (_, v) -> Svars.union acc v) Svars.empty per_frame

let interrupted = Stop (Report.Inconclusive "interrupted")

(* One check of the whole frontier. A monolithic check cannot attribute
   exhaustion to one svar: Unknown ends the run inconclusive. A check
   the hand-over cap stopped goes to [handover] with its start time. *)
let monolithic_round ctx p check ~handover ~iter st =
  let it0 = Unix.gettimeofday () in
  let fr = p.frontier st in
  let d = check st in
  match d.result with
  | Capped -> handover (it0, d)
  | Unknown reason ->
      Stop
        (Report.Inconclusive
           (if stopped ctx || reason = "interrupted" then "interrupted"
            else "undecided within budget: " ^ reason))
  | Holds ->
      record ctx ~iter fr ~it0 ~s_cex:Svars.empty ~pers_hit:Svars.empty
        ~unknown:Svars.empty (sum [ d ]);
      p.holds st
  | Cex (cex, per_frame) ->
      if stopped ctx then interrupted
      else begin
        let s_cex = union per_frame in
        let pers_hit = Svars.filter (Spec.is_pers ctx.spec) s_cex in
        record ctx ~iter fr ~it0 ~s_cex ~pers_hit ~unknown:Svars.empty
          (sum [ d ]);
        if Svars.is_empty s_cex then
          Stop
            (Report.Inconclusive
               "counterexample without S_cex (spurious model)")
        else if not (Svars.is_empty pers_hit) then
          Stop (validate_cex ctx ~claimed:s_cex ~s_cex cex)
        else Next (p.refine st per_frame)
      end

(* --- per-svar decomposition (the parallel strategy) ------------------

   Instead of one monolithic check whose S_cex is whatever happens to
   differ in the solver's model, decide for every obligation (j, sv)
   independently whether sv *can* differ at cycle j. Each answer is a
   semantic fact about the formula, so S_cex — and with it the whole
   refinement trace — is identical for every job count and schedule.

   Persistent svars are checked first: any satisfiable one proves the
   design vulnerable and ends the run without touching the rest. A
   hand-over round starts at the capped monolithic [probe] it takes
   over from, whose time and work it reports. *)
let per_svar_round ctx p decide_batch ?probe ~iter st =
  let it0, init =
    match probe with
    | Some (it0, d) -> (it0, { d with result = () })
    | None -> (Unix.gettimeofday (), no_work)
  in
  let fr = p.frontier st in
  let is_pers = Spec.is_pers ctx.spec in
  let obligations wanted =
    List.concat_map
      (fun (j, s) ->
        List.filter_map
          (fun sv ->
            if
              wanted sv
              && not (Hashtbl.mem ctx.undecided (j, Structural.svar_name sv))
            then Some (j, sv)
            else None)
          (Svars.elements s))
      fr.goals
  in
  let refuted results =
    List.filter_map
      (fun r ->
        match r.result with
        | ob, Ipc.Engine.Refuted _ -> Some ob
        | _, (Ipc.Engine.Proved | Ipc.Engine.Unknown _) -> None)
      results
  in
  let svars obs = Svars.of_list (List.map snd obs) in
  let pers = decide_batch st fr (obligations is_pers) in
  if stopped ctx then interrupted
  else
    match refuted pers with
    | _ :: _ as pers_sat -> (
        (* Vulnerable: no need to classify the remaining svars. Another
           svar's Unknown cannot retract a concrete SAT. *)
        let pers_hit = svars pers_sat in
        let unknown = note_unknowns ctx pers in
        record ctx ~iter fr ~it0 ~s_cex:pers_hit ~pers_hit ~unknown
          (sum ~init pers);
        (* deterministic witness: smallest cycle, then svar order *)
        let witness =
          List.fold_left
            (fun ((j, sv) as best) ((j', sv') as ob) ->
              if j' < j || (j' = j && Structural.compare_svar sv' sv < 0) then
                ob
              else best)
            (List.hd pers_sat) pers_sat
        in
        match extract_cex ctx fr witness with
        | Some cex ->
            Stop
              (validate_cex ctx
                 ~claimed:(Svars.singleton (snd witness))
                 ~s_cex:pers_hit cex)
        | None ->
            if stopped ctx then interrupted
            else
              Stop
                (Report.Inconclusive
                   "per-svar SAT not reproducible on a fresh engine"))
    | [] ->
        let rest =
          decide_batch st fr (obligations (fun sv -> not (is_pers sv)))
        in
        if stopped ctx then interrupted
        else begin
          let sat = refuted rest in
          let per_frame =
            List.map
              (fun (j, _) ->
                (j, svars (List.filter (fun (j', _) -> j' = j) sat)))
              fr.goals
          in
          let s_cex = union per_frame in
          (* Alg. 2 has always listed the second batch's degradations
             first; the order shows in reports and checkpoints *)
          let unknown =
            note_unknowns ctx
              (match ctx.alg with
              | Checkpoint.Alg1 -> pers @ rest
              | Checkpoint.Alg2 -> rest @ pers)
          in
          record ctx ~iter fr ~it0 ~s_cex ~pers_hit:Svars.empty ~unknown
            (sum ~init (pers @ rest));
          (* every goal still being decided held: a fixed point, whose
             Secure claim [finish] degrades if anything stayed undecided *)
          if Svars.is_empty s_cex then p.holds st
          else Next (p.refine st per_frame)
        end

(* Obligations go to a pool with one lazily built [worker] per domain,
   rebuilt when the unroll depth grows. Cached obligations are answered
   before the pool sees them and fresh results are offered back; the
   merged batch keeps the obligation order, so the rest of the round
   cannot tell the difference (a cached SAT carries no model — witness
   extraction always re-solves on a fresh engine). *)
let per_svar_batches ctx p ~worker pool =
  let workers = Array.make (Parallel.Pool.jobs pool) None in
  let worker k wid =
    match workers.(wid) with
    | Some (k', w) when k' = k -> w
    | _ ->
        let w = worker ~k in
        workers.(wid) <- Some (k, w);
        w
  in
  let solve st fr obs =
    Parallel.Pool.map_wid pool
      (fun wid ((j, sv) as ob) ->
        let w = worker fr.k wid in
        Obs.Trace.with_span
          (match ctx.alg with
          | Checkpoint.Alg1 -> "alg1.svar"
          | Checkpoint.Alg2 -> "alg2.pair")
          ~attrs:
            [
              ("svar", Obs.Trace.Str (Structural.svar_name sv));
              ("frame", Obs.Trace.Int j);
            ]
        @@ fun () ->
        let eng, assumptions = p.query st w ob in
        (* no cap here: the bool is always false *)
        let d, _ =
          with_retries ctx.o eng (fun () ->
              Ipc.Engine.decide ~cex:false eng
                (Ipc.Engine.Violation assumptions))
        in
        { d with result = (ob, d.result) })
      obs
  in
  fun st fr obs ->
    let lemmas = p.lemmas st in
    let looked =
      List.map (fun ob -> (ob, Option.bind lemmas (fun l -> l.lookup ob))) obs
    in
    let fresh =
      solve st fr
        (List.filter_map
           (fun (ob, cached) -> if cached = None then Some ob else None)
           looked)
    in
    Option.iter
      (fun l ->
        List.iter
          (fun r ->
            match r.result with
            | ob, Ipc.Engine.Proved -> l.store ob ~holds:true
            | ob, Ipc.Engine.Refuted _ -> l.store ob ~holds:false
            | _, Ipc.Engine.Unknown _ -> ())
          fresh)
      lemmas;
    let rec merge looked fresh =
      match (looked, fresh) with
      | (ob, Some holds) :: looked, _ ->
          {
            result =
              (ob, if holds then Ipc.Engine.Proved else Ipc.Engine.Refuted None);
            stats = S.zero_stats;
            winner = None;
            losers = S.zero_stats;
          }
          :: merge looked fresh
      | (_, None) :: looked, r :: fresh -> r :: merge looked fresh
      | _ -> []
    in
    merge looked fresh

let run ctx p st0 =
  let iterate round =
    let rec loop iter st =
      if iter > ctx.o.Options.max_iterations then
        finish ctx (Report.Inconclusive "iteration budget exhausted")
      else
        match round ~iter st with
        | Stop verdict -> finish ctx verdict
        | Next st ->
            save ctx ~next_iter:(iter + 1) (p.save st);
            loop (iter + 1) st
    in
    loop
      (match ctx.resume with Some ck -> ck.Checkpoint.ck_iter | None -> 1)
      st0
  in
  match ctx.o.Options.jobs with
  | Some j ->
      Parallel.Pool.with_pool ~jobs:(max 1 j) (fun pool ->
          let batches = per_svar_batches ctx p ~worker:p.worker pool in
          iterate (fun ~iter st -> per_svar_round ctx p batches ~iter st))
  | None ->
      (* monolithic until the hand-over cap stops a check (see
         [handover_floor]), then per-svar on one worker for that
         iteration and every later one *)
      Parallel.Pool.with_pool ~jobs:1 (fun pool ->
          let check, worker = p.monolithic () in
          let per_svar =
            per_svar_round ctx p (per_svar_batches ctx p ~worker pool)
          in
          iterate (fun ~iter st ->
              match ctx.handover with
              | Some _ -> per_svar ~iter st
              | None ->
                  monolithic_round ctx p check ~iter st ~handover:(fun probe ->
                      ctx.handover <- Some iter;
                      per_svar ~probe ~iter st)))
