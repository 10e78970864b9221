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
  (* engine registry: workers create and retire engines inside pool
     domains, so the list is mutex-protected. A retired engine's
     certification and reduction accounting lives on in [retired]; the
     report retires every engine left. *)
  reg_mu : Mutex.t;
  mutable engines : Ipc.Engine.t list;
  mutable retired : Cert.Proof.totals * Simp.reduction option;
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
}

let netlist ctx = ctx.spec.Spec.soc.Soc.Builder.netlist

(* ---- per-algorithm names ---- *)

let caller = function
  | Checkpoint.Alg1 -> "Alg1.run_with"
  | Checkpoint.Alg2 -> "Alg2.run_with"

let procedure ctx =
  match ctx.alg with
  | Checkpoint.Alg1 -> "UPEC-SSC (Alg. 1, per-svar)"
  | Checkpoint.Alg2 when ctx.o.Options.reset_start ->
      "BMC-from-reset (Alg. 2 property, per-svar)"
  | Checkpoint.Alg2 -> "UPEC-SSC-unrolled (Alg. 2, per-svar)"

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

let create alg ?resume (o : Options.t) spec =
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
    retired = (Cert.Proof.zero_totals, None);
    unknowns =
      (match resume with
      | Some ck -> List.rev ck.Checkpoint.ck_unknown
      | None -> []);
    undecided;
    steps = [];
    cex_validated = None;
  }

let resumed ctx = ctx.resumed

let stopped ctx =
  match ctx.o.Options.should_stop with Some f -> f () | None -> false

(* ---- engines ---- *)

(* Shared two-instance session setup. The cooperative cancellation hook
   comes from [should_stop], polled from inside every solve. With
   [share], instance B's cycle-0 state of every svar of that set without
   a victim-cell guard is A's own ({!Macros.cycle0_shared}). *)
let engine ?share ctx ~k =
  let o = ctx.o and spec = ctx.spec in
  let share = Option.map (Macros.cycle0_shared spec) share in
  let eng =
    Ipc.Engine.create ?solver_options:o.Options.solver_options
      ~portfolio:o.Options.portfolio ~certify:o.Options.certify
      ~simp:o.Options.simp ?share ~two_instance:true (netlist ctx)
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

let merge_simp a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (Simp.merge_reduction a b)

(* Drop an engine from the registry, folding its certification and
   reduction accounting into the run's. *)
let retire ctx eng =
  let simp = Ipc.Engine.reduction_stats eng in
  Mutex.protect ctx.reg_mu (fun () ->
      let cert, simp0 = ctx.retired in
      ctx.engines <- List.filter (fun e -> e != eng) ctx.engines;
      ctx.retired <-
        ( Cert.Proof.add_totals cert (Ipc.Engine.cert_totals eng),
          merge_simp simp0 simp ))

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
   retried. The work reported is that of every attempt. *)
let with_retries (o : Options.t) eng (solve : unit -> Ipc.Engine.verdict) =
  let rec attempt n b work =
    Ipc.Engine.set_budget eng b;
    let v = solve () in
    let work = add_work work (solved eng ()) in
    match v with
    | Ipc.Engine.Unknown reason
      when reason <> "interrupted" && n < o.Options.budget_retries ->
        attempt (n + 1) (S.scale_budget b o.Options.budget_escalation) work
    | _ -> { work with result = v }
  in
  attempt 0 o.Options.budget no_work

(* summed work of several decisions; the last portfolio winner *)
let sum results =
  let w =
    List.fold_left
      (fun w r -> add_work w { r with result = () })
      no_work results
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

(* ---- report ---- *)

let s_size fr = Svars.cardinal (List.assoc fr.k fr.goals)

(* [record] is the single funnel of every round: it reports the
   iteration's S_cex as an instant event inside the iteration's span
   (see [run]). *)
let record ctx ~iter fr ~it0 ~s_cex ~pers_hit ~unknown (stats, winner, losers)
    =
  let t1 = Unix.gettimeofday () in
  Obs.Trace.event
    (match ctx.alg with
    | Checkpoint.Alg1 -> "alg1.cex"
    | Checkpoint.Alg2 -> "alg2.cex")
    ~attrs:
      [
        ("iter", Obs.Trace.Int iter);
        ("cex_size", Obs.Trace.Int (Svars.cardinal s_cex));
      ];
  ctx.steps <-
    {
      Report.st_iter = iter;
      st_k = fr.k;
      st_s_size = s_size fr;
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
  List.iter (retire ctx) ctx.engines;
  let cert, simp = ctx.retired in
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
         Some { Report.ct_totals = cert; ct_cex_validated = ctx.cex_validated }
       else None);
    unknowns;
    resumed_from =
      Option.map (fun ck -> ck.Checkpoint.ck_iter) ctx.resume;
    metrics = Some (Obs.Metrics.snapshot ());
    options = o;
    simp;
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

type 'st property = {
  frontier : 'st -> frontier;
  holds : 'st -> 'st step;
  refine : 'st -> (int * Svars.t) list -> 'st;
  save : 'st -> int * Svars.t array;
  worker : frontier -> Ipc.Engine.t * (obligation -> Aig.lit list);
  lemmas : 'st -> lemmas option;
}

let union per_frame =
  List.fold_left (fun acc (_, v) -> Svars.union acc v) Svars.empty per_frame

let interrupted = Stop (Report.Inconclusive "interrupted")


(* --- the per-svar round ----------------------------------------------

   Instead of one check whose S_cex is whatever happens to differ in one
   model, decide for every obligation (j, sv) independently whether sv
   *can* differ at cycle j. Each answer is a semantic fact about the
   formula, so S_cex — and with it the whole refinement trace — is
   identical for every job count and schedule.

   Persistent obligations come first, on the pool in obligation order:
   the first one refuted proves the design vulnerable and ends the
   round, with a witness for it alone. Otherwise the non-persistent
   obligations go to the pool, and S_cex is every one refuted. *)

(* A round's worker: an engine built for the round's frontier, the
   assumption literals of each obligation, and the obligations decided
   on its own solver, latest first (a race leaves that solver as it
   was). *)
type worker = {
  eng : Ipc.Engine.t;
  query : obligation -> Aig.lit list;
  mutable history : obligation list;
}

let same_obligation (j, sv) (j', sv') =
  j = j' && Structural.compare_svar sv sv' = 0

(* One obligation decided witness-free on [w] under the budget. *)
let decide ctx ?(sequential = false) w ((j, sv) as ob) =
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
  let d =
    with_retries ctx.o w.eng (fun () ->
        Ipc.Engine.decide ~cex:false ~sequential w.eng
          (Ipc.Engine.Violation (w.query ob)))
  in
  if sequential || ctx.o.Options.portfolio <= 1 then
    w.history <- ob :: w.history;
  { d with result = (ob, d.result) }

(* The witness of a refuted persistent obligation [ob], [before] being
   the round's persistent obligations ahead of it: [ob] re-decided with
   a model, without a budget, on a solver whose history is the one
   worker 0 has in a sequential run without a lemma cache — [before],
   then [ob], decided witness-free in order. It is the solver of the
   first round worker whose history is a prefix of that (in such a run,
   worker 0's whole history; a racing worker's solver has none), which
   replays the rest; if no worker's is (a lemma answered an obligation
   of [before], or several workers shared them), a [fresh] worker
   replays it all. So the witness is the same for every job
   count, portfolio and cache, whatever the solver's phase policy.
   Returns the replayed decisions and the witness solve. *)
let witness ctx ~fresh workers before ob =
  let rec rest decided want =
    match (decided, want) with
    | [], want -> Some want
    | d :: decided, o :: want when same_obligation d o -> rest decided want
    | _ -> None
  in
  let canonical = before @ [ ob ] in
  let w, replay =
    match
      List.find_map
        (fun w ->
          Option.map (fun r -> (w, r)) (rest (List.rev w.history) canonical))
        workers
    with
    | Some wr -> wr
    | None -> (fresh (), canonical)
  in
  let replayed = List.map (decide ctx ~sequential:true w) replay in
  Ipc.Engine.set_budget w.eng S.no_budget;
  let v =
    Ipc.Engine.decide ~sequential:true w.eng
      (Ipc.Engine.Violation (w.query ob))
  in
  (replayed, solved w.eng v)

let round ctx p pool ~iter st =
  let it0 = Unix.gettimeofday () in
  let fr = p.frontier st in
  let lemmas = p.lemmas st in
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
  (* the round's workers, one per pool domain, each built on first use
     for the round's unroll depth and cycle-0 set and pre-encoded, so
     its CNF is the same with problem reduction on or off *)
  let build () =
    let eng, query = p.worker fr in
    Ipc.Engine.pre_encode eng;
    { eng; query; history = [] }
  in
  let workers = Array.make (Parallel.Pool.jobs pool) None in
  let worker wid =
    match workers.(wid) with
    | Some w -> w
    | None ->
        let w = build () in
        workers.(wid) <- Some w;
        w
  in
  (* the worker a witness builds when no round worker's history fits *)
  let spare = ref None in
  let fresh_worker () =
    let w = build () in
    spare := Some w;
    w
  in
  (* a lemma answers an obligation before any worker sees it, and every
     fresh answer is offered back; Unknowns never are *)
  let lookup ob = Option.bind lemmas (fun l -> l.lookup ob) in
  let cached ob holds =
    {
      no_work with
      result =
        (ob, if holds then Ipc.Engine.Proved else Ipc.Engine.Refuted None);
    }
  in
  let store r =
    Option.iter
      (fun l ->
        match r.result with
        | ob, Ipc.Engine.Proved -> l.store ob ~holds:true
        | ob, Ipc.Engine.Refuted _ -> l.store ob ~holds:false
        | _, Ipc.Engine.Unknown _ -> ())
      lemmas
  in
  (* The persistent obligations on the pool, in obligation order, each
     looked up in the lemmas first (one lookup at a time). [first] is the
     lowest index refuted so far, never below the first refuted
     obligation's, and an obligation past it is skipped, so every
     obligation up to the first refuted one is answered and, with one
     worker, none after it is looked up. Returns those answers, the
     first refuted obligation, and the work of every decision. *)
  let persistent () =
    let obs = List.mapi (fun i ob -> (i, ob)) (obligations is_pers) in
    let first = Atomic.make max_int in
    let rec lower i =
      let f = Atomic.get first in
      if i < f && not (Atomic.compare_and_set first f i) then lower i
    in
    let lookup_mu = Mutex.create () in
    let answered =
      Parallel.Pool.map_wid pool
        (fun wid (i, ob) ->
          if i > Atomic.get first || stopped ctx then None
          else begin
            let r, fresh =
              match Mutex.protect lookup_mu (fun () -> lookup ob) with
              | Some holds -> (cached ob holds, false)
              | None -> (decide ctx (worker wid) ob, true)
            in
            (match r.result with
            | _, Ipc.Engine.Refuted _ -> lower i
            | _, (Ipc.Engine.Proved | Ipc.Engine.Unknown _) -> ());
            Some (i, r, fresh)
          end)
        obs
      |> List.filter_map Fun.id
    in
    let h = Atomic.get first in
    let answers = List.filter (fun (i, _, _) -> i <= h) answered in
    List.iter (fun (_, r, fresh) -> if fresh then store r) answers;
    ( List.map (fun (_, r, _) -> r) answers,
      List.assoc_opt h obs,
      List.map (fun (_, r, _) -> r) answered )
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
  let outcome =
    let pers, hit, work = persistent () in
    if stopped ctx then interrupted
    else
      match hit with
      | Some ((_, sv) as ob) -> (
          (* Vulnerable: no need to classify the remaining svars. Another
             svar's Unknown cannot retract a concrete SAT. *)
          let pers_hit = Svars.singleton sv in
          let unknown = note_unknowns ctx pers in
          let before =
            List.filter
              (fun o -> not (same_obligation o ob))
              (List.map (fun r -> fst r.result) pers)
          in
          let replayed, w =
            witness ctx ~fresh:fresh_worker
              (List.filter_map Fun.id (Array.to_list workers))
              before ob
          in
          record ctx ~iter fr ~it0 ~s_cex:pers_hit ~pers_hit ~unknown
            (sum (work @ replayed @ [ { w with result = (ob, w.result) } ]));
          match w.result with
          | Ipc.Engine.Refuted (Some cex) ->
              Stop (validate_cex ctx ~claimed:pers_hit ~s_cex:pers_hit cex)
          | _ when stopped ctx -> interrupted
          | _ ->
              Stop
                (Report.Inconclusive
                   "per-svar SAT not reproducible on its worker"))
      | None ->
          let looked =
            List.map
              (fun ob -> (ob, lookup ob))
              (obligations (fun sv -> not (is_pers sv)))
          in
          let fresh =
            Parallel.Pool.map_wid pool
              (fun wid ob -> decide ctx (worker wid) ob)
              (List.filter_map
                 (fun (ob, c) -> if c = None then Some ob else None)
                 looked)
          in
          List.iter store fresh;
          (* the cached and fresh answers in obligation order *)
          let rec merge looked fresh =
            match (looked, fresh) with
            | (ob, Some holds) :: looked, _ ->
                cached ob holds :: merge looked fresh
            | (_, None) :: looked, r :: fresh -> r :: merge looked fresh
            | _ -> []
          in
          let rest = merge looked fresh in
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
              (sum (pers @ rest));
            (* every goal still being decided held: a fixed point, whose
               Secure claim [finish] degrades if anything stayed undecided *)
            if Svars.is_empty s_cex then p.holds st
            else Next (p.refine st per_frame)
          end
  in
  (* no reference to a finished round's workers survives it *)
  Array.iter (Option.iter (fun w -> retire ctx w.eng)) workers;
  Option.iter (fun w -> retire ctx w.eng) !spare;
  outcome

let run ctx p st0 =
  (* every iteration's work nests in one span *)
  let span ~iter st f =
    let fr = p.frontier st in
    Obs.Trace.with_span
      (match ctx.alg with
      | Checkpoint.Alg1 -> "alg1.iter"
      | Checkpoint.Alg2 -> "alg2.iter")
      ~attrs:
        [
          ("iter", Obs.Trace.Int iter);
          ("k", Obs.Trace.Int fr.k);
          ("s_size", Obs.Trace.Int (s_size fr));
        ]
      f
  in
  Parallel.Pool.with_pool ~jobs:(max 1 ctx.o.Options.jobs) (fun pool ->
      let rec loop iter st =
        if iter > ctx.o.Options.max_iterations then
          finish ctx (Report.Inconclusive "iteration budget exhausted")
        else
          match span ~iter st (fun () -> round ctx p pool ~iter st) with
          | Stop verdict -> finish ctx verdict
          | Next st ->
              save ctx ~next_iter:(iter + 1) (p.save st);
              loop (iter + 1) st
      in
      loop
        (match ctx.resume with Some ck -> ck.Checkpoint.ck_iter | None -> 1)
        st0)
