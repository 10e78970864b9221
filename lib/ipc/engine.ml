module S = Satsolver.Solver
module L = Satsolver.Lit

exception Certification_failed of string

type t = {
  g : Aig.t;
  u : Unroller.t;
  solver : S.t;
  cnf : Aig.Cnf.ctx;
  portfolio : int;  (* configs raced per solve; <= 1 means sequential *)
  configs : S.options list option;
  certify : bool;
  session : Cert.Pipeline.t option;  (* certified: mirrors [solver] *)
  simp : bool;  (* problem reduction for witness-free races *)
  mutable assumed : Aig.lit list;  (* permanent assumptions, reversed *)
  mutable implications : (Aig.lit * Aig.lit) list;  (* reversed *)
  mutable pre_encoded : int;  (* high-water mark: frames <= this are done *)
  mutable params_encoded : bool;
  mutable last_stats : S.stats;
  mutable last_winner_ : int option;
  mutable last_losers_ : S.stats;
  mutable cert_tot : Cert.Proof.totals;
  mutable budget : S.budget;  (* applies to every subsequent solve *)
  mutable interrupt : (unit -> bool) option;  (* cooperative cancellation *)
  mutable red_solves : int;  (* races run on a reduced problem *)
  mutable red_snapshot : (int * int) option;  (* last reduced (vars, clauses) *)
  mutable red_report : Simp.reduction option;  (* finalised accounting *)
}

let create ?solver_options ?(portfolio = 1) ?portfolio_configs
    ?(certify = false) ?(simp = true) ?share ~two_instance nl =
  let g = Aig.create () in
  let u = Unroller.create ?share g nl ~two_instance in
  let solver = S.create ?options:solver_options () in
  (* A certified engine's checker sees every clause its own solver
     does, from the constant-true unit [Aig.Cnf.create] adds on *)
  let session =
    if certify then Some (Parallel.Portfolio.session solver) else None
  in
  let cnf = Aig.Cnf.create g solver in
  {
    g;
    u;
    solver;
    cnf;
    portfolio;
    configs = portfolio_configs;
    certify;
    session;
    simp;
    assumed = [];
    implications = [];
    pre_encoded = -1;
    params_encoded = false;
    last_stats = S.zero_stats;
    last_winner_ = None;
    last_losers_ = S.zero_stats;
    cert_tot = Cert.Proof.zero_totals;
    budget = S.no_budget;
    interrupt = None;
    red_solves = 0;
    red_snapshot = None;
    red_report = None;
  }

let set_budget t b = t.budget <- b
let budget t = t.budget
let set_interrupt t f = t.interrupt <- f

let unroller t = t.u
let graph t = t.g
let ensure_frames t k = Unroller.ensure_frames t.u k

let assume t l =
  t.assumed <- l :: t.assumed;
  Aig.Cnf.assert_lit t.cnf l

let assume_implication t a b =
  t.implications <- (a, b) :: t.implications;
  Aig.Cnf.assert_implies t.cnf a b

(* Pre-encode every extractable variable so model extraction never
   consults a SAT variable allocated after solving. Incremental: the set
   of state variables and inputs at a materialised frame never changes,
   so frames at or below the high-water mark are skipped. *)
let h_pre_encode = Obs.Metrics.histogram "ipc.pre_encode_seconds"

let pre_encode_core t =
  let nl = Unroller.netlist t.u in
  let instances =
    if Unroller.two_instance t.u then [ Unroller.A; Unroller.B ]
    else [ Unroller.A ]
  in
  let svars = Rtl.Structural.all_svars nl in
  List.iter
    (fun inst ->
      for frame = t.pre_encoded + 1 to Unroller.frames t.u do
        Rtl.Structural.Svar_set.iter
          (fun sv ->
            Array.iter
              (fun l -> ignore (Aig.Cnf.sat_lit t.cnf l))
              (Unroller.svar_vec t.u inst ~frame sv))
          svars;
        List.iter
          (fun (s : Rtl.Expr.signal) ->
            Array.iter
              (fun l -> ignore (Aig.Cnf.sat_lit t.cnf l))
              (Unroller.input_vec t.u inst ~frame s))
          nl.Rtl.Netlist.inputs
      done)
    instances;
  t.pre_encoded <- Unroller.frames t.u;
  if not t.params_encoded then begin
    List.iter
      (fun (s : Rtl.Expr.signal) ->
        Array.iter
          (fun l -> ignore (Aig.Cnf.sat_lit t.cnf l))
          (Unroller.param_vec t.u s))
      nl.Rtl.Netlist.params;
    t.params_encoded <- true
  end

let pre_encode t =
  (* Only instrument when there is work to do: the common call is a
     no-op re-check on the hot path of every SAT query. *)
  if t.pre_encoded < Unroller.frames t.u || not t.params_encoded then
    Obs.Metrics.time h_pre_encode (fun () ->
        Obs.Trace.with_span "ipc.pre_encode"
          ~attrs:[ ("frames", Obs.Trace.Int (Unroller.frames t.u)) ]
          (fun () -> pre_encode_core t))

let sat_vars t = S.nvars t.solver


let account t tot = t.cert_tot <- Cert.Proof.add_totals t.cert_tot tot

(* Nothing to certify — but the gap in coverage is accounted, so a
   certification summary cannot silently overstate what it vouches for. *)
let account_unknown t ~solve_s =
  account t
    {
      Cert.Proof.zero_totals with
      Cert.Proof.unknown_skipped = 1;
      solve_seconds = solve_s;
    }

(* Record one decided answer as its session's checker judged it, or
   raise [Certification_failed]. The time since [t0], less the check,
   counts as solving. *)
let record t ~t0 answer = function
  | Ok (s : Cert.Pipeline.summary) ->
      let elapsed = Unix.gettimeofday () -. t0 in
      let check_s = Float.min elapsed s.drain_seconds in
      let unsat = answer = S.Unsat in
      account t
        {
          Cert.Proof.zero_totals with
          Cert.Proof.unsat_checked = Bool.to_int unsat;
          sat_checked = Bool.to_int (not unsat);
          proof_steps = s.steps;
          proof_lits = s.lits;
          solve_seconds = elapsed -. check_s;
          check_seconds = check_s;
        }
  | Error msg ->
      raise
        (Certification_failed
           ((match answer with
            | S.Unsat -> "UNSAT certificate rejected: "
            | S.Sat -> "model rejected: ")
           ^ msg))

(* A certified sequential solve runs on the warm session exactly like
   an uncertified one; the session's checker then vouches for the
   answer. *)
let certify_answer t session ~assumptions ~t0 = function
  | S.Unknown _ -> account_unknown t ~solve_s:(Unix.gettimeofday () -. t0)
  | S.Solved answer ->
      let kind = match answer with S.Unsat -> "unsat" | S.Sat -> "sat" in
      Obs.Trace.with_span "cert.check"
        ~attrs:[ ("answer", Obs.Trace.Str kind) ]
        (fun () ->
          Cert.Pipeline.check_answer session ~assumptions
            ~value:(S.value_var t.solver) answer)
      |> record t ~t0 answer

(* Portfolio racing ([portfolio > 1]) certifies on the export path:
   every racer solves one self-contained CNF snapshot cold on its own
   session, and the winner's session vouches for the winner's answer. *)
let solve_certified t ~nvars ~clauses ~assumptions =
  let t0 = Unix.gettimeofday () in
  let o =
    Parallel.Portfolio.solve ?configs:t.configs ~certify:true ~budget:t.budget ?interrupt:t.interrupt ~jobs:t.portfolio ~nvars
      ~clauses ~assumptions ()
  in
  (match (o.Parallel.Portfolio.verdict, o.Parallel.Portfolio.cert) with
  | Parallel.Portfolio.Sat _, Some r -> record t ~t0 S.Sat r
  | Parallel.Portfolio.Unsat, Some r -> record t ~t0 S.Unsat r
  | Parallel.Portfolio.Unknown _, _ ->
      account_unknown t ~solve_s:(Unix.gettimeofday () -. t0)
  | (Parallel.Portfolio.Sat _ | Parallel.Portfolio.Unsat), None ->
      raise (Certification_failed "a decided race arrived without a check"));
  o

let m_checks = Obs.Metrics.counter "ipc.checks"
let m_reduced = Obs.Metrics.counter "simp.reduced_solves"
let m_vars_saved = Obs.Metrics.counter "simp.vars_saved"
let m_clauses_saved = Obs.Metrics.counter "simp.clauses_saved"

(* Reduced CNF for a witness-free solve on the snapshot path: rebuild
   the cone of the tracked permanent constraints plus this solve's
   assumption literals into a fresh graph ([Simp.Sweep]), Tseitin-encode
   it into a throwaway solver, and export {e that}. Dropped Tseitin
   definitions only name otherwise-unconstrained fresh variables, so the
   reduced CNF is equisatisfiable with the full snapshot; a certified
   race's sessions take exactly this reduced CNF as their axioms. *)
let reduced_snapshot t extra =
  Obs.Trace.with_span "simp.snapshot"
    ~attrs:[ ("assumptions", Obs.Trace.Int (List.length extra)) ]
  @@ fun () ->
  (* Per-property cone of influence over the armed obligations: an
     implication whose activation variable is not assumed by this solve
     is satisfied by setting that variable false, and — activation
     variables appearing nowhere else (see {!assume_implication}) —
     neither it nor its consequent cone can affect the verdict, so both
     are dropped. Implications whose antecedent is not a free variable
     are kept unconditionally. *)
  let droppable a =
    (not (List.memq a extra))
    && (not (Aig.is_const a))
    && (not (Aig.complemented a))
    && Aig.fanins t.g (Aig.node_of a) = None
  in
  let kept = List.filter (fun (a, _) -> not (droppable a)) t.implications in
  let roots =
    List.rev_append t.assumed
      (List.fold_left (fun acc (a, b) -> a :: b :: acc) extra kept)
  in
  let sw = Simp.Sweep.rebuild t.g ~roots in
  let solver = S.create () in
  let ctx = Aig.Cnf.create (Simp.Sweep.graph sw) solver in
  List.iter
    (fun l -> Aig.Cnf.assert_lit ctx (Simp.Sweep.map sw l))
    (List.rev t.assumed);
  List.iter
    (fun (a, b) ->
      Aig.Cnf.assert_implies ctx (Simp.Sweep.map sw a) (Simp.Sweep.map sw b))
    (List.rev kept);
  let assumptions =
    List.map (fun l -> Aig.Cnf.sat_lit ctx (Simp.Sweep.map sw l)) extra
  in
  let nvars, clauses = S.export solver in
  t.red_snapshot <- Some (nvars, List.length clauses);
  (nvars, clauses, assumptions)

(* Does this solve race a snapshot, and is that snapshot reduced? *)
let races t ~sequential = t.portfolio > 1 && not sequential
let reduces t ~want_cex ~sequential =
  t.simp && (not want_cex) && races t ~sequential

let solve_raw_core t ~want_cex ~sequential extra =
  (* Reduction (simp): a witness-free race only needs the logic that can
     reach its constraint cone, so its snapshot is rebuilt from the
     tracked roots. Every other solve runs on the fully encoded problem:
     a solve on the engine's own solver, and a witness-producing race,
     whose CNF — and with it the model and the extracted counterexample
     — is then bit-identical with simp on or off. *)
  let reduce = reduces t ~want_cex ~sequential in
  if not reduce then pre_encode t;
  if not (races t ~sequential) then begin
    let assumptions = List.map (Aig.Cnf.sat_lit t.cnf) extra in
    let before = S.stats t.solver in
    S.set_terminate t.solver t.interrupt;
    t.last_winner_ <- None;
    t.last_losers_ <- S.zero_stats;
    let t0 = Unix.gettimeofday () in
    let outcome =
      match S.solve_bounded ~assumptions ~budget:t.budget t.solver with
      | r -> r
      | exception S.Interrupted -> S.Unknown "interrupted"
    in
    t.last_stats <- S.diff_stats (S.stats t.solver) before;
    Option.iter (fun c -> certify_answer t c ~assumptions ~t0 outcome) t.session;
    match outcome with
    | S.Unknown reason -> `Unknown reason
    | S.Solved S.Unsat -> `Unsat
    | S.Solved S.Sat ->
        `Sat
          (fun lit ->
            try S.value t.solver lit with Invalid_argument _ -> false)
  end
  else begin
    let nvars, clauses, assumptions =
      if reduce then begin
        t.red_solves <- t.red_solves + 1;
        Obs.Metrics.incr m_reduced;
        let nvars, clauses, assumptions = reduced_snapshot t extra in
        Obs.Metrics.add m_vars_saved (max 0 (S.nvars t.solver - nvars));
        Obs.Metrics.add m_clauses_saved
          (max 0 (S.nclauses t.solver - List.length clauses));
        (nvars, clauses, assumptions)
      end
      else begin
        let assumptions = List.map (Aig.Cnf.sat_lit t.cnf) extra in
        let nvars, clauses = S.export t.solver in
        (nvars, clauses, assumptions)
      end
    in
    let o =
      if t.certify then solve_certified t ~nvars ~clauses ~assumptions
      else
        Parallel.Portfolio.solve ?configs:t.configs ~budget:t.budget
          ?interrupt:t.interrupt ~jobs:t.portfolio ~nvars ~clauses ~assumptions
          ()
    in
    t.last_stats <- o.Parallel.Portfolio.stats;
    t.last_winner_ <-
      (if o.Parallel.Portfolio.winner >= 0 then
         Some o.Parallel.Portfolio.winner
       else None);
    t.last_losers_ <- o.Parallel.Portfolio.losers_stats;
    match o.Parallel.Portfolio.verdict with
    | Parallel.Portfolio.Unknown reason -> `Unknown reason
    | Parallel.Portfolio.Unsat -> `Unsat
    | Parallel.Portfolio.Sat model ->
        (* only consulted by witness-producing solves, which never use
           the reduced snapshot — the model indexes the full CNF *)
        `Sat
          (fun lit ->
            let v = L.var lit in
            if v < Array.length model then
              if L.sign lit then model.(v) else not model.(v)
            else false)
  end

let solve_raw t ~want_cex ~sequential extra =
  Obs.Metrics.incr m_checks;
  Obs.Trace.with_span "ipc.check"
    ~attrs:
      [
        ( "mode",
          Obs.Trace.Str
            (if t.certify then "certified"
             else if races t ~sequential then "portfolio"
             else "incremental") );
        ("assumptions", Obs.Trace.Int (List.length extra));
        ("reduced", Obs.Trace.Bool (reduces t ~want_cex ~sequential));
      ]
    (fun () -> solve_raw_core t ~want_cex ~sequential extra)

(* --- the unified three-valued interface ----------------------------- *)

type query = Goal of Aig.lit | Violation of Aig.lit list
type verdict = Proved | Refuted of Cex.t option | Unknown of string

let decide ?(cex = true) ?(sequential = false) t q : verdict =
  let extra =
    match q with Goal g -> [ Aig.lit_not g ] | Violation ls -> ls
  in
  match solve_raw t ~want_cex:cex ~sequential extra with
  | `Unsat -> Proved
  | `Unknown reason -> Unknown reason
  | `Sat value ->
      Refuted
        (if cex then Some (Cex.extract t.u (Aig.Cnf.model t.cnf value))
         else None)

(* --- reduction accounting ------------------------------------------- *)

let reduction_stats t =
  match (t.red_report, t.red_snapshot) with
  | (Some _ as r), _ -> r
  | None, None -> None
  | None, Some (red_vars, red_clauses) ->
      (* Both sides are measured, never estimated. Reduced: the last
         snapshot a reduced race shipped. Full: the engine's own
         solver after [pre_encode], which is exactly what a simp-off
         race exports — lazy Tseitin encodes each node once, so
         encoding the extraction set now (the run is over) measures
         it. Cached: the first call finalises the accounting. *)
      pre_encode t;
      let r =
        Some
          {
            Simp.red_solves = t.red_solves;
            red_full_vars = S.nvars t.solver;
            red_full_clauses = S.nclauses t.solver;
            red_vars;
            red_clauses;
          }
      in
      t.red_report <- r;
      r

let solve_stats t = S.stats t.solver
let last_stats t = t.last_stats
let last_winner t = t.last_winner_
let last_losers_stats t = t.last_losers_
let certifying t = t.certify
let simplifying t = t.simp
let cert_totals t = t.cert_tot
