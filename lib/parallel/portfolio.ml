module S = Satsolver.Solver

type verdict = Sat of bool array | Unsat | Unknown of string

type outcome = {
  verdict : verdict;
  winner : int;
  stats : S.stats;
  losers_stats : S.stats;
  cert : (Cert.Pipeline.summary, string) result option;
}

let default_configs k =
  let d = S.default_options in
  let variants =
    [|
      d;
      { d with init_polarity = true; restart_base = 64 };
      { d with restart_base = 512; var_decay = 0.99 };
      { d with use_phase_saving = false; restart_base = 32 };
      { d with init_polarity = true; use_minimization = false };
      { d with var_decay = 0.85; restart_base = 256 };
      { d with use_restarts = false };
      { d with init_polarity = true; var_decay = 0.99; restart_base = 1024 };
    |]
  in
  List.init (max 1 k) (fun i ->
      if i < Array.length variants then variants.(i)
      else
        (* Past the hand-picked set: cycle polarity and spread restarts. *)
        {
          d with
          init_polarity = i mod 2 = 1;
          restart_base = 32 * (1 + (i mod 6));
          var_decay = if i mod 3 = 0 then 0.93 else 0.97;
        })

let session s =
  let c = Cert.Pipeline.session () in
  S.set_input_hook s (Some (Cert.Pipeline.axiom c));
  S.set_tracer s (Some (Cert.Pipeline.tracer c));
  c

let run_config ~certify ~nvars ~clauses opts =
  let s = S.create ~options:opts () in
  let c = if certify then Some (session s) else None in
  for _ = 1 to nvars do
    ignore (S.new_var s)
  done;
  List.iter (S.add_clause s) clauses;
  (s, c)

let m_races = Obs.Metrics.counter "portfolio.races"
let h_winner_margin = Obs.Metrics.histogram "portfolio.winner_margin_seconds"

let verdict_of ~nvars s = function
  | S.Solved S.Sat -> Sat (Array.init nvars (S.value_var s))
  | S.Solved S.Unsat -> Unsat
  | S.Unknown reason -> Unknown reason

let solve_outcome ~assumptions ~budget s =
  match S.solve_bounded ~assumptions ~budget s with
  | r -> r
  | exception S.Interrupted -> S.Unknown "interrupted"

(* A decided racer's session vouches for its own answer; a session
   whose answer needs no check is cancelled. *)
let vouch ~assumptions s c outcome =
  match (c, outcome) with
  | None, _ -> None
  | Some c, S.Solved answer ->
      Some
        (Cert.Pipeline.check_answer c ~assumptions ~value:(S.value_var s)
           answer)
  | Some c, S.Unknown _ ->
      Cert.Pipeline.cancel c;
      None

let solve ?configs ?(certify = false) ?(budget = S.no_budget) ?interrupt
    ~jobs ~nvars ~clauses ~assumptions () =
  let configs =
    match configs with
    | Some (_ :: _ as cs) -> cs
    | Some [] | None -> default_configs (max 1 jobs)
  in
  let k = min (max 1 jobs) (List.length configs) in
  let configs = Array.of_list configs in
  if k <= 1 then begin
    (* Inline sequential solve with configuration 0. *)
    let s, c = run_config ~certify ~nvars ~clauses configs.(0) in
    (match interrupt with
    | Some f -> S.set_terminate s (Some f)
    | None -> ());
    let outcome = solve_outcome ~assumptions ~budget s in
    {
      verdict = verdict_of ~nvars s outcome;
      winner = 0;
      stats = S.stats s;
      losers_stats = S.zero_stats;
      cert = vouch ~assumptions s c outcome;
    }
  end
  else begin
    Obs.Metrics.incr m_races;
    let winner = Atomic.make (-1) in
    let t_win = Atomic.make 0.0 in
    let outcomes = Array.make k None in
    (* every racer — including cancelled losers and budget-exhausted
       ones — records its stats here before its domain exits; the join
       gives the happens-before edge that makes the reads below safe *)
    let all_stats = Array.make k S.zero_stats in
    let unknowns = Array.make k None in
    let body i () =
      let s, c = run_config ~certify ~nvars ~clauses configs.(i) in
      let cancelled () =
        Atomic.get winner >= 0
        || match interrupt with Some f -> f () | None -> false
      in
      S.set_terminate s (Some cancelled);
      (match solve_outcome ~assumptions ~budget s with
      | S.Unknown reason ->
          (* a loser cancelled by the winner, an external interrupt, or
             out of budget: this racer retires but MUST NOT abort the
             race — a sibling with different search dynamics may still
             decide the instance within the same budget *)
          unknowns.(i) <- Some reason;
          Option.iter Cert.Pipeline.cancel c
      | S.Solved _ as outcome ->
          if Atomic.compare_and_set winner (-1) i then begin
            (* only the winner's session vouches for its answer *)
            let cert = vouch ~assumptions s c outcome in
            Atomic.set t_win (Unix.gettimeofday ());
            outcomes.(i) <-
              Some
                {
                  verdict = verdict_of ~nvars s outcome;
                  winner = i;
                  stats = S.stats s;
                  losers_stats = S.zero_stats;
                  cert;
                }
          end
          else Option.iter Cert.Pipeline.cancel c);
      all_stats.(i) <- S.stats s
    in
    Obs.Trace.with_span "portfolio.race"
      ~attrs:[ ("k", Obs.Trace.Int k) ]
      (fun () ->
        let doms = List.init k (fun i -> Domain.spawn (body i)) in
        List.iter Domain.join doms);
    let w = Atomic.get winner in
    (* Winner margin: how long the decided race kept spinning, once the
       winner's answer (and its certification) was ready, until the
       cancelled losers actually unwound and joined — the cost of
       cooperative (poll-based) cancellation. *)
    if w >= 0 then begin
      let tw = Atomic.get t_win in
      if tw > 0.0 then
        Obs.Metrics.observe h_winner_margin (Unix.gettimeofday () -. tw)
    end;
    if w < 0 then begin
      (* no racer decided: every configuration exhausted its budget (or
         was interrupted). Surface the first reason; the summed stats
         say what the whole race spent learning nothing. *)
      let reason =
        let rec first i =
          if i >= k then "budget exhausted"
          else match unknowns.(i) with Some r -> r | None -> first (i + 1)
        in
        first 0
      in
      let total = Array.fold_left S.add_stats S.zero_stats all_stats in
      {
        verdict = Unknown reason;
        winner = -1;
        stats = total;
        losers_stats = S.zero_stats;
        cert = None;
      }
    end
    else
      match outcomes.(w) with
      | Some o ->
          let losers = ref S.zero_stats in
          Array.iteri
            (fun i st -> if i <> o.winner then losers := S.add_stats !losers st)
            all_stats;
          { o with losers_stats = !losers }
      | None -> assert false (* winner index always has an outcome *)
  end
