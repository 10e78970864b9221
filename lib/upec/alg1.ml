open Rtl
module Svars = Structural.Svar_set

(* Per-svar condition literals over [s0], computed once per engine:
   eq_sv@0, and diff_sv@1 — or, [armed], an activation literal implying
   diff_sv@1. *)
let conditions ?(armed = false) eng spec s0 =
  let g = Ipc.Engine.graph eng in
  let conds = Hashtbl.create 256 in
  Svars.iter
    (fun sv ->
      let eq0 = Macros.sv_condition eng spec ~frame:0 sv in
      let diff1 = Aig.lit_not (Macros.sv_condition eng spec ~frame:1 sv) in
      let diff1 =
        if armed then begin
          let act = Aig.fresh_var g in
          Ipc.Engine.assume_implication eng act diff1;
          act
        end
        else diff1
      in
      Hashtbl.replace conds (Structural.svar_name sv) (eq0, diff1))
    s0;
  fun sv -> Hashtbl.find conds (Structural.svar_name sv)

(* eq_sv@0 for every sv of S, in the order every strategy assumes them *)
let equalities cond s = Svars.fold (fun sv acc -> fst (cond sv) :: acc) s []

(* The monolithic checker of the Fig. 3 property, State_Equivalence(S)
   at cycle 0 implies State_Equivalence(S) at cycle 1: one engine for
   the whole fixed-point loop. The State_Equivalence(S) assumption
   travels through solver assumptions and each iteration's obligation
   is armed by an activation literal, so learnt clauses survive across
   iterations. A hand-over's per-svar worker runs on the same engine: a
   second one would hold a second copy of the encoding. *)
let make_checker ctx spec s0 =
  let eng = Refine.engine ctx ~k:1 in
  let g = Ipc.Engine.graph eng in
  let cond = conditions eng spec s0 in
  ( (fun s ->
      let act = Aig.fresh_var g in
      let diffs = Svars.fold (fun sv acc -> snd (cond sv) :: acc) s [] in
      Ipc.Engine.assume_implication eng act (Aig.mk_or_list g diffs);
      Refine.decide ctx eng ~goals:[ (1, s) ]
        (Ipc.Engine.Violation (act :: equalities cond s))),
    fun ~k:_ -> (eng, conditions ~armed:true eng spec s0) )

(* --- lemma cache hook -----------------------------------------------

   Each per-svar check is a semantic fact about (sv, S) and the design
   content; the proof farm memoises them across runs. [sc_lookup]
   answers [Some holds] when a cached lemma applies — the check is not
   solved at all and contributes zero solver stats; [sc_store] is
   called for every freshly decided check. Unknown results are never
   offered to the cache: exhaustion is a property of the budget, not
   of the formula. *)
type svar_cache = {
  sc_lookup : Structural.svar -> s:Svars.t -> bool option;
  sc_store : Structural.svar -> s:Svars.t -> holds:bool -> unit;
}

(* Per-svar worker: decides whether sv can differ at cycle 1 under
   State_Equivalence(S) at cycle 0, for every sv of the initial set.

     S_cex := { sv in S | SAT( eq-assumptions(S)@0 /\ diff_sv@1 ) }

   S_cex is at least as large as any single model's violation set, so
   the fixed point is reached in no more iterations than the monolithic
   check needs. *)
let make_worker ctx spec s0 =
  let eng = Refine.engine ctx ~k:1 in
  (eng, conditions ~armed:true eng spec s0)

let query s (eng, cond) (_, sv) = (eng, snd (cond sv) :: equalities cond s)

let run_with ?initial ?resume ?svar_cache (o : Options.t) spec =
  let ctx =
    Refine.create Checkpoint.Alg1 ?resume
      ?costliest:(Option.bind initial snd)
      o spec
  in
  let s0 =
    match (Refine.resumed ctx, initial) with
    | Some (_, frames), _ -> frames.(0)
    | None, Some (s, _) -> s
    | None, None -> Spec.s_neg_victim spec
  in
  Refine.run ctx
    {
      Refine.frontier = (fun s -> { Refine.k = 1; s0 = s; goals = [ (1, s) ] });
      holds = (fun s -> Refine.Stop (Report.Secure { s_final = s }));
      refine =
        (fun s per_frame ->
          List.fold_left (fun s (_, s_cex) -> Svars.diff s s_cex) s per_frame);
      save = (fun s -> (1, [| s |]));
      monolithic = (fun () -> make_checker ctx spec s0);
      worker = (fun ~k:_ -> make_worker ctx spec s0);
      query;
      lemmas =
        (fun s ->
          Option.map
            (fun c ->
              {
                Refine.lookup = (fun (_, sv) -> c.sc_lookup sv ~s);
                store = (fun (_, sv) ~holds -> c.sc_store sv ~s ~holds);
              })
            svar_cache);
    }
    s0
