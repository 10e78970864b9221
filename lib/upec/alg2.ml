open Rtl
module Svars = Structural.Svar_set

type outcome =
  | Hold of { s_final : Svars.t; k : int }
  | Found_vulnerable
  | Gave_up

(* The refinement state is the unroll depth k and the per-cycle sets
   0..k. *)
let goals (k, sf) = List.init k (fun i -> (i + 1, sf.(i + 1)))

(* Decide the depth-k unrolled property on one engine whose frames
   0..k are fully constrained. The goal — the conjunction of the
   per-cycle equivalence obligations — rides on solver assumptions
   through {!Ipc.Engine.decide}, never asserted, so a warm engine can be
   re-asked with shrunken sets. *)
let decide_unrolled ctx eng spec ((k, sf) as st) =
  let g = Ipc.Engine.graph eng in
  let goal = ref Aig.true_lit in
  for j = 1 to k do
    goal :=
      Aig.mk_and g !goal
        (Macros.state_equivalence_goal eng spec ~frame:j sf.(j))
  done;
  Refine.decide ctx eng ~goals:(goals st) (Ipc.Engine.Goal !goal)

(* The monolithic checker: one engine across iterations AND
   unroll-depth growth. Frame-0 equivalence is asserted once (sound —
   the cycle-0 set never shrinks); when k grows, only the new frame's
   environment and input constraints are appended. Learnt clauses and
   branching heuristics stay warm across the whole refinement. *)
type session = { i_eng : Ipc.Engine.t; mutable i_frames : int }

let make_checker ctx spec s0 =
  let session = ref None in
  (* the session's engine, constrained over frames 0..k *)
  let at_depth k =
    let sess =
      match !session with
      | Some s -> s
      | None ->
          let eng = Refine.engine ctx ~k:1 in
          Macros.state_equivalence_assume eng spec ~frame:0 s0;
          let s = { i_eng = eng; i_frames = 1 } in
          session := Some s;
          s
    in
    if k > sess.i_frames then begin
      Ipc.Engine.ensure_frames sess.i_eng k;
      for f = sess.i_frames + 1 to k do
        Macros.assume_env_at sess.i_eng spec ~frame:f;
        Macros.frame_constraints sess.i_eng spec ~frame:f
      done;
      sess.i_frames <- k
    end;
    sess.i_eng
  in
  fun ((k, _) as st) -> decide_unrolled ctx (at_depth k) spec st

(* Per-(cycle, svar) worker for one unroll depth k. The unrolled
   property assumes equivalence only at cycle 0 — and that set never
   shrinks — so the assumption set of every individual check is
   constant: instance B shares A's cycle-0 state on [s0], frame-0
   equivalence of its guarded cells is asserted at worker construction,
   and each pair (j, sv) with j = 1..k gets one activation literal
   arming diff_sv@j. Pair verdicts are therefore semantic facts, and
   the whole trace is identical for every job count. *)
let make_worker ctx spec (fr : Refine.frontier) =
  let s0 = fr.Refine.s0 and k = fr.Refine.k in
  let eng = Refine.engine ctx ~share:s0 ~k in
  Macros.state_equivalence_assume eng spec ~frame:0 s0;
  let g = Ipc.Engine.graph eng in
  let acts = Hashtbl.create 1024 in
  for j = 1 to k do
    Svars.iter
      (fun sv ->
        let diff = Aig.lit_not (Macros.sv_condition eng spec ~frame:j sv) in
        let act = Aig.fresh_var g in
        Ipc.Engine.assume_implication eng act diff;
        Hashtbl.replace acts (j, Structural.svar_name sv) act)
      s0
  done;
  (eng, fun (j, sv) -> [ Hashtbl.find acts (j, Structural.svar_name sv) ])

(* the run, with its hand-over cap state at the end *)
let run ?resume (o : Options.t) spec =
  let ctx = Refine.create Checkpoint.Alg2 ?resume o spec in
  let s0 = Spec.s_neg_victim spec in
  let outcome = ref Gave_up in
  (* no new divergence at the deepest cycle: done if its set equals the
     one before, otherwise unroll one cycle deeper *)
  let holds (k, sf) =
    if Svars.equal sf.(k) sf.(k - 1) then begin
      outcome := Hold { s_final = sf.(k); k };
      Refine.Stop
        (if o.Options.reset_start then
           (* a concrete-start (BMC) pass proves nothing beyond the
              window: report it as such *)
           Report.Inconclusive
             (Printf.sprintf
                "BMC from reset: no detection within %d cycles (no \
                 inductive meaning)"
                k)
         else Report.Secure { s_final = sf.(k) })
    end
    else if k >= o.Options.max_k then
      Refine.Stop (Report.Inconclusive "max unrolling reached")
    else Refine.Next (k + 1, Array.append sf [| sf.(k) |])
  in
  let report =
    Refine.run ctx
      {
        Refine.frontier =
          (fun st -> { Refine.k = fst st; s0; goals = goals st });
        holds;
        refine =
          (fun (k, sf) per_frame ->
            let sf = Array.copy sf in
            List.iter (fun (j, v) -> sf.(j) <- Svars.diff sf.(j) v) per_frame;
            (k, sf));
        save = Fun.id;
        monolithic = (fun () -> make_checker ctx spec s0);
        worker = make_worker ctx spec;
        lemmas = (fun _ -> None);
      }
      (match Refine.resumed ctx with Some st -> st | None -> (1, [| s0; s0 |]))
  in
  ( report,
    (match report.Report.verdict with
    | Report.Vulnerable _ -> Found_vulnerable
    | _ -> !outcome),
    Refine.costliest ctx )

let run_with ?resume o spec =
  let report, outcome, _ = run ?resume o spec in
  (report, outcome)

(* [svar_cache] feeds only the induction phase: its obligations are
   exactly Alg. 1's 2-cycle per-svar checks, so farm lemmas apply
   verbatim. The unrolled phase's (frame, svar) obligations live in a
   k-deep formula no 2-cycle lemma answers — they always solve. The
   induction inherits the unrolled phase's hand-over cap state, so its
   first check is capped like any later check of one run; a per-svar
   unrolled phase makes no monolithic check and seeds nothing. *)
let conclude_with ?resume ?svar_cache (o : Options.t) spec =
  match resume with
  | Some ck when ck.Checkpoint.ck_alg = Checkpoint.Alg1 ->
      (* the unrolled phase had already reached Hold when this Alg. 1
         checkpoint was written: resume the induction directly *)
      Refine.concluded (Alg1.run_with ~resume:ck ?svar_cache o spec)
  | _ -> (
      match run ?resume o spec with
      | report, (Found_vulnerable | Gave_up), _ -> report
      | report, Hold { s_final; k = _ }, costliest ->
          Refine.concluded ~unrolled:report
            (Alg1.run_with ~initial:(s_final, costliest) ?svar_cache o spec))
