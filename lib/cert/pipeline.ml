(* Incremental DRUP certification: one checker mirrors one solver.

   The session lives as long as its solver. It never reads the solver's
   clause database; it keeps its own arena ({!Rup}). Input clauses
   arrive through the solver's input hook as trusted axioms, learnt and
   deleted clauses through its tracer, and both join one stream in
   arrival order. Each answer is checked in place while the session
   stays open: a model against every axiom and the solve's assumptions,
   an UNSAT answer by validating every step traced before it and then
   finding a propagation conflict under its assumptions.

   Pending axioms and steps wait, and the next UNSAT answer replays
   them in order on the checker's database, on the solver's thread. A
   step is validated against exactly the axioms and steps that precede
   it in the stream. Steps need validating only before an UNSAT answer
   relies on them: axioms are never retracted and RUP is monotone, so a
   step validated long after it was traced is still implied by the
   axioms of the answer that needs it. *)

module S = Satsolver.Solver
module L = Satsolver.Lit

type summary = {
  steps : int;  (** proof steps streamed *)
  lits : int;  (** total literals streamed *)
  adds : int;
  deletes : int;
  propagations : int;
  drain_seconds : float;  (** wall time the answer's check took *)
}

(* What the session buffers: proof steps, and axioms in their place
   among them (normalized, tautologies dropped) *)
type event = Step of Proof.step | Axiom of int array

let no_event = Axiom [||]

type t = {
  st : Rup.t;  (* the checker's database *)
  mutable cancelled : bool;  (* stop taking steps *)
  mutable raw : event array;  (* pending since the last replay *)
  mutable raw_n : int;
  mutable raw_steps : int;  (* proof steps among [raw] *)
  mutable raw_step0 : int;  (* global index of [raw]'s first step *)
  mutable n_steps : int;
  mutable n_lits : int;
  mutable n_adds : int;
  mutable n_deletes : int;
  mutable axioms : int array;  (* arena cids of the replayed axioms *)
  mutable n_axioms : int;
  mutable mark : summary;  (* the counters at the last UNSAT answer *)
  mutable error : (int * string) option;  (* first failing step *)
}

let m_clauses_checked = Obs.Metrics.counter "cert.clauses_checked"
let h_clauses_per_sec = Obs.Metrics.histogram "cert.clauses_per_sec"

let zero_summary =
  {
    steps = 0;
    lits = 0;
    adds = 0;
    deletes = 0;
    propagations = 0;
    drain_seconds = 0.0;
  }

let session () =
  {
    st = Rup.create 0;
    cancelled = false;
    raw = Array.make 64 no_event;
    raw_n = 0;
    raw_steps = 0;
    raw_step0 = 0;
    n_steps = 0;
    n_lits = 0;
    n_adds = 0;
    n_deletes = 0;
    axioms = [||];
    n_axioms = 0;
    mark = zero_summary;
    error = None;
  }

(* Replay one axiom into the arena (trusted, unindexed) and remember
   its clause id. *)
let insert_axiom t arr =
  let cid = Rup.insert_axiom t.st arr in
  if t.n_axioms = Array.length t.axioms then begin
    let a = Array.make (max 256 (2 * t.n_axioms)) 0 in
    Array.blit t.axioms 0 a 0 t.n_axioms;
    t.axioms <- a
  end;
  t.axioms.(t.n_axioms) <- cid;
  t.n_axioms <- t.n_axioms + 1

(* Drop the buffered events, releasing them to the collector. *)
let clear_raw t =
  Array.fill t.raw 0 t.raw_n no_event;
  t.raw_step0 <- t.raw_step0 + t.raw_steps;
  t.raw_n <- 0;
  t.raw_steps <- 0

let push_event t ev =
  if t.raw_n = Array.length t.raw then begin
    let raw = Array.make (2 * t.raw_n) no_event in
    Array.blit t.raw 0 raw 0 t.raw_n;
    t.raw <- raw
  end;
  t.raw.(t.raw_n) <- ev;
  t.raw_n <- t.raw_n + 1

let push t step =
  if not t.cancelled then begin
    push_event t (Step step);
    t.raw_steps <- t.raw_steps + 1;
    t.n_steps <- t.n_steps + 1;
    match step with
    | Proof.Add c ->
        t.n_adds <- t.n_adds + 1;
        t.n_lits <- t.n_lits + Array.length c
    | Proof.Delete c ->
        t.n_deletes <- t.n_deletes + 1;
        t.n_lits <- t.n_lits + Array.length c
  end

let tracer t =
  {
    S.trace_add = (fun c -> push t (Proof.Add c));
    S.trace_delete = (fun c -> push t (Proof.Delete c));
    S.trace_barrier = ignore;
  }

let axiom t lits =
  match Rup.normalize (List.map L.to_int lits) with
  | None -> () (* a tautology constrains nothing *)
  | Some arr -> push_event t (Axiom arr)

(* Replay the pending events in order on the checker's database,
   validating every step. The first failure is sticky; later axioms
   still enter, so model checks stay complete. One validation batch
   adds its accepted additions to the metrics at once. *)
let validate_pending t =
  let t0 = Unix.gettimeofday () in
  let gstep = ref t.raw_step0 in
  let checked = ref 0 in
  for i = 0 to t.raw_n - 1 do
    match t.raw.(i) with
    | Axiom arr -> insert_axiom t arr
    | Step step ->
        (if t.error = None then
           match (Rup.validate_step t.st step, step) with
           | Ok (), Proof.Add _ -> incr checked
           | Ok (), Proof.Delete _ -> ()
           | Error msg, _ -> t.error <- Some (!gstep, msg));
        incr gstep
  done;
  clear_raw t;
  if !checked > 0 then begin
    Obs.Metrics.add m_clauses_checked !checked;
    let dt = Unix.gettimeofday () -. t0 in
    if dt > 0.0 then
      Obs.Metrics.observe h_clauses_per_sec (float_of_int !checked /. dt)
  end

let counters t =
  {
    steps = t.n_steps;
    lits = t.n_lits;
    adds = t.n_adds;
    deletes = t.n_deletes;
    propagations = t.st.Rup.props;
    drain_seconds = 0.0;
  }

(* Accept iff no step failed and the database refutes [assumptions]:
   a derived contradiction, or propagation failure under them. *)
let check_unsat t ~assumptions =
  let t0 = Unix.gettimeofday () in
  validate_pending t;
  match t.error with
  | Some (gstep, msg) -> Error (Printf.sprintf "step %d: %s" gstep msg)
  | None ->
      if Rup.final_conflict t.st assumptions then begin
        let now = counters t and m = t.mark in
        t.mark <- now;
        Ok
          {
            steps = now.steps - m.steps;
            lits = now.lits - m.lits;
            adds = now.adds - m.adds;
            deletes = now.deletes - m.deletes;
            propagations = now.propagations - m.propagations;
            drain_seconds = Unix.gettimeofday () -. t0;
          }
      end
      else Error Rup.no_conflict_reason

let check_sat t ~assumptions ~value =
  (* the replayed axioms in the arena, then the pending ones *)
  let held f =
    let st = t.st in
    for i = 0 to t.n_axioms - 1 do
      let cid = t.axioms.(i) in
      f st.Rup.a_data st.Rup.a_offs.(cid) st.Rup.a_sizes.(cid)
    done;
    for i = 0 to t.raw_n - 1 do
      match t.raw.(i) with Axiom a -> f a 0 (Array.length a) | Step _ -> ()
    done
  in
  Model.check_held ~held ~assumptions ~value

let check_answer t ~assumptions ~value = function
  | S.Unsat -> check_unsat t ~assumptions
  | S.Sat ->
      let t0 = Unix.gettimeofday () in
      check_sat t ~assumptions ~value
      |> Result.map (fun () ->
             { zero_summary with drain_seconds = Unix.gettimeofday () -. t0 })

let cancel t =
  t.cancelled <- true;
  clear_raw t
