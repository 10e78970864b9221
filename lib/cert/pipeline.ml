(* Incremental DRUP certification: one checker mirrors one solver.

   The session lives as long as its solver. It never reads the solver's
   clause database; it keeps its own arena ({!Rup}). Input clauses
   arrive through the solver's input hook as trusted axioms, learnt and
   deleted clauses through its tracer, and both join one stream in
   arrival order. Each answer is checked in place while the session
   stays open: a model against every axiom and the solve's assumptions,
   an UNSAT answer by validating every step traced before it and then
   finding a propagation conflict under its assumptions. A step is
   validated against exactly the axioms and steps that precede it in
   the stream, whether an epoch shard or the coordinator validates it,
   so accept/reject decisions do not depend on the dispatch. Steps need
   validating only before an UNSAT answer relies on them: axioms are
   never retracted and RUP is monotone, so a step validated long after
   it was traced is still implied by the axioms of the answer that
   needs it.

   Without a dispatch the session has no epochs: pending axioms and
   steps wait, and the next UNSAT answer replays them in order on the
   coordinator's own database, on the solver's thread. With one, the
   stream is checked while the solver searches:

   - The coordinator, on the solver's thread, maintains the checker
     database by {e trusted replay} (insert / delete / propagate, but
     no RUP validation — validation is the expensive part) and buffers
     the raw events of the current epoch.

   - At barrier hints (restarts, database reductions) once enough steps
     accumulated, the epoch is {e closed}: the coordinator snapshots the
     database state as of epoch start (arena bounds + a copy of the
     active-flag prefix + the root-trail length — the payload arrays are
     shared, append-only), replays the epoch into its own database, and
     hands the compiled epoch to a checker shard via the [dispatch].

   - A shard {!Rup.fork}s a state from the snapshot and re-validates
     every addition of its epoch with full RUP checking. Soundness of
     the sharding: the shard's snapshot state is semantically identical
     to the sequential checker's state at epoch start (unit propagation
     is confluent, and deletion keeps level-0 consequences — drat-trim
     forward semantics — so the trusted trail replant loses nothing),
     hence a shard accepts its epoch iff the sequential checker accepts
     those same steps. *)

module S = Satsolver.Solver
module L = Satsolver.Lit

type summary = {
  steps : int;  (** proof steps streamed *)
  lits : int;  (** total literals streamed *)
  adds : int;
  deletes : int;
  propagations : int;  (** coordinator + all shards *)
  epochs : int;
  drain_seconds : float;  (** wall time the answer's check took *)
}

type dispatch = {
  d_run : (unit -> unit) -> unit;
      (** run one epoch-check task, possibly on another domain; the
          tasks never raise *)
  d_shutdown : unit -> unit;  (** stop the backing workers; idempotent *)
}

let inline_dispatch = { d_run = (fun f -> f ()); d_shutdown = ignore }

(* compiled epoch step: the coordinator (sole owner of the deletion
   index) resolves every step to a dense clause id at close time, so
   shards never need an index of their own *)
type estep =
  | E_add of int
  | E_del of int
  | E_axiom of int  (* a session axiom: trusted, activated unchecked *)
  | E_skip  (* tautology addition: trivially implied, no clause id *)
  | E_bad of string  (* rejected at compile time (malformed deletion) *)

(* What the coordinator buffers: proof steps, and axioms in their place
   among them (normalized, tautologies dropped) *)
type event = Step of Proof.step | Axiom of int array

let no_event = Axiom [||]

type epoch = {
  e_idx : int;
  e_step0 : int;  (* global index of the epoch's first step *)
  (* snapshot of the database at epoch start *)
  e_first_cid : int;
  e_trail_len : int;
  e_contradiction : bool;
  e_nv : int;
  e_prefix_active : Bytes.t;
  (* captured after the epoch was replayed into the coordinator: the
     arrays are append-only, so entries below [e_visible] (resp.
     [e_trail_len]) are immutable wherever these references travel *)
  e_data : int array;
  e_offs : int array;
  e_sizes : int array;
  e_visible : int;
  e_trail : int array;
  e_steps : (int * estep) array;
      (* (global step, op), an axiom taking the index of the next step *)
  e_n_steps : int;  (* proof steps among [e_steps] *)
}

type t = {
  st : Rup.t;  (* coordinator database: trusted replay *)
  epoch_target : int;
  dispatch : dispatch option;
      (* [None]: no epochs; pending steps are validated on [st] itself
         when an UNSAT answer needs them *)
  cancelled : bool Atomic.t;
  (* coordinator-side accounting (solver thread only) *)
  mutable raw : event array;  (* since the last epoch close / replay *)
  mutable raw_n : int;
  mutable raw_steps : int;  (* proof steps among [raw] *)
  mutable raw_step0 : int;  (* global index of [raw]'s first step *)
  mutable n_steps : int;
  mutable n_lits : int;
  mutable n_adds : int;
  mutable n_deletes : int;
  mutable epochs : int;
  mutable axioms : int array;  (* arena cids of the replayed axioms *)
  mutable n_axioms : int;
  mutable mark : summary;  (* the counters at the last UNSAT answer *)
  (* shared with shards *)
  mu : Mutex.t;
  cv : Condition.t;
  mutable pending : int;
  mutable errors : (int * int * string) list;  (* epoch, global step, msg *)
  mutable shard_props : int;
}

let m_clauses_checked = Obs.Metrics.counter "cert.clauses_checked"
let g_checker_lag = Obs.Metrics.gauge "cert.checker_lag"
let h_clauses_per_sec = Obs.Metrics.histogram "cert.clauses_per_sec"

let default_epoch_target = 2048

let zero_summary =
  {
    steps = 0;
    lits = 0;
    adds = 0;
    deletes = 0;
    propagations = 0;
    epochs = 0;
    drain_seconds = 0.0;
  }

let session ?dispatch ?(epoch_target = default_epoch_target) () =
  {
    st = Rup.create 0;
    epoch_target = max 1 epoch_target;
    dispatch;
    cancelled = Atomic.make false;
    raw = Array.make 64 no_event;
    raw_n = 0;
    raw_steps = 0;
    raw_step0 = 0;
    n_steps = 0;
    n_lits = 0;
    n_adds = 0;
    n_deletes = 0;
    epochs = 0;
    axioms = [||];
    n_axioms = 0;
    mark = zero_summary;
    mu = Mutex.create ();
    cv = Condition.create ();
    pending = 0;
    errors = [];
    shard_props = 0;
  }

(* Replay one axiom into the coordinator's arena (trusted, unindexed)
   and remember its clause id. *)
let insert_axiom t arr =
  let cid = Rup.insert_axiom t.st arr in
  if t.n_axioms = Array.length t.axioms then begin
    let a = Array.make (max 256 (2 * t.n_axioms)) 0 in
    Array.blit t.axioms 0 a 0 t.n_axioms;
    t.axioms <- a
  end;
  t.axioms.(t.n_axioms) <- cid;
  t.n_axioms <- t.n_axioms + 1;
  cid

(* One validation batch's accepted additions, into the metrics *)
let count_checked checked dt =
  if checked > 0 then begin
    Obs.Metrics.add m_clauses_checked checked;
    if dt > 0.0 then
      Obs.Metrics.observe h_clauses_per_sec (float_of_int checked /. dt)
  end

(* ---- checker shards ---- *)

exception Epoch_failed of int * string
exception Cancelled

let fork_of_epoch ep =
  Rup.fork ~data:ep.e_data ~offs:ep.e_offs ~sizes:ep.e_sizes
    ~visible:ep.e_visible ~base:ep.e_first_cid
    ~prefix_active:ep.e_prefix_active ~trail:ep.e_trail
    ~trail_len:ep.e_trail_len ~contradiction:ep.e_contradiction ~nv:ep.e_nv

let poll_cancel t i =
  if i land 63 = 0 && Atomic.get t.cancelled then raise Cancelled

(* Re-validate one epoch on a fork of its snapshot. *)
let check_epoch t ep =
  let sh = fork_of_epoch ep in
  let checked = ref 0 in
  Array.iteri
    (fun i (gstep, op) ->
      poll_cancel t i;
      match op with
      | E_skip -> incr checked
      | E_axiom cid -> Rup.activate sh cid
      | E_del cid -> Rup.deactivate sh cid
      | E_add cid ->
          let lits = Rup.clause_lits sh cid in
          if Rup.rup_implied sh lits then begin
            Rup.activate sh cid;
            incr checked
          end
          else raise (Epoch_failed (gstep, Rup.not_rup_reason))
      | E_bad msg -> raise (Epoch_failed (gstep, msg)))
    ep.e_steps;
  (!checked, sh.Rup.props)

(* Run one shard task and record its outcome; never raises (tasks may
   execute on pool domains whose exceptions would be swallowed, or
   inline inside the solver's tracer callback). *)
let run_shard t ep =
  let t0 = Unix.gettimeofday () in
  let result =
    try
      Obs.Trace.with_span "cert.check"
        ~attrs:
          [
            ("epoch", Obs.Trace.Int ep.e_idx);
            ("steps", Obs.Trace.Int ep.e_n_steps);
          ]
        (fun () -> Ok (check_epoch t ep))
    with
    | Epoch_failed (gstep, msg) -> Error (gstep, msg)
    | Cancelled -> Ok (0, 0)
    | e -> Error (ep.e_step0, "checker exception: " ^ Printexc.to_string e)
  in
  let dt = Unix.gettimeofday () -. t0 in
  Mutex.lock t.mu;
  t.pending <- t.pending - 1;
  (match result with
  | Ok (checked, props) ->
      t.shard_props <- t.shard_props + props;
      count_checked checked dt
  | Error (gstep, msg) -> t.errors <- (ep.e_idx, gstep, msg) :: t.errors);
  Condition.broadcast t.cv;
  Mutex.unlock t.mu

(* ---- coordinator (solver thread) ---- *)

(* Trusted replay of one buffered event into the coordinator database:
   compile it to a clause id (no RUP validation here). *)
let compile t = function
  | Axiom arr -> E_axiom (insert_axiom t arr)
  | Step (Proof.Add c) -> (
      match Rup.step_lits c with
      | None -> E_skip
      | Some arr -> E_add (Rup.insert t.st arr))
  | Step (Proof.Delete c) -> (
      match Rup.step_lits c with
      | None -> E_bad "deletion of a tautology"
      | Some arr -> (
          match Rup.delete t.st arr with
          | Some cid -> E_del cid
          | None -> E_bad "deleted clause is not in the database"))

(* Drop the buffered events, releasing them to the collector. *)
let clear_raw t =
  Array.fill t.raw 0 t.raw_n no_event;
  t.raw_step0 <- t.raw_step0 + t.raw_steps;
  t.raw_n <- 0;
  t.raw_steps <- 0

let close_epoch t =
  match t.dispatch with
  | Some _ when t.raw_n > 0 && t.raw_steps = 0 ->
      (* axioms only: nothing to validate, just replay them *)
      for i = 0 to t.raw_n - 1 do
        ignore (compile t t.raw.(i))
      done;
      clear_raw t
  | Some dispatch when t.raw_n > 0 && not (Atomic.get t.cancelled) ->
      let st = t.st in
      let e_idx = t.epochs in
      t.epochs <- e_idx + 1;
      (* snapshot before replay: this is the database state the epoch's
         additions must be validated against *)
      let e_first_cid = st.Rup.a_n in
      let e_trail_len = st.Rup.trail_len in
      let e_contradiction = st.Rup.contradiction in
      let e_nv = st.Rup.nv in
      let e_prefix_active = Bytes.sub st.Rup.active 0 e_first_cid in
      (* trusted replay: compile each event to a clause id while
         advancing the coordinator database *)
      let gstep = ref t.raw_step0 in
      let esteps =
        Array.init t.raw_n (fun i ->
            let ev = t.raw.(i) in
            let op = (!gstep, compile t ev) in
            (match ev with Step _ -> incr gstep | Axiom _ -> ());
            op)
      in
      let ep =
        {
          e_idx;
          e_step0 = t.raw_step0;
          e_first_cid;
          e_trail_len;
          e_contradiction;
          e_nv;
          e_prefix_active;
          e_data = st.Rup.a_data;
          e_offs = st.Rup.a_offs;
          e_sizes = st.Rup.a_sizes;
          e_visible = st.Rup.a_n;
          e_trail = st.Rup.trail;
          e_steps = esteps;
          e_n_steps = t.raw_steps;
        }
      in
      Mutex.lock t.mu;
      t.pending <- t.pending + 1;
      Obs.Metrics.set_gauge g_checker_lag (float_of_int t.pending);
      Mutex.unlock t.mu;
      dispatch.d_run (fun () -> run_shard t ep);
      clear_raw t
  | _ -> ()

let push_event t ev =
  if t.raw_n = Array.length t.raw then begin
    let raw = Array.make (2 * t.raw_n) no_event in
    Array.blit t.raw 0 raw 0 t.raw_n;
    t.raw <- raw
  end;
  t.raw.(t.raw_n) <- ev;
  t.raw_n <- t.raw_n + 1

let push t step =
  if not (Atomic.get t.cancelled) then begin
    push_event t (Step step);
    t.raw_steps <- t.raw_steps + 1;
    t.n_steps <- t.n_steps + 1;
    (match step with
    | Proof.Add c ->
        t.n_adds <- t.n_adds + 1;
        t.n_lits <- t.n_lits + Array.length c
    | Proof.Delete c ->
        t.n_deletes <- t.n_deletes + 1;
        t.n_lits <- t.n_lits + Array.length c);
    (* hard cap: configurations without restarts never emit barriers *)
    if t.raw_steps >= 4 * t.epoch_target then close_epoch t
  end

let tracer t =
  {
    S.trace_add = (fun c -> push t (Proof.Add c));
    S.trace_delete = (fun c -> push t (Proof.Delete c));
    S.trace_barrier =
      (fun () -> if t.raw_steps >= t.epoch_target then close_epoch t);
  }

let axiom t lits =
  match Rup.normalize (List.map L.to_int lits) with
  | None -> () (* a tautology constrains nothing *)
  | Some arr -> push_event t (Axiom arr)

let drain t =
  Mutex.lock t.mu;
  while t.pending > 0 do
    Condition.wait t.cv t.mu
  done;
  Mutex.unlock t.mu

let settle t =
  match t.dispatch with
  | None -> ()
  | Some dispatch ->
      drain t;
      dispatch.d_shutdown ();
      Obs.Metrics.set_gauge g_checker_lag 0.0

(* The counters so far; the difference of two is one answer's share. *)
let counters t =
  {
    steps = t.n_steps;
    lits = t.n_lits;
    adds = t.n_adds;
    deletes = t.n_deletes;
    propagations = t.st.Rup.props + t.shard_props;
    epochs = t.epochs;
    drain_seconds = 0.0;
  }

(* Accept iff no step failed and the database refutes [assumptions]:
   a derived contradiction, or propagation failure under them. *)
let conclude t ~assumptions ~t0 =
  match List.sort (fun (_, a, _) (_, b, _) -> compare a b) t.errors with
  | (eidx, gstep, msg) :: _ ->
      Error
        (if eidx < 0 then Printf.sprintf "step %d: %s" gstep msg
         else Printf.sprintf "epoch %d, step %d: %s" eidx gstep msg)
  | [] ->
      if t.st.Rup.contradiction || Rup.assumptions_conflict t.st assumptions
      then begin
        let now = counters t and m = t.mark in
        t.mark <- now;
        Ok
          {
            steps = now.steps - m.steps;
            lits = now.lits - m.lits;
            adds = now.adds - m.adds;
            deletes = now.deletes - m.deletes;
            propagations = now.propagations - m.propagations;
            epochs = now.epochs - m.epochs;
            drain_seconds = Unix.gettimeofday () -. t0;
          }
      end
      else Error Rup.no_conflict_reason

(* Without epochs: replay the pending events in order on the
   coordinator's own database, validating every step. The first failure
   is sticky; later axioms still enter, so model checks stay complete. *)
let validate_pending t =
  let t0 = Unix.gettimeofday () in
  let gstep = ref t.raw_step0 in
  let checked = ref 0 in
  for i = 0 to t.raw_n - 1 do
    match t.raw.(i) with
    | Axiom arr -> ignore (insert_axiom t arr)
    | Step step ->
        (if t.errors = [] then
           match (Rup.validate_step t.st step, step) with
           | Ok (), Proof.Add _ -> incr checked
           | Ok (), Proof.Delete _ -> ()
           | Error msg, _ -> t.errors <- [ (-1, !gstep, msg) ]);
        incr gstep
  done;
  clear_raw t;
  count_checked !checked (Unix.gettimeofday () -. t0)

let check_unsat t ~assumptions =
  let t0 = Unix.gettimeofday () in
  (match t.dispatch with
  | None -> validate_pending t
  | Some _ ->
      close_epoch t;
      settle t);
  conclude t ~assumptions:(List.map L.to_int assumptions) ~t0

let check_sat t ~assumptions ~value =
  settle t;
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
  if not (Atomic.get t.cancelled) then begin
    Atomic.set t.cancelled true;
    clear_raw t;
    (* shards poll the flag and bail out quickly; wait for them so no
       task still references this session when the caller moves on *)
    drain t;
    Option.iter (fun d -> d.d_shutdown ()) t.dispatch
  end
