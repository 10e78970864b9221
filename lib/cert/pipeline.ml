(* Pipelined parallel DRUP certification.

   The sequential story — record the whole certificate, then replay it
   through {!Rup.check} after the verdict — makes certification a
   post-hoc tax of the same order as the solve itself. This module
   turns it into a streaming coordinator + checker-shard engine:

   - The solver's tracer feeds steps straight into a {e coordinator}
     living on the solver's own domain. The coordinator maintains the
     checker clause database by {e trusted replay} (insert / delete /
     propagate, but no RUP validation — validation is the expensive
     part) and buffers the raw steps of the current epoch.

   - At barrier hints (restarts, database reductions) once enough steps
     accumulated, the epoch is {e closed}: the coordinator snapshots the
     database state as of epoch start (arena bounds + a copy of the
     active-flag prefix + the root-trail length — the payload arrays are
     shared, append-only), replays the epoch into its own database, and
     hands the compiled epoch to a checker shard via the injected
     [dispatch] hook (inline by default; a domain pool when driven by
     [Parallel.Portfolio]).

   - A shard {!Rup.fork}s a state from the snapshot and re-validates
     every addition of its epoch with full RUP checking. Soundness of
     the sharding: the shard's snapshot state is semantically identical
     to the sequential checker's state at epoch start (unit propagation
     is confluent, and deletion keeps level-0 consequences — drat-trim
     forward semantics — so the trusted trail replant loses nothing),
     hence a shard accepts its epoch iff the sequential checker accepts
     those same steps. All epochs accepted + final conflict derived =
     sequential accept; any shard rejecting = sequential reject (the
     sequential run fails at or before the same step).

   - Backpressure: when more than [max_pending] epochs are in flight,
     newly closed epochs {e spill} to disk in DRUP text form (stamped
     with the {!Proof.complete_marker} / {!Proof.truncated_marker}
     discipline) instead of stalling the solver or growing the queue;
     they are re-read and checked during the final drain.

   The same coordinator also serves as an incremental {e session} that
   mirrors one warm solver across many solves ({!session}). Input
   clauses arrive through the solver's input hook as trusted axioms,
   learnt and deleted clauses through the tracer, and both join one
   stream in arrival order; each answer is checked in place: a model
   against every axiom and the solve's assumptions, an UNSAT answer by
   validating every step traced before it and then finding a
   propagation conflict under its assumptions. A step is validated
   against exactly the axioms and steps that precede it in the stream,
   whether an epoch shard or the coordinator validates it, so
   accept/reject decisions do not depend on the dispatch. Steps need
   validating only before an UNSAT answer relies on them: axioms are
   never retracted and RUP is monotone, so a step validated long after
   it was traced is still implied by the axioms of the answer that
   needs it. Without a dispatch the session has no epochs: pending
   axioms and steps wait, and the next UNSAT answer replays them in
   order on the coordinator's own database, on the solver's thread. *)

module S = Satsolver.Solver
module L = Satsolver.Lit

type summary = {
  steps : int;  (** proof steps streamed *)
  lits : int;  (** total literals streamed *)
  adds : int;
  deletes : int;
  propagations : int;  (** coordinator + all shards *)
  epochs : int;
  spilled_epochs : int;
  drain_seconds : float;
      (** wall time {!finish} spent draining after the solver was done —
          the residual, non-overlapped cost of certification *)
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

(* What the coordinator buffers: proof steps, and a session's axioms in
   their place among them (normalized, tautologies dropped) *)
type event = Step of Proof.step | Axiom of int array

let no_event = Axiom [||]

type epoch = {
  e_idx : int;
  e_step0 : int;  (* global index of the epoch's first step *)
  (* snapshot of the database at epoch start *)
  e_first_cid : int;
  e_axioms : int array;
      (* session axiom cids, ascending, the first [e_n_axioms] of them
         in the arena once the epoch was replayed *)
  e_n_axioms : int;
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
      (* (global step, op), an axiom taking the index of the next step;
         [||] if spilled *)
  e_n_steps : int;  (* proof steps among [e_steps] *)
  e_spill : string option;
}

type t = {
  st : Rup.t;  (* coordinator database: trusted replay *)
  assumptions : int list;
  epoch_target : int;
  max_pending : int;
  spill_dir : string;
  dispatch : dispatch option;
      (* [None]: a session without epochs, validating pending steps on
         [st] itself when an UNSAT answer needs them *)
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
  mutable n_spilled : int;
  mutable spilled : epoch list;  (* not yet re-checked, newest first *)
  mutable axioms : int array;  (* arena cids of the replayed axioms *)
  mutable n_axioms : int;
  mutable mark : summary;  (* the counters at the last UNSAT answer *)
  mutable finished : bool;
  (* shared with shards *)
  mu : Mutex.t;
  cv : Condition.t;
  mutable pending : int;
  mutable errors : (int * int * string) list;  (* epoch, global step, msg *)
  mutable shard_props : int;
  mutable busy_seconds : float;
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
    spilled_epochs = 0;
    drain_seconds = 0.0;
  }

let make ?dispatch ?(epoch_target = default_epoch_target) ?(max_pending = 4)
    ?spill_dir ?(assumptions = []) st =
  {
    st;
    assumptions = List.map L.to_int assumptions;
    epoch_target = max 1 epoch_target;
    max_pending = max 0 max_pending;
    spill_dir =
      (match spill_dir with
      | Some d -> d
      | None -> Filename.get_temp_dir_name ());
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
    n_spilled = 0;
    spilled = [];
    axioms = [||];
    n_axioms = 0;
    mark = zero_summary;
    finished = false;
    mu = Mutex.create ();
    cv = Condition.create ();
    pending = 0;
    errors = [];
    shard_props = 0;
    busy_seconds = 0.0;
  }

let create ?(dispatch = inline_dispatch) ?epoch_target ?max_pending ?spill_dir
    ?assumptions ~nvars ~clauses () =
  let st = Rup.create nvars in
  Rup.load_cnf st clauses;
  make ~dispatch ?epoch_target ?max_pending ?spill_dir ?assumptions st

let session ?dispatch ?epoch_target ?max_pending ?spill_dir () =
  make ?dispatch ?epoch_target ?max_pending ?spill_dir (Rup.create 0)

(* Replay one axiom into the coordinator's arena (trusted, unindexed)
   and remember its clause id. *)
let insert_axiom t arr =
  let cid = Rup.insert_axiom t.st arr in
  if t.n_axioms = Array.length t.axioms then begin
    (* grow by copy: a captured prefix stays immutable *)
    let a = Array.make (max 256 (2 * t.n_axioms)) 0 in
    Array.blit t.axioms 0 a 0 t.n_axioms;
    t.axioms <- a
  end;
  t.axioms.(t.n_axioms) <- cid;
  t.n_axioms <- t.n_axioms + 1;
  cid

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

(* Re-validate one in-memory epoch on a fork of its snapshot. *)
let check_epoch t ep =
  let sh = fork_of_epoch ep in
  let checked = ref 0 in
  Array.iteri
    (fun i (gstep, op) ->
      poll_cancel t i;
      match op with
      | E_skip -> ()
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

(* Re-validate one spilled epoch from its DRUP file. The clause ids of
   its additions are consecutive from [e_first_cid] (the coordinator
   replayed the same steps), which lets the re-read be verified against
   the arena — a corrupted or mismatching file is rejected. A session's
   axioms are written as additions in their place; the addition that
   lands on an axiom's clause id is that axiom, activated unchecked. *)
let check_spilled t ep path =
  let sh = fork_of_epoch ep in
  (* deletions inside a spilled epoch are resolved by literals: rebuild
     the index over the active snapshot (ascending, so the head of each
     bucket is the newest clause, matching the coordinator's order),
     leaving out the axioms, which the coordinator never indexes *)
  let next_axiom = ref 0 in
  for cid = 0 to ep.e_first_cid - 1 do
    if !next_axiom < ep.e_n_axioms && ep.e_axioms.(!next_axiom) = cid then
      incr next_axiom
    else if Bytes.get ep.e_prefix_active cid <> '\000' then begin
      let key = Array.to_list (Rup.clause_lits sh cid) in
      match Hashtbl.find_opt sh.Rup.index key with
      | Some r -> r := cid :: !r
      | None -> Hashtbl.add sh.Rup.index key (ref [ cid ])
    end
  done;
  let next_cid = ref ep.e_first_cid in
  let gstep = ref ep.e_step0 in
  let checked = ref 0 in
  let emit step =
    poll_cancel t (!gstep - ep.e_step0);
    let g = !gstep in
    match step with
    | Proof.Add c -> (
        match Rup.step_lits c with
        | None -> incr gstep
        | Some arr ->
            if
              !next_cid >= ep.e_visible
              || arr <> Rup.clause_lits sh !next_cid
            then
              raise
                (Epoch_failed
                   (g, "spill file does not match the recorded certificate"))
            else if
              !next_axiom < ep.e_n_axioms
              && ep.e_axioms.(!next_axiom) = !next_cid
            then begin
              Rup.activate sh !next_cid;
              incr next_axiom;
              incr next_cid
            end
            else if Rup.rup_implied sh arr then begin
              incr gstep;
              Rup.activate sh !next_cid;
              (let key = Array.to_list arr in
               match Hashtbl.find_opt sh.Rup.index key with
               | Some r -> r := !next_cid :: !r
               | None -> Hashtbl.add sh.Rup.index key (ref [ !next_cid ]));
              incr next_cid;
              incr checked
            end
            else raise (Epoch_failed (g, Rup.not_rup_reason)))
    | Proof.Delete c -> (
        incr gstep;
        match Rup.step_lits c with
        | None -> raise (Epoch_failed (g, "deletion of a tautology"))
        | Some arr ->
            if Rup.delete sh arr = None then
              raise
                (Epoch_failed (g, "deleted clause is not in the database")))
  in
  let ending =
    In_channel.with_open_text path (fun ic -> Proof.read_drup_channel ic ~emit)
  in
  (match ending with
  | Proof.Complete -> ()
  | Proof.Truncated | Proof.Unterminated ->
      raise
        (Epoch_failed
           ( ep.e_step0,
             Printf.sprintf
               "spilled epoch %d is truncated (file %s does not end with \
                the completion marker)"
               ep.e_idx (Filename.basename path) )));
  (!checked, sh.Rup.props)

(* Run one shard task and record its outcome; never raises (tasks may
   execute on pool domains whose exceptions would be swallowed, or
   inline inside the solver's tracer callback). *)
let run_shard t ep check =
  let t0 = Unix.gettimeofday () in
  let result =
    try
      Obs.Trace.with_span "cert.check"
        ~attrs:
          [
            ("epoch", Obs.Trace.Int ep.e_idx);
            ("steps", Obs.Trace.Int ep.e_n_steps);
          ]
        (fun () -> Ok (check ()))
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
      t.busy_seconds <- t.busy_seconds +. dt;
      if checked > 0 then begin
        Obs.Metrics.add m_clauses_checked checked;
        if dt > 0.0 then
          Obs.Metrics.observe h_clauses_per_sec (float_of_int checked /. dt)
      end
  | Error (gstep, msg) -> t.errors <- (ep.e_idx, gstep, msg) :: t.errors);
  Condition.broadcast t.cv;
  Mutex.unlock t.mu

(* ---- coordinator (solver thread) ---- *)

let write_spill t ep_idx events n =
  let path =
    Filename.temp_file ~temp_dir:t.spill_dir
      (Printf.sprintf "upec-epoch-%d-" ep_idx)
      ".drup"
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let tr = Proof.file_tracer oc in
      match
        for i = 0 to n - 1 do
          match events.(i) with
          | Step (Proof.Add c) -> tr.S.trace_add c
          | Step (Proof.Delete c) -> tr.S.trace_delete c
          | Axiom a -> tr.S.trace_add (Array.map L.of_int a)
        done
      with
      | () -> output_string oc (Proof.complete_marker ^ "\n")
      | exception e ->
          (* stamp before the [finally] close so even a failed writer
             leaves a truncation-detectable file, never a silently
             short one *)
          (try output_string oc (Proof.truncated_marker ^ "\n")
           with _ -> ());
          raise e);
  path

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
      let n = t.raw_n in
      let gstep = ref t.raw_step0 in
      let esteps =
        Array.init n (fun i ->
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
          e_axioms = t.axioms;
          e_n_axioms = t.n_axioms;
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
          e_spill = None;
        }
      in
      Mutex.lock t.mu;
      let backlogged = t.pending >= t.max_pending in
      if not backlogged then t.pending <- t.pending + 1;
      Obs.Metrics.set_gauge g_checker_lag (float_of_int t.pending);
      Mutex.unlock t.mu;
      if backlogged then begin
        (* checkers are behind: spill this epoch to disk instead of
           queueing it, and re-check it when the pipeline settles *)
        let path = write_spill t e_idx t.raw n in
        t.n_spilled <- t.n_spilled + 1;
        t.spilled <-
          { ep with e_steps = [||]; e_spill = Some path } :: t.spilled
      end
      else dispatch.d_run (fun () -> run_shard t ep (fun () -> check_epoch t ep));
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
  if not (Atomic.get t.cancelled || t.finished) then begin
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

let remove_spills t =
  List.iter
    (fun ep ->
      match ep.e_spill with
      | Some path -> ( try Sys.remove path with Sys_error _ -> ())
      | None -> ())
    t.spilled;
  t.spilled <- []

let spill_files t =
  List.rev_map
    (fun ep -> match ep.e_spill with Some p -> p | None -> assert false)
    t.spilled

let settle t =
  match t.dispatch with
  | None -> ()
  | Some dispatch ->
      (* in-flight shards first, then the spilled epochs (which needed
         the checkers to be idle anyway — that is why they were
         spilled) *)
      drain t;
      List.iter
        (fun ep ->
          match ep.e_spill with
          | None -> ()
          | Some path ->
              Mutex.lock t.mu;
              t.pending <- t.pending + 1;
              Mutex.unlock t.mu;
              dispatch.d_run (fun () ->
                  run_shard t ep (fun () -> check_spilled t ep path)))
        (List.rev t.spilled);
      drain t;
      dispatch.d_shutdown ();
      remove_spills t;
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
    spilled_epochs = t.n_spilled;
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
            spilled_epochs = now.spilled_epochs - m.spilled_epochs;
            drain_seconds = Unix.gettimeofday () -. t0;
          }
      end
      else Error Rup.no_conflict_reason

let finish t =
  if t.finished then invalid_arg "Pipeline.finish: already finished";
  let t0 = Unix.gettimeofday () in
  close_epoch t;
  t.finished <- true;
  settle t;
  conclude t ~assumptions:t.assumptions ~t0

(* Without epochs: replay the pending events in order on the
   coordinator's own database, validating every step. The first failure
   is sticky; later axioms still enter, so model checks stay complete. *)
let validate_pending t =
  let gstep = ref t.raw_step0 in
  for i = 0 to t.raw_n - 1 do
    match t.raw.(i) with
    | Axiom arr -> ignore (insert_axiom t arr)
    | Step step ->
        (if t.errors = [] then
           match Rup.validate_step t.st step with
           | Ok () -> ()
           | Error msg -> t.errors <- [ (-1, !gstep, msg) ]);
        incr gstep
  done;
  clear_raw t

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

let cancel t =
  if not t.finished then begin
    Atomic.set t.cancelled true;
    t.finished <- true;
    clear_raw t;
    (* shards poll the flag and bail out quickly; wait for them so no
       task still references this pipeline when the caller moves on *)
    drain t;
    Option.iter (fun d -> d.d_shutdown ()) t.dispatch;
    remove_spills t
  end

let busy_seconds t = t.busy_seconds
