(* Forward RUP certificate checker.

   This is a deliberately independent implementation: the only machinery
   is unit propagation over a clause database, written from scratch —
   none of the solver's search loop, conflict analysis, restart or
   deletion heuristics are involved. A clause C is RUP (reverse unit
   propagable) w.r.t. a database F when asserting the negation of every
   literal of C and running unit propagation on F yields a conflict;
   equivalently, F entails C by the weakest useful proof system. A DRUP
   certificate is valid when every added clause is RUP w.r.t. the
   original formula plus the earlier (undeleted) additions, and the
   stream ends in a derived conflict.

   Literals are manipulated in the [Satsolver.Lit] int encoding
   (2*var + sign bit, negation = [lxor 1]) — sharing the encoding is
   what lets the checker consume the solver's certificate directly.

   Clause storage is a flat arena: one int array of literal payload plus
   offset/size tables, clauses named by dense ids in insertion order.
   Nothing mutates a clause once written: the classic watched-literal
   trick of swapping lits in place is replaced by watch side-tables
   [wa]/[wb]. *)

module L = Satsolver.Lit

(* growable int vector (watch lists of clause ids) *)
type ivec = { mutable data : int array; mutable len : int }

let ivec () = { data = [||]; len = 0 }

let ipush v x =
  let cap = Array.length v.data in
  if v.len = cap then begin
    let data = Array.make (max 4 (2 * cap)) 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

type t = {
  (* arena: append-only clause payload *)
  mutable a_data : int array;  (* flat literal payload *)
  mutable a_dlen : int;
  mutable a_offs : int array;  (* cid -> offset into a_data *)
  mutable a_sizes : int array;  (* cid -> literal count *)
  mutable a_n : int;  (* clause ids in [0, a_n) are readable *)
  mutable active : Bytes.t;  (* activity flag by cid *)
  (* the two watched literals of each watched clause, by cid; -1 when
     the clause is unwatched (unit or empty at activation) *)
  mutable wa : int array;
  mutable wb : int array;
  mutable nv : int;
  mutable assigns : int array;  (* by var: 0 unset, 1 true, -1 false *)
  mutable watches : ivec array;  (* by lit code: cids watching it *)
  mutable trail : int array;
  mutable trail_len : int;
  mutable qhead : int;
  index : (int list, int list ref) Hashtbl.t;  (* for deletions *)
  mutable contradiction : bool;  (* empty clause derived / root conflict *)
  mutable props : int;
  mutable unhinted : int;  (* additions validated by full propagation *)
}

let create nvars =
  let nv = max 1 nvars in
  {
    a_data = Array.make 1024 0;
    a_dlen = 0;
    a_offs = Array.make 256 0;
    a_sizes = Array.make 256 0;
    a_n = 0;
    active = Bytes.make 256 '\000';
    wa = Array.make 256 (-1);
    wb = Array.make 256 (-1);
    nv;
    assigns = Array.make nv 0;
    watches = Array.init (2 * nv) (fun _ -> ivec ());
    trail = Array.make (max 16 nv) 0;
    trail_len = 0;
    qhead = 0;
    index = Hashtbl.create 1024;
    contradiction = false;
    props = 0;
    unhinted = 0;
  }

let ensure_var st v =
  if v >= st.nv then begin
    let nv = max (v + 1) (2 * st.nv) in
    let assigns = Array.make nv 0 in
    Array.blit st.assigns 0 assigns 0 st.nv;
    let watches = Array.init (2 * nv) (fun _ -> ivec ()) in
    Array.blit st.watches 0 watches 0 (2 * st.nv);
    st.assigns <- assigns;
    st.watches <- watches;
    st.nv <- nv
  end

(* make [wa]/[wb]/[active] indexable at [cid] *)
let ensure_cid st cid =
  (if cid >= Array.length st.wa then begin
     let cap = max (cid + 1) (2 * Array.length st.wa) in
     let wa = Array.make cap (-1) and wb = Array.make cap (-1) in
     Array.blit st.wa 0 wa 0 (Array.length st.wa);
     Array.blit st.wb 0 wb 0 (Array.length st.wb);
     st.wa <- wa;
     st.wb <- wb
   end);
  if cid >= Bytes.length st.active then begin
    let cap = max (cid + 1) (2 * Bytes.length st.active) in
    let b = Bytes.make cap '\000' in
    Bytes.blit st.active 0 b 0 (Bytes.length st.active);
    st.active <- b
  end

let is_active st cid = Bytes.unsafe_get st.active cid <> '\000'
let set_active st cid v = Bytes.set st.active cid (if v then '\001' else '\000')

(* append [lits] to the arena (no activation); returns the new cid *)
let arena_add st lits =
  let n = Array.length lits in
  if st.a_dlen + n > Array.length st.a_data then begin
    let cap = max (st.a_dlen + n) (2 * Array.length st.a_data) in
    let data = Array.make cap 0 in
    Array.blit st.a_data 0 data 0 st.a_dlen;
    st.a_data <- data
  end;
  if st.a_n = Array.length st.a_offs then begin
    let cap = 2 * Array.length st.a_offs in
    let offs = Array.make cap 0 and sizes = Array.make cap 0 in
    Array.blit st.a_offs 0 offs 0 st.a_n;
    Array.blit st.a_sizes 0 sizes 0 st.a_n;
    st.a_offs <- offs;
    st.a_sizes <- sizes
  end;
  Array.blit lits 0 st.a_data st.a_dlen n;
  st.a_offs.(st.a_n) <- st.a_dlen;
  st.a_sizes.(st.a_n) <- n;
  st.a_dlen <- st.a_dlen + n;
  let cid = st.a_n in
  st.a_n <- st.a_n + 1;
  cid

let value st l =
  let a = st.assigns.(l lsr 1) in
  if l land 1 = 0 then a else -a

let enqueue st l =
  st.assigns.(l lsr 1) <- (if l land 1 = 0 then 1 else -1);
  if st.trail_len = Array.length st.trail then begin
    let trail = Array.make (2 * st.trail_len) 0 in
    Array.blit st.trail 0 trail 0 st.trail_len;
    st.trail <- trail
  end;
  st.trail.(st.trail_len) <- l;
  st.trail_len <- st.trail_len + 1

exception Conflict

let propagate st =
  while st.qhead < st.trail_len do
    let p = st.trail.(st.qhead) in
    st.qhead <- st.qhead + 1;
    st.props <- st.props + 1;
    let fl = p lxor 1 in
    (* every clause watching [fl] — which just became false *)
    let ws = st.watches.(fl) in
    let i = ref 0 in
    while !i < ws.len do
      let cid = ws.data.(!i) in
      if not (is_active st cid) then begin
        ws.data.(!i) <- ws.data.(ws.len - 1);
        ws.len <- ws.len - 1
      end
      else begin
        let la = st.wa.(cid) in
        let lb = st.wb.(cid) in
        let other = if la = fl then lb else la in
        if value st other = 1 then incr i
        else begin
          let off = st.a_offs.(cid) in
          let n = st.a_sizes.(cid) in
          let repl = ref (-1) in
          let k = ref 0 in
          while !repl < 0 && !k < n do
            let l = st.a_data.(off + !k) in
            if l <> la && l <> lb && value st l <> -1 then repl := l;
            incr k
          done;
          if !repl >= 0 then begin
            (* move this clause's watch from [fl] to the replacement *)
            (if la = fl then st.wa.(cid) <- !repl else st.wb.(cid) <- !repl);
            ipush st.watches.(!repl) cid;
            ws.data.(!i) <- ws.data.(ws.len - 1);
            ws.len <- ws.len - 1
          end
          else if value st other = -1 then raise Conflict
          else begin
            if value st other = 0 then enqueue st other;
            incr i
          end
        end
      end
    done
  done

let propagate_root st =
  try propagate st
  with Conflict ->
    st.contradiction <- true;
    st.qhead <- st.trail_len

(* Activate an arena clause: set its flag, establish watches, record a
   level-0 consequence if it is unit. [lits] sorted, deduplicated,
   tautology-free (the invariant of every arena clause). *)
let activate st cid =
  let off = st.a_offs.(cid) in
  let n = st.a_sizes.(cid) in
  for k = 0 to n - 1 do
    ensure_var st (st.a_data.(off + k) lsr 1)
  done;
  ensure_cid st cid;
  set_active st cid true;
  if n = 0 then st.contradiction <- true
  else begin
    (* up to two non-false literals become the watches *)
    let w0 = ref (-1) and w1 = ref (-1) in
    let k = ref 0 in
    while !w1 < 0 && !k < n do
      let l = st.a_data.(off + !k) in
      if value st l <> -1 then if !w0 < 0 then w0 := l else w1 := l;
      incr k
    done;
    if !w0 < 0 then st.contradiction <- true
    else if !w1 < 0 then begin
      (* unit (or already satisfied) at level 0: the remaining literals
         are permanently false, so the clause can never be watched —
         record its level-0 consequence instead *)
      st.wa.(cid) <- -1;
      st.wb.(cid) <- -1;
      if value st !w0 = 0 then begin
        enqueue st !w0;
        propagate_root st
      end
    end
    else begin
      st.wa.(cid) <- !w0;
      st.wb.(cid) <- !w1;
      ipush st.watches.(!w0) cid;
      ipush st.watches.(!w1) cid
    end
  end

(* [lits] sorted, deduplicated, tautology-free *)
let insert st lits =
  let cid = arena_add st lits in
  let key = Array.to_list lits in
  (match Hashtbl.find_opt st.index key with
  | Some r -> r := cid :: !r
  | None -> Hashtbl.add st.index key (ref [ cid ]));
  activate st cid;
  cid

(* A clause id that names nothing: an empty clause never activated *)
let skip st = ensure_cid st (arena_add st [||])

(* An axiom is never deleted, so it skips the deletion index (whose
   list keys cost an allocation and a hash per clause). *)
let insert_axiom st lits =
  let cid = arena_add st lits in
  activate st cid;
  cid

(* Is asserting the negation of [lits] refuted by unit propagation?
   Temporary assignments are undone before returning. *)
let rup_implied st lits =
  st.contradiction
  ||
  let root = st.trail_len in
  let ok = ref false in
  (try
     Array.iter
       (fun l ->
         ensure_var st (l lsr 1);
         match value st l with
         | 1 -> raise Exit (* contains a level-0 truth: trivially implied *)
         | -1 -> ()
         | _ -> enqueue st (l lxor 1))
       lits;
     try propagate st with Conflict -> ok := true
   with Exit -> ok := true);
  for i = root to st.trail_len - 1 do
    st.assigns.(st.trail.(i) lsr 1) <- 0
  done;
  st.trail_len <- root;
  st.qhead <- root;
  !ok

(* Does asserting the negation of [lits] reach a conflict by unit steps
   on the clauses [hints] (clause ids) alone? A hint the database does
   not hold active is ignored, so hints can only fail to convince, never
   convince wrongly. They may come in any order: a pass fires every hint
   that has become unit, and passes repeat while one fires. No watch
   list is read. Temporary assignments are undone before returning. *)
let hinted_implied st lits hints =
  st.contradiction
  ||
  let root = st.trail_len in
  let ok = ref false in
  (try
     Array.iter
       (fun l ->
         ensure_var st (l lsr 1);
         match value st l with
         | 1 -> raise Exit
         | -1 -> ()
         | _ -> enqueue st (l lxor 1))
       lits;
     let pending = Array.copy hints in
     let n = ref (Array.length pending) in
     let fired = ref true in
     while !fired && not !ok do
       fired := false;
       let kept = ref 0 in
       let i = ref 0 in
       while (not !ok) && !i < !n do
         let cid = pending.(!i) in
         incr i;
         if cid >= 0 && cid < st.a_n && is_active st cid then begin
           let off = st.a_offs.(cid) in
           let stop = off + st.a_sizes.(cid) in
           let open_lit = ref (-1) and n_open = ref 0 and sat = ref false in
           let k = ref off in
           while (not !sat) && !k < stop do
             let l = st.a_data.(!k) in
             (match value st l with
             | 1 -> sat := true
             | 0 ->
                 incr n_open;
                 open_lit := l
             | _ -> ());
             incr k
           done;
           (* a satisfied hint stays satisfied: drop it *)
           if not !sat then
             if !n_open = 0 then ok := true
             else if !n_open = 1 then begin
               enqueue st !open_lit;
               fired := true
             end
             else begin
               pending.(!kept) <- cid;
               incr kept
             end
         end
       done;
       n := !kept
     done
   with Exit -> ok := true);
  for i = root to st.trail_len - 1 do
    st.assigns.(st.trail.(i) lsr 1) <- 0
  done;
  st.trail_len <- root;
  st.qhead <- root;
  !ok

let deactivate st cid =
  (* lazy detach: propagation skips inactive clauses. Level-0
     assignments implied by the clause are kept (drat-trim forward-mode
     semantics; the solver never revokes them either). *)
  set_active st cid false

let delete st lits =
  match Hashtbl.find_opt st.index (Array.to_list lits) with
  | Some r -> (
      match !r with
      | cid :: rest ->
          deactivate st cid;
          r := rest;
          Some cid
      | [] -> None)
  | None -> None

let assumptions_conflict st assumptions =
  st.contradiction
  ||
  let root = st.trail_len in
  let ok = ref false in
  (try
     List.iter
       (fun l ->
         ensure_var st (l lsr 1);
         match value st l with
         | -1 -> raise Exit (* assumption already refuted at level 0 *)
         | 1 -> ()
         | _ -> enqueue st l)
       assumptions;
     try propagate st with Conflict -> ok := true
   with Exit -> ok := true);
  for i = root to st.trail_len - 1 do
    st.assigns.(st.trail.(i) lsr 1) <- 0
  done;
  st.trail_len <- root;
  st.qhead <- root;
  !ok

(* ---- driver ---- *)

type summary = { adds : int; deletes : int; propagations : int }

exception Check_failed of string

let normalize lits =
  let sorted = List.sort_uniq Stdlib.compare lits in
  let rec tauto = function
    | a :: (b :: _ as rest) -> a lxor 1 = b || tauto rest
    | _ -> false
  in
  if tauto sorted then None else Some (Array.of_list sorted)

let load_cnf st clauses =
  List.iter
    (fun c ->
      match normalize (List.map L.to_int c) with
      | None -> () (* tautologies are vacuous *)
      | Some arr -> ignore (insert st arr))
    clauses;
  propagate_root st

let final_conflict st assumptions =
  st.contradiction || assumptions_conflict st (List.map L.to_int assumptions)

let no_conflict_reason =
  "certificate does not derive a conflict: no empty clause was added and \
   unit propagation under the assumptions succeeds"

let not_rup_reason = "added clause is not implied by unit propagation"

let step_lits lits = normalize (Array.to_list (Array.map L.to_int lits))

let validate_step ?(hints = [||]) st = function
  | Proof.Add lits -> (
      match step_lits lits with
      | None ->
          (* a tautology is trivially implied; it takes its id *)
          skip st;
          Ok ()
      | Some arr ->
          if
            hinted_implied st arr hints
            || begin
                 st.unhinted <- st.unhinted + 1;
                 rup_implied st arr
               end
          then begin
            ignore (insert st arr);
            Ok ()
          end
          else Error not_rup_reason)
  | Proof.Delete lits -> (
      match step_lits lits with
      | None -> Error "deletion of a tautology"
      | Some arr ->
          if delete st arr = None then
            Error "deleted clause is not in the database"
          else Ok ())

let check ?(assumptions = []) ~nvars ~clauses ~proof () =
  let st = create nvars in
  let adds = ref 0 and deletes = ref 0 in
  try
    load_cnf st clauses;
    List.iteri
      (fun i step ->
        (match step with
        | Proof.Add _ -> incr adds
        | Proof.Delete _ -> incr deletes);
        match validate_step st step with
        | Ok () -> ()
        | Error msg -> raise (Check_failed (Printf.sprintf "step %d: %s" i msg)))
      proof;
    if final_conflict st assumptions then
      Ok { adds = !adds; deletes = !deletes; propagations = st.props }
    else Error no_conflict_reason
  with Check_failed msg -> Error msg
