(* CDCL solver, MiniSat-flavoured. The implementation notes below follow
   the usual conventions:
   - assigns.(v): 0 = unassigned, 1 = true, -1 = false
   - a clause watches its first two literals; it is registered in the
     watch list of the *negation* of each watched literal, so when a
     literal p is enqueued (made true) the clauses in watches.(p) have a
     watched literal that just became false.

   Clauses live in one flat, growable int array, the arena. A clause
   reference (cref) is the index of the clause's header word:

     arena.(cr)          header: size lsl 2, lor 1 if learnt, lor 2 if removed
     arena.(cr + 1)      learnt slot: the clause's index in the learnt side
                         arrays (learnts, l_act, l_lbd, l_id); for a problem
                         clause [-2 - id], [id] its clause id in the
                         certificate stream (see [fresh_id]), or -1 once
                         compaction has moved a clause added untraced
     arena.(cr + 2 ..)   the size literals, Lit.to_int encoded

   Watch lists, reasons (-1 = none) and the problem and learnt clause
   sets hold crefs. Learnt activity, LBD and clause id live in unboxed
   side arrays indexed by the slot, which keeps the learnts in age
   order. Database reduction marks the learnts it deletes as removed,
   then compacts the arena in place: each survivor's new cref is parked
   in its slot word, every cref (watches, reasons, both clause sets) is
   rewritten through it, and the survivors slide down in arena order. *)

type options = {
  use_vsids : bool;
  use_restarts : bool;
  use_phase_saving : bool;
  use_minimization : bool;
  var_decay : float;
  clause_decay : float;
  restart_base : int;
  max_learnts_factor : float;
  init_polarity : bool;
}

let default_options =
  {
    use_vsids = true;
    use_restarts = true;
    use_phase_saving = true;
    use_minimization = true;
    var_decay = 0.95;
    clause_decay = 0.999;
    restart_base = 100;
    max_learnts_factor = 0.4;
    init_polarity = false;
  }

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;
  deleted_clauses : int;
}

type budget = {
  max_conflicts : int;
  max_propagations : int;
  max_seconds : float;
}

let no_budget = { max_conflicts = -1; max_propagations = -1; max_seconds = 0.0 }

let conflict_budget n = { no_budget with max_conflicts = n }
let time_budget s = { no_budget with max_seconds = s }

let scale_budget b f =
  let scale_i n = if n < 0 then n else max 1 (int_of_float (float_of_int n *. f)) in
  {
    max_conflicts = scale_i b.max_conflicts;
    max_propagations = scale_i b.max_propagations;
    max_seconds = (if b.max_seconds <= 0.0 then b.max_seconds else b.max_seconds *. f);
  }

let pp_budget fmt b =
  let parts =
    (if b.max_conflicts >= 0 then [ Printf.sprintf "conflicts<=%d" b.max_conflicts ] else [])
    @ (if b.max_propagations >= 0 then
         [ Printf.sprintf "propagations<=%d" b.max_propagations ]
       else [])
    @
    if b.max_seconds > 0.0 then [ Printf.sprintf "time<=%.3gs" b.max_seconds ]
    else []
  in
  Format.fprintf fmt "%s"
    (if parts = [] then "unlimited" else String.concat " " parts)

type tracer = {
  trace_add : Lit.t array -> int array -> unit;
  trace_delete : Lit.t array -> unit;
  trace_barrier : unit -> unit;
}

(* Watch list of one literal. Removal moves the last cref into the hole,
   so the order of a list is part of the search trajectory. *)
type watch = { mutable refs : int array; mutable n : int }

let watch_push w cr =
  if w.n = Array.length w.refs then begin
    let bigger = Array.make (max 4 (2 * w.n)) 0 in
    Array.blit w.refs 0 bigger 0 w.n;
    w.refs <- bigger
  end;
  w.refs.(w.n) <- cr;
  w.n <- w.n + 1

let watch_remove w cr =
  let i = ref 0 in
  while !i < w.n && w.refs.(!i) <> cr do
    incr i
  done;
  if !i < w.n then begin
    w.refs.(!i) <- w.refs.(w.n - 1);
    w.n <- w.n - 1
  end

let learnt_bit = 1
let removed_bit = 2

type lastres = RSat | RUnsat | RNone

type t = {
  opts : options;
  mutable nvars : int;
  mutable assigns : int array;  (* by var *)
  mutable level : int array;  (* by var *)
  mutable reason : int array;  (* by var: cref, -1 for none *)
  mutable activity : float array;  (* by var *)
  mutable polarity : bool array;  (* saved phase, by var *)
  mutable seen : bool array;  (* by var, scratch *)
  mutable watches : watch array;  (* by lit code *)
  mutable heap : int array;  (* binary max-heap of vars *)
  mutable heap_len : int;
  mutable heap_pos : int array;  (* by var; -1 when absent *)
  mutable trail : int array;  (* lit codes *)
  mutable trail_len : int;
  mutable trail_lim : int array;
  mutable trail_lim_len : int;
  mutable qhead : int;
  mutable arena : int array;  (* clause store, layout above *)
  mutable arena_len : int;
  mutable clauses : int array;  (* problem crefs, in addition order *)
  mutable p_slot : int array;  (* traced: their slot words, by index *)
  mutable n_clauses : int;
  mutable learnts : int array;  (* learnt crefs by slot, oldest first *)
  mutable l_act : float array;  (* learnt activity, by slot *)
  mutable l_lbd : int array;  (* learnt LBD, by slot *)
  mutable l_id : int array;  (* learnt clause id, by slot *)
  mutable nlearnts : int;
  mutable next_id : int;  (* the certificate stream's next clause id *)
  (* conflict-analysis scratch *)
  mutable out : int array;  (* the learnt clause being built, UIP first *)
  mutable out_len : int;
  mutable stack : int array;  (* minimisation DFS stack *)
  mutable clear : int array;  (* vars marked seen during analysis *)
  mutable clear_len : int;
  (* hints of the learnt clause being built, when tracing: the ids of
     the clauses analysis resolved on, latest first, and of the reasons
     minimisation used *)
  mutable hints : int array;
  mutable hints_len : int;
  mutable mhints : int array;
  mutable mhints_len : int;
  mutable lbd_stamp : int array;  (* by decision level *)
  mutable lbd_epoch : int;
  mutable assumptions : int array;  (* of the solve in flight *)
  mutable var_inc : float;
  mutable clause_inc : float;
  mutable ok : bool;  (* false once trivially unsat *)
  mutable model : int array;
  mutable last_result : lastres;
  mutable conflict_core : int list;  (* assumption lits of final conflict *)
  mutable terminate : (unit -> bool) option;  (* polled during search *)
  mutable tracer : tracer option;  (* DRUP certificate sink *)
  mutable input_hook : (Lit.t list -> unit) option;  (* sees add_clause input *)
  (* resource limits of the in-flight [solve_bounded] call, as absolute
     thresholds against the cumulative counters; -1 / nonpositive
     deadline mean unlimited *)
  mutable lim_conflicts : int;
  mutable lim_propagations : int;
  mutable lim_deadline : float;  (* Unix.gettimeofday threshold *)
  mutable lim_clock_poll : int;  (* countdown until the next clock read *)
  (* stats *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
  mutable n_restarts : int;
  mutable n_learnt_total : int;
  mutable n_deleted : int;
}

let create ?(options = default_options) () =
  {
    opts = options;
    nvars = 0;
    assigns = [||];
    level = [||];
    reason = [||];
    activity = [||];
    polarity = [||];
    seen = [||];
    watches = [||];
    heap = [||];
    heap_len = 0;
    heap_pos = [||];
    trail = [||];
    trail_len = 0;
    trail_lim = [||];
    trail_lim_len = 0;
    qhead = 0;
    arena = [||];
    arena_len = 0;
    clauses = [||];
    p_slot = [||];
    n_clauses = 0;
    learnts = [||];
    l_act = [||];
    l_lbd = [||];
    l_id = [||];
    nlearnts = 0;
    next_id = 0;
    out = Array.make 16 0;
    out_len = 0;
    stack = Array.make 16 0;
    clear = Array.make 16 0;
    clear_len = 0;
    hints = Array.make 16 0;
    hints_len = 0;
    mhints = Array.make 16 0;
    mhints_len = 0;
    lbd_stamp = [||];
    lbd_epoch = 0;
    assumptions = [||];
    var_inc = 1.0;
    clause_inc = 1.0;
    ok = true;
    model = [||];
    last_result = RNone;
    conflict_core = [];
    terminate = None;
    tracer = None;
    input_hook = None;
    lim_conflicts = -1;
    lim_propagations = -1;
    lim_deadline = 0.0;
    lim_clock_poll = 0;
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
    n_restarts = 0;
    n_learnt_total = 0;
    n_deleted = 0;
  }

let nvars t = t.nvars

(* [a], or a copy with room for at least [n] elements. The search loop
   tests the length before it calls this: storing an array into a field
   of [t] goes through the write barrier even when the array is the
   same. *)
let grow_array a n default =
  let old = Array.length a in
  if n <= old then a
  else begin
    let bigger = Array.make (max n (max 16 (2 * old))) default in
    Array.blit a 0 bigger 0 old;
    bigger
  end

(* ---- value of literals ---- *)

let lit_value t l =
  (* 1 true, -1 false, 0 undef *)
  let a = t.assigns.(l lsr 1) in
  if l land 1 = 0 then a else -a

(* ---- clause arena ---- *)

let clause_size t cr = t.arena.(cr) lsr 2

(* Append a clause holding [src.(0 .. len-1)]; returns its cref. The
   arena grows by half its size, close to MiniSat's region allocator;
   doubling measured a 6% higher peak RSS on the ledger's crosscheck
   workload. *)
let alloc_clause t ~learnt src len =
  let need = t.arena_len + 2 + len in
  if need > Array.length t.arena then begin
    let cap = Array.length t.arena in
    let bigger = Array.make (max need (max 1024 (cap + (cap / 2)))) 0 in
    Array.blit t.arena 0 bigger 0 t.arena_len;
    t.arena <- bigger
  end;
  let cr = t.arena_len in
  t.arena.(cr) <- (len lsl 2) lor if learnt then learnt_bit else 0;
  t.arena.(cr + 1) <- -1;
  Array.blit src 0 t.arena (cr + 2) len;
  t.arena_len <- need;
  cr

let clause_lits t cr =
  Array.init (clause_size t cr) (fun i -> Lit.of_int t.arena.(cr + 2 + i))

let clause_id t cr =
  let w = t.arena.(cr + 1) in
  if t.arena.(cr) land learnt_bit <> 0 then t.l_id.(w) else -2 - w

(* ---- VSIDS heap (max-heap on activity) ---- *)

(* A variable leaves the heap when it is picked and comes back when
   backtracking unassigns it; assigned variables stay in it until a pick
   pops them (lazy deletion). Sifting moves a hole: the moving variable's
   activity is read once, each parent or child it passes moves with one
   write, and the variable is written once, at its final slot. Which of
   two equal activities leaves the heap first is part of the search
   trajectory, so every comparison is a strict [>]. *)

(* [v] enters the hole at [i] and rises past every lesser parent. *)
let sift_up t v i =
  let heap = t.heap and pos = t.heap_pos and act = t.activity in
  let a = act.(v) in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) lsr 1 in
    let p = heap.(parent) in
    if a > act.(p) then begin
      heap.(!i) <- p;
      pos.(p) <- !i;
      i := parent
    end
    else moving := false
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

(* [v] enters the hole at [i] and sinks past every greater child, taking
   the right child only when it is strictly greater than the left. That
   choice is a coin flip for a branch predictor, so it is computed as
   [l + 0 or 1] instead of branched on. *)
let sift_down t v i =
  let heap = t.heap and pos = t.heap_pos and act = t.activity in
  let len = t.heap_len in
  let a = act.(v) in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= len then moving := false
    else begin
      let r = l + 1 in
      let c =
        if r < len then l + Bool.to_int (act.(heap.(r)) > act.(heap.(l))) else l
      in
      let cv = heap.(c) in
      if act.(cv) > a then begin
        heap.(!i) <- cv;
        pos.(cv) <- !i;
        i := c
      end
      else moving := false
    end
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    let i = t.heap_len in
    if i = Array.length t.heap then t.heap <- grow_array t.heap (i + 1) 0;
    t.heap_len <- i + 1;
    sift_up t v i
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_pos.(v) <- -1;
  let last = t.heap_len - 1 in
  t.heap_len <- last;
  if last > 0 then sift_down t t.heap.(last) 0;
  v

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  t.assigns <- grow_array t.assigns t.nvars 0;
  t.level <- grow_array t.level t.nvars 0;
  t.reason <- grow_array t.reason t.nvars (-1);
  t.activity <- grow_array t.activity t.nvars 0.0;
  t.polarity <- grow_array t.polarity t.nvars false;
  t.seen <- grow_array t.seen t.nvars false;
  t.heap_pos <- grow_array t.heap_pos t.nvars (-1);
  t.trail <- grow_array t.trail t.nvars 0;
  if Array.length t.watches < 2 * t.nvars then begin
    let old = Array.length t.watches in
    let bigger =
      Array.init (max (2 * t.nvars) (2 * old)) (fun i ->
          if i < old then t.watches.(i) else { refs = [||]; n = 0 })
    in
    t.watches <- bigger
  end;
  t.assigns.(v) <- 0;
  t.level.(v) <- 0;
  t.reason.(v) <- -1;
  t.activity.(v) <- 0.0;
  t.polarity.(v) <- t.opts.init_polarity;
  t.seen.(v) <- false;
  t.heap_pos.(v) <- -1;
  heap_insert t v;
  v

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.heap_pos.(v) >= 0 then sift_up t v t.heap_pos.(v)

let var_decay t = t.var_inc <- t.var_inc /. t.opts.var_decay

let clause_bump t slot =
  t.l_act.(slot) <- t.l_act.(slot) +. t.clause_inc;
  if t.l_act.(slot) > 1e20 then begin
    for i = 0 to t.nlearnts - 1 do
      t.l_act.(i) <- t.l_act.(i) *. 1e-20
    done;
    t.clause_inc <- t.clause_inc *. 1e-20
  end

let clause_decay t = t.clause_inc <- t.clause_inc /. t.opts.clause_decay

(* Register a learnt cref in the next slot, with zero activity. *)
let add_learnt t cr lbd id =
  let s = t.nlearnts in
  if s = Array.length t.learnts then begin
    (* the four grow together *)
    t.learnts <- grow_array t.learnts (s + 1) 0;
    t.l_act <- grow_array t.l_act (s + 1) 0.0;
    t.l_lbd <- grow_array t.l_lbd (s + 1) 0;
    t.l_id <- grow_array t.l_id (s + 1) 0
  end;
  t.learnts.(s) <- cr;
  t.l_act.(s) <- 0.0;
  t.l_lbd.(s) <- lbd;
  t.l_id.(s) <- id;
  t.arena.(cr + 1) <- s;
  t.nlearnts <- s + 1;
  s

(* ---- trail ---- *)

let decision_level t = t.trail_lim_len

(* the trail has room for every variable (see [new_var]) *)
let enqueue t l reason =
  let v = l lsr 1 in
  t.assigns.(v) <- (if l land 1 = 0 then 1 else -1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.trail.(t.trail_len) <- l;
  t.trail_len <- t.trail_len + 1

let new_decision_level t =
  if t.trail_lim_len = Array.length t.trail_lim then
    t.trail_lim <- grow_array t.trail_lim (t.trail_lim_len + 1) 0;
  t.trail_lim.(t.trail_lim_len) <- t.trail_len;
  t.trail_lim_len <- t.trail_lim_len + 1

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    let trail = t.trail and assigns = t.assigns and reason = t.reason in
    let saving = t.opts.use_phase_saving in
    for i = t.trail_len - 1 downto bound do
      let l = trail.(i) in
      let v = l lsr 1 in
      if saving then t.polarity.(v) <- l land 1 = 0;
      assigns.(v) <- 0;
      reason.(v) <- -1;
      heap_insert t v
    done;
    t.trail_len <- bound;
    t.qhead <- bound;
    t.trail_lim_len <- lvl
  end

(* ---- watches ---- *)

let attach t cr =
  watch_push t.watches.(t.arena.(cr + 2) lxor 1) cr;
  watch_push t.watches.(t.arena.(cr + 3) lxor 1) cr

let detach t cr =
  watch_remove t.watches.(t.arena.(cr + 2) lxor 1) cr;
  watch_remove t.watches.(t.arena.(cr + 3) lxor 1) cr

(* ---- propagation ---- *)

(* Returns the cref of a conflicting clause, or -1. Literal values are
   read from [assigns] directly: a literal [l] is true when its
   variable's value is [1 - 2 * (l land 1)] and false when it is the
   negation of that. [assigns], [trail], [watches] and the arena keep
   their arrays while propagation runs, and a replacement watch is never
   the visited literal's negation, so the visited watch list's array and
   length can live in locals until its scan ends. *)
let propagate t =
  let confl = ref (-1) in
  let assigns = t.assigns and level = t.level and reason = t.reason in
  let trail = t.trail and watches = t.watches and a = t.arena in
  let dl = decision_level t in
  while !confl < 0 && t.qhead < t.trail_len do
    let p = trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    t.n_propagations <- t.n_propagations + 1;
    let false_lit = p lxor 1 in
    let ws = watches.(p) in
    let refs = ws.refs in
    let i = ref 0 and n = ref ws.n in
    while !i < !n do
      let cr = refs.(!i) in
      let c0 = cr + 2 in
      (* Ensure the false literal is at position 1. *)
      let first =
        let l0 = a.(c0) in
        if l0 = false_lit then begin
          let l1 = a.(c0 + 1) in
          a.(c0) <- l1;
          a.(c0 + 1) <- false_lit;
          l1
        end
        else l0
      in
      let first_true = 1 - ((first land 1) lsl 1) in
      let first_value = assigns.(first lsr 1) in
      if first_value = first_true then incr i (* satisfied *)
      else begin
        (* the first literal from position 2 on that is not false *)
        let stop = c0 + (a.(cr) lsr 2) in
        let k = ref (c0 + 2) in
        while
          !k < stop
          &&
          let l = a.(!k) in
          assigns.(l lsr 1) = ((l land 1) lsl 1) - 1
        do
          incr k
        done;
        if !k < stop then begin
          let w = a.(!k) in
          a.(c0 + 1) <- w;
          a.(!k) <- false_lit;
          let wl = watches.(w lxor 1) in
          let wn = wl.n in
          if wn = Array.length wl.refs then watch_push wl cr
          else begin
            wl.refs.(wn) <- cr;
            wl.n <- wn + 1
          end;
          n := !n - 1;
          refs.(!i) <- refs.(!n)
        end
        else if first_value <> 0 then begin
          (* conflict *)
          t.qhead <- t.trail_len;
          confl := cr;
          i := !n
        end
        else begin
          (* unit *)
          let v = first lsr 1 in
          assigns.(v) <- first_true;
          level.(v) <- dl;
          reason.(v) <- cr;
          trail.(t.trail_len) <- first;
          t.trail_len <- t.trail_len + 1;
          incr i
        end
      end
    done;
    ws.n <- !n
  done;
  !confl

(* ---- proof tracing ---- *)

(* Every clause of the certificate stream takes the next id: the inputs
   of [add_clause] and the traced additions, counted together in stream
   order, with or without a tracer. *)
let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* The callbacks receive fresh arrays: arena literals are reordered later
   by watch swaps, so aliasing would corrupt the certificate. Returns
   the addition's clause id. *)
let trace_add t lits hints =
  (match t.tracer with
  | None -> ()
  | Some tr -> tr.trace_add (Array.map Lit.of_int lits) hints);
  fresh_id t

let trace_delete t cr =
  match t.tracer with
  | None -> ()
  | Some tr -> tr.trace_delete (clause_lits t cr)

let trace_barrier t =
  match t.tracer with None -> () | Some tr -> tr.trace_barrier ()

let set_tracer t tr = t.tracer <- tr
let set_input_hook t h = t.input_hook <- h

(* ---- clause addition ---- *)

let add_clause t lits =
  (match t.input_hook with Some f -> f lits | None -> ());
  let input = fresh_id t in
  if t.ok then begin
    t.last_result <- RNone;
    if decision_level t > 0 then cancel_until t 0;
    (* normalise: dedupe, drop false-at-0, detect tautology / sat-at-0 *)
    let lits = List.sort_uniq Int.compare (List.map Lit.to_int lits) in
    let n_orig = List.length lits in
    let tauto =
      let rec chk = function
        | a :: (b :: _ as rest) -> if a lxor 1 = b then true else chk rest
        | _ -> false
      in
      chk lits
    in
    if not tauto then begin
      let lits = List.filter (fun l -> lit_value t l <> -1) lits in
      let sat0 = List.exists (fun l -> lit_value t l = 1) lits in
      if not sat0 then
        (* the stored clause may be a strict strengthening of the input
           (false-at-0 literals dropped); trace it so a proof checker's
           clause database mirrors ours.  The strengthened clause is RUP
           w.r.t. the input clause plus the root-level units. *)
        let simplified = List.length lits < n_orig in
        match lits with
        | [] ->
            ignore (trace_add t [||] [| input |]);
            t.ok <- false
        | [ l ] ->
            if simplified then ignore (trace_add t [| l |] [| input |]);
            enqueue t l (-1);
            let confl = propagate t in
            if confl >= 0 then begin
              ignore (trace_add t [||] [| clause_id t confl |]);
              t.ok <- false
            end
        | _ ->
            let lits = Array.of_list lits in
            let id =
              if simplified then trace_add t lits [| input |] else input
            in
            let cr = alloc_clause t ~learnt:false lits (Array.length lits) in
            t.arena.(cr + 1) <- -2 - id;
            t.clauses <- grow_array t.clauses (t.n_clauses + 1) 0;
            t.clauses.(t.n_clauses) <- cr;
            if t.tracer <> None then begin
              t.p_slot <- grow_array t.p_slot (t.n_clauses + 1) (-1);
              t.p_slot.(t.n_clauses) <- -2 - id
            end;
            t.n_clauses <- t.n_clauses + 1;
            attach t cr
    end
  end

(* ---- conflict analysis ---- *)

let push_out t q =
  if t.out_len = Array.length t.out then
    t.out <- grow_array t.out (t.out_len + 1) 0;
  t.out.(t.out_len) <- q;
  t.out_len <- t.out_len + 1

let mark_seen t v =
  t.seen.(v) <- true;
  if t.clear_len = Array.length t.clear then
    t.clear <- grow_array t.clear (t.clear_len + 1) 0;
  t.clear.(t.clear_len) <- v;
  t.clear_len <- t.clear_len + 1

(* Number of distinct decision levels among the learnt clause's
   literals, counted with a per-level stamp. *)
let compute_lbd t =
  (* satisfied assumptions open levels of their own, so levels can
     outnumber variables *)
  if decision_level t >= Array.length t.lbd_stamp then
    t.lbd_stamp <- grow_array t.lbd_stamp (decision_level t + 1) 0;
  t.lbd_epoch <- t.lbd_epoch + 1;
  let n = ref 0 in
  for i = 0 to t.out_len - 1 do
    let lv = t.level.(t.out.(i) lsr 1) in
    if t.lbd_stamp.(lv) <> t.lbd_epoch then begin
      t.lbd_stamp.(lv) <- t.lbd_epoch;
      incr n
    end
  done;
  !n

let push_hint t id =
  if t.hints_len = Array.length t.hints then
    t.hints <- grow_array t.hints (t.hints_len + 1) 0;
  t.hints.(t.hints_len) <- id;
  t.hints_len <- t.hints_len + 1

let push_mhint t id =
  if t.mhints_len = Array.length t.mhints then
    t.mhints <- grow_array t.mhints (t.mhints_len + 1) 0;
  t.mhints.(t.mhints_len) <- id;
  t.mhints_len <- t.mhints_len + 1

(* Is l redundant w.r.t. the current learnt clause (all its reason
   antecedents eventually hit seen literals)? On failure, the marks
   added during this check are undone to keep later checks sound. When
   tracing, the reasons a successful check walked join the minimisation
   hints, deepest first. *)
let lit_redundant t l abstract_levels =
  let a = t.arena in
  let tracing = t.tracer <> None in
  let marks = t.clear_len in
  let hmark = t.mhints_len in
  t.stack.(0) <- l;
  let top = ref 1 in
  let ok = ref true in
  while !ok && !top > 0 do
    decr top;
    let cr = t.reason.(t.stack.(!top) lsr 1) in
    if cr < 0 then ok := false
    else begin
      if tracing then push_mhint t (clause_id t cr);
      let k = ref (cr + 2) in
      let stop = cr + 2 + (a.(cr) lsr 2) in
      while !ok && !k < stop do
        let q = a.(!k) in
        let v = q lsr 1 in
        if (not t.seen.(v)) && t.level.(v) > 0 then begin
          if
            t.reason.(v) >= 0
            && abstract_levels land (1 lsl (t.level.(v) land 31)) <> 0
          then begin
            mark_seen t v;
            if !top = Array.length t.stack then
              t.stack <- grow_array t.stack (!top + 1) 0;
            t.stack.(!top) <- q;
            incr top
          end
          else ok := false
        end;
        incr k
      done
    end
  done;
  if not !ok then begin
    for i = marks to t.clear_len - 1 do
      t.seen.(t.clear.(i)) <- false
    done;
    t.clear_len <- marks;
    t.mhints_len <- hmark
  end
  else begin
    let i = ref hmark and j = ref (t.mhints_len - 1) in
    while !i < !j do
      let tmp = t.mhints.(!i) in
      t.mhints.(!i) <- t.mhints.(!j);
      t.mhints.(!j) <- tmp;
      incr i;
      decr j
    done
  end;
  !ok

(* Leaves the learnt clause in [t.out] (UIP first, then the literal of
   the backtrack level) and returns the backtrack level. The lower-level
   literals are kept in reverse discovery order, which minimisation
   walks front to back. *)
let analyze t confl =
  let a = t.arena in
  let dl = decision_level t in
  let tracing = t.tracer <> None in
  t.out_len <- 1;
  t.clear_len <- 0;
  t.hints_len <- 0;
  t.mhints_len <- 0;
  let path_c = ref 0 in
  let p = ref (-1) in
  let index = ref (t.trail_len - 1) in
  let cr = ref confl in
  let continue_loop = ref true in
  while !continue_loop do
    let c = !cr in
    if tracing then push_hint t (clause_id t c);
    if a.(c) land learnt_bit <> 0 then clause_bump t a.(c + 1);
    for k = c + 2 to c + 1 + (a.(c) lsr 2) do
      let q = a.(k) in
      if q <> !p then begin
        let v = q lsr 1 in
        if (not t.seen.(v)) && t.level.(v) > 0 then begin
          var_bump t v;
          mark_seen t v;
          if t.level.(v) >= dl then incr path_c else push_out t q
        end
      end
    done;
    (* next literal to expand *)
    while not t.seen.(t.trail.(!index) lsr 1) do
      decr index
    done;
    p := t.trail.(!index);
    decr index;
    let v = !p lsr 1 in
    t.seen.(v) <- false;
    cr := t.reason.(v);
    decr path_c;
    if !path_c <= 0 then continue_loop := false
  done;
  let out = t.out in
  out.(0) <- !p lxor 1;
  (* reverse discovery order *)
  let i = ref 1 and j = ref (t.out_len - 1) in
  while !i < !j do
    let tmp = out.(!i) in
    out.(!i) <- out.(!j);
    out.(!j) <- tmp;
    incr i;
    decr j
  done;
  (* minimisation *)
  if t.opts.use_minimization then begin
    let abstract_levels = ref 0 in
    for i = 1 to t.out_len - 1 do
      abstract_levels :=
        !abstract_levels lor (1 lsl (t.level.(out.(i) lsr 1) land 31))
    done;
    let kept = ref 1 in
    for i = 1 to t.out_len - 1 do
      let q = out.(i) in
      if t.reason.(q lsr 1) < 0 || not (lit_redundant t q !abstract_levels)
      then begin
        out.(!kept) <- q;
        incr kept
      end
    done;
    t.out_len <- !kept
  end;
  for i = 0 to t.clear_len - 1 do
    t.seen.(t.clear.(i)) <- false
  done;
  (* backtrack level: highest level among the tail; move that literal
     to position 1 so it is watched. *)
  if t.out_len = 1 then 0
  else begin
    let max_i = ref 1 in
    for i = 2 to t.out_len - 1 do
      if t.level.(out.(i) lsr 1) > t.level.(out.(!max_i) lsr 1) then max_i := i
    done;
    let tmp = out.(1) in
    out.(1) <- out.(!max_i);
    out.(!max_i) <- tmp;
    t.level.(out.(1) lsr 1)
  end

(* Final conflict analysis: [failed] is an assumption literal found
   false. Returns the subset of assumption literals responsible (the
   decisions reachable in the reason graph from [failed]), including
   [failed] itself. Marks go on the [seen] scratch. The walk covers the
   trail from level 1 up and clears each mark it passes; a level-0
   variable sits below the walk, so it is never marked. *)
let analyze_final t failed =
  let core = ref [ failed ] in
  if decision_level t > 0 then begin
    let seen = t.seen and level = t.level in
    let mark v = if level.(v) > 0 then seen.(v) <- true in
    mark (failed lsr 1);
    for i = t.trail_len - 1 downto t.trail_lim.(0) do
      let q = t.trail.(i) in
      let v = q lsr 1 in
      if seen.(v) then begin
        let cr = t.reason.(v) in
        if cr < 0 then begin
          (* a decision at level >= 1 under assumptions is an
             assumption; it was enqueued with its own polarity *)
          if q <> failed then core := q :: !core
        end
        else
          for k = cr + 2 to cr + 1 + clause_size t cr do
            let r = t.arena.(k) in
            if r <> q then mark (r lsr 1)
          done;
        seen.(v) <- false
      end
    done
  end;
  !core

(* ---- learnt DB reduction ---- *)

let m_arena_compactions = Obs.Metrics.counter "sat.arena_compactions"

(* Reclaim removed clauses. First pass: park each survivor's new cref in
   its slot word. Then rewrite every cref through it, and slide the
   survivors down in arena order, restoring slot words as they go
   (learnts occupy the arena in slot order), and a traced solver's
   problem clause ids last. *)
let compact t =
  let a = t.arena in
  let dst = ref 0 and cr = ref 0 in
  while !cr < t.arena_len do
    let len = 2 + (a.(!cr) lsr 2) in
    if a.(!cr) land removed_bit = 0 then begin
      a.(!cr + 1) <- !dst;
      dst := !dst + len
    end;
    cr := !cr + len
  done;
  Array.iter
    (fun w ->
      for j = 0 to w.n - 1 do
        w.refs.(j) <- a.(w.refs.(j) + 1)
      done)
    t.watches;
  for v = 0 to t.nvars - 1 do
    if t.reason.(v) >= 0 then t.reason.(v) <- a.(t.reason.(v) + 1)
  done;
  for i = 0 to t.n_clauses - 1 do
    t.clauses.(i) <- a.(t.clauses.(i) + 1)
  done;
  for i = 0 to t.nlearnts - 1 do
    t.learnts.(i) <- a.(t.learnts.(i) + 1)
  done;
  let slot = ref 0 in
  cr := 0;
  while !cr < t.arena_len do
    let hdr = a.(!cr) in
    let len = 2 + (hdr lsr 2) in
    if hdr land removed_bit = 0 then begin
      let d = a.(!cr + 1) in
      Array.blit a !cr a d len;
      if hdr land learnt_bit <> 0 then begin
        a.(d + 1) <- !slot;
        incr slot
      end
      else a.(d + 1) <- -1
    end;
    cr := !cr + len
  done;
  Array.iteri
    (fun i w -> if i < t.n_clauses then a.(t.clauses.(i) + 1) <- w)
    t.p_slot;
  t.arena_len <- !dst;
  Obs.Metrics.incr m_arena_compactions

let reduce_db t =
  let n = t.nlearnts in
  (* worse first: higher lbd, then lower activity; the sort is not
     stable, so it is fed the learnts most recent first *)
  let order = Array.init n (fun i -> n - 1 - i) in
  Array.sort
    (fun x y ->
      if t.l_lbd.(x) <> t.l_lbd.(y) then Int.compare t.l_lbd.(y) t.l_lbd.(x)
      else Float.compare t.l_act.(x) t.l_act.(y))
    order;
  let a = t.arena in
  let locked cr =
    let l = a.(cr + 2) in
    lit_value t l = 1 && t.reason.(l lsr 1) = cr
  in
  let removed = ref 0 in
  Array.iteri
    (fun i s ->
      let cr = t.learnts.(s) in
      if i < n / 2 && t.l_lbd.(s) > 2 && not (locked cr) then begin
        trace_delete t cr;
        a.(cr) <- a.(cr) lor removed_bit;
        detach t cr;
        incr removed
      end)
    order;
  (* close the slot gaps, keeping age order *)
  let kept = ref 0 in
  for s = 0 to n - 1 do
    let cr = t.learnts.(s) in
    if a.(cr) land removed_bit = 0 then begin
      t.learnts.(!kept) <- cr;
      t.l_act.(!kept) <- t.l_act.(s);
      t.l_lbd.(!kept) <- t.l_lbd.(s);
      t.l_id.(!kept) <- t.l_id.(s);
      incr kept
    end
  done;
  t.nlearnts <- !kept;
  t.n_deleted <- t.n_deleted + !removed;
  if !removed > 0 then compact t

(* ---- decisions ---- *)

let pick_branch_var t =
  if t.opts.use_vsids then begin
    let v = ref (-1) in
    while !v < 0 && t.heap_len > 0 do
      let cand = heap_pop t in
      if t.assigns.(cand) = 0 then v := cand
    done;
    !v
  end
  else begin
    let rec find i =
      if i >= t.nvars then -1 else if t.assigns.(i) = 0 then i else find (i + 1)
    in
    find 0
  end

let luby y x =
  (* MiniSat's Luby sequence: find the finite subsequence containing
     index x, then the position within it. *)
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  y ** float_of_int !seq

(* ---- main search ---- *)

type result = Sat | Unsat

exception Found of result
exception Interrupted
exception Budget_exhausted of string

let check_terminate t =
  (match t.terminate with
  | Some f -> if f () then raise Interrupted
  | None -> ());
  if t.lim_conflicts >= 0 && t.n_conflicts >= t.lim_conflicts then
    raise (Budget_exhausted "conflict budget exhausted");
  if t.lim_propagations >= 0 && t.n_propagations >= t.lim_propagations then
    raise (Budget_exhausted "propagation budget exhausted");
  if t.lim_deadline > 0.0 then begin
    (* the clock is orders of magnitude dearer than a counter compare:
       read it once every 256 search steps *)
    t.lim_clock_poll <- t.lim_clock_poll - 1;
    if t.lim_clock_poll <= 0 then begin
      t.lim_clock_poll <- 256;
      if Unix.gettimeofday () > t.lim_deadline then
        raise (Budget_exhausted "time budget exhausted")
    end
  end

(* The hints of the clause [analyze] left in [t.out]: the reasons
   minimisation used, then the clauses analysis resolved on in trail
   order, the conflict last. Asserting the negation of the learnt
   clause, each hint in turn becomes unit or, the last, false. *)
let learnt_hints t =
  let m = t.mhints_len and n = t.hints_len in
  Array.init (m + n) (fun i ->
      if i < m then t.mhints.(i) else t.hints.(n - 1 - (i - m)))

(* Learn from the conflict at [confl] and backjump. *)
let learn t confl =
  let bt = analyze t confl in
  let lbd = compute_lbd t in
  (match t.tracer with
  | None -> ()
  | Some tr ->
      tr.trace_add
        (Array.init t.out_len (fun i -> Lit.of_int t.out.(i)))
        (learnt_hints t));
  let id = fresh_id t in
  cancel_until t bt;
  if t.out_len = 1 then enqueue t t.out.(0) (-1)
  else begin
    let cr = alloc_clause t ~learnt:true t.out t.out_len in
    let slot = add_learnt t cr lbd id in
    t.n_learnt_total <- t.n_learnt_total + 1;
    clause_bump t slot;
    attach t cr;
    enqueue t t.out.(0) cr
  end;
  var_decay t;
  clause_decay t

(* The next literal to decide: the first open assumption, else a branch
   variable in its saved phase. Raises [Found] when an assumption is
   false (Unsat) or every variable is assigned (Sat). *)
let rec next_decision t =
  let dl = decision_level t in
  if dl < Array.length t.assumptions then begin
    let p = t.assumptions.(dl) in
    let pv = lit_value t p in
    if pv = 1 then begin
      (* already satisfied *)
      new_decision_level t;
      next_decision t
    end
    else if pv = -1 then begin
      t.conflict_core <- analyze_final t p;
      raise (Found Unsat)
    end
    else p
  end
  else begin
    let v = pick_branch_var t in
    if v < 0 then raise (Found Sat)
    else (2 * v) + if t.polarity.(v) then 0 else 1
  end

(* Returns Some result, or None once [conflict_budget] conflicts call
   for a restart. *)
let search t ~conflict_budget =
  let max_learnts =
    max 1000
      (int_of_float
         (t.opts.max_learnts_factor *. float_of_int t.n_clauses))
  in
  let conflicts_here = ref 0 in
  let restart = ref false in
  try
    while not !restart do
      check_terminate t;
      let confl = propagate t in
      if confl >= 0 then begin
        t.n_conflicts <- t.n_conflicts + 1;
        incr conflicts_here;
        if decision_level t = 0 then begin
          ignore (trace_add t [||] [| clause_id t confl |]);
          t.ok <- false;
          t.conflict_core <- [];
          raise (Found Unsat)
        end;
        learn t confl
      end
      else if
        t.opts.use_restarts
        && conflict_budget >= 0
        && !conflicts_here >= conflict_budget
      then begin
        cancel_until t 0;
        t.n_restarts <- t.n_restarts + 1;
        trace_barrier t;
        restart := true
      end
      else begin
        if t.nlearnts >= max_learnts then begin
          reduce_db t;
          trace_barrier t
        end;
        let next = next_decision t in
        t.n_decisions <- t.n_decisions + 1;
        new_decision_level t;
        enqueue t next (-1)
      end
    done;
    None
  with Found r -> Some r

type outcome = Solved of result | Unknown of string

let clear_limits t =
  t.lim_conflicts <- -1;
  t.lim_propagations <- -1;
  t.lim_deadline <- 0.0

let set_limits t budget =
  t.lim_conflicts <-
    (if budget.max_conflicts < 0 then -1
     else t.n_conflicts + budget.max_conflicts);
  t.lim_propagations <-
    (if budget.max_propagations < 0 then -1
     else t.n_propagations + budget.max_propagations);
  t.lim_deadline <-
    (if budget.max_seconds <= 0.0 then 0.0
     else Unix.gettimeofday () +. budget.max_seconds);
  t.lim_clock_poll <- 0

let solve_bounded_core ?(assumptions = []) ?(budget = no_budget) t =
  if not t.ok then begin
    t.last_result <- RUnsat;
    t.conflict_core <- [];
    Solved Unsat
  end
  else begin
    cancel_until t 0;
    t.conflict_core <- [];
    t.assumptions <- Array.of_list (List.map Lit.to_int assumptions);
    set_limits t budget;
    let rec loop restarts =
      let budget =
        if t.opts.use_restarts then
          int_of_float (luby 2.0 restarts *. float_of_int t.opts.restart_base)
        else -1
      in
      match search t ~conflict_budget:budget with
      | Some r -> r
      | None -> loop (restarts + 1)
    in
    match loop 0 with
    | r ->
        clear_limits t;
        (match r with
        | Sat ->
            t.model <- Array.sub t.assigns 0 t.nvars;
            t.last_result <- RSat
        | Unsat -> t.last_result <- RUnsat);
        cancel_until t 0;
        Solved r
    | exception Interrupted ->
        (* leave the solver reusable: unwind to level 0 *)
        clear_limits t;
        cancel_until t 0;
        t.last_result <- RNone;
        raise Interrupted
    | exception Budget_exhausted reason ->
        (* same unwinding discipline as Interrupted, but the exhaustion
           is a result, not a control transfer: the caller keeps racing
           siblings or escalates the budget on the same solver *)
        clear_limits t;
        cancel_until t 0;
        t.last_result <- RNone;
        Unknown reason
  end

(* Observability handles, hoisted so the per-solve cost is a handful
   of atomic adds (plus one span line when tracing is on). *)
let m_solves = Obs.Metrics.counter "sat.solves"
let m_budget_exhausted = Obs.Metrics.counter "sat.budget_exhausted"
let m_conflicts = Obs.Metrics.counter "sat.conflicts"
let m_decisions = Obs.Metrics.counter "sat.decisions"
let m_propagations = Obs.Metrics.counter "sat.propagations"
let m_restarts = Obs.Metrics.counter "sat.restarts"
let h_solve_seconds = Obs.Metrics.histogram "sat.solve_seconds"
let h_ppc = Obs.Metrics.histogram "sat.propagations_per_conflict"

let solve_bounded ?(assumptions = []) ?(budget = no_budget) t =
  Obs.Metrics.incr m_solves;
  let c0 = t.n_conflicts
  and d0 = t.n_decisions
  and p0 = t.n_propagations
  and r0 = t.n_restarts in
  let t0 = Unix.gettimeofday () in
  let finish verdict =
    let dc = t.n_conflicts - c0
    and dd = t.n_decisions - d0
    and dp = t.n_propagations - p0 in
    Obs.Metrics.add m_conflicts dc;
    Obs.Metrics.add m_decisions dd;
    Obs.Metrics.add m_propagations dp;
    Obs.Metrics.add m_restarts (t.n_restarts - r0);
    Obs.Metrics.observe h_solve_seconds (Unix.gettimeofday () -. t0);
    if dc > 0 then
      Obs.Metrics.observe h_ppc (float_of_int dp /. float_of_int dc);
    (match verdict with
    | Some (Unknown _) -> Obs.Metrics.incr m_budget_exhausted
    | _ -> ());
    if Obs.Trace.enabled () then
      Obs.Trace.emit_span "sat.solve" ~t0 ~t1:(Unix.gettimeofday ())
        ~attrs:
          [
            ( "result",
              Obs.Trace.Str
                (match verdict with
                | Some (Solved Sat) -> "sat"
                | Some (Solved Unsat) -> "unsat"
                | Some (Unknown _) -> "unknown"
                | None -> "interrupted") );
            ("conflicts", Obs.Trace.Int dc);
            ("decisions", Obs.Trace.Int dd);
            ("propagations", Obs.Trace.Int dp);
          ]
  in
  match solve_bounded_core ~assumptions ~budget t with
  | r ->
      finish (Some r);
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish None;
      Printexc.raise_with_backtrace e bt

let solve ?(assumptions = []) t =
  match solve_bounded ~assumptions t with
  | Solved r -> r
  | Unknown _ -> assert false (* no budget was set *)

let set_terminate t f = t.terminate <- f

let export t =
  (* Snapshot the problem: all original clauses plus the level-0 trail
     (root-level units and their propagation consequences) as unit
     clauses. Learnt clauses are implied and intentionally left out, so
     a portfolio racer starts from the same logical problem with its
     own search dynamics. *)
  if decision_level t > 0 then cancel_until t 0;
  let units =
    List.init t.trail_len (fun i -> [ Lit.of_int t.trail.(i) ])
  in
  let clauses =
    if t.ok then
      List.init t.n_clauses (fun i ->
          Array.to_list (clause_lits t t.clauses.(i)))
    else [ [] ]
  in
  (t.nvars, List.rev_append (List.rev units) clauses)

let nclauses t =
  (* same view of the problem as [export]: original clauses plus the
     root-level trail as units, learnt clauses excluded *)
  if decision_level t > 0 then cancel_until t 0;
  t.n_clauses + t.trail_len

let value t l =
  if t.last_result <> RSat then invalid_arg "Solver.value: last result not Sat";
  let v = Lit.var l in
  if v >= Array.length t.model then invalid_arg "Solver.value: unknown var";
  let a = t.model.(v) in
  (* unassigned vars (eliminated by simplification) default to false *)
  if Lit.sign l then a = 1 else a <> 1

let value_var t v = value t (Lit.pos v)

let unsat_assumptions t =
  if t.last_result <> RUnsat then
    invalid_arg "Solver.unsat_assumptions: last result not Unsat";
  List.map Lit.of_int t.conflict_core

let stats t =
  {
    conflicts = t.n_conflicts;
    decisions = t.n_decisions;
    propagations = t.n_propagations;
    restarts = t.n_restarts;
    learnt_clauses = t.n_learnt_total;
    deleted_clauses = t.n_deleted;
  }

let diff_stats a b =
  {
    conflicts = a.conflicts - b.conflicts;
    decisions = a.decisions - b.decisions;
    propagations = a.propagations - b.propagations;
    restarts = a.restarts - b.restarts;
    learnt_clauses = a.learnt_clauses - b.learnt_clauses;
    deleted_clauses = a.deleted_clauses - b.deleted_clauses;
  }

let add_stats a b =
  {
    conflicts = a.conflicts + b.conflicts;
    decisions = a.decisions + b.decisions;
    propagations = a.propagations + b.propagations;
    restarts = a.restarts + b.restarts;
    learnt_clauses = a.learnt_clauses + b.learnt_clauses;
    deleted_clauses = a.deleted_clauses + b.deleted_clauses;
  }

let zero_stats =
  {
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    learnt_clauses = 0;
    deleted_clauses = 0;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "conflicts=%d decisions=%d propagations=%d restarts=%d learnt=%d deleted=%d"
    s.conflicts s.decisions s.propagations s.restarts s.learnt_clauses
    s.deleted_clauses
