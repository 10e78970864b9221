(* Tests for the CDCL SAT solver: handwritten instances, classic
   families, and random instances cross-checked against brute force. *)

open Satsolver

let lit v s = Lit.make v s

let mk_solver ?options nv =
  let s = Solver.create ?options () in
  for _ = 1 to nv do
    ignore (Solver.new_var s)
  done;
  s

let all_option_variants =
  let d = Solver.default_options in
  [
    ("default", d);
    ("no_vsids", { d with Solver.use_vsids = false });
    ("no_restarts", { d with Solver.use_restarts = false });
    ("no_phase", { d with Solver.use_phase_saving = false });
    ("no_minimize", { d with Solver.use_minimization = false });
    ( "bare",
      {
        d with
        Solver.use_vsids = false;
        use_restarts = false;
        use_phase_saving = false;
        use_minimization = false;
      } );
  ]

(* ---- brute force reference ---- *)

let brute_force nv clauses =
  (* true = satisfiable *)
  let rec try_assignment bits =
    if bits >= 1 lsl nv then false
    else
      let sat_clause clause =
        List.exists
          (fun l ->
            let v = Lit.var l in
            let value = bits land (1 lsl v) <> 0 in
            if Lit.sign l then value else not value)
          clause
      in
      if List.for_all sat_clause clauses then true
      else try_assignment (bits + 1)
  in
  try_assignment 0

let check_model s clauses =
  List.for_all (fun clause -> List.exists (fun l -> Solver.value s l) clause)
    clauses

(* ---- handwritten cases ---- *)

let test_empty () =
  let s = mk_solver 3 in
  Alcotest.(check bool) "no clauses is sat" true (Solver.solve s = Solver.Sat)

let test_unit () =
  let s = mk_solver 2 in
  Solver.add_clause s [ lit 0 true ];
  Solver.add_clause s [ lit 1 false ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "v0 true" true (Solver.value s (lit 0 true));
  Alcotest.(check bool) "v1 false" true (Solver.value s (lit 1 false))

let test_conflicting_units () =
  let s = mk_solver 1 in
  Solver.add_clause s [ lit 0 true ];
  Solver.add_clause s [ lit 0 false ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_empty_clause () =
  let s = mk_solver 1 in
  Solver.add_clause s [];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_implication_chain () =
  (* x0 -> x1 -> ... -> x9, x0 asserted, ~x9 asserted: unsat *)
  let s = mk_solver 10 in
  for i = 0 to 8 do
    Solver.add_clause s [ lit i false; lit (i + 1) true ]
  done;
  Solver.add_clause s [ lit 0 true ];
  Solver.add_clause s [ lit 9 false ];
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat)

let test_implication_chain_sat () =
  let s = mk_solver 10 in
  for i = 0 to 8 do
    Solver.add_clause s [ lit i false; lit (i + 1) true ]
  done;
  Solver.add_clause s [ lit 0 true ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  for i = 0 to 9 do
    Alcotest.(check bool)
      (Printf.sprintf "x%d forced true" i)
      true
      (Solver.value s (lit i true))
  done

let test_tautology_dropped () =
  let s = mk_solver 2 in
  Solver.add_clause s [ lit 0 true; lit 0 false ];
  Solver.add_clause s [ lit 1 true ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

let pigeonhole s pigeons holes =
  (* var p*holes + h: pigeon p in hole h *)
  let v p h = lit ((p * holes) + h) true in
  let nv p h = lit ((p * holes) + h) false in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> v p h))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ nv p1 h; nv p2 h ]
      done
    done
  done

let test_pigeonhole_unsat () =
  List.iter
    (fun (name, options) ->
      let s = mk_solver ~options (5 * 4) in
      pigeonhole s 5 4;
      Alcotest.(check bool)
        (Printf.sprintf "php(5,4) unsat under %s" name)
        true
        (Solver.solve s = Solver.Unsat))
    all_option_variants

let test_pigeonhole_sat () =
  let s = mk_solver (4 * 4) in
  pigeonhole s 4 4;
  Alcotest.(check bool) "php(4,4) sat" true (Solver.solve s = Solver.Sat)

let test_assumptions () =
  let s = mk_solver 3 in
  Solver.add_clause s [ lit 0 false; lit 1 true ];
  (* x0 -> x1 *)
  Solver.add_clause s [ lit 1 false; lit 2 true ];
  (* x1 -> x2 *)
  Alcotest.(check bool)
    "sat under x0" true
    (Solver.solve ~assumptions:[ lit 0 true ] s = Solver.Sat);
  Alcotest.(check bool) "x2 implied" true (Solver.value s (lit 2 true));
  Alcotest.(check bool)
    "unsat under x0 & ~x2" true
    (Solver.solve ~assumptions:[ lit 0 true; lit 2 false ] s = Solver.Unsat);
  Alcotest.(check bool)
    "sat again without assumptions" true
    (Solver.solve s = Solver.Sat)

let test_unsat_core () =
  let s = mk_solver 4 in
  Solver.add_clause s [ lit 0 false; lit 1 true ];
  Solver.add_clause s [ lit 1 false; lit 2 true ];
  let r =
    Solver.solve ~assumptions:[ lit 3 true; lit 0 true; lit 2 false ] s
  in
  Alcotest.(check bool) "unsat" true (r = Solver.Unsat);
  let core = Solver.unsat_assumptions s in
  Alcotest.(check bool) "core nonempty" true (core <> []);
  Alcotest.(check bool)
    "core is subset of assumptions" true
    (List.for_all
       (fun l -> List.mem l [ lit 3 true; lit 0 true; lit 2 false ])
       core);
  Alcotest.(check bool)
    "irrelevant assumption not in core" true
    (not (List.mem (lit 3 true) core))

let test_incremental () =
  let s = mk_solver 3 in
  Solver.add_clause s [ lit 0 true; lit 1 true ];
  Alcotest.(check bool) "sat 1" true (Solver.solve s = Solver.Sat);
  Solver.add_clause s [ lit 0 false ];
  Alcotest.(check bool) "sat 2" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "x1 now forced" true (Solver.value s (lit 1 true));
  Solver.add_clause s [ lit 1 false ];
  Alcotest.(check bool) "unsat 3" true (Solver.solve s = Solver.Unsat)

let test_new_vars_after_solve () =
  let s = mk_solver 1 in
  Solver.add_clause s [ lit 0 true ];
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  let v = Solver.new_var s in
  Solver.add_clause s [ lit v false ];
  Alcotest.(check bool) "still sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "new var false" true (Solver.value s (lit v false))

let test_dimacs_roundtrip () =
  let text = "c comment\np cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n" in
  let nv, clauses = Dimacs.parse text in
  Alcotest.(check int) "vars" 3 nv;
  Alcotest.(check int) "clauses" 3 (List.length clauses);
  let printed = Format.asprintf "%a" Dimacs.print (nv, clauses) in
  let nv', clauses' = Dimacs.parse printed in
  Alcotest.(check bool) "roundtrip" true (nv = nv' && clauses = clauses');
  let s = Solver.create () in
  Dimacs.load s text;
  Alcotest.(check bool) "solvable" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "x1 false" true (Solver.value s (lit 0 false));
  Alcotest.(check bool) "x2 true (1 -2 with -1)" true
    (Solver.value s (lit 1 false));
  Alcotest.(check bool) "x3 true" true (Solver.value s (lit 2 true))

let test_dimacs_robustness () =
  (* comments anywhere, blank lines, tabs, CRLF, trailing whitespace,
     clauses split across lines, SATLIB '%' end marker *)
  let text =
    "c header comment\r\n\
     \r\n\
     p cnf 4 4   \r\n\
     1\t-2 0\n\
     c mid comment\n\
     \   \n\
     2 3\n\
     0\n\
     -1 4 0  \n\
     -4 0\n\
     %\n\
     0\n\
     this is garbage after the end marker\n"
  in
  let nv, clauses = Dimacs.parse text in
  Alcotest.(check int) "vars" 4 nv;
  Alcotest.(check int) "clauses" 4 (List.length clauses);
  let expect = "p cnf 4 4\n1 -2 0\n2 3 0\n-1 4 0\n-4 0\n" in
  Alcotest.(check string) "printed"
    expect
    (Format.asprintf "%a" Dimacs.print (nv, clauses));
  (* a clause not terminated by 0 at EOF is still flushed *)
  let _, c2 = Dimacs.parse "p cnf 2 1\n1 2\n" in
  Alcotest.(check int) "unterminated clause" 1 (List.length c2);
  (* malformed input still errors *)
  (match Dimacs.parse "p cnf 2 1\n1 x 0\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "junk literal must be rejected")

let test_dimacs_header_mismatch_counter () =
  let c = Obs.Metrics.counter "dimacs.header_mismatch" in
  let before = Obs.Metrics.counter_value c in
  (* header promises 3 clauses, file has 1 *)
  let nv, clauses = Dimacs.parse "p cnf 2 3\n1 2 0\n" in
  Alcotest.(check int) "vars" 2 nv;
  Alcotest.(check int) "clauses still parsed" 1 (List.length clauses);
  Alcotest.(check int) "mismatch counted" (before + 1)
    (Obs.Metrics.counter_value c);
  (* a consistent header does not bump the counter *)
  ignore (Dimacs.parse "p cnf 2 1\n1 2 0\n");
  Alcotest.(check int) "no false positive" (before + 1)
    (Obs.Metrics.counter_value c)

let test_dimacs_parse_file_fd_cleanup () =
  (* parse_file must close its channel even when parsing raises;
     regression for the fd leak on malformed input *)
  let path = Filename.temp_file "upec" ".cnf" in
  let oc = open_out path in
  output_string oc "p cnf 2 1\n1 x 0\n";
  close_out oc;
  let count_fds () =
    if Sys.file_exists "/proc/self/fd" then
      Array.length (Sys.readdir "/proc/self/fd")
    else -1
  in
  let before = count_fds () in
  for _ = 1 to 50 do
    match Dimacs.parse_file path with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "malformed file must be rejected"
  done;
  let after = count_fds () in
  Sys.remove path;
  if before >= 0 then
    Alcotest.(check int) "no fd leaked across 50 failing parses" before after

let qcheck_dimacs_roundtrip =
  (* print/parse is the identity on arbitrary well-formed problems *)
  let gen =
    QCheck.Gen.(
      sized_size (int_range 1 12) (fun nc ->
          let* nv = int_range 1 8 in
          let* clauses =
            list_size (return nc)
              (list_size (int_range 1 4)
                 (let* v = int_range 0 (nv - 1) in
                  let* s = bool in
                  return (Lit.make v s)))
          in
          return (nv, clauses)))
  in
  QCheck.Test.make ~count:200 ~name:"dimacs print/parse roundtrip"
    (QCheck.make gen)
    (fun (nv, clauses) ->
      let printed = Format.asprintf "%a" Dimacs.print (nv, clauses) in
      let nv', clauses' = Dimacs.parse printed in
      nv = nv' && clauses = clauses')

let test_stats_populated () =
  let s = mk_solver (5 * 4) in
  pigeonhole s 5 4;
  ignore (Solver.solve s);
  let st = Solver.stats s in
  Alcotest.(check bool) "conflicts > 0" true (st.Solver.conflicts > 0);
  Alcotest.(check bool) "propagations > 0" true (st.Solver.propagations > 0)

(* ---- randomised cross-check ---- *)

let random_cnf rand_state ~nv ~nc ~len =
  List.init nc (fun _ ->
      List.init len (fun _ ->
          let v = Random.State.int rand_state nv in
          lit v (Random.State.bool rand_state)))

let qcheck_random_vs_brute =
  QCheck.Test.make ~count:300 ~name:"random 3-cnf matches brute force"
    QCheck.(triple (int_range 1 10) (int_range 1 40) (int_range 0 1073741823))
    (fun (nv, nc, seed) ->
      let rs = Random.State.make [| seed |] in
      let clauses = random_cnf rs ~nv ~nc ~len:3 in
      let expected = brute_force nv clauses in
      let s = mk_solver nv in
      List.iter (Solver.add_clause s) clauses;
      let got = Solver.solve s = Solver.Sat in
      if got && not (check_model s clauses) then false
      else got = expected)

let qcheck_random_all_variants =
  QCheck.Test.make ~count:60
    ~name:"option variants agree on random instances"
    QCheck.(triple (int_range 1 9) (int_range 1 35) (int_range 0 1073741823))
    (fun (nv, nc, seed) ->
      let rs = Random.State.make [| seed |] in
      let clauses = random_cnf rs ~nv ~nc ~len:3 in
      let expected = brute_force nv clauses in
      List.for_all
        (fun (_, options) ->
          let s = mk_solver ~options nv in
          List.iter (Solver.add_clause s) clauses;
          let got = Solver.solve s = Solver.Sat in
          (not got) || check_model s clauses)
        all_option_variants
      && List.for_all
           (fun (_, options) ->
             let s = mk_solver ~options nv in
             List.iter (Solver.add_clause s) clauses;
             (Solver.solve s = Solver.Sat) = expected)
           all_option_variants)

let qcheck_random_assumptions =
  QCheck.Test.make ~count:150
    ~name:"assumptions behave like added unit clauses"
    QCheck.(triple (int_range 2 8) (int_range 1 25) (int_range 0 1073741823))
    (fun (nv, nc, seed) ->
      let rs = Random.State.make [| seed |] in
      let clauses = random_cnf rs ~nv ~nc ~len:3 in
      let n_assum = 1 + Random.State.int rs 2 in
      let assumptions =
        List.init n_assum (fun _ ->
            lit (Random.State.int rs nv) (Random.State.bool rs))
      in
      let s = mk_solver nv in
      List.iter (Solver.add_clause s) clauses;
      let with_assumptions = Solver.solve ~assumptions s = Solver.Sat in
      let s2 = mk_solver nv in
      List.iter (Solver.add_clause s2) clauses;
      List.iter (fun l -> Solver.add_clause s2 [ l ]) assumptions;
      let with_units = Solver.solve s2 = Solver.Sat in
      with_assumptions = with_units)

let qcheck_lit_encoding =
  QCheck.Test.make ~count:200 ~name:"literal encoding roundtrips"
    QCheck.(pair (int_range 0 10000) bool)
    (fun (v, sign) ->
      let l = Lit.make v sign in
      Lit.var l = v && Lit.sign l = sign
      && Lit.var (Lit.negate l) = v
      && Lit.sign (Lit.negate l) = not sign
      && Lit.of_dimacs (Lit.to_dimacs l) = l)

(* ---- resource budgets ---- *)

let php s pigeons holes = pigeonhole s pigeons holes

let test_budget_unknown_then_reusable () =
  let s = mk_solver (8 * 7) in
  php s 8 7;
  (match Solver.solve_bounded ~budget:(Solver.conflict_budget 10) s with
  | Solver.Unknown reason ->
      Alcotest.(check string)
        "reason names the resource" "conflict budget exhausted" reason
  | Solver.Solved _ -> Alcotest.fail "php(8,7) decided within 10 conflicts");
  (* the same solver stays usable and keeps its learnt clauses: an
     unbudgeted call finishes the proof *)
  Alcotest.(check bool)
    "unsat after lifting the budget" true
    (Solver.solve_bounded s = Solver.Solved Solver.Unsat)

let test_budget_trivial_within () =
  let s = mk_solver 3 in
  Solver.add_clause s [ lit 0 true; lit 1 true ];
  Solver.add_clause s [ lit 2 false ];
  Alcotest.(check bool)
    "trivial sat fits any budget" true
    (Solver.solve_bounded ~budget:(Solver.conflict_budget 1) s
    = Solver.Solved Solver.Sat)

let test_time_budget () =
  let s = mk_solver (9 * 8) in
  php s 9 8;
  match Solver.solve_bounded ~budget:(Solver.time_budget 1e-6) s with
  | Solver.Unknown reason ->
      Alcotest.(check string)
        "reason names the resource" "time budget exhausted" reason
  | Solver.Solved _ -> Alcotest.fail "php(9,8) decided within a microsecond"

let test_budget_escalation_converges () =
  let s = mk_solver (8 * 7) in
  php s 8 7;
  let rec attempt n b =
    match Solver.solve_bounded ~budget:b s with
    | Solver.Solved r -> (n, r)
    | Solver.Unknown _ -> attempt (n + 1) (Solver.scale_budget b 4.0)
  in
  let attempts, r = attempt 0 (Solver.conflict_budget 5) in
  Alcotest.(check bool) "eventually unsat" true (r = Solver.Unsat);
  Alcotest.(check bool)
    (Printf.sprintf "needed escalation (%d attempts)" attempts)
    true (attempts > 0)

let test_scale_budget () =
  let b = Solver.scale_budget (Solver.conflict_budget 10) 4.0 in
  Alcotest.(check int) "conflicts scaled" 40 b.Solver.max_conflicts;
  Alcotest.(check int) "unlimited stays unlimited" (-1) b.Solver.max_propagations;
  Alcotest.(check (float 1e-9))
    "unset time stays unset" 0.0 b.Solver.max_seconds

(* ---- search trajectory ---- *)

(* The search is deterministic: for a fixed instance and option set,
   every counter, the unsat core, the model, the [export] snapshot and
   the DRUP stream (emission order and literal order included) repeat
   exactly. These fingerprints pin that trajectory, so a change to the
   solver's data layout that must leave the search alone has to
   reproduce every one of them. *)

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

let recording_tracer buf =
  let step tag c =
    Buffer.add_string buf tag;
    Array.iter
      (fun l ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int (Lit.to_dimacs l)))
      c;
    Buffer.add_char buf '\n'
  in
  {
    Solver.trace_add = (fun c _ -> step "a" c);
    trace_delete = step "d";
    trace_barrier = (fun () -> Buffer.add_string buf "b\n");
  }

(* verdict, core or model digest, and all six counters after one call *)
let fingerprint_call s outcome =
  let verdict =
    match outcome with
    | Solver.Solved Solver.Sat ->
        "sat model="
        ^ digest
            (String.init (Solver.nvars s) (fun v ->
                 if Solver.value_var s v then '1' else '0'))
    | Solver.Solved Solver.Unsat ->
        Printf.sprintf "unsat core=[%s]"
          (String.concat ","
             (List.map
                (fun l -> string_of_int (Lit.to_dimacs l))
                (Solver.unsat_assumptions s)))
    | Solver.Unknown reason -> "unknown " ^ reason
  in
  Format.asprintf "%s %a" verdict Solver.pp_stats (Solver.stats s)

let fingerprint_session s buf =
  let nv, clauses = Solver.export s in
  let b = Buffer.create 4096 in
  Printf.bprintf b "%d\n" nv;
  List.iter
    (fun c ->
      List.iter (fun l -> Printf.bprintf b "%d " (Lit.to_dimacs l)) c;
      Buffer.add_string b "0\n")
    clauses;
  Printf.sprintf "export=%s drup=%s"
    (digest (Buffer.contents b))
    (digest (Buffer.contents buf))

let traced_solver ?options nv =
  let buf = Buffer.create 65536 in
  let s = mk_solver ?options nv in
  Solver.set_tracer s (Some (recording_tracer buf));
  (s, buf)

let one_shot ?options nv load =
  let s, buf = traced_solver ?options nv in
  load s;
  let outcome = Solver.solve_bounded s in
  fingerprint_call s outcome ^ " " ^ fingerprint_session s buf

let php_trajectories () =
  List.map
    (fun (name, options) ->
      ( "php(8,7) " ^ name,
        one_shot ~options (8 * 7) (fun s -> pigeonhole s 8 7) ))
    all_option_variants

let random_3sat_trajectory nv =
  let nc = int_of_float (Float.round (4.26 *. float_of_int nv)) in
  let clauses = random_cnf (Random.State.make [| nv |]) ~nv ~nc ~len:3 in
  ( Printf.sprintf "random 3-sat n=%d m=%d" nv nc,
    one_shot nv (fun s -> List.iter (Solver.add_clause s) clauses) )

(* One incremental session: a solve under assumptions, a clause added
   between calls, an unsat core, a budgeted call that gives up, and the
   resumed solve that finishes from the kept learnt clauses. *)
let incremental_trajectory () =
  let nv = 100 in
  let s, buf = traced_solver nv in
  List.iter (Solver.add_clause s)
    (random_cnf (Random.State.make [| 42 |]) ~nv ~nc:300 ~len:3);
  let a = lit 0 true and b = lit 1 false and c = lit 2 true in
  let calls = ref [] in
  let call name outcome =
    calls := ("session " ^ name, fingerprint_call s outcome) :: !calls
  in
  call "assumptions" (Solver.solve_bounded ~assumptions:[ a; b; c ] s);
  Solver.add_clause s [ Lit.negate a; Lit.negate c ];
  call "after add_clause" (Solver.solve_bounded ~assumptions:[ a; b; c ] s);
  (* php(8,7) over fresh variables, switched on by an activation literal *)
  let act = lit (Solver.new_var s) true in
  let first = Solver.nvars s in
  for _ = 1 to 8 * 7 do
    ignore (Solver.new_var s)
  done;
  let v p h = lit (first + (p * 7) + h) true in
  for p = 0 to 7 do
    Solver.add_clause s (Lit.negate act :: List.init 7 (fun h -> v p h))
  done;
  for h = 0 to 6 do
    for p1 = 0 to 7 do
      for p2 = p1 + 1 to 7 do
        Solver.add_clause s
          [ Lit.negate act; Lit.negate (v p1 h); Lit.negate (v p2 h) ]
      done
    done
  done;
  call "bounded"
    (Solver.solve_bounded ~assumptions:[ act ]
       ~budget:(Solver.conflict_budget 10) s);
  call "resumed" (Solver.solve_bounded ~assumptions:[ act ] s);
  call "released" (Solver.solve_bounded s);
  List.rev (("session end", fingerprint_session s buf) :: !calls)

(* The regime of a per-svar round worker: one solver answers many short
   solves, each under a shared assumption prefix plus its own activation
   literal, while the learnt clauses of earlier solves pile up past
   database reductions (each followed by an arena compaction). Two root
   units put level-0 literals into reasons, and every twelfth
   activation literal is false at the root, so its core is itself.
   Every call's fingerprint goes into one digest; the answers are
   counted and the last call's counters are spelled out. *)
let rounds_trajectory () =
  let nv = 120 in
  let s, buf = traced_solver nv in
  let rng = Random.State.make [| 24 |] in
  List.iter (Solver.add_clause s) (random_cnf rng ~nv ~nc:380 ~len:3);
  let root = lit 3 true in
  List.iter (Solver.add_clause s) [ [ root ]; [ lit 4 false ] ];
  let prefix = [ lit 0 true; lit 1 false; lit 2 true ] in
  let calls = Buffer.create 8192 in
  let sat = ref 0 and unsat = ref 0 in
  for round = 1 to 48 do
    let act = lit (Solver.new_var s) true in
    List.iter
      (fun c -> Solver.add_clause s (Lit.negate act :: c))
      (random_cnf rng ~nv ~nc:70 ~len:3);
    if round mod 12 = 0 then
      Solver.add_clause s [ Lit.negate act; Lit.negate root ];
    let outcome = Solver.solve_bounded ~assumptions:(prefix @ [ act ]) s in
    (match outcome with
    | Solver.Solved Solver.Sat -> incr sat
    | Solver.Solved Solver.Unsat -> incr unsat
    | Solver.Unknown _ -> ());
    Buffer.add_string calls (fingerprint_call s outcome);
    Buffer.add_char calls '\n'
  done;
  [
    ( "rounds calls",
      Printf.sprintf "sat=%d unsat=%d calls=%s" !sat !unsat
        (digest (Buffer.contents calls)) );
    ( "rounds end",
      Format.asprintf "%a %s" Solver.pp_stats (Solver.stats s)
        (fingerprint_session s buf) );
  ]

(* Regenerate these only in a change meant to alter the search, and say
   so in that change. *)
let trajectory_expected =
  [
    ( "php(8,7) default",
      "unsat core=[] conflicts=7377 decisions=8755 propagations=97651 restarts=30 learnt=7371 deleted=6458"
      ^ " export=b477eb0375e2af3f drup=59703faa9ec9b80a" );
    ( "php(8,7) no_vsids",
      "unsat core=[] conflicts=322 decisions=895 propagations=7127 restarts=2 learnt=310 deleted=0"
      ^ " export=eda6bd73eca04ac9 drup=d56b673ee107e34f" );
    ( "php(8,7) no_restarts",
      "unsat core=[] conflicts=3061 decisions=3486 propagations=37117 restarts=0 learnt=3053 deleted=2490"
      ^ " export=2ce7b4e48122b32d drup=2fe162c328acba41" );
    ( "php(8,7) no_phase",
      "unsat core=[] conflicts=4701 decisions=5922 propagations=67666 restarts=24 learnt=4697 deleted=3994"
      ^ " export=c57e149b1404e218 drup=a9ce6019f3484611" );
    ( "php(8,7) no_minimize",
      "unsat core=[] conflicts=8824 decisions=10628 propagations=124990 restarts=37 learnt=8818 deleted=7961"
      ^ " export=00d16536f435bc6f drup=422a3ceb28235203" );
    ( "php(8,7) bare",
      "unsat core=[] conflicts=322 decisions=672 propagations=6775 restarts=0 learnt=310 deleted=0"
      ^ " export=932af81663befa5e drup=e25bc127633ab06c" );
    ( "random 3-sat n=150 m=639",
      "unsat core=[] conflicts=2278 decisions=2668 propagations=69878 restarts=13 learnt=2270 deleted=1500"
      ^ " export=aaaad0c694cb5b28 drup=6dc084bcc28131ac" );
    ( "random 3-sat n=200 m=852",
      "sat model=58cd6c28d181a1ff conflicts=13849 decisions=16595 propagations=519841 restarts=60 learnt=13849 deleted=12907"
      ^ " export=2dbcfeb60c1df903 drup=e4b027a32c96009f" );
    ( "session assumptions",
      "sat model=42d4815219b8610e conflicts=0 decisions=33 propagations=100 restarts=0 learnt=0 deleted=0" );
    ( "session after add_clause",
      "unsat core=[1,3] conflicts=0 decisions=35 propagations=105 restarts=0 learnt=0 deleted=0" );
    ( "session bounded",
      "unknown conflict budget exhausted conflicts=10 decisions=75 propagations=247 restarts=0 learnt=10 deleted=0" );
    ( "session resumed",
      "unsat core=[101] conflicts=5598 decisions=6933 propagations=83541 restarts=28 learnt=5597 deleted=4976" );
    ( "session released",
      "sat model=1d9efc2d584c0839 conflicts=5598 decisions=7031 propagations=83697 restarts=28 learnt=5597 deleted=4976" );
    ( "session end",
      "export=efd4ad5ddedcf3fd drup=cc26a26846067691" );
    ("rounds calls", "sat=33 unsat=15 calls=f5c95bc9faf5fb1d");
    ( "rounds end",
      "conflicts=3184 decisions=4603 propagations=111009 restarts=11 learnt=3184 deleted=2142"
      ^ " export=536465c061658312 drup=5f6fed9e1d35636b" );
  ]

let trajectory_cases () =
  let actual =
    lazy
      (php_trajectories ()
      @ [ random_3sat_trajectory 150; random_3sat_trajectory 200 ]
      @ incremental_trajectory ()
      @ rounds_trajectory ())
  in
  List.map
    (fun (name, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          match List.assoc_opt name (Lazy.force actual) with
          | Some got -> Alcotest.(check string) name expected got
          | None -> Alcotest.fail ("no trajectory named " ^ name)))
    trajectory_expected

let () =
  Alcotest.run "sat"
    [
      ( "unit",
        [
          Alcotest.test_case "empty problem" `Quick test_empty;
          Alcotest.test_case "unit clauses" `Quick test_unit;
          Alcotest.test_case "conflicting units" `Quick test_conflicting_units;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "implication chain unsat" `Quick
            test_implication_chain;
          Alcotest.test_case "implication chain sat" `Quick
            test_implication_chain_sat;
          Alcotest.test_case "tautology dropped" `Quick test_tautology_dropped;
          Alcotest.test_case "pigeonhole unsat (all options)" `Quick
            test_pigeonhole_unsat;
          Alcotest.test_case "pigeonhole sat" `Quick test_pigeonhole_sat;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "unsat core" `Quick test_unsat_core;
          Alcotest.test_case "incremental solving" `Quick test_incremental;
          Alcotest.test_case "new vars after solve" `Quick
            test_new_vars_after_solve;
          Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "dimacs robustness" `Quick test_dimacs_robustness;
          Alcotest.test_case "dimacs header mismatch counter" `Quick
            test_dimacs_header_mismatch_counter;
          Alcotest.test_case "dimacs parse_file fd cleanup" `Quick
            test_dimacs_parse_file_fd_cleanup;
          Alcotest.test_case "stats populated" `Quick test_stats_populated;
        ] );
      ( "budget",
        [
          Alcotest.test_case "unknown then reusable" `Quick
            test_budget_unknown_then_reusable;
          Alcotest.test_case "trivial sat within budget" `Quick
            test_budget_trivial_within;
          Alcotest.test_case "time budget" `Quick test_time_budget;
          Alcotest.test_case "escalation converges" `Quick
            test_budget_escalation_converges;
          Alcotest.test_case "scale_budget" `Quick test_scale_budget;
        ] );
      (* a suite name longer than "property" widens Alcotest's name
         column and truncates the printed names of the other tests *)
      ("search", trajectory_cases ());
      ( "property",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_random_vs_brute;
            qcheck_random_all_variants;
            qcheck_random_assumptions;
            qcheck_lit_encoding;
            qcheck_dimacs_roundtrip;
          ] );
    ]
