module S = Satsolver.Solver
module L = Satsolver.Lit

type step = Add of L.t array | Delete of L.t array

type t = { mutable rev_steps : step list; mutable length : int }

let create () = { rev_steps = []; length = 0 }

let record p step =
  p.rev_steps <- step :: p.rev_steps;
  p.length <- p.length + 1

let tracer p =
  {
    S.trace_add = (fun c -> record p (Add c));
    S.trace_delete = (fun c -> record p (Delete c));
    S.trace_barrier = ignore;
  }

let steps p = List.rev p.rev_steps
let length p = p.length

(* ---- certification accounting ---- *)

type totals = {
  unsat_checked : int;
  sat_checked : int;
  unknown_skipped : int;
  proof_steps : int;
  proof_lits : int;
  solve_seconds : float;
  check_seconds : float;
}

let zero_totals =
  {
    unsat_checked = 0;
    sat_checked = 0;
    unknown_skipped = 0;
    proof_steps = 0;
    proof_lits = 0;
    solve_seconds = 0.0;
    check_seconds = 0.0;
  }

let add_totals a b =
  {
    unsat_checked = a.unsat_checked + b.unsat_checked;
    sat_checked = a.sat_checked + b.sat_checked;
    unknown_skipped = a.unknown_skipped + b.unknown_skipped;
    proof_steps = a.proof_steps + b.proof_steps;
    proof_lits = a.proof_lits + b.proof_lits;
    solve_seconds = a.solve_seconds +. b.solve_seconds;
    check_seconds = a.check_seconds +. b.check_seconds;
  }

let pp_totals fmt t =
  Format.fprintf fmt
    "%d UNSAT proof(s) checked (%d steps, %d lits), %d model(s) checked; \
     solve %.3fs, check %.3fs"
    t.unsat_checked t.proof_steps t.proof_lits t.sat_checked t.solve_seconds
    t.check_seconds;
  if t.unknown_skipped > 0 then
    Format.fprintf fmt "; %d unknown verdict(s) uncertified" t.unknown_skipped
