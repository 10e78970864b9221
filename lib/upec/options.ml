module S = Satsolver.Solver

type t = {
  max_iterations : int;
  max_k : int;
  solver_options : S.options option;
  simp : bool;
  jobs : int option;
  portfolio : int;
  certify : bool;
  cex_vcd : string option;
  budget : S.budget;
  budget_retries : int;
  budget_escalation : float;
  checkpoint_file : string option;
  should_stop : (unit -> bool) option;
  reset_start : bool;
}

let default =
  {
    max_iterations = 128;
    max_k = 8;
    solver_options = None;
    simp = true;
    jobs = None;
    portfolio = 1;
    certify = false;
    cex_vcd = None;
    budget = S.no_budget;
    budget_retries = 2;
    budget_escalation = 4.0;
    checkpoint_file = None;
    should_stop = None;
    reset_start = false;
  }
