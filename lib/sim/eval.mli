open Rtl

(** Concrete evaluation of expressions against an environment.

    Evaluation is memoised per call on hash-cons tags, so shared
    sub-expressions are computed once, and only the taken arm of a mux
    is evaluated. Out-of-range memory reads (address [>= depth])
    evaluate to zero. {!Engine.peek} evaluates arbitrary expressions
    this way; {!Engine.step} runs the netlist compiled instead. *)

type env = {
  lookup_input : Expr.signal -> Bitvec.t;
  lookup_param : Expr.signal -> Bitvec.t;
  lookup_reg : Expr.signal -> Bitvec.t;
  lookup_mem : Expr.mem -> int -> Bitvec.t;
}

val eval : env -> Expr.t -> Bitvec.t
(** Evaluate one expression (fresh memo table). *)
