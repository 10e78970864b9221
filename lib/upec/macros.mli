open Rtl

(** The UPEC-SSC property macros of Fig. 3 / Fig. 4, lowered onto an
    {!Ipc.Engine.t} two-instance session. *)

val assume_env : Ipc.Engine.t -> Spec.t -> frames:int -> unit
(** Assume the Expr-level environment (well-formedness, threat model,
    policy, invariants) in both instances at every cycle [0..frames]. *)

val assume_env_at : Ipc.Engine.t -> Spec.t -> frame:int -> unit
(** The same constraint at one cycle only — the building block
    incremental sessions use to extend an existing engine when the
    unrolling depth grows. *)

val primary_input_constraints : Ipc.Engine.t -> Spec.t -> frame:int -> unit
(** Inputs other than the victim port are equal between the instances
    at the given cycle. *)

val victim_task_executing : Ipc.Engine.t -> Spec.t -> frame:int -> unit
(** The Fig. 3 macro at one cycle: request/write-enable equal; both
    instances access protected addresses at the same times; accesses
    outside the protected range are identical; protected accesses are
    unconstrained (the confidential information). *)

val victim_port_equal : Ipc.Engine.t -> Spec.t -> frame:int -> unit
(** Victim port fully equal (used beyond cycle t+1 in the unrolled
    property, Fig. 4). *)

val frame_constraints : Ipc.Engine.t -> Spec.t -> frame:int -> unit
(** Every per-frame assumption of the Fig. 3 and Fig. 4 properties:
    {!primary_input_constraints}, then {!victim_task_executing} during
    t..t+1 (frames 0 and 1) and {!victim_port_equal} beyond. *)

val assume_reset_state : Ipc.Engine.t -> Spec.t -> unit
(** Pin cycle 0 of both instances to the reset state (registers to
    their reset values, memories to zero). This turns the IPC check
    into plain bounded model checking — provided for the E9 comparison:
    with a concrete start the spying IPs are unconfigured inside any
    short window, so the 2-cycle property sees nothing, which is
    exactly why UPEC-SSC's symbolic starting state (subsuming the whole
    preparation phase) is load-bearing. *)

val sv_condition :
  Ipc.Engine.t -> Spec.t -> frame:int -> Structural.svar -> Aig.lit
(** The equal-or-protected condition for one state variable at one
    cycle (the conjunct State_Equivalence is built from). *)

val cycle0_shared : Spec.t -> Structural.Svar_set.t -> Structural.svar -> bool
(** [cycle0_shared spec s sv]: may an engine whose every query assumes
    State_Equivalence([s]) at cycle 0 give instance B A's own cycle-0
    copy of [sv] ({!Ipc.Unroller.create})? Exactly the state variables
    of [s] without a {!Spec.victim_cell_guard}: a guarded cell's
    condition is guard or equality, so its B copy stays free. *)

val state_equivalence_assume :
  Ipc.Engine.t -> Spec.t -> frame:int -> Structural.Svar_set.t -> unit
(** State_Equivalence(S) as an assumption: every state variable in S is
    equal between the instances, except memory cells inside the
    symbolic protected range. *)

val state_equivalence_goal :
  Ipc.Engine.t -> Spec.t -> frame:int -> Structural.Svar_set.t -> Aig.lit
(** The same condition as a proof obligation literal. *)

val violations :
  Ipc.Engine.t ->
  Spec.t ->
  Ipc.Cex.t ->
  frame:int ->
  Structural.Svar_set.t ->
  Structural.Svar_set.t
(** S_cex: the state variables of S whose values differ at the given
    cycle in the counterexample and which are not protected-range cells
    under the counterexample's parameter valuation. *)

val cell_guard_concrete : Spec.t -> Ipc.Cex.t -> Structural.svar -> bool
(** Is this state variable a protected-range memory cell under the
    counterexample's parameters? *)
