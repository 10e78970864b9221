open Rtl
open Bitblast

(** Time-frame expansion of a netlist with a symbolic starting state.

    The unroller instantiates the transition relation of a netlist over
    clock cycles [0..k]. The state at cycle 0 is a vector of free AIG
    variables — the {e symbolic starting state} of Interval Property
    Checking, which models every possible history of the design — and
    the state at cycle [t+1] is the bit-blasted image of the next-state
    functions applied to cycle [t].

    For 2-safety (UPEC) reasoning the unroller can hold two instances
    of the design, [A] and [B]. Each instance has its own state and
    input variables; {e parameters} (symbolic constants such as the
    victim address range) are shared between instances and frames, which
    encodes that both instances run under the same memory layout.

    An unroller may also {e share} part of the starting state: instance
    B's cycle-0 vector of a shared register or memory element is A's
    own vector. Structural hashing then merges every B node whose cone
    stays inside the shared state and the parameters with A's node, so
    a state variable whose next state reads only shared state gets the
    constant-true {!svar_equal_lit} at cycle 1. Sharing bakes the
    cycle-0 equality of those elements into the encoding: use it only
    where every query assumes that equality anyway. *)

type instance = A | B

val pp_instance : Format.formatter -> instance -> unit

type t

val create :
  ?share:(Structural.svar -> bool) -> Aig.t -> Netlist.t -> two_instance:bool -> t
(** [share] (default: nothing) names the state variables whose cycle-0
    vector instance B takes from A. *)

val graph : t -> Aig.t
val netlist : t -> Netlist.t
val two_instance : t -> bool

val ensure_frames : t -> int -> unit
(** [ensure_frames t k] materialises state variables for cycles [0..k]
    (and input variables for cycles [0..k-1]). Idempotent, monotone. *)

val frames : t -> int
(** Highest cycle materialised so far. *)

val reg_vec : t -> instance -> frame:int -> Expr.signal -> Blaster.vec
val mem_vec : t -> instance -> frame:int -> Expr.mem -> int -> Blaster.vec
val svar_vec : t -> instance -> frame:int -> Structural.svar -> Blaster.vec
val input_vec : t -> instance -> frame:int -> Expr.signal -> Blaster.vec
val param_vec : t -> Expr.signal -> Blaster.vec

val blast_at : t -> instance -> frame:int -> Expr.t -> Blaster.vec
(** Bit-blast a combinational expression over the state and inputs of
    the given cycle. *)

val svar_equal_lit : t -> frame:int -> Structural.svar -> Aig.lit
(** 1 iff the state variable has equal values in instances A and B at
    the given cycle. Requires a two-instance unroller. *)

val inputs_equal_lit : t -> frame:int -> Expr.signal -> Aig.lit
