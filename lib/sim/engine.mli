open Rtl

(** Cycle-accurate two-phase simulator.

    Usage per cycle: set the inputs, optionally {!peek} combinational
    values, then {!step} to commit registers and memories and advance
    the cycle counter. Registers start from their declared reset value
    (zero when absent); memories from their initial contents (zeros when
    absent); parameters must be set before the first evaluation and stay
    fixed.

    {!create} compiles the netlist once: every expression node reachable
    from a register's next state, a write port or a named output becomes
    one instruction over an array of integer slots, in topological
    order, and registers, inputs, parameters and memories live in
    integer arrays. The combinational pass runs at most once per state:
    {!step} and {!peek_output} run it when the state or an input has
    changed since the last pass ({!set_input}, {!set_param}, the pokes
    and {!step} itself mark it stale). Both arms of every mux are
    computed, which is safe because every operator is total. {!peek} on
    an arbitrary expression goes through {!Eval} instead. *)

type t

val create : Netlist.t -> t

val set_param : t -> string -> Bitvec.t -> unit
(** Set a symbolic parameter by name. Raises [Not_found] for unknown
    names and [Invalid_argument] on width mismatch. *)

val set_input : t -> string -> Bitvec.t -> unit
(** Set a primary input for the current cycle. Inputs persist across
    cycles until overwritten (convenient for quasi-static control
    inputs). *)

val set_input_int : t -> string -> int -> unit

val peek : t -> Expr.t -> Bitvec.t
(** Evaluate an arbitrary expression against the current cycle's state
    and inputs, with {!Eval}. *)

val peek_output : t -> string -> Bitvec.t
(** The value of a named netlist output, read from its compiled slot.
    Raises [Not_found] for unknown names. *)

val reg_value : t -> string -> Bitvec.t
val mem_value : t -> string -> int -> Bitvec.t

val poke_reg : t -> string -> Bitvec.t -> unit
(** Force a register's current value (testing / state injection).
    Raises [Not_found] for unknown names and [Invalid_argument] on width
    mismatch. *)

val poke_mem : t -> string -> int -> Bitvec.t -> unit
(** [poke_mem t name i v] forces word [i] of a memory. Raises
    [Not_found] for unknown names, [Invalid_argument] on width mismatch
    and on an index outside the memory. *)

val step : t -> unit
(** Commit one clock edge. *)

val run : t -> int -> unit
(** [run t n] steps [n] cycles with the current inputs. *)

val cycle : t -> int
(** Number of clock edges committed so far. *)

val netlist : t -> Netlist.t

val on_step : t -> (t -> unit) -> unit
(** Register a hook called after every {!step} (tracing, VCD). Hooks run
    in registration order. *)
