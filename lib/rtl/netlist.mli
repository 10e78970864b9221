(** Flat synchronous netlists.

    A netlist is a set of primary inputs, symbolic parameters, registers
    (each with a next-state expression and an optional reset value used
    only by the simulator), memories (each with write ports) and named
    outputs. Hierarchy is expressed by dotted signal names
    (["dma.count"]); {!Structural} exploits this convention. *)

type write_port = {
  wp_enable : Expr.t;  (** 1 bit *)
  wp_addr : Expr.t;  (** [addr_width] bits *)
  wp_data : Expr.t;  (** [data_width] bits *)
}

type reg_def = {
  rd_signal : Expr.signal;
  rd_next : Expr.t;
  rd_init : Bitvec.t option;
      (** simulator reset value; ignored by the symbolic engines *)
}

type mem_def = {
  md_mem : Expr.mem;
  md_ports : write_port list;  (** earlier ports win on address clash *)
  md_init : Bitvec.t array option;  (** simulator initial contents *)
}

type t = private {
  name : string;
  inputs : Expr.signal list;
  params : Expr.signal list;
  regs : reg_def list;
  mems : mem_def list;
  outputs : (string * Expr.t) list;
}

(** Mutable builder for assembling a netlist. *)
module Builder : sig
  type builder

  val create : string -> builder

  val input : builder -> string -> int -> Expr.t
  (** Declare a primary input and return its expression. *)

  val param : builder -> string -> int -> Expr.t
  (** Declare a symbolic parameter (stable over time). *)

  val reg : builder -> ?init:Bitvec.t -> string -> int -> Expr.t
  (** Declare a register; its next-state must later be set with
      {!set_next}, otherwise the register holds its value. *)

  val set_next : builder -> Expr.t -> Expr.t -> unit
  (** [set_next b r next] sets the next-state of register expression [r]
      (which must come from {!reg}). Raises [Invalid_argument] if [r] is
      not a register of this builder, widths mismatch, or the next-state
      was already set. *)

  val mem :
    builder ->
    ?init:Bitvec.t array ->
    string ->
    addr_width:int ->
    data_width:int ->
    depth:int ->
    Expr.mem
  (** Declare a memory. Raises [Invalid_argument] unless [init], when
      given, has [depth] words of [data_width] bits. *)

  val write_port : builder -> Expr.mem -> enable:Expr.t -> addr:Expr.t -> data:Expr.t -> unit

  val output : builder -> string -> Expr.t -> unit
  (** Name an expression as a netlist output (observable point). *)

  val import : builder -> t -> unit
  (** Re-register every element of an existing netlist (same signals,
      same next-state functions, same outputs) into this builder, so a
      design can be extended with new logic — e.g. taint-tracking
      shadow state. Raises [Invalid_argument] on name clashes. *)

  val finalize : builder -> t
  (** Check completeness and produce the immutable netlist. Registers
      without an explicit next-state keep their value. *)
end

val find_reg : t -> string -> reg_def
(** Find a register by full dotted name. Raises [Not_found]. *)

val find_mem : t -> string -> mem_def
val find_output : t -> string -> Expr.t
val reg_signals : t -> Expr.signal list
val stats : t -> string
(** One-line summary: #inputs, #regs, #state bits, #mems, #nodes. *)

val state_bits : t -> int
(** Total number of state bits: register widths plus [depth * data_width]
    summed over memories. *)
