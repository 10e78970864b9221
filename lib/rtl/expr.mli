(** Hash-consed word-level combinational expressions.

    Every expression node carries a width and a unique tag. Construction
    goes through smart constructors that check widths, fold constants and
    structurally share identical nodes, so downstream passes (simulation,
    bit-blasting) can memoise on {!tag}. *)

(** A named signal: a primary input or the current-cycle value of a
    register. [id] is unique per process. *)
type signal = private { s_name : string; s_width : int; s_id : int }

(** A memory array identity. *)
type mem = private {
  m_name : string;
  m_addr_width : int;
  m_data_width : int;
  m_depth : int;  (** number of elements, [<= 2^m_addr_width] *)
  m_id : int;
}

type unop = Not | Neg | Redand | Redor | Redxor

type binop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Eq
  | Ne
  | Ult
  | Ule
  | Slt
  | Sle
  | Shl
  | Lshr
  | Ashr

type t = private { tag : int; width : int; node : node }

and node =
  | Const of Bitvec.t
  | Input of signal  (** primary input, free each cycle *)
  | Param of signal  (** symbolic constant, free but stable over time *)
  | Reg of signal  (** current value of a register *)
  | Memread of mem * t  (** asynchronous read port *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Mux of t * t * t  (** [Mux (sel, then_, else_)], [sel] has width 1 *)
  | Concat of t * t  (** [Concat (hi, lo)] *)
  | Slice of t * int * int  (** [Slice (e, hi, lo)], bits [hi..lo] *)

val tag : t -> int
val width : t -> int
val node : t -> node

(** {1 Signal and memory creation} *)

val signal : string -> int -> signal
(** Fresh signal with a fresh id. Widths checked as in {!Bitvec}. *)

val memory : string -> addr_width:int -> data_width:int -> depth:int -> mem
(** Fresh memory identity. Raises [Invalid_argument] if [depth] exceeds
    [2^addr_width] or is not positive. *)

(** {1 Smart constructors} *)

val const : Bitvec.t -> t
val of_int : width:int -> int -> t
val zero : int -> t
val one : int -> t
val ones : int -> t
val vdd : t  (** 1-bit constant 1 *)

val gnd : t  (** 1-bit constant 0 *)

val input : signal -> t
val param : signal -> t
val reg : signal -> t
val memread : mem -> t -> t
val unop : unop -> t -> t
val binop : binop -> t -> t -> t
val mux : t -> t -> t -> t
val concat : t -> t -> t
val slice : t -> hi:int -> lo:int -> t
(** Slice and concatenation check their ranges here: a slice must lie
    inside its operand and a concatenation may be at most
    {!Bitvec.max_width} bits wide, else [Invalid_argument]. *)

val unop_eval : unop -> Bitvec.t -> Bitvec.t
(** The {!Bitvec} operation an operator denotes; {!binop_eval} likewise. *)

val binop_eval : binop -> Bitvec.t -> Bitvec.t -> Bitvec.t

(** {1 Convenience} *)

val ( +: ) : t -> t -> t
val ( -: ) : t -> t -> t
val ( *: ) : t -> t -> t
val ( &: ) : t -> t -> t
val ( |: ) : t -> t -> t
val ( ^: ) : t -> t -> t
val ( ~: ) : t -> t
val ( ==: ) : t -> t -> t
val ( <>: ) : t -> t -> t
val ( <: ) : t -> t -> t  (** unsigned *)

val ( <=: ) : t -> t -> t  (** unsigned *)

val ( >: ) : t -> t -> t  (** unsigned *)

val ( >=: ) : t -> t -> t  (** unsigned *)

val slt : t -> t -> t
val sle : t -> t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t
val bit : t -> int -> t
(** [bit e i] is the 1-bit slice at position [i]. *)

val zero_extend : t -> int -> t
val sign_extend : t -> int -> t

val uresize : t -> int -> t
(** Zero-extend or truncate to the given width. *)

val and_list : t list -> t
(** Conjunction of 1-bit expressions; [vdd] for the empty list. *)

val or_list : t list -> t
(** Disjunction of 1-bit expressions; [gnd] for the empty list. *)

val mux_list : t -> default:t -> (int * t) list -> t
(** [mux_list sel ~default cases] selects the case whose index equals
    the unsigned value of [sel], else [default]. *)

val equal : t -> t -> bool
(** Physical (hash-consed) equality. *)

val size : t -> int
(** Number of distinct nodes reachable from the expression. *)

val signals_equal : signal -> signal -> bool
val compare_signal : signal -> signal -> int
val mems_equal : mem -> mem -> bool
val compare_mem : mem -> mem -> int
