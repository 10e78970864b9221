(** Fixed-width bit vectors.

    Values are unsigned bit patterns of a declared width between 1 and
    {!max_width} bits, stored in a native [int]. All arithmetic wraps
    modulo [2^width]; all operands of binary operations must have equal
    widths (checked by assertion). Signed interpretations are provided
    by the [s]-prefixed observers and operations. *)

type t

val max_width : int
(** Largest supported width (62 bits on 64-bit platforms). *)

val width : t -> int
(** Declared width in bits. *)

val to_int : t -> int
(** Unsigned value, in [0, 2^width). *)

val to_signed_int : t -> int
(** Two's-complement interpretation of the bit pattern. *)

val of_int : width:int -> int -> t
(** [of_int ~width v] truncates [v] to [width] bits. Negative [v] is
    interpreted in two's complement. Raises [Invalid_argument] on
    widths outside [1, max_width]. *)

val zero : int -> t
(** [zero w] is the all-zeros vector of width [w]. *)

val one : int -> t
(** [one w] is the vector of width [w] with value 1. *)

val ones : int -> t
(** [ones w] is the all-ones vector of width [w]. *)

val equal : t -> t -> bool
(** Structural equality: same width and same bit pattern. *)

val compare : t -> t -> int

val hash : t -> int

val is_zero : t -> bool

val bit : t -> int -> bool
(** [bit v i] is bit [i] (0 = least significant). Raises
    [Invalid_argument] if [i] is out of range. *)

(** {1 Arithmetic (wrapping)} *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t

(** {1 Bitwise} *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

(** {1 Shifts}

    Shift amounts are taken from the full unsigned value of the second
    operand; amounts [>= width] produce zero (or all sign bits for
    [ashr]). *)

val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t

(** {1 Comparisons (1-bit results)} *)

val eq : t -> t -> t
val ne : t -> t -> t
val ult : t -> t -> t
val ule : t -> t -> t
val slt : t -> t -> t
val sle : t -> t -> t

(** {1 Reductions (1-bit results)} *)

val redand : t -> t
val redor : t -> t
val redxor : t -> t

(** {1 Structure} *)

val concat : t -> t -> t
(** [concat hi lo] forms a vector of width [width hi + width lo] with
    [hi] in the most significant bits. *)

val slice : t -> hi:int -> lo:int -> t
(** [slice v ~hi ~lo] extracts bits [hi..lo] inclusive, a vector of
    width [hi - lo + 1]. Raises [Invalid_argument] on a bad range. *)

val zero_extend : t -> int -> t
(** [zero_extend v w] widens [v] to width [w >= width v] with zeros. *)

val sign_extend : t -> int -> t
(** [sign_extend v w] widens [v] to width [w >= width v] replicating
    the sign bit. *)

val pp : Format.formatter -> t -> unit
(** Prints as [width'hHEX], e.g. [8'h3a]. *)

val to_string : t -> string

(** {1 Unboxed kernels}

    The integer bodies of the operations above, over plain [int]s that
    hold a [width]-bit unsigned pattern, as {!to_int} returns it. The
    boxed operations and the simulator's compiled step both call these,
    so each operator is defined once. Nothing is checked: operands must
    lie in [0, 2^width), with [width] in [1, {!max_width}]. Comparisons
    and reductions return 0 or 1. *)
module Raw : sig
  val mask : int -> int
  (** [mask w] is [2^w - 1]. *)

  val add : width:int -> int -> int -> int
  val sub : width:int -> int -> int -> int
  val mul : width:int -> int -> int -> int
  val neg : width:int -> int -> int
  val logand : int -> int -> int
  val logor : int -> int -> int
  val logxor : int -> int -> int
  val lognot : width:int -> int -> int

  val shl : width:int -> int -> int -> int
  (** [shl ~width a n] shifts [a] by the unsigned amount [n]; so do
      [lshr] and [ashr]. *)

  val lshr : width:int -> int -> int -> int
  val ashr : width:int -> int -> int -> int
  val eq : int -> int -> int
  val ne : int -> int -> int
  val ult : int -> int -> int
  val ule : int -> int -> int
  val slt : width:int -> int -> int -> int
  val sle : width:int -> int -> int -> int
  val redand : width:int -> int -> int
  val redor : int -> int
  val redxor : int -> int

  val concat : lo_width:int -> int -> int -> int
  (** [concat ~lo_width hi lo], [lo] being [lo_width] bits wide. *)

  val slice : hi:int -> lo:int -> int -> int
end
