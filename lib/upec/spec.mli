open Rtl

(** Problem specification for a UPEC-SSC run: the SoC under
    verification, the assumed security policy, and the state-variable
    classification of Sec. 3.4.

    The {e vulnerable} variant assumes only the threat model: the
    victim's protected range is any well-formed memory range, and the
    spying IPs' configured ranges never intersect it (spying IPs have no
    direct access to victim memory). The {e secure} variant additionally
    assumes the Sec. 4.2 countermeasure: the protected range lies in the
    private memory, and the DMA (the only other IP with a private-memory
    port) is configured — by verified firmware — to stay out of the
    private region. *)

type variant = Vulnerable | Secure

val variant_tag : variant -> string
(** ["vulnerable"] or ["secure"]: the spelling of reports, checkpoints
    and cache keys. *)

(** What counts as persistent retrievable state. [Full_pers] is the
    paper's S_pers (all IP configuration/status/progress registers and
    attacker-accessible memory cells). [Memory_only] restricts S_pers to
    memory cells — the "no timer needed" reading of Sec. 4.1, where the
    attacker retrieves the footprint exclusively from the primed memory
    region; with it, detection requires the longer unrolling the paper
    describes. *)
type pers_model = Full_pers | Memory_only

type t = {
  soc : Soc.Builder.t;
  variant : variant;
  pers_model : pers_model;
}

val make : ?pers_model:pers_model -> Soc.Builder.t -> variant -> t
(** Requires a formal-mode SoC (raises [Invalid_argument] otherwise). *)

val s_neg_victim : t -> Structural.Svar_set.t
(** All state variables except the CPU's (Def. 1; victim memory cells
    are excluded per-counterexample through the symbolic range guard,
    not statically). *)

val is_pers : t -> Structural.svar -> bool
(** Membership in S_pers (Def. 2), up to the symbolic range guard for
    memory cells. *)

val in_range : t -> Expr.t -> Expr.t
(** [in_range t addr] is 1 iff [addr] (a word address) lies within the
    symbolic protected range. *)

val victim_cell_guard : t -> Structural.svar -> Expr.t option
(** For a bus-addressable memory element: a 1-bit expression over the
    symbolic range parameters that is true iff the cell belongs to the
    victim's protected range. [None] for other state variables. *)

(** {1 Assumed environment (Expr-level, per instance and frame)} *)

val range_wellformed : t -> Expr.t
(** The protected range is non-empty, ordered, and contained in one
    mapped memory window (public or private for [Vulnerable], private
    for [Secure]). *)

val threat_model : t -> Expr.t
(** Spying-IP configured ranges do not intersect the protected range
    and do not wrap around the address space. *)

val policy : t -> Expr.t
(** The variant's firmware policy ([Expr.vdd] for [Vulnerable]; the
    countermeasure constraints for [Secure]). *)

val invariants : t -> (string * Expr.t) list
(** Reachability invariants excluding false counterexamples from the
    symbolic starting state (Sec. 3.4): response-routing consistency for
    every SRAM bank, and (for [Secure]) the absence of DMA responses on
    the private crossbar. Each is 1-inductive under the assumptions
    above — checked by {!Invariant.check_inductive} in the tests. *)

val assumed_env : t -> Expr.t
(** Conjunction of well-formedness, threat model, policy and
    invariants. *)
