(** Shared job-description semantics for every UPEC-SSC front end.

    [bin/upec_ssc] (Cmdliner flags), the proof farm daemon and its
    worker processes (line-delimited JSON jobs) all describe the same
    thing: a SoC design point plus an {!Options.t}. This module is the
    single source of truth for that mapping — the string enumerations
    ("vulnerable"/"secure", "rr"/"fixed"/"tdma", …), the defaults, the
    budget assembly and the JSON codec — so a job submitted to the
    farm and the equivalent [upec_ssc check] invocation build
    bit-identical specs and options. No Cmdliner dependency: the
    flag layer stays in [bin]. *)

type design = {
  d_variant : string;  (** "vulnerable" or "secure" *)
  d_pers : string;  (** S_pers model: "full" or "memory" *)
  d_depth : int;  (** words per SRAM bank *)
  d_banks : int;  (** banks per region (power of two) *)
  d_arbiter : string;  (** "rr", "fixed" or "tdma" *)
  d_dma : bool;
  d_hwpe : bool;
  d_uart : bool;
  d_timer : bool;
  d_dma_on_private : bool;  (** give the DMA a private-crossbar master port *)
  d_timer_width : int;
}
(** A SoC design point, [Soc.Config.formal_default] shaped, covering
    every structural knob of {!Soc.Config} that matters to the
    security verdict. The IP presence flags and [d_timer_width] are
    the natural "RTL delta" knobs: changing one mutates a single IP's
    logic while keeping the rest of the design content-identical.
    This record is the single source of design construction shared by
    [upec_ssc], the proof farm and the scenario matrix
    ([Scenarios.Scenario.spec] embeds one). *)

val default_design : design
(** [formal_default] at depth 8, 2 banks, round-robin, every IP on,
    8-bit timer — the same defaults as [upec_ssc check]. *)

val config_of : design -> Soc.Config.t
val spec_of : design -> Spec.t
(** Build the formal-mode SoC and wrap it in a {!Spec.t}; unknown
    variant/pers strings fall back to the defaults (matching the
    historical flag behaviour). *)

val resolve_jobs : int -> int
(** A count [n <= 0] (auto) becomes [Parallel.Pool.default_jobs ()], so
    a report echoes the worker count that actually ran; a positive
    count is kept. *)

val budget_of :
  conflicts:int -> props:int -> seconds:float -> Satsolver.Solver.budget
(** Flag semantics: 0 (or [0.0]) means unlimited. *)

(** {1 JSON codec}

    The farm's job protocol. Missing members take the defaults above,
    so [{}] is a valid job description. [Json.Parse_error] on
    type-mismatched members. *)

val design_to_json : design -> Json.t
val design_of_json : Json.t -> design

val canonical : design -> design
(** Collapse unknown enumeration strings onto the defaults they fall
    back to in {!config_of}/{!spec_of}, so designs that build the same
    spec compare (and digest) equal. *)

val design_key : design -> string
(** Canonical compact-JSON encoding of {!canonical}[ d] — the basis of
    the spec-derived farm cache keys ({!Fingerprint.design_spec}). *)

val options_to_json : alg:int -> Options.t -> Json.t
val options_of_json : Json.t -> int * Options.t
(** Returns [(alg, options)]; [alg] defaults to 1. Round-trips every
    option a farm job can carry (workers, budgets, certification);
    process-local fields ([should_stop], [checkpoint_file], [cex_vcd],
    [solver_options]) are not part of the wire format and come back as
    the {!Options.default} values. [jobs] is kept literal — apply
    {!resolve_jobs} at the execution site; an absent or [null] [jobs]
    is the default count. Members it does not read are ignored, so a
    job that still carries a dropped member (such as [incremental] or
    [cert_jobs]) parses, and keys, as the same job without it. *)
