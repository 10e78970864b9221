module S = Satsolver.Solver

type design = {
  d_variant : string;
  d_pers : string;
  d_depth : int;
  d_banks : int;
  d_arbiter : string;
  d_dma : bool;
  d_hwpe : bool;
  d_uart : bool;
  d_timer : bool;
  d_dma_on_private : bool;
  d_timer_width : int;
}

let default_design =
  {
    d_variant = "vulnerable";
    d_pers = "full";
    d_depth = 8;
    d_banks = 2;
    d_arbiter = "rr";
    d_dma = true;
    d_hwpe = true;
    d_uart = true;
    d_timer = true;
    d_dma_on_private = Soc.Config.formal_default.Soc.Config.dma_on_private;
    d_timer_width = Soc.Config.formal_default.Soc.Config.timer_width;
  }

let arbiter_of_string = function
  | "fixed" -> `Fixed_priority
  | "tdma" -> `Tdma
  | _ -> `Round_robin

let config_of d =
  {
    Soc.Config.formal_default with
    Soc.Config.pub_depth = d.d_depth;
    priv_depth = d.d_depth;
    pub_banks = d.d_banks;
    priv_banks = d.d_banks;
    with_dma = d.d_dma;
    with_hwpe = d.d_hwpe;
    with_uart = d.d_uart;
    with_timer = d.d_timer;
    dma_on_private = d.d_dma_on_private;
    timer_width = d.d_timer_width;
    arbiter = arbiter_of_string d.d_arbiter;
  }

let spec_of d =
  let soc = Soc.Builder.build (config_of d) Soc.Builder.Formal in
  let variant =
    match d.d_variant with "secure" -> Spec.Secure | _ -> Spec.Vulnerable
  in
  let pers_model =
    match d.d_pers with "memory" -> Spec.Memory_only | _ -> Spec.Full_pers
  in
  Spec.make ~pers_model soc variant

let resolve_jobs = function
  | Some n when n <= 0 -> Some (Parallel.Pool.default_jobs ())
  | j -> j

let budget_of ~conflicts ~props ~seconds =
  {
    S.max_conflicts = (if conflicts > 0 then conflicts else -1);
    max_propagations = (if props > 0 then props else -1);
    max_seconds = (if seconds > 0.0 then seconds else 0.0);
  }

(* ---------- JSON codec ---------- *)

let design_to_json d =
  Json.Obj
    [
      ("variant", Json.Str d.d_variant);
      ("pers", Json.Str d.d_pers);
      ("depth", Json.Int d.d_depth);
      ("banks", Json.Int d.d_banks);
      ("arbiter", Json.Str d.d_arbiter);
      ("dma", Json.Bool d.d_dma);
      ("hwpe", Json.Bool d.d_hwpe);
      ("uart", Json.Bool d.d_uart);
      ("timer", Json.Bool d.d_timer);
      ("dma_on_private", Json.Bool d.d_dma_on_private);
      ("timer_width", Json.Int d.d_timer_width);
    ]

(* Every accessor tolerates an absent member (falls back to the
   default) but refuses a type-mismatched one — a job that says
   ["depth": "eight"] is an error, not depth 8. *)
let mem_err k what = raise (Json.Parse_error (k ^ ": expected " ^ what))

let get_str j k d =
  match Json.member k j with
  | Json.Null -> d
  | v -> ( match Json.to_str v with Some s -> s | None -> mem_err k "string")

let get_int j k d =
  match Json.member k j with
  | Json.Null -> d
  | v -> ( match Json.to_int v with Some i -> i | None -> mem_err k "int")

let get_bool j k d =
  match Json.member k j with
  | Json.Null -> d
  | v -> ( match Json.to_bool v with Some b -> b | None -> mem_err k "bool")

let get_float j k d =
  match Json.member k j with
  | Json.Null -> d
  | v -> ( match Json.to_float v with Some f -> f | None -> mem_err k "number")

let design_of_json j =
  let d = default_design in
  {
    d_variant = get_str j "variant" d.d_variant;
    d_pers = get_str j "pers" d.d_pers;
    d_depth = get_int j "depth" d.d_depth;
    d_banks = get_int j "banks" d.d_banks;
    d_arbiter = get_str j "arbiter" d.d_arbiter;
    d_dma = get_bool j "dma" d.d_dma;
    d_hwpe = get_bool j "hwpe" d.d_hwpe;
    d_uart = get_bool j "uart" d.d_uart;
    d_timer = get_bool j "timer" d.d_timer;
    d_dma_on_private = get_bool j "dma_on_private" d.d_dma_on_private;
    d_timer_width = get_int j "timer_width" d.d_timer_width;
  }

(* Canonical form for content addressing: the historical flag layer
   tolerates unknown enumeration strings (they fall back to the
   defaults in [config_of]/[spec_of]), so two designs that build the
   same spec must digest the same. *)
let canonical d =
  {
    d with
    d_variant = (match d.d_variant with "secure" -> "secure" | _ -> "vulnerable");
    d_pers = (match d.d_pers with "memory" -> "memory" | _ -> "full");
    d_arbiter =
      (match d.d_arbiter with
      | "fixed" -> "fixed"
      | "tdma" -> "tdma"
      | _ -> "rr");
  }

let design_key d = Json.to_string_compact (design_to_json (canonical d))

let options_to_json ~alg (o : Options.t) =
  Json.Obj
    [
      ("alg", Json.Int alg);
      ("max_iterations", Json.Int o.Options.max_iterations);
      ("max_k", Json.Int o.Options.max_k);
      ("simp", Json.Bool o.Options.simp);
      ( "jobs",
        match o.Options.jobs with Some n -> Json.Int n | None -> Json.Null );
      ("portfolio", Json.Int o.Options.portfolio);
      ("certify", Json.Bool o.Options.certify);
      ("max_conflicts", Json.Int o.Options.budget.S.max_conflicts);
      ("max_propagations", Json.Int o.Options.budget.S.max_propagations);
      ("max_seconds", Json.Float o.Options.budget.S.max_seconds);
      ("budget_retries", Json.Int o.Options.budget_retries);
      ("budget_escalation", Json.Float o.Options.budget_escalation);
      ("reset_start", Json.Bool o.Options.reset_start);
    ]

let options_of_json j =
  let d = Options.default in
  let alg = get_int j "alg" 1 in
  let jobs =
    match Json.member "jobs" j with
    | Json.Null -> None
    | v -> (
        match Json.to_int v with
        | Some n -> Some n
        | None -> mem_err "jobs" "int")
  in
  ( alg,
    {
      d with
      Options.max_iterations = get_int j "max_iterations" d.Options.max_iterations;
      max_k = get_int j "max_k" d.Options.max_k;
      simp = get_bool j "simp" d.Options.simp;
      jobs;
      portfolio = get_int j "portfolio" d.Options.portfolio;
      certify = get_bool j "certify" d.Options.certify;
      budget =
        {
          S.max_conflicts =
            get_int j "max_conflicts" d.Options.budget.S.max_conflicts;
          max_propagations =
            get_int j "max_propagations" d.Options.budget.S.max_propagations;
          max_seconds =
            get_float j "max_seconds" d.Options.budget.S.max_seconds;
        };
      budget_retries = get_int j "budget_retries" d.Options.budget_retries;
      budget_escalation =
        get_float j "budget_escalation" d.Options.budget_escalation;
      reset_start = get_bool j "reset_start" d.Options.reset_start;
    } )
