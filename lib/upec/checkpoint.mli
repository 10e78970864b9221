(** Crash-safe persistence of UPEC-SSC iteration state.

    After every completed iteration, the driver can persist the
    algorithm's frontier — the candidate set(s), the iteration counter,
    the unroll depth and the svars already degraded to Unknown — and a
    later run can resume from it, reaching the {e same} final verdict
    as an uninterrupted run (iteration state is a semantic fact of the
    formula, not of the schedule).

    The on-disk form is one {!Json} object (members [magic],
    [version] 2, [alg], [variant], [hash], [iter], [k], [frames] and
    [unknown]); {!save} publishes it atomically ({!Atomic_file.write})
    so a crash at any point leaves either the previous checkpoint or
    the new one — never a torn file. A config hash over the algorithm,
    design variant, persistence model and the full svar universe guards
    resumption: state recorded under any other configuration is refused
    rather than misread. *)

type alg = Alg1 | Alg2

type t = {
  ck_alg : alg;
  ck_variant : string;  (** ["vulnerable"] or ["secure"] (informational) *)
  ck_config_hash : string;  (** see {!config_hash} *)
  ck_iter : int;  (** next iteration to run (1-based) *)
  ck_k : int;  (** unroll depth of that iteration; always 1 for Alg1 *)
  ck_frames : string list array;
      (** per-cycle candidate sets as svar names; Alg1 uses one frame,
          Alg2 one per cycle [0..k] *)
  ck_unknown : (string * string) list;
      (** svars degraded to Unknown with the resource reason; excluded
          from the frame sets but surfaced in the final report *)
}

val config_hash : alg:alg -> Spec.t -> string
(** Hex digest fingerprinting everything the stored names depend on.
    Resume refuses a checkpoint whose hash differs from the current
    run's. *)

val to_string : t -> string
val of_string : string -> (t, string) result
(** Inverse of {!to_string}; never raises. [Error] on malformed or
    truncated JSON, a missing or ill-typed member, a negative count, or
    a wrong magic or version. Checkpoints of runs that could hand over
    from monolithic checks to per-svar rounds may carry [costliest] and
    [handover] counts; they are checked like any count and ignored, so
    such a checkpoint resumes as the same frontier. *)

val save : string -> t -> unit
(** Atomic publish ({!Atomic_file.write}). May raise [Unix.Unix_error] /
    [Sys_error] on I/O failure. *)

val load : string -> (t, string) result
(** [Error] (never an exception) on unreadable or malformed files. *)

val pp : Format.formatter -> t -> unit
