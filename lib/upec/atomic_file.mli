(** Crash-safe publishing of a whole file. *)

val write : dir:string -> path:string -> string -> unit
(** [write ~dir ~path text] writes [text] to a fresh temporary file in
    [dir], [fsync]s it and renames it over [path], so a crash at any
    point leaves either the previous file or the new one under [path],
    never a torn one. [dir] must be on the same file system as [path].
    May raise [Unix.Unix_error], [Sys_error] or [Failure] (short
    write). *)
