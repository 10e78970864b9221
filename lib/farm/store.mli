(** On-disk content-addressed verdict/lemma cache.

    Layout under the cache directory:
    - [index] — versioned text file listing every entry with an LRU
      stamp: lemma lines carry (svar, key, verdict) inline, report
      lines point at [reports/<key>.json];
    - [reports/<key>.json] — cached report artefacts (schema 3;
      schema 2 is still read).

    Durability follows [Upec.Checkpoint]: every publish is
    temp-file + write + fsync + rename, so a crash can lose at most
    the unflushed tail of the current session, never tear a file. A
    corrupt or version-mismatched index is treated as an empty cache
    (the farm re-solves; it never crashes on cache damage).

    Damage is {e quarantined}, never trusted: a report file that
    fails to read or parse is dropped from the index, moved to
    [quarantine/] (writer handles only) and counted; a damaged index
    is set aside the same way. The key re-solves cleanly — corruption
    can cost work, never a verdict.

    Concurrency: single writer (the daemon). Worker processes open
    read-only snapshots per job with {!load} and never call {!save};
    the daemon merges their new lemmas and publishes. *)

type t

val load : ?writer:bool -> dir:string -> unit -> t
(** Open (creating the directory if needed). Never raises on cache
    damage — a damaged index loads as empty. [writer] (default
    [false]) marks the single-writer handle: only it may move
    damaged files into [quarantine/]; readers just count and miss. *)

val dir : t -> string

val lemma : t -> svar:string -> key:string -> bool option
(** Cached verdict of a per-svar check, bumping its LRU stamp. *)

val add_lemma : t -> svar:string -> key:string -> holds:bool -> unit
(** In-memory until {!save}; duplicate (svar, key) pairs overwrite. *)

val has_svar : t -> svar:string -> bool
(** Whether any lemma (under any key — i.e. any design content) is
    cached for this state variable; a lookup miss with [has_svar]
    true is an {e invalidation}, the re-solved cone of a delta. *)

val report : t -> key:string -> Upec.Json.t option
(** Cached report, bumping its stamp. An unreadable or unparseable
    report file is a miss {e and} a quarantine: the entry is dropped
    and (on a writer handle) the file moved aside.

    The handle keeps the tree of every report it has read and
    validated, with the file's identity ([Unix.stat]'s device, inode,
    size and mtime). A lookup stats the file and serves the kept tree
    while the identity is unchanged; otherwise it reads, parses and
    validates the file again, counting the read in the
    [farm.report_reads] metric. Any change [stat] can see (an atomic
    re-publish, a new size or mtime, a vanished file) therefore
    re-reads, and damage is quarantined on that lookup. An in-place
    overwrite of the same size within one mtime tick is not seen: the
    tree validated before it keeps being served, never the damaged
    bytes. Only validated trees are kept; {!add_report}, {!gc}
    eviction and quarantine drop a key's tree, and {!load} starts
    with none, so the kept trees are bounded by the report entries. *)

val add_report : t -> key:string -> Upec.Json.t -> unit
(** Publishes the report file atomically right away; the index entry
    lands at the next {!save}. The next {!report} of the key reads the
    published file. *)

val save : t -> unit
(** Publish the index atomically. *)

val gc : t -> max_lemmas:int -> max_reports:int -> int * int
(** Evict least-recently-used entries beyond the caps; report files
    are unlinked. Returns (lemmas evicted, reports evicted). The
    caller is expected to {!save} afterwards. *)

val counts : t -> int * int
(** (lemmas, reports) currently cached. *)

val quarantined : t -> int
(** Damaged files detected (and, as writer, moved aside) since
    {!load}. *)
