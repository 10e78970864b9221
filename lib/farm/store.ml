module Json = Upec.Json

let magic = "upec-farm-cache 1"

(* svar names contain no whitespace by construction, but the index is
   a whitespace-split format, so encode defensively. *)
let encode s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' | '%' | '\n' | '\t' ->
          Buffer.add_string b (Printf.sprintf "%%%02x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let decode s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '%' && !i + 2 < n then begin
       match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
       | Some c ->
           Buffer.add_char b (Char.chr c);
           i := !i + 2
       | None -> failwith "Store.decode: bad escape"
     end
     else Buffer.add_char b s.[!i]);
    incr i
  done;
  Buffer.contents b

type lemma_entry = { le_holds : bool; mutable le_stamp : int }

type report_entry = {
  mutable re_stamp : int;
  mutable re_kept : ((int * int * int * float) * Json.t) option;
      (* the tree last read and validated, and the identity of the file
         it came from (device, inode, size, mtime): an atomic re-publish
         changes the inode, an in-place write the size or the mtime *)
}

type t = {
  st_dir : string;
  st_writer : bool;  (* may move damaged files aside *)
  st_lemmas : (string * string, lemma_entry) Hashtbl.t;  (* (svar, key) *)
  st_svars : (string, int) Hashtbl.t;  (* svar -> lemma count *)
  st_reports : (string, report_entry) Hashtbl.t;  (* report key *)
  mutable st_stamp : int;  (* monotonic LRU clock *)
  mutable st_quarantined : int;  (* damaged files set aside this session *)
}

let dir t = t.st_dir
let index_path t = Filename.concat t.st_dir "index"
let reports_dir t = Filename.concat t.st_dir "reports"
let report_path t key = Filename.concat (reports_dir t) (key ^ ".json")
let quarantine_dir t = Filename.concat t.st_dir "quarantine"

(* Move a damaged file out of the cache's namespace: it is never
   trusted again, but it is kept for forensics and counted. Readers
   (worker snapshots) only count — the daemon owns the files. *)
let quarantine t path =
  t.st_quarantined <- t.st_quarantined + 1;
  if t.st_writer then begin
    (try Unix.mkdir (quarantine_dir t) 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let base = Filename.concat (quarantine_dir t) (Filename.basename path) in
    let rec dest n =
      let p = if n = 0 then base else Printf.sprintf "%s.%d" base n in
      if Sys.file_exists p then dest (n + 1) else p
    in
    try Sys.rename path (dest 0) with Sys_error _ -> ()
  end

let incr_svar t svar d =
  let c = (match Hashtbl.find_opt t.st_svars svar with Some c -> c | None -> 0) + d in
  if c <= 0 then Hashtbl.remove t.st_svars svar
  else Hashtbl.replace t.st_svars svar c

let tick t =
  t.st_stamp <- t.st_stamp + 1;
  t.st_stamp

let parse_index t text =
  let lines = String.split_on_char '\n' text in
  match lines with
  | first :: rest when first = magic ->
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "L"; svar; key; holds; stamp ] ->
              let svar = decode svar in
              let holds = holds = "1" in
              let stamp = int_of_string stamp in
              if not (Hashtbl.mem t.st_lemmas (svar, key)) then begin
                Hashtbl.replace t.st_lemmas (svar, key)
                  { le_holds = holds; le_stamp = stamp };
                incr_svar t svar 1
              end;
              if stamp > t.st_stamp then t.st_stamp <- stamp
          | [ "R"; key; stamp ] ->
              let stamp = int_of_string stamp in
              Hashtbl.replace t.st_reports key
                { re_stamp = stamp; re_kept = None };
              if stamp > t.st_stamp then t.st_stamp <- stamp
          | [ "" ] | [] -> ()
          | _ -> failwith "Store: malformed index line")
        rest
  | _ -> failwith "Store: bad index magic"

let load ?(writer = false) ~dir () =
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let t =
    {
      st_dir = dir;
      st_writer = writer;
      st_lemmas = Hashtbl.create 1024;
      st_svars = Hashtbl.create 256;
      st_reports = Hashtbl.create 64;
      st_stamp = 0;
      st_quarantined = 0;
    }
  in
  (try Unix.mkdir (reports_dir t) 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (if Sys.file_exists (index_path t) then
     match
       let ic = open_in_bin (index_path t) in
       Fun.protect
         ~finally:(fun () -> close_in_noerr ic)
         (fun () -> really_input_string ic (in_channel_length ic))
     with
     | text -> (
         try parse_index t text
         with _ ->
           (* damaged cache = empty cache, never a crash; the broken
              index is set aside, not overwritten silently *)
           Hashtbl.reset t.st_lemmas;
           Hashtbl.reset t.st_svars;
           Hashtbl.reset t.st_reports;
           quarantine t (index_path t))
     | exception Sys_error _ -> ());
  (* drop index entries whose report file is gone *)
  Hashtbl.iter
    (fun key _ ->
      if not (Sys.file_exists (report_path t key)) then
        Hashtbl.remove t.st_reports key)
    (Hashtbl.copy t.st_reports);
  t

let lemma t ~svar ~key =
  match Hashtbl.find_opt t.st_lemmas (svar, key) with
  | Some e ->
      e.le_stamp <- tick t;
      Some e.le_holds
  | None -> None

let add_lemma t ~svar ~key ~holds =
  if not (Hashtbl.mem t.st_lemmas (svar, key)) then incr_svar t svar 1;
  Hashtbl.replace t.st_lemmas (svar, key)
    { le_holds = holds; le_stamp = tick t }

let has_svar t ~svar = Hashtbl.mem t.st_svars svar

let atomic_write ~dir ~path text =
  (* chaos: publish a torn artefact — the rename stays atomic, the
     content is damaged, and the read-side quarantine must catch it *)
  let text =
    if Chaos.fire "truncate_store" then
      String.sub text 0 (String.length text / 2)
    else text
  in
  Upec.Atomic_file.write ~dir ~path text

let m_report_reads = Obs.Metrics.counter "farm.report_reads"

let identity (st : Unix.stats) =
  (st.Unix.st_dev, st.Unix.st_ino, st.Unix.st_size, st.Unix.st_mtime)

(* Read, parse and validate one report file; [None] if it is damaged.
   The identity comes from the open descriptor before the read, so it
   names the file whose bytes were parsed, and a write that races the
   read changes it. *)
let read_report path =
  Obs.Metrics.incr m_report_reads;
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let id = identity (Unix.fstat (Unix.descr_of_in_channel ic)) in
        let text = really_input_string ic (in_channel_length ic) in
        let j = Json.of_string text in
        (* strict parsing: a cached artefact under an unsupported
           schema version is as untrustworthy as a torn one *)
        ignore (Json.schema_version ~supported:[ 2; 3 ] j);
        (id, j))
  with
  | kept -> Some kept
  | exception
      (Sys_error _ | End_of_file | Unix.Unix_error _ | Json.Parse_error _) ->
      None

let report t ~key =
  match Hashtbl.find_opt t.st_reports key with
  | None -> None
  | Some e ->
      let path = report_path t key in
      let unchanged id =
        match Unix.stat path with
        | st -> identity st = id
        | exception Unix.Unix_error _ -> false
      in
      let served =
        match e.re_kept with
        | Some (id, j) when unchanged id -> Some j
        | _ ->
            e.re_kept <- read_report path;
            Option.map snd e.re_kept
      in
      (match served with
      | Some _ -> e.re_stamp <- tick t
      | None ->
          (* an unreadable or unparseable artefact is never trusted and
             never retried: drop the index entry and set the file aside
             so the key re-solves cleanly *)
          Hashtbl.remove t.st_reports key;
          quarantine t path);
      served

let add_report t ~key json =
  atomic_write ~dir:t.st_dir ~path:(report_path t key) (Json.to_string json);
  Hashtbl.replace t.st_reports key { re_stamp = tick t; re_kept = None }

let save t =
  let b = Buffer.create 4096 in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  Hashtbl.iter
    (fun (svar, key) e ->
      Printf.bprintf b "L %s %s %d %d\n" (encode svar) key
        (if e.le_holds then 1 else 0)
        e.le_stamp)
    t.st_lemmas;
  Hashtbl.iter
    (fun key e -> Printf.bprintf b "R %s %d\n" key e.re_stamp)
    t.st_reports;
  atomic_write ~dir:t.st_dir ~path:(index_path t) (Buffer.contents b)

let evict_oldest count stamps remove =
  (* [stamps]: (stamp, id) list; evict the [count] oldest *)
  let sorted = List.sort compare stamps in
  let rec go n = function
    | (_, id) :: rest when n > 0 ->
        remove id;
        go (n - 1) rest
    | _ -> ()
  in
  go count sorted

let gc t ~max_lemmas ~max_reports =
  let nl = Hashtbl.length t.st_lemmas and nr = Hashtbl.length t.st_reports in
  let evl = max 0 (nl - max_lemmas) and evr = max 0 (nr - max_reports) in
  if evl > 0 then
    evict_oldest evl
      (Hashtbl.fold (fun k e acc -> (e.le_stamp, k) :: acc) t.st_lemmas [])
      (fun (svar, key) ->
        Hashtbl.remove t.st_lemmas (svar, key);
        incr_svar t svar (-1));
  if evr > 0 then
    evict_oldest evr
      (Hashtbl.fold (fun k e acc -> (e.re_stamp, k) :: acc) t.st_reports [])
      (fun key ->
        Hashtbl.remove t.st_reports key;
        try Sys.remove (report_path t key) with Sys_error _ -> ());
  (evl, evr)

let counts t = (Hashtbl.length t.st_lemmas, Hashtbl.length t.st_reports)
let quarantined t = t.st_quarantined
