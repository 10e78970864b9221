let write ~dir ~path text =
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let n = String.length text in
      if Unix.write_substring fd text 0 n <> n then
        failwith "Atomic_file.write: short write";
      (* the rename must only ever publish fully-persisted bytes *)
      Unix.fsync fd);
  Sys.rename tmp path
