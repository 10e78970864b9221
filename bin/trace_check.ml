(* Schema check for Obs.Trace JSONL dumps: every line must be one
   complete JSON object, every [begin] span must have a matching [end]
   with the same id, no [end] may appear without its [begin], and every
   span must lie within its parent span's interval.
   Deliberately dependency-free: a field scanner, not a JSON parser.

   Usage: trace_check FILE...    (exit 0 = ok, 1 = violation) *)

let field_string line key =
  (* "key":"value" — value has no escaped quotes in our schema's ev
     field, which is all we extract as a string *)
  let pat = Printf.sprintf "\"%s\":\"" key in
  let plen = String.length pat in
  let n = String.length line in
  let rec find i =
    if i + plen > n then None
    else if String.sub line i plen = pat then
      let j = ref (i + plen) in
      while !j < n && line.[!j] <> '"' do
        incr j
      done;
      Some (String.sub line (i + plen) (!j - i - plen))
    else find (i + 1)
  in
  find 0

(* the characters of the number after "key": *)
let field_number line key ~digit =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat in
  let n = String.length line in
  let rec find i =
    if i + plen > n then None
    else if String.sub line i plen = pat then begin
      let j = ref (i + plen) in
      while !j < n && digit line.[!j] do
        incr j
      done;
      Some (String.sub line (i + plen) (!j - i - plen))
    end
    else find (i + 1)
  in
  find 0

let field_int line key =
  Option.bind
    (field_number line key ~digit:(fun c -> c = '-' || (c >= '0' && c <= '9')))
    int_of_string_opt

let field_float line key =
  Option.bind
    (field_number line key ~digit:(fun c ->
         String.contains "-+.eE" c || (c >= '0' && c <= '9')))
    float_of_string_opt

(* [t] is printed with 9 significant digits *)
let slack = 1e-6

let check_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let open_spans = Hashtbl.create 1024 in
      (* span id -> (line, parent, begin t); then the closed intervals *)
      let begun = Hashtbl.create 1024 in
      let closed = Hashtbl.create 1024 in
      let errors = ref 0 in
      let lineno = ref 0 in
      let err fmt =
        incr errors;
        Printf.eprintf "%s:%d: " path !lineno;
        Printf.kfprintf (fun oc -> output_char oc '\n') stderr fmt
      in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           let n = String.length line in
           if n = 0 then err "empty line"
           else if line.[0] <> '{' || line.[n - 1] <> '}' then
             err "not a complete JSON object: %s" line
           else
             match (field_string line "ev", field_int line "id") with
             | None, _ -> err "missing \"ev\" field"
             | Some _, None -> err "missing \"id\" field"
             | Some "begin", Some id ->
                 if Hashtbl.mem open_spans id then
                   err "duplicate begin for span %d" id;
                 Hashtbl.replace open_spans id !lineno;
                 Hashtbl.replace begun id
                   ( !lineno,
                     Option.value (field_int line "parent") ~default:0,
                     field_float line "t" )
             | Some "end", Some id ->
                 if not (Hashtbl.mem open_spans id) then
                   err "end without begin for span %d" id
                 else begin
                   Hashtbl.remove open_spans id;
                   match (Hashtbl.find begun id, field_float line "t") with
                   | (l, parent, Some t0), Some t1 ->
                       Hashtbl.replace closed id (l, parent, t0, t1)
                   | _ -> err "span %d without a time" id
                 end
             | Some "instant", Some _ -> ()
             | Some ev, Some _ -> err "unknown event kind %S" ev
         done
       with End_of_file -> ());
      Hashtbl.iter
        (fun id opened ->
          incr errors;
          Printf.eprintf "%s: span %d (begun at line %d) never ended\n" path
            id opened)
        open_spans;
      Hashtbl.iter
        (fun id (l, parent, t0, t1) ->
          match Hashtbl.find_opt closed parent with
          | Some (_, _, p0, p1) when t0 < p0 -. slack || t1 > p1 +. slack ->
              incr errors;
              Printf.eprintf
                "%s:%d: span %d [%g, %g] outside its parent %d [%g, %g]\n"
                path l id t0 t1 parent p0 p1
          | _ -> ())
        closed;
      (!errors, !lineno))

let () =
  let files =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as files) -> files
    | _ ->
        prerr_endline "usage: trace_check FILE...";
        exit 2
  in
  let total_errors = ref 0 in
  List.iter
    (fun path ->
      let errors, lines = check_file path in
      total_errors := !total_errors + errors;
      Printf.printf "%s: %d line(s), %d error(s)\n" path lines errors)
    files;
  exit (if !total_errors > 0 then 1 else 0)
