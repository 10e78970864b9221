type attr =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type sink = {
  oc : out_channel;
  buf : Buffer.t;
  mu : Mutex.t;
  start : float;
  mutable closed : bool;
}

let sink : sink option Atomic.t = Atomic.make None
let next_id = Atomic.make 1

(* Per-domain stack of open span ids: nesting is a property of the
   domain's call stack, so no cross-domain locking is needed to find a
   span's parent. *)
let stack_key : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let enabled () = Atomic.get sink <> None

let json_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_float b f =
  (* JSON has no inf/nan literals; clamp to null rather than emit an
     unparseable token. *)
  if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.9g" f)
  else Buffer.add_string b "null"

let add_attrs b attrs =
  Buffer.add_string b ",\"attrs\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      json_escape b k;
      Buffer.add_string b "\":";
      match v with
      | Int n -> Buffer.add_string b (string_of_int n)
      | Float f -> add_float b f
      | Bool bo -> Buffer.add_string b (if bo then "true" else "false")
      | Str s ->
          Buffer.add_char b '"';
          json_escape b s;
          Buffer.add_char b '"')
    attrs;
  Buffer.add_char b '}'

(* Flush threshold: big enough to amortise the write syscall, small
   enough that a killed run loses little. Lines are appended whole
   under the sink mutex, so the file never contains a torn line. *)
let flush_threshold = 32 * 1024

let emit s line =
  Mutex.protect s.mu (fun () ->
      if not s.closed then begin
        Buffer.add_string s.buf line;
        Buffer.add_char s.buf '\n';
        if Buffer.length s.buf >= flush_threshold then begin
          Buffer.output_buffer s.oc s.buf;
          Buffer.clear s.buf
        end
      end)

let render s ~ev ~id ?parent ~name ~t ?(attrs = []) () =
  let b = Buffer.create 160 in
  Buffer.add_string b "{\"ev\":\"";
  Buffer.add_string b ev;
  Buffer.add_string b "\",\"id\":";
  Buffer.add_string b (string_of_int id);
  (match parent with
  | Some p ->
      Buffer.add_string b ",\"parent\":";
      Buffer.add_string b (string_of_int p)
  | None -> ());
  Buffer.add_string b ",\"name\":\"";
  json_escape b name;
  Buffer.add_string b "\",\"t\":";
  add_float b (t -. s.start);
  Buffer.add_string b ",\"dom\":";
  Buffer.add_string b (string_of_int (Domain.self () :> int));
  if attrs <> [] then add_attrs b attrs;
  Buffer.add_char b '}';
  Buffer.contents b

let set_sink oc =
  let s =
    {
      oc;
      buf = Buffer.create (2 * flush_threshold);
      mu = Mutex.create ();
      start = Unix.gettimeofday ();
      closed = false;
    }
  in
  if not (Atomic.compare_and_set sink None (Some s)) then
    invalid_arg "Obs.Trace.set_sink: a sink is already installed"

let close () =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      Mutex.protect s.mu (fun () ->
          if not s.closed then begin
            s.closed <- true;
            (try
               Buffer.output_buffer s.oc s.buf;
               Buffer.clear s.buf;
               flush s.oc;
               close_out s.oc
             with _ -> close_out_noerr s.oc)
          end);
      Atomic.set sink None

let with_file path f =
  let oc = open_out path in
  (match Atomic.get sink with
  | Some _ ->
      close_out_noerr oc;
      invalid_arg "Obs.Trace.with_file: a sink is already installed"
  | None -> set_sink oc);
  (* The sink is flushed and closed on abnormal exit too, so an
     interrupted run leaves whole, parseable lines behind. *)
  Fun.protect ~finally:close f

let current_parent () =
  match !(Domain.DLS.get stack_key) with [] -> 0 | p :: _ -> p

let with_span ?(attrs = []) name f =
  match Atomic.get sink with
  | None -> f ()
  | Some s ->
      let id = Atomic.fetch_and_add next_id 1 in
      let parent = current_parent () in
      emit s
        (render s ~ev:"begin" ~id ~parent ~name ~t:(Unix.gettimeofday ())
           ~attrs ());
      let stack = Domain.DLS.get stack_key in
      stack := id :: !stack;
      let pop () =
        match !stack with i :: rest when i = id -> stack := rest | _ -> ()
      in
      (match f () with
      | v ->
          pop ();
          emit s (render s ~ev:"end" ~id ~name ~t:(Unix.gettimeofday ()) ());
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          pop ();
          emit s
            (render s ~ev:"end" ~id ~name ~t:(Unix.gettimeofday ())
               ~attrs:[ ("error", Bool true) ] ());
          Printexc.raise_with_backtrace e bt)

let event ?(attrs = []) name =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      let id = Atomic.fetch_and_add next_id 1 in
      let parent = current_parent () in
      emit s
        (render s ~ev:"instant" ~id ~parent ~name ~t:(Unix.gettimeofday ())
           ~attrs ())

let emit_span ?(attrs = []) name ~t0 ~t1 =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      let id = Atomic.fetch_and_add next_id 1 in
      let parent = current_parent () in
      emit s (render s ~ev:"begin" ~id ~parent ~name ~t:t0 ~attrs ());
      emit s (render s ~ev:"end" ~id ~name ~t:t1 ())
