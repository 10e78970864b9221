(* Tests for the observability layer: span tracer (nesting, domain
   safety, interrupt discipline) and metrics registry (atomic updates,
   log-scale histogram bucketing, dumps). *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      List.rev !lines)

(* Minimal field scanners, mirroring bin/trace_check.ml. *)
let field_string line key =
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

let field_int line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat in
  let n = String.length line in
  let rec find i =
    if i + plen > n then None
    else if String.sub line i plen = pat then begin
      let j = ref (i + plen) in
      while
        !j < n && (line.[!j] = '-' || (line.[!j] >= '0' && line.[!j] <= '9'))
      do
        incr j
      done;
      int_of_string_opt (String.sub line (i + plen) (!j - i - plen))
    end
    else find (i + 1)
  in
  find 0

let field_float line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat in
  let n = String.length line in
  let rec find i =
    if i + plen > n then None
    else if String.sub line i plen = pat then begin
      let j = ref (i + plen) in
      while
        !j < n
        && (String.contains "-+.eE" line.[!j]
           || (line.[!j] >= '0' && line.[!j] <= '9'))
      do
        incr j
      done;
      float_of_string_opt (String.sub line (i + plen) (!j - i - plen))
    end
    else find (i + 1)
  in
  find 0

let with_temp_trace f =
  let path = Filename.temp_file "obs-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.close ();
      (* double close must be a no-op *)
      Obs.Trace.close ();
      try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Trace.with_file path (fun () -> f ());
      read_lines path)

let assert_matched lines =
  let open_spans = Hashtbl.create 16 in
  List.iter
    (fun line ->
      Alcotest.(check bool)
        "line is a JSON object" true
        (String.length line >= 2
        && line.[0] = '{'
        && line.[String.length line - 1] = '}');
      match (field_string line "ev", field_int line "id") with
      | Some "begin", Some id -> Hashtbl.replace open_spans id ()
      | Some "end", Some id ->
          Alcotest.(check bool) "end has matching begin" true
            (Hashtbl.mem open_spans id);
          Hashtbl.remove open_spans id
      | Some "instant", Some _ -> ()
      | _ -> Alcotest.fail ("unparseable event line: " ^ line))
    lines;
  Alcotest.(check int) "all spans ended" 0 (Hashtbl.length open_spans)

let test_span_nesting () =
  let lines =
    with_temp_trace (fun () ->
        Obs.Trace.with_span "outer"
          ~attrs:[ ("layer", Obs.Trace.Str "test") ]
          (fun () ->
            Obs.Trace.with_span "inner" (fun () -> ());
            Obs.Trace.event "tick"))
  in
  assert_matched lines;
  let begins ev_name =
    List.find
      (fun l ->
        field_string l "ev" = Some "begin" && field_string l "name" = Some ev_name)
      lines
  in
  let outer_id = Option.get (field_int (begins "outer") "id") in
  let inner = begins "inner" in
  Alcotest.(check (option int))
    "inner parents to outer" (Some outer_id) (field_int inner "parent");
  Alcotest.(check (option int))
    "outer is a root span" (Some 0)
    (field_int (begins "outer") "parent");
  let instant =
    List.find (fun l -> field_string l "ev" = Some "instant") lines
  in
  Alcotest.(check (option int))
    "instant under outer (inner already closed)" (Some outer_id)
    (field_int instant "parent")

let test_spans_across_domains () =
  let lines =
    with_temp_trace (fun () ->
        let doms =
          List.init 2 (fun i ->
              Domain.spawn (fun () ->
                  for j = 0 to 9 do
                    Obs.Trace.with_span
                      (Printf.sprintf "worker%d.span%d" i j)
                      (fun () -> ())
                  done))
        in
        List.iter Domain.join doms)
  in
  assert_matched lines;
  let doms =
    List.sort_uniq compare (List.filter_map (fun l -> field_int l "dom") lines)
  in
  Alcotest.(check int) "events from two distinct domains" 2 (List.length doms);
  (* each domain has its own stack: every span here is a root *)
  List.iter
    (fun l ->
      if field_string l "ev" = Some "begin" then
        Alcotest.(check (option int)) "root span" (Some 0) (field_int l "parent"))
    lines;
  Alcotest.(check int) "2 domains x 10 spans x begin+end" 40
    (List.length lines)

let test_span_error_and_interrupt () =
  (* A raising body still emits the end event, and the file left after
     an aborted run (the exception escapes with_file) is whole-line
     parseable. *)
  let path = Filename.temp_file "obs-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (try
         Obs.Trace.with_file path (fun () ->
             Obs.Trace.with_span "doomed" (fun () ->
                 for i = 0 to 99 do
                   Obs.Trace.with_span (Printf.sprintf "work%d" i) (fun () ->
                       ())
                 done;
                 failwith "interrupted mid-run"))
       with Failure _ -> ());
      Alcotest.(check bool) "sink closed after abort" false
        (Obs.Trace.enabled ());
      let lines = read_lines path in
      assert_matched lines;
      let doomed_end =
        List.find
          (fun l ->
            field_string l "ev" = Some "end"
            && field_string l "name" = Some "doomed")
          lines
      in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "error flagged on the end event" true
        (contains doomed_end "\"error\":true"))

let test_emit_span_manual () =
  let lines =
    with_temp_trace (fun () ->
        let t1 = Unix.gettimeofday () in
        Obs.Trace.emit_span "manual"
          ~attrs:[ ("iter", Obs.Trace.Int 3) ]
          ~t0:(t1 -. 0.25) ~t1)
  in
  assert_matched lines;
  Alcotest.(check int) "begin+end emitted" 2 (List.length lines)

let test_disabled_is_noop () =
  Alcotest.(check bool) "no sink installed" false (Obs.Trace.enabled ());
  Alcotest.(check int) "with_span just runs the body" 41
    (Obs.Trace.with_span "nobody" (fun () -> 41));
  Obs.Trace.event "dropped";
  Obs.Trace.emit_span "dropped" ~t0:0.0 ~t1:1.0

let test_counter_concurrent () =
  let c = Obs.Metrics.counter "test.concurrent_counter" in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              Obs.Metrics.incr c
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "no lost updates" 40_000 (Obs.Metrics.counter_value c);
  (* same name returns the same instrument *)
  Obs.Metrics.add (Obs.Metrics.counter "test.concurrent_counter") 2;
  Alcotest.(check int) "interned by name" 40_002
    (Obs.Metrics.counter_value c)

let test_histogram_bucketing () =
  let h = Obs.Metrics.histogram "test.bucketing" in
  (* below the lowest bound, inside bucket 0, bucket 1, mid-range, and
     far beyond the top: all must land in finite buckets *)
  List.iter (Obs.Metrics.observe h) [ 1e-9; 1.5e-6; 3e-6; 1.0; 1e12 ];
  let snap = Obs.Metrics.snapshot () in
  let hs = List.assoc "test.bucketing" snap.Obs.Metrics.histograms in
  Alcotest.(check int) "all observations counted" 5 hs.Obs.Metrics.hs_count;
  Alcotest.(check (float 1e-3)) "sum" (1e-9 +. 1.5e-6 +. 3e-6 +. 1.0 +. 1e12)
    hs.Obs.Metrics.hs_sum;
  let buckets = hs.Obs.Metrics.hs_buckets in
  (* 1e-9 and 1.5e-6 share bucket 0 (ub 2e-6); 3e-6 in [2e-6,4e-6);
     1.0 in [0.524288,1.048576); 1e12 clamps into the last bucket *)
  Alcotest.(check int) "non-empty buckets" 4 (List.length buckets);
  let ub0, n0 = List.hd buckets in
  Alcotest.(check (float 1e-9)) "bucket 0 upper bound" 2e-6 ub0;
  Alcotest.(check int) "bucket 0 holds the two smallest" 2 n0;
  let last_ub, _ = List.nth buckets (List.length buckets - 1) in
  Alcotest.(check (float 1.0)) "last bucket ub = lb * 2^32"
    (1e-6 *. (2.0 ** 32.0))
    last_ub;
  Alcotest.(check bool) "mean is finite" true
    (Float.is_finite (Obs.Metrics.hist_mean hs))

let test_gauge_and_reset () =
  let g = Obs.Metrics.gauge "test.gauge" in
  Obs.Metrics.set_gauge g 7.5;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check (float 0.0)) "gauge value" 7.5
    (List.assoc "test.gauge" snap.Obs.Metrics.gauges);
  Obs.Metrics.reset ();
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check (float 0.0)) "gauge zeroed in place" 0.0
    (List.assoc "test.gauge" snap.Obs.Metrics.gauges);
  (* the old handle must still be live after reset *)
  Obs.Metrics.set_gauge g 1.25;
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check (float 0.0)) "handle survives reset" 1.25
    (List.assoc "test.gauge" snap.Obs.Metrics.gauges)

let test_metrics_json () =
  let c = Obs.Metrics.counter "test.json_counter" in
  Obs.Metrics.incr c;
  Obs.Metrics.observe (Obs.Metrics.histogram "test.json_hist") 0.5;
  let s = Obs.Metrics.to_json (Obs.Metrics.snapshot ()) in
  Alcotest.(check bool) "json object" true
    (String.length s > 2 && s.[0] = '{' && s.[String.length s - 1] = '}');
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter present" true
    (contains s "\"test.json_counter\":1");
  Alcotest.(check bool) "histogram present" true
    (contains s "\"test.json_hist\":{\"count\":1");
  (* dump_file round-trip *)
  let path = Filename.temp_file "obs-test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Obs.Metrics.dump_file path;
      let lines = read_lines path in
      Alcotest.(check int) "one JSON line" 1 (List.length lines))

let test_instrument_kind_clash () =
  ignore (Obs.Metrics.counter "test.kind_clash");
  Alcotest.check_raises "same name, different kind"
    (Invalid_argument
       "Obs.Metrics: test.kind_clash already registered as a different \
        instrument kind") (fun () -> ignore (Obs.Metrics.gauge "test.kind_clash"))

(* A traced refinement nests every solve under its iteration's span,
   so the root spans do not count an iteration's time twice. *)
let test_iteration_spans_nest () =
  let spec =
    match Scenarios.Scenario.find "countermeasure_d3" with
    | Some s -> Upec.Cli.spec_of s.Scenarios.Scenario.sp_design
    | None -> Alcotest.fail "countermeasure_d3 is not in the catalog"
  in
  let t0 = Unix.gettimeofday () in
  let lines =
    with_temp_trace (fun () -> ignore (Upec.Alg1.run_with Upec.Options.default spec))
  in
  let wall = Unix.gettimeofday () -. t0 in
  (* id -> name, parent, begin, end *)
  let spans = Hashtbl.create 4096 in
  List.iter
    (fun line ->
      match (field_string line "ev", field_int line "id", field_float line "t") with
      | Some "begin", Some id, Some t ->
          Hashtbl.replace spans id
            ( Option.value (field_string line "name") ~default:"",
              Option.value (field_int line "parent") ~default:0,
              t,
              t )
      | Some "end", Some id, Some t -> (
          match Hashtbl.find_opt spans id with
          | Some (name, parent, tb, _) -> Hashtbl.replace spans id (name, parent, tb, t)
          | None -> Alcotest.fail "end without begin")
      | _ -> ())
    lines;
  let rec under_iteration id =
    match Hashtbl.find_opt spans id with
    | Some ("alg1.iter", _, _, _) -> true
    | Some (_, parent, _, _) -> parent <> 0 && under_iteration parent
    | None -> false
  in
  let solves, roots =
    Hashtbl.fold
      (fun _ (name, parent, tb, te) (solves, roots) ->
        ( (if name = "sat.solve" then parent :: solves else solves),
          if parent = 0 then roots +. (te -. tb) else roots ))
      spans ([], 0.0)
  in
  Alcotest.(check bool) "the run solved" true (solves <> []);
  List.iter
    (fun parent ->
      Alcotest.(check bool) "sat.solve under an iteration" true
        (under_iteration parent))
    solves;
  if roots > wall then
    Alcotest.failf "root spans sum to %.3f s in a %.3f s run" roots wall

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting and parents" `Quick
            test_span_nesting;
          Alcotest.test_case "spans across domains" `Quick
            test_spans_across_domains;
          Alcotest.test_case "error + interrupt leaves parseable JSONL" `Quick
            test_span_error_and_interrupt;
          Alcotest.test_case "manual emit_span" `Quick test_emit_span_manual;
          Alcotest.test_case "iteration spans nest" `Quick
            test_iteration_spans_nest;
          Alcotest.test_case "disabled tracer is a no-op" `Quick
            test_disabled_is_noop;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "concurrent counter" `Quick
            test_counter_concurrent;
          Alcotest.test_case "histogram bucketing" `Quick
            test_histogram_bucketing;
          Alcotest.test_case "gauge + reset keeps handles" `Quick
            test_gauge_and_reset;
          Alcotest.test_case "json dump" `Quick test_metrics_json;
          Alcotest.test_case "instrument kind clash refused" `Quick
            test_instrument_kind_clash;
        ] );
    ]
