(* Proof-farm suite: fingerprints, the on-disk store, cache
   invalidation soundness, and one end-to-end daemon round trip.

   The soundness bar (METHOD.md, "The proof farm"): a warm run may
   answer per-svar checks from cache but must reproduce the cold run's
   verdict bit-for-bit — same verdict, same witness sets, same
   iteration table. Only effort telemetry (seconds, solver/simp
   counters, certificate totals) may reflect that less work was done.
   And an RTL delta must re-solve exactly the checks whose
   {!Upec.Fingerprint.check_key} it changes — never one of the
   others. *)

open Rtl
module Cli = Upec.Cli
module F = Upec.Fingerprint
module Json = Upec.Json
module O = Upec.Options

(* A fast design point: one timer to mutate, no DMA/HWPE/UART, tiny
   memories. Cold-solves in well under a second. *)
let small =
  {
    Cli.default_design with
    Cli.d_depth = 3;
    d_dma = false;
    d_hwpe = false;
    d_uart = false;
  }

let fp d = F.make (Cli.spec_of d)

(* Per-svar check keys of a design, at S = all svars, by name. *)
let all_keys d =
  let spec = Cli.spec_of d in
  let nl = spec.Upec.Spec.soc.Soc.Builder.netlist in
  let s = Structural.all_svars nl in
  let f = F.make spec in
  Structural.Svar_set.fold
    (fun sv acc -> (Structural.svar_name sv, F.check_key f sv ~s) :: acc)
    s []

(* ---- fingerprint properties ---- *)

let gen_design =
  QCheck.Gen.(
    let* depth = int_range 2 4 in
    let* tw = int_range 2 8 in
    let* dma = bool and* hwpe = bool and* uart = bool in
    let* secure = bool in
    return
      {
        Cli.default_design with
        Cli.d_variant = (if secure then "secure" else "vulnerable");
        d_depth = depth;
        d_timer_width = tw;
        d_dma = dma;
        d_hwpe = hwpe;
        d_uart = uart;
      })

let pp_design d =
  Printf.sprintf "{%s depth=%d tw=%d dma=%b hwpe=%b uart=%b}" d.Cli.d_variant
    d.Cli.d_depth d.Cli.d_timer_width d.Cli.d_dma d.Cli.d_hwpe d.Cli.d_uart

let arb_design = QCheck.make ~print:pp_design gen_design

let qcheck_rebuild_stable =
  QCheck.Test.make ~count:10 ~name:"identical builds fingerprint equal"
    arb_design (fun d ->
      (* two independent builds: signal ids and build order differ,
         content does not *)
      F.design (fp d) = F.design (fp d))

let qcheck_gate_change_differs =
  QCheck.Test.make ~count:10 ~name:"any gate change fingerprints differently"
    arb_design (fun d ->
      let d' =
        {
          d with
          Cli.d_timer_width =
            (if d.Cli.d_timer_width >= 8 then 7 else d.Cli.d_timer_width + 1);
        }
      in
      F.design (fp d) <> F.design (fp d'))

let test_variant_in_fingerprint () =
  Alcotest.(check bool)
    "vulnerable vs secure differ" true
    (F.design (fp small)
    <> F.design (fp { small with Cli.d_variant = "secure" }))

(* ---- check-key selectivity ---- *)

(* The validated delta: shrinking the timer counter 8 -> 7 bits on the
   full default design changes the next-state content of exactly
   [timer.value] and — because the DMA's data register muxes the read
   bus the timer drives — [dma.data_q]. Every other check key must
   survive, or the farm would re-solve the whole design on every
   one-line RTL edit. *)
let test_delta_cone () =
  let k8 = all_keys Cli.default_design in
  let k7 = all_keys { Cli.default_design with Cli.d_timer_width = 7 } in
  Alcotest.(check int) "same svar set" (List.length k8) (List.length k7);
  let changed =
    List.filter_map
      (fun (n, k) ->
        match List.assoc_opt n k7 with
        | Some k' when k' <> k -> Some n
        | _ -> None)
      k8
  in
  Alcotest.(check (list string))
    "changed keys = the timer cone"
    [ "dma.data_q"; "timer.value" ]
    (List.sort compare changed);
  Alcotest.(check bool)
    "most keys survive" true
    (List.length k8 - List.length changed > List.length changed)

(* ---- the on-disk store ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir name =
  rm_rf name;
  name

let load dir = Farm.Store.load ~dir ()
let loadw dir = Farm.Store.load ~writer:true ~dir ()

(* Flip chaos directives for the duration of [f] only; the daemon
   helpers below strip these variables before spawning, so a directive
   set here fires in this process (the client / the in-process store),
   never in a daemon under test. *)
let with_chaos spec f =
  Unix.putenv "UPEC_FARM_CHAOS" spec;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "UPEC_FARM_CHAOS" "";
      Unix.putenv "UPEC_FARM_CHAOS_DIR" "")
    f

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* ---- wire: addresses, framing, auth primitives ---- *)

let test_addr_parsing () =
  let check_addr msg expect got =
    Alcotest.(check bool) msg true (got = expect)
  in
  check_addr "host:port is tcp"
    (Farm.Wire.Tcp ("farm.example", 9731))
    (Farm.Wire.addr_of_string "farm.example:9731");
  check_addr "bare port binds loopback"
    (Farm.Wire.Tcp ("127.0.0.1", 9731))
    (Farm.Wire.addr_of_string ":9731");
  check_addr "a path stays a unix socket"
    (Farm.Wire.Unix_path "/tmp/farm.sock")
    (Farm.Wire.addr_of_string "/tmp/farm.sock");
  check_addr "non-numeric port stays a unix socket"
    (Farm.Wire.Unix_path "odd:name")
    (Farm.Wire.addr_of_string "odd:name");
  check_addr "port 0 is not a tcp address"
    (Farm.Wire.Unix_path "host:0")
    (Farm.Wire.addr_of_string "host:0")

let test_framing () =
  let buf = Buffer.create 64 in
  let msg = {|{"op":"ping"}|} in
  let f = Farm.Wire.frame msg in
  (* byte-at-a-time arrival: nothing pops until the last byte *)
  String.iteri
    (fun i c ->
      Buffer.add_char buf c;
      if i < String.length f - 1 then
        Alcotest.(check (option string))
          "incomplete frame pops nothing" None
          (Farm.Wire.pop_frame buf))
    f;
  Alcotest.(check (option string))
    "complete frame pops" (Some msg)
    (Farm.Wire.pop_frame buf);
  Alcotest.(check int) "buffer drained" 0 (Buffer.length buf);
  (* two frames back to back, plus a partial tail *)
  Buffer.add_string buf (f ^ Farm.Wire.frame "x" ^ "0000");
  Alcotest.(check (option string)) "first" (Some msg) (Farm.Wire.pop_frame buf);
  Alcotest.(check (option string)) "second" (Some "x") (Farm.Wire.pop_frame buf);
  Alcotest.(check (option string)) "tail stays" None (Farm.Wire.pop_frame buf);
  Alcotest.(check int) "tail intact" 4 (Buffer.length buf);
  (* framing damage is loud, never a silent short message *)
  Buffer.clear buf;
  Buffer.add_string buf "garbage!\n";
  match Farm.Wire.pop_frame buf with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "malformed frame header must raise"

let test_auth_primitives () =
  let mac = Farm.Wire.hmac ~key:"secret" "msg" in
  Alcotest.(check string) "hmac is deterministic" mac
    (Farm.Wire.hmac ~key:"secret" "msg");
  Alcotest.(check bool) "the key separates" true
    (mac <> Farm.Wire.hmac ~key:"other" "msg");
  Alcotest.(check bool) "the message separates" true
    (mac <> Farm.Wire.hmac ~key:"secret" "msg2");
  Alcotest.(check bool) "over-long keys are hashed, not truncated" true
    (Farm.Wire.hmac ~key:(String.make 100 'k') "m"
    <> Farm.Wire.hmac ~key:(String.make 100 'k' ^ "x") "m");
  Alcotest.(check bool) "ct-eq accepts" true
    (Farm.Wire.constant_time_eq mac mac);
  Alcotest.(check bool) "ct-eq refuses" false
    (Farm.Wire.constant_time_eq mac (Farm.Wire.hmac ~key:"other" "msg"));
  Alcotest.(check bool) "nonces do not repeat" true
    (Farm.Wire.fresh_nonce () <> Farm.Wire.fresh_nonce ());
  let nonce = Farm.Wire.fresh_nonce () in
  Alcotest.(check bool) "a well-formed response verifies" true
    (Farm.Wire.auth_check ~token:"tok" ~nonce
       (Farm.Wire.auth_response ~token:"tok" ~nonce));
  Alcotest.(check bool) "a wrong token is refused" false
    (Farm.Wire.auth_check ~token:"tok" ~nonce
       (Farm.Wire.auth_response ~token:"bad" ~nonce));
  Alcotest.(check bool) "a replayed response is refused" false
    (Farm.Wire.auth_check ~token:"tok" ~nonce:(Farm.Wire.fresh_nonce ())
       (Farm.Wire.auth_response ~token:"tok" ~nonce))

(* ---- chaos harness bookkeeping ---- *)

let test_chaos_budgets () =
  with_chaos "test_fault:2,other" (fun () ->
      Alcotest.(check bool) "active" true (Farm.Chaos.active ());
      Alcotest.(check bool) "armed" true (Farm.Chaos.armed "test_fault");
      Alcotest.(check bool) "unlisted not armed" false (Farm.Chaos.armed "no");
      Alcotest.(check bool) "unlisted never fires" false (Farm.Chaos.fire "no");
      let f1 = Farm.Chaos.fire "test_fault" in
      let f2 = Farm.Chaos.fire "test_fault" in
      let f3 = Farm.Chaos.fire "test_fault" in
      Alcotest.(check (list bool))
        "a budget of two fires twice" [ true; true; false ] [ f1; f2; f3 ];
      Alcotest.(check bool) "default count is one" true (Farm.Chaos.fire "other");
      Alcotest.(check bool) "and then dry" false (Farm.Chaos.fire "other"));
  Alcotest.(check bool) "inactive when unset" false (Farm.Chaos.active ());
  (* shared budgets live in lockf'd counter files: the allowance is
     global across the daemon, its workers and their respawns *)
  let dir = fresh_dir "farm-chaos-dir" in
  let bindings = Farm.Chaos.arm_dir ~dir [ ("test_fault", 1) ] in
  Alcotest.(check bool) "arm_dir names the spec" true
    (List.mem_assoc "UPEC_FARM_CHAOS" bindings
    && List.mem_assoc "UPEC_FARM_CHAOS_DIR" bindings);
  List.iter (fun (k, v) -> Unix.putenv k v) bindings;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "UPEC_FARM_CHAOS" "";
      Unix.putenv "UPEC_FARM_CHAOS_DIR" "")
    (fun () ->
      Alcotest.(check bool) "shared budget fires once" true
        (Farm.Chaos.fire "test_fault");
      Alcotest.(check bool) "then globally dry" false
        (Farm.Chaos.fire "test_fault"))

let test_store_roundtrip () =
  let dir = fresh_dir "farm-store-roundtrip" in
  let s = load dir in
  Farm.Store.add_lemma s ~svar:"timer.value" ~key:"k1" ~holds:true;
  Farm.Store.add_lemma s ~svar:"dma.data_q" ~key:"k2" ~holds:false;
  Farm.Store.add_lemma s ~svar:"odd name []" ~key:"k3" ~holds:true;
  Farm.Store.add_report s ~key:"r1"
    (Json.Obj [ ("schema", Json.Int 2); ("verdict", Json.Str "ok") ]);
  Farm.Store.save s;
  let s' = load dir in
  Alcotest.(check (pair int int)) "counts" (3, 1) (Farm.Store.counts s');
  Alcotest.(check (option bool))
    "lemma verdict" (Some true)
    (Farm.Store.lemma s' ~svar:"timer.value" ~key:"k1");
  Alcotest.(check (option bool))
    "refuted lemma" (Some false)
    (Farm.Store.lemma s' ~svar:"dma.data_q" ~key:"k2");
  Alcotest.(check (option bool))
    "escaped svar name" (Some true)
    (Farm.Store.lemma s' ~svar:"odd name []" ~key:"k3");
  Alcotest.(check (option bool))
    "stale key misses" None
    (Farm.Store.lemma s' ~svar:"timer.value" ~key:"other");
  Alcotest.(check bool)
    "has_svar sees any key" true
    (Farm.Store.has_svar s' ~svar:"timer.value");
  Alcotest.(check bool)
    "has_svar miss" false
    (Farm.Store.has_svar s' ~svar:"nope");
  match Farm.Store.report s' ~key:"r1" with
  | Some (Json.Obj [ ("schema", Json.Int 2); ("verdict", Json.Str "ok") ]) -> ()
  | _ -> Alcotest.fail "report did not round-trip"

let test_store_gc () =
  let dir = fresh_dir "farm-store-gc" in
  let s = load dir in
  for i = 1 to 6 do
    Farm.Store.add_lemma s
      ~svar:(Printf.sprintf "sv%d" i)
      ~key:"k" ~holds:true
  done;
  Farm.Store.add_report s ~key:"r1" (Json.Obj [ ("schema", Json.Int 3) ]);
  Farm.Store.add_report s ~key:"r2" (Json.Obj [ ("schema", Json.Int 3) ]);
  (* touch the oldest lemma so LRU keeps it over sv2..sv4 *)
  ignore (Farm.Store.lemma s ~svar:"sv1" ~key:"k");
  ignore (Farm.Store.report s ~key:"r1");
  let evl, evr = Farm.Store.gc s ~max_lemmas:2 ~max_reports:1 in
  Alcotest.(check (pair int int)) "evicted" (4, 1) (evl, evr);
  Alcotest.(check (pair int int)) "kept" (2, 1) (Farm.Store.counts s);
  Alcotest.(check (option bool))
    "recently used survives" (Some true)
    (Farm.Store.lemma s ~svar:"sv1" ~key:"k");
  Alcotest.(check (option bool))
    "oldest evicted" None
    (Farm.Store.lemma s ~svar:"sv2" ~key:"k");
  Alcotest.(check bool)
    "evicted report file unlinked" false
    (Sys.file_exists (Filename.concat dir "reports/r2.json"));
  Farm.Store.save s;
  Alcotest.(check (pair int int))
    "gc survives reload" (2, 1)
    (Farm.Store.counts (load dir))

let test_store_damage () =
  let dir = fresh_dir "farm-store-damage" in
  let s = load dir in
  Farm.Store.add_lemma s ~svar:"a" ~key:"k" ~holds:true;
  Farm.Store.add_report s ~key:"r" (Json.Obj []);
  Farm.Store.save s;
  (* index corrupted -> empty cache, no exception *)
  let oc = open_out (Filename.concat dir "index") in
  output_string oc "upec-farm-cache 999\ngarbage here\n";
  close_out oc;
  Alcotest.(check (pair int int))
    "corrupt index loads empty" (0, 0)
    (Farm.Store.counts (load dir));
  (* indexed report whose file vanished -> pruned, not crashed *)
  let s = load dir in
  Farm.Store.add_report s ~key:"gone" (Json.Obj []);
  Farm.Store.save s;
  Unix.unlink (Filename.concat dir "reports/gone.json");
  let s' = load dir in
  Alcotest.(check (pair int int)) "pruned" (0, 0) (Farm.Store.counts s')

(* A damaged artefact is never trusted, never silently dropped: the
   writer (the daemon) moves it into quarantine/ and forgets the key;
   a reader (a worker snapshot) only counts and misses — the files
   belong to the daemon. *)
let test_store_quarantine () =
  let dir = fresh_dir "farm-store-quarantine" in
  let s = loadw dir in
  Farm.Store.add_report s ~key:"r" (Json.Obj [ ("verdict", Json.Str "ok") ]);
  Farm.Store.save s;
  let path = Filename.concat dir "reports/r.json" in
  let oc = open_out path in
  output_string oc "{\"verdict\":";
  close_out oc;
  Alcotest.(check bool)
    "damaged report not trusted" true
    (Farm.Store.report s ~key:"r" = None);
  Alcotest.(check int) "counted" 1 (Farm.Store.quarantined s);
  Alcotest.(check bool)
    "moved out of the cache namespace" false (Sys.file_exists path);
  Alcotest.(check bool)
    "kept for forensics" true
    (Sys.file_exists (Filename.concat dir "quarantine/r.json"));
  Alcotest.(check int) "index entry dropped" 0 (snd (Farm.Store.counts s));
  (* the reader side: count, miss, leave the file where it is *)
  let s2 = loadw dir in
  Farm.Store.add_report s2 ~key:"r2" (Json.Obj []);
  Farm.Store.save s2;
  let p2 = Filename.concat dir "reports/r2.json" in
  let oc = open_out p2 in
  output_string oc "garbage";
  close_out oc;
  let rd = load dir in
  Alcotest.(check bool)
    "reader misses" true
    (Farm.Store.report rd ~key:"r2" = None);
  Alcotest.(check int) "reader counted" 1 (Farm.Store.quarantined rd);
  Alcotest.(check bool) "reader left the file in place" true
    (Sys.file_exists p2)

let test_store_corrupt_index_quarantined () =
  let dir = fresh_dir "farm-store-qidx" in
  let s = loadw dir in
  Farm.Store.add_lemma s ~svar:"a" ~key:"k" ~holds:true;
  Farm.Store.save s;
  let oc = open_out (Filename.concat dir "index") in
  output_string oc "upec-farm-cache 999\ngarbage\n";
  close_out oc;
  let s' = loadw dir in
  Alcotest.(check (pair int int))
    "empty after damage" (0, 0)
    (Farm.Store.counts s');
  Alcotest.(check int) "counted" 1 (Farm.Store.quarantined s');
  Alcotest.(check bool) "broken index set aside" true
    (Sys.file_exists (Filename.concat dir "quarantine/index"))

(* The store keeps every report it has read and validated, and
   re-validates it with one [stat] per lookup: an unchanged artefact
   is read and parsed once per handle; any change [stat] can see
   re-reads it, so damage is still quarantined on the lookup after
   it. *)
let report_reads () =
  Obs.Metrics.counter_value (Obs.Metrics.counter "farm.report_reads")

let overwrite path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let report_v v = Json.Obj [ ("schema", Json.Int 3); ("verdict", Json.Str v) ]

let test_store_memo () =
  let dir = fresh_dir "farm-store-memo" in
  let s = loadw dir in
  Farm.Store.add_report s ~key:"r" (report_v "ok");
  Farm.Store.save s;
  let reads0 = report_reads () in
  for _ = 1 to 1000 do
    Alcotest.(check bool)
      "served" true
      (Farm.Store.report s ~key:"r" = Some (report_v "ok"))
  done;
  Alcotest.(check int) "1000 lookups, one read" 1 (report_reads () - reads0);
  let reads0 = report_reads () in
  let rd = load dir in
  for _ = 1 to 10 do
    ignore (Farm.Store.report rd ~key:"r")
  done;
  Alcotest.(check int) "a reader keeps its own tree" 1
    (report_reads () - reads0);
  Farm.Store.add_report s ~key:"r" (report_v "new");
  Alcotest.(check bool)
    "add_report drops the kept tree" true
    (Farm.Store.report s ~key:"r" = Some (report_v "new"));
  ignore (Farm.Store.gc s ~max_lemmas:0 ~max_reports:0);
  Alcotest.(check bool)
    "evicted key misses" true
    (Farm.Store.report s ~key:"r" = None)

let test_store_memo_damage () =
  let dir = fresh_dir "farm-store-memo-damage" in
  let s = loadw dir in
  Farm.Store.add_report s ~key:"r" (report_v "ok");
  Farm.Store.add_report s ~key:"q" (report_v "ok");
  Farm.Store.save s;
  let path key = Filename.concat dir ("reports/" ^ key ^ ".json") in
  Alcotest.(check bool)
    "served" true
    (Farm.Store.report s ~key:"r" = Some (report_v "ok"));
  overwrite (path "r") "{\"verdict\":";
  Alcotest.(check bool)
    "overwritten after serve: a miss" true
    (Farm.Store.report s ~key:"r" = None);
  Alcotest.(check int) "quarantined" 1 (Farm.Store.quarantined s);
  Alcotest.(check bool)
    "moved aside" true
    (Sys.file_exists (Filename.concat dir "quarantine/r.json"));
  Alcotest.(check int) "index entry dropped" 1 (snd (Farm.Store.counts s));
  (* pin the mtime, so a same-size overwrite can keep it or move it *)
  let q = path "q" in
  Unix.utimes q 1e9 1e9;
  Alcotest.(check bool)
    "served at a pinned mtime" true
    (Farm.Store.report s ~key:"q" = Some (report_v "ok"));
  let damaged = String.map (fun _ -> '#') (Json.to_string (report_v "ok")) in
  overwrite q damaged;
  (* same size and the same mtime: [stat] cannot see the write, and
     the tree validated before it is what keeps being served *)
  Unix.utimes q 1e9 1e9;
  Alcotest.(check bool)
    "unseen write serves the validated tree" true
    (Farm.Store.report s ~key:"q" = Some (report_v "ok"));
  Unix.utimes q 2e9 2e9;
  Alcotest.(check bool)
    "same size, new mtime: a miss" true
    (Farm.Store.report s ~key:"q" = None);
  Alcotest.(check int) "quarantined too" 2 (Farm.Store.quarantined s);
  (* a vanished file is a miss even with a kept tree *)
  Farm.Store.add_report s ~key:"v" (report_v "ok");
  ignore (Farm.Store.report s ~key:"v");
  Sys.remove (path "v");
  Alcotest.(check bool)
    "vanished file: a miss" true
    (Farm.Store.report s ~key:"v" = None)

(* ---- cache invalidation soundness (in process) ---- *)

let job ?(id = "t") ?(certify = false) d =
  {
    Farm.Job.jb_id = id;
    jb_design = d;
    jb_alg = 1;
    jb_options = { O.default with O.jobs = Some 1; certify };
  }

(* Everything semantic must be byte-equal between warm and cold; strip
   only effort telemetry: seconds, solver/simp counters, certificate
   totals (cached checks don't re-certify) and the cache block itself. *)
let strip_effort json =
  let rec strip drop j =
    match j with
    | Json.Obj members ->
        Json.Obj
          (List.filter_map
             (fun (n, v) ->
               if List.mem n drop then None
               else if n = "steps" then Some (n, strip_steps v)
               else Some (n, strip drop v))
             members)
    | Json.List items -> Json.List (List.map (strip drop) items)
    | j -> j
  and strip_steps = function
    | Json.List steps -> Json.List (List.map (strip [ "seconds" ]) steps)
    | j -> j
  in
  strip [ "total_seconds"; "simp"; "cache"; "cert" ] json

let semantic json = Json.to_string_compact (strip_effort json)

let merge_outcome store (oc : Farm.Exec.outcome) =
  List.iter
    (fun (svar, key, holds) -> Farm.Store.add_lemma store ~svar ~key ~holds)
    oc.Farm.Exec.oc_new_lemmas;
  if not oc.Farm.Exec.oc_report_hit then
    Farm.Store.add_report store ~key:oc.Farm.Exec.oc_report_key
      oc.Farm.Exec.oc_report;
  Farm.Store.save store

let test_invalidation_soundness () =
  let small7 = { small with Cli.d_timer_width = 7 } in
  let store = load (fresh_dir "farm-inval-warm") in
  let cold8 = Farm.Exec.run ~store (job small) in
  Alcotest.(check bool) "cold run is a miss" false cold8.Farm.Exec.oc_report_hit;
  merge_outcome store cold8;
  (* the delta: 8 -> 7 bit timer. Warm run against the tw=8 cache. *)
  let warm7 = Farm.Exec.run ~store (job small7) in
  let cold7 =
    Farm.Exec.run ~store:(load (fresh_dir "farm-inval-cold"))
      (job small7)
  in
  Alcotest.(check bool) "warm is not a report hit" false
    warm7.Farm.Exec.oc_report_hit;
  Alcotest.(check bool) "warm served from lemma cache" true
    (warm7.Farm.Exec.oc_lemma_hits > 0);
  Alcotest.(check bool) "warm re-solved the cone" true
    (warm7.Farm.Exec.oc_lemma_misses > 0);
  Alcotest.(check int) "every miss is an invalidation (no new svars)"
    warm7.Farm.Exec.oc_lemma_misses warm7.Farm.Exec.oc_invalidated;
  Alcotest.(check string) "warm verdict bit-identical to cold"
    (semantic cold7.Farm.Exec.oc_report)
    (semantic warm7.Farm.Exec.oc_report);
  (* re-solved exactly the key-changed cone: no changed-key svar may
     be served from cache, and cold8's lemmas for unchanged keys are
     what the warm run consumed *)
  let changed =
    let k8 = all_keys small and k7 = all_keys small7 in
    List.filter_map
      (fun (n, k) ->
        match List.assoc_opt n k7 with
        | Some k' when k' <> k -> Some n
        | _ -> None)
      k8
  in
  Alcotest.(check bool) "delta has a non-empty cone" true (changed <> []);
  let cached_names =
    match
      Json.member "cache" warm7.Farm.Exec.oc_report |> Json.member "cached_svars"
    with
    | Json.List l ->
        List.filter_map
          (fun e ->
            match Json.member "name" e with Json.Str s -> Some s | _ -> None)
          l
    | _ -> []
  in
  Alcotest.(check bool) "warm run cached something" true (cached_names <> []);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " (changed key) must re-solve, not hit")
        false (List.mem n cached_names))
    changed;
  (* resubmission of the warm job is now a report-level hit *)
  merge_outcome store warm7;
  let again = Farm.Exec.run ~store (job small7) in
  Alcotest.(check bool) "resubmission hits" true again.Farm.Exec.oc_report_hit;
  Alcotest.(check string) "served artefact identical"
    (semantic warm7.Farm.Exec.oc_report)
    (semantic again.Farm.Exec.oc_report)

let test_certified_warm () =
  let small7 = { small with Cli.d_timer_width = 7 } in
  let store = load (fresh_dir "farm-cert-warm") in
  merge_outcome store (Farm.Exec.run ~store (job ~certify:true small));
  let warm = Farm.Exec.run ~store (job ~certify:true small7) in
  let cold =
    Farm.Exec.run ~store:(load (fresh_dir "farm-cert-cold"))
      (job ~certify:true small7)
  in
  Alcotest.(check bool) "warm certified run used the cache" true
    (warm.Farm.Exec.oc_lemma_hits > 0);
  Alcotest.(check string) "certified verdict bit-identical"
    (semantic cold.Farm.Exec.oc_report)
    (semantic warm.Farm.Exec.oc_report);
  (* the fresh cone solves are still certified *)
  match Json.member "cert" cold.Farm.Exec.oc_report with
  | Json.Null -> Alcotest.fail "cold certified run carries no cert block"
  | _ -> ()

(* Corruption does not poison verdicts: a torn publish (the
   [truncate_store] chaos directive) or an overwritten artefact is
   quarantined on first read and the key re-solves to a bit-identical
   verdict. *)
let test_quarantined_key_resolves () =
  let dir = fresh_dir "farm-quarantine-resolve" in
  let store = loadw dir in
  let cold = Farm.Exec.run ~store (job small) in
  merge_outcome store cold;
  with_chaos "truncate_store:1" (fun () ->
      Farm.Store.add_report store ~key:"torn"
        (Json.Obj [ ("pad", Json.Str (String.make 64 'x')) ]));
  Alcotest.(check bool)
    "torn artefact refused" true
    (Farm.Store.report store ~key:"torn" = None);
  Alcotest.(check bool)
    "torn artefact quarantined" true
    (Farm.Store.quarantined store >= 1);
  (* now damage the real report; the key must re-solve, not hit *)
  let path =
    Filename.concat dir ("reports/" ^ cold.Farm.Exec.oc_report_key ^ ".json")
  in
  let oc = open_out path in
  output_string oc "{\"half\":";
  close_out oc;
  let again = Farm.Exec.run ~store (job small) in
  Alcotest.(check bool)
    "damaged report is a miss, not a hit" false
    again.Farm.Exec.oc_report_hit;
  Alcotest.(check string) "re-solved verdict bit-identical"
    (semantic cold.Farm.Exec.oc_report)
    (semantic again.Farm.Exec.oc_report)

(* ---- options key separates strategies ---- *)

let test_options_key () =
  let j1 = job small and j2 = job { small with Cli.d_depth = 4 } in
  Alcotest.(check string) "options key ignores the design"
    (Farm.Job.options_key j1) (Farm.Job.options_key j2);
  let j3 = { j1 with Farm.Job.jb_alg = 2 } in
  Alcotest.(check bool) "algorithm is part of the key" true
    (Farm.Job.options_key j1 <> Farm.Job.options_key j3);
  let j4 =
    { j1 with Farm.Job.jb_options = { j1.Farm.Job.jb_options with O.jobs = Some 2 } }
  in
  Alcotest.(check bool) "job count is part of the key" true
    (Farm.Job.options_key j1 <> Farm.Job.options_key j4);
  Alcotest.(check bool) "report keys differ across designs" true
    (Farm.Exec.report_key j1 <> Farm.Exec.report_key j2);
  (* a member the codec no longer reads keys nothing: a job that still
     carries a retired member ([incremental], [cert_jobs]) shares its
     entry *)
  let parsed text = Farm.Job.of_json (Json.of_string text) in
  let plain = parsed {|{"options":{"jobs":1}}|} in
  List.iter
    (fun text ->
      let legacy = parsed text in
      Alcotest.(check string) ("retired member: same options key: " ^ text)
        (Farm.Job.options_key plain) (Farm.Job.options_key legacy);
      Alcotest.(check string) ("retired member: same report key: " ^ text)
        (Farm.Exec.report_key plain) (Farm.Exec.report_key legacy))
    [
      {|{"options":{"jobs":1,"incremental":false}}|};
      {|{"options":{"jobs":1,"cert_jobs":2}}|};
    ]


(* ---- untrusted bytes: what the store reads back ---- *)

(* A real schema-3 report, as a cold run publishes it. *)
let real_report =
  lazy
    (let oc =
       Farm.Exec.run ~store:(load (fresh_dir "farm-fuzz-solve")) (job small)
     in
     Json.to_string oc.Farm.Exec.oc_report)

(* Random bytes, truncations and single-byte flips of the real
   report. *)
let gen_damage st =
  let real = Lazy.force real_report in
  let n = String.length real in
  QCheck.Gen.(
    oneof
      [
        string_size ~gen:char (int_range 0 300);
        map (fun k -> String.sub real 0 k) (int_range 0 (n - 1));
        (let* i = int_range 0 (n - 1) and* x = int_range 1 255 in
         return
           (String.mapi
              (fun j c -> if j = i then Char.chr (Char.code c lxor x) else c)
              real));
      ])
    st

let arb_damage = QCheck.make ~print:String.escaped gen_damage

let qcheck_json_typed_errors =
  QCheck.Test.make ~count:300 ~name:"json reader raises only Parse_error"
    arb_damage (fun bytes ->
      match Json.of_string bytes with
      | _ -> true
      | exception Json.Parse_error _ -> true)

(* The bytes become the artefact of an indexed key. The store serves
   nothing but their parse, refuses them whenever they do not parse,
   and never raises; a refusal is counted, and only the writer moves
   the file aside. *)
let qcheck_store_refuses_damage =
  let dir = "farm-fuzz-store" in
  let path = Filename.concat dir "reports/k.json" in
  let indexed =
    lazy
      (let s = loadw (fresh_dir dir) in
       Farm.Store.add_report s ~key:"k" (Json.of_string (Lazy.force real_report));
       Farm.Store.save s)
  in
  QCheck.Test.make ~count:300 ~name:"store refuses damaged artefacts"
    arb_damage (fun bytes ->
      Lazy.force indexed;
      let parses =
        match Json.of_string bytes with
        | j -> Some j
        | exception Json.Parse_error _ -> None
      in
      let lookup writer =
        overwrite path bytes;
        let s = Farm.Store.load ~writer ~dir () in
        match Farm.Store.report s ~key:"k" with
        | Some j -> Some j = parses
        | None ->
            Farm.Store.quarantined s = 1
            && Sys.file_exists path = not writer
            && snd (Farm.Store.counts s) = 0
      in
      lookup false && lookup true)

(* ---- graceful degradation (in process) ---- *)

let farm_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/upec_farm.exe"

let worker_argv cache = [| farm_exe; "worker"; "--cache"; cache |]

(* A zero-worker daemon is cache-only: hits are still answered, misses
   are refused as degraded — never queued forever. *)
let test_cache_only_degraded () =
  let dir = fresh_dir "farm-degraded" in
  Unix.mkdir dir 0o755;
  let cache = Filename.concat dir "cache" in
  let store = loadw cache in
  merge_outcome store (Farm.Exec.run ~store (job ~id:"warm" small));
  let server =
    Farm.Server.create ~cache_dir:cache ~worker_argv:(worker_argv cache)
      ~workers:0 ~job_timeout:0.0 ()
  in
  Fun.protect
    ~finally:(fun () -> Farm.Server.close server)
    (fun () ->
      match
        Farm.Server.run_batch server
          ~jobs:
            [
              Farm.Job.to_json (job ~id:"warm" small);
              Farm.Job.to_json (job ~id:"miss" { small with Cli.d_depth = 4 });
            ]
      with
      | [ hit; miss ] ->
          Alcotest.(check (option bool))
            "hit answered" (Some true)
            (Json.to_bool (Json.member "ok" hit));
          Alcotest.(check (option bool))
            "from cache" (Some true)
            (Json.to_bool (Json.member "cached" hit));
          Alcotest.(check (option bool))
            "miss refused" (Some false)
            (Json.to_bool (Json.member "ok" miss));
          Alcotest.(check (option bool))
            "flagged degraded" (Some true)
            (Json.to_bool (Json.member "degraded" miss))
      | _ -> Alcotest.fail "two replies expected")

(* Past the queue bound, submissions are shed immediately as
   overloaded — the accepted ones still complete. *)
let test_overloaded_shedding () =
  let dir = fresh_dir "farm-overload" in
  Unix.mkdir dir 0o755;
  let cache = Filename.concat dir "cache" in
  let server =
    Farm.Server.create ~cache_dir:cache ~worker_argv:(worker_argv cache)
      ~workers:1 ~job_timeout:0.0 ~max_queue:1 ()
  in
  Fun.protect
    ~finally:(fun () -> Farm.Server.close server)
    (fun () ->
      match
        Farm.Server.run_batch server
          ~jobs:
            [
              Farm.Job.to_json (job ~id:"q1" small);
              Farm.Job.to_json (job ~id:"q2" { small with Cli.d_depth = 4 });
              Farm.Job.to_json
                (job ~id:"q3" { small with Cli.d_timer_width = 7 });
            ]
      with
      | [ r1; r2; r3 ] ->
          Alcotest.(check (option bool))
            "leased job served" (Some true)
            (Json.to_bool (Json.member "ok" r1));
          Alcotest.(check (option bool))
            "queued job served" (Some true)
            (Json.to_bool (Json.member "ok" r2));
          Alcotest.(check (option bool))
            "past the bound: shed" (Some true)
            (Json.to_bool (Json.member "overloaded" r3));
          Alcotest.(check (option bool))
            "shed is not ok" (Some false)
            (Json.to_bool (Json.member "ok" r3))
      | _ -> Alcotest.fail "three replies expected")

(* ---- end to end: the daemon over its socket(s) ---- *)

let rpc socket j = Farm.Client.request (Farm.Client.local socket) j

let submit_op j =
  Json.Obj [ ("op", Json.Str "submit"); ("job", Farm.Job.to_json j) ]

let op name = Json.Obj [ ("op", Json.Str name) ]

(* Spawn `upec_farm serve` with chaos variables stripped from the
   inherited environment ([env] adds them back deliberately), wait for
   the unix socket, run [f], and always reap the daemon. *)
let with_daemon ?(env = []) ?(args = []) dirname f =
  let dir = fresh_dir dirname in
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "farm.sock" in
  let cache = Filename.concat dir "cache" in
  let argv =
    Array.of_list
      ([ farm_exe; "serve"; "--socket"; socket; "--cache"; cache ] @ args)
  in
  let base =
    List.filter
      (fun s -> not (String.starts_with ~prefix:"UPEC_FARM_CHAOS" s))
      (Array.to_list (Unix.environment ()))
  in
  let envp = Array.of_list (base @ List.map (fun (k, v) -> k ^ "=" ^ v) env) in
  let pid =
    Unix.create_process_env farm_exe argv envp Unix.stdin Unix.stdout
      Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    (fun () ->
      let rec wait_sock n =
        if Sys.file_exists socket then ()
        else if n = 0 then Alcotest.fail "daemon never bound its socket"
        else begin
          Unix.sleepf 0.05;
          wait_sock (n - 1)
        end
      in
      wait_sock 200;
      f ~socket ~cache ~pid)

let test_daemon_roundtrip () =
  with_daemon ~args:[ "--workers"; "1" ] "farm-e2e"
    (fun ~socket ~cache:_ ~pid ->
      let r1 = rpc socket (submit_op (job ~id:"e2e" small)) in
      Alcotest.(check (option bool))
        "first submit ok" (Some true)
        (Json.to_bool (Json.member "ok" r1));
      Alcotest.(check (option bool))
        "first submit solves" (Some false)
        (Json.to_bool (Json.member "cached" r1));
      let r2 = rpc socket (submit_op (job ~id:"e2e" small)) in
      Alcotest.(check (option bool))
        "resubmission served from cache" (Some true)
        (Json.to_bool (Json.member "cached" r2));
      Alcotest.(check string) "served verdict identical"
        (semantic (Json.member "report" r1))
        (semantic (Json.member "report" r2));
      let st = rpc socket (op "status") in
      Alcotest.(check (option bool))
        "status ok" (Some true)
        (Json.to_bool (Json.member "ok" st));
      let bye = rpc socket (op "shutdown") in
      Alcotest.(check (option bool))
        "shutdown acknowledged" (Some true)
        (Json.to_bool (Json.member "ok" bye));
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool)
        "daemon exited cleanly" true
        (status = Unix.WEXITED 0))

(* The chaos gate: a worker SIGKILLed mid-job (shared budget of one
   kill across the whole farm) is lease-retried and the batch
   completes with verdicts bit-identical to an uninjected run. *)
let test_chaos_kill_bit_identical () =
  let budget = fresh_dir "farm-chaos-kill-budget" in
  let env = Farm.Chaos.arm_dir ~dir:budget [ ("kill_worker_mid_job", 1) ] in
  with_daemon ~env
    ~args:[ "--workers"; "1"; "--job-retries"; "2" ]
    "farm-chaos-kill"
    (fun ~socket ~cache:_ ~pid:_ ->
      let d2 = { small with Cli.d_depth = 4 } in
      let r1 = rpc socket (submit_op (job ~id:"k1" small)) in
      let r2 = rpc socket (submit_op (job ~id:"k2" d2)) in
      Alcotest.(check (option bool))
        "killed job completes" (Some true)
        (Json.to_bool (Json.member "ok" r1));
      Alcotest.(check (option bool))
        "rest of the batch completes" (Some true)
        (Json.to_bool (Json.member "ok" r2));
      let clean1 =
        Farm.Exec.run ~store:(load (fresh_dir "farm-chaos-clean1"))
          (job ~id:"k1" small)
      in
      let clean2 =
        Farm.Exec.run ~store:(load (fresh_dir "farm-chaos-clean2"))
          (job ~id:"k2" d2)
      in
      Alcotest.(check string) "retried verdict bit-identical to a clean run"
        (semantic clean1.Farm.Exec.oc_report)
        (semantic (Json.member "report" r1));
      Alcotest.(check string) "unkilled verdict identical too"
        (semantic clean2.Farm.Exec.oc_report)
        (semantic (Json.member "report" r2));
      let st = rpc socket (op "status") in
      Alcotest.(check bool) "the kill really happened" true
        (match Json.to_int (Json.member "worker_crashes" st) with
        | Some n -> n >= 1
        | None -> false);
      Alcotest.(check bool) "and was lease-retried" true
        (match Json.to_int (Json.member "job_retries" st) with
        | Some n -> n >= 1
        | None -> false);
      Alcotest.(check (option int))
        "nothing poisoned" (Some 0)
        (Json.to_int (Json.member "jobs_poisoned" st)))

(* Per-process budgets (no UPEC_FARM_CHAOS_DIR) re-arm on every worker
   respawn: the job kills every worker it touches, exhausts its
   retries and is reported poisoned — and the daemon survives it. *)
let test_chaos_poisoned () =
  with_daemon
    ~env:[ ("UPEC_FARM_CHAOS", "kill_worker_mid_job") ]
    ~args:[ "--workers"; "1"; "--job-retries"; "1" ]
    "farm-chaos-poison"
    (fun ~socket ~cache:_ ~pid:_ ->
      let r = rpc socket (submit_op (job ~id:"px" small)) in
      Alcotest.(check (option bool))
        "refused, not dropped" (Some false)
        (Json.to_bool (Json.member "ok" r));
      Alcotest.(check (option bool))
        "flagged poisoned" (Some true)
        (Json.to_bool (Json.member "poisoned" r));
      Alcotest.(check (option int))
        "after initial attempt + one retry" (Some 2)
        (Json.to_int (Json.member "attempts" r));
      let st = rpc socket (op "status") in
      Alcotest.(check (option bool))
        "daemon survives its poisoned job" (Some true)
        (Json.to_bool (Json.member "ok" st));
      Alcotest.(check (option int))
        "counted" (Some 1)
        (Json.to_int (Json.member "jobs_poisoned" st)))

(* A watchdog kill is a timeout, not a crash: the failure taxonomy
   must keep the two apart in replies and counters. *)
let test_chaos_timeout_taxonomy () =
  with_daemon
    ~args:
      [ "--workers"; "1"; "--job-retries"; "0"; "--job-timeout"; "0.01" ]
    "farm-chaos-timeout"
    (fun ~socket ~cache:_ ~pid:_ ->
      let r = rpc socket (submit_op (job ~id:"slow" Cli.default_design)) in
      Alcotest.(check (option bool))
        "refused" (Some false)
        (Json.to_bool (Json.member "ok" r));
      Alcotest.(check (option bool))
        "poisoned (no retries configured)" (Some true)
        (Json.to_bool (Json.member "poisoned" r));
      (match Json.to_str (Json.member "error" r) with
      | Some msg ->
          Alcotest.(check bool) "reply names the timeout" true
            (contains msg "timeout")
      | None -> Alcotest.fail "poisoned reply carries no error message");
      let st = rpc socket (op "status") in
      Alcotest.(check (option int))
        "counted as a timeout" (Some 1)
        (Json.to_int (Json.member "worker_timeouts" st));
      Alcotest.(check (option int))
        "not as a crash" (Some 0)
        (Json.to_int (Json.member "worker_crashes" st)))

(* Client-side faults: a dropped connection and a stalled server are
   absorbed by the bounded retry; when every attempt fails the client
   raises Unavailable instead of hanging. *)
let test_client_retry () =
  with_daemon ~args:[ "--workers"; "1" ] "farm-client-retry"
    (fun ~socket ~cache:_ ~pid:_ ->
      with_chaos "drop_conn:1" (fun () ->
          let st =
            Farm.Client.request ~timeout:10.0 ~backoff:0.01
              (Farm.Client.local socket) (op "status")
          in
          Alcotest.(check (option bool))
            "retry absorbed the dropped connection" (Some true)
            (Json.to_bool (Json.member "ok" st)));
      with_chaos "stall_conn:1" (fun () ->
          let st =
            Farm.Client.request ~timeout:0.5 ~backoff:0.01
              (Farm.Client.local socket) (op "status")
          in
          Alcotest.(check (option bool))
            "deadline + retry absorbed the stall" (Some true)
            (Json.to_bool (Json.member "ok" st)));
      with_chaos "drop_conn:5" (fun () ->
          match
            Farm.Client.request ~timeout:5.0 ~attempts:2 ~backoff:0.01
              (Farm.Client.local socket) (op "status")
          with
          | _ -> Alcotest.fail "exhausted retries must raise Unavailable"
          | exception Farm.Client.Unavailable _ -> ()));
  (* no daemon at all: bounded failure, never a hang *)
  match
    Farm.Client.request ~timeout:0.5 ~attempts:2 ~backoff:0.01
      (Farm.Client.local "farm-client-retry/nope.sock")
      (op "status")
  with
  | _ -> Alcotest.fail "dead socket must raise Unavailable"
  | exception Farm.Client.Unavailable _ -> ()

(* TCP + auth, end to end: an authenticated client round-trips over
   the network transport and shares one cache with the unix socket; a
   wrong or missing token is refused as a reply (never retried into a
   hang); every refusal is counted. *)
let test_tcp_auth () =
  let prep = fresh_dir "farm-tcp-prep" in
  Unix.mkdir prep 0o755;
  let token_file = Filename.concat prep "token" in
  let oc = open_out token_file in
  output_string oc "s3cret-farm-token\n";
  close_out oc;
  let bad_file = Filename.concat prep "bad-token" in
  let oc = open_out bad_file in
  output_string oc "wrong\n";
  close_out oc;
  let port = 19000 + (Unix.getpid () mod 20000) in
  let hp = Printf.sprintf "127.0.0.1:%d" port in
  with_daemon
    ~args:
      [ "--workers"; "1"; "--listen"; hp; "--auth-token-file"; token_file ]
    "farm-tcp"
    (fun ~socket ~cache:_ ~pid:_ ->
      let tcp = Farm.Client.target ~token_file hp in
      let st = Farm.Client.request ~timeout:10.0 tcp (op "status") in
      Alcotest.(check (option bool))
        "authed status over TCP" (Some true)
        (Json.to_bool (Json.member "ok" st));
      let r1 =
        Farm.Client.request ~timeout:600.0 tcp (submit_op (job ~id:"t1" small))
      in
      Alcotest.(check (option bool))
        "solve over TCP" (Some true)
        (Json.to_bool (Json.member "ok" r1));
      let r2 = rpc socket (submit_op (job ~id:"t1" small)) in
      Alcotest.(check (option bool))
        "unix side hits the same cache" (Some true)
        (Json.to_bool (Json.member "cached" r2));
      Alcotest.(check string) "verdict identical across transports"
        (semantic (Json.member "report" r1))
        (semantic (Json.member "report" r2));
      let bad = Farm.Client.target ~token_file:bad_file hp in
      let rb = Farm.Client.request ~timeout:10.0 bad (op "status") in
      Alcotest.(check (option bool))
        "wrong token refused" (Some false)
        (Json.to_bool (Json.member "ok" rb));
      let bare = Farm.Client.target hp in
      let rn = Farm.Client.request ~timeout:10.0 bare (op "status") in
      Alcotest.(check (option bool))
        "tokenless client refused" (Some false)
        (Json.to_bool (Json.member "ok" rn));
      let st = rpc socket (op "status") in
      Alcotest.(check bool) "refusals counted" true
        (match Json.to_int (Json.member "auth_failures" st) with
        | Some n -> n >= 2
        | None -> false))

(* Unauthenticated TCP is refused by design, at startup. *)
let test_listen_requires_token () =
  let dir = fresh_dir "farm-tcp-guard" in
  Unix.mkdir dir 0o755;
  let pid =
    Unix.create_process farm_exe
      [|
        farm_exe; "serve"; "--socket";
        Filename.concat dir "s.sock"; "--cache";
        Filename.concat dir "cache"; "--listen"; "127.0.0.1:1";
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 2 -> ()
  | _ -> Alcotest.fail "--listen without --auth-token-file must refuse"

let () =
  Alcotest.run "farm"
    [
      ( "fingerprint",
        [
          QCheck_alcotest.to_alcotest qcheck_rebuild_stable;
          QCheck_alcotest.to_alcotest qcheck_gate_change_differs;
          Alcotest.test_case "variant in fingerprint" `Quick
            test_variant_in_fingerprint;
          Alcotest.test_case "delta changes exactly its cone" `Quick
            test_delta_cone;
        ] );
      ( "wire",
        [
          Alcotest.test_case "address parsing" `Quick test_addr_parsing;
          Alcotest.test_case "length framing" `Quick test_framing;
          Alcotest.test_case "auth primitives" `Quick test_auth_primitives;
        ] );
      ( "chaos",
        [ Alcotest.test_case "directive budgets" `Quick test_chaos_budgets ] );
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "lru gc" `Quick test_store_gc;
          Alcotest.test_case "damage tolerance" `Quick test_store_damage;
          Alcotest.test_case "corruption quarantine" `Quick
            test_store_quarantine;
          Alcotest.test_case "corrupt index quarantined" `Quick
            test_store_corrupt_index_quarantined;
          Alcotest.test_case "report read once" `Quick test_store_memo;
          Alcotest.test_case "damage after serve" `Quick
            test_store_memo_damage;
          QCheck_alcotest.to_alcotest qcheck_json_typed_errors;
          QCheck_alcotest.to_alcotest qcheck_store_refuses_damage;
        ] );
      ( "invalidation",
        [
          Alcotest.test_case "warm bit-identical, cone re-solved" `Quick
            test_invalidation_soundness;
          Alcotest.test_case "certified warm run" `Quick test_certified_warm;
          Alcotest.test_case "quarantined key re-solves" `Quick
            test_quarantined_key_resolves;
          Alcotest.test_case "options key" `Quick test_options_key;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "cache-only when workerless" `Quick
            test_cache_only_degraded;
          Alcotest.test_case "bounded queue sheds" `Quick
            test_overloaded_shedding;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "socket roundtrip" `Quick test_daemon_roundtrip;
          Alcotest.test_case "client retries faults" `Quick test_client_retry;
          Alcotest.test_case "worker kill: bit-identical verdicts" `Quick
            test_chaos_kill_bit_identical;
          Alcotest.test_case "poisoned after retries" `Quick
            test_chaos_poisoned;
          Alcotest.test_case "timeout vs crash taxonomy" `Quick
            test_chaos_timeout_taxonomy;
          Alcotest.test_case "tcp auth round trip" `Quick test_tcp_auth;
          Alcotest.test_case "listen requires a token" `Quick
            test_listen_requires_token;
        ] );
    ]
