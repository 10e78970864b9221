(* The proof farm: a cached, sharded, fault-tolerant verification
   service over UPEC-SSC.

   Examples:
     upec_farm serve --socket /tmp/farm.sock --cache /tmp/farm-cache \
       --workers 4 --job-retries 2
     upec_farm serve --listen 0.0.0.0:9731 --auth-token-file farm.token \
       --cache /tmp/farm-cache --workers 4
     upec_farm submit --connect farmhost:9731 --auth-token-file farm.token \
       --job '{"design":{"depth":4},"options":{"jobs":1}}'
     upec_farm serve --cache /tmp/farm-cache --batch jobs.jsonl \
       --results out.jsonl
     upec_farm status --socket /tmp/farm.sock
     upec_farm gc --socket /tmp/farm.sock --max-lemmas 50000

   The [worker] subcommand is internal: the daemon fork/execs this
   very binary with it to populate the process pool. *)

open Cmdliner
module Json = Upec.Json

let socket_arg =
  let doc = "Unix domain socket the daemon listens on." in
  Arg.(
    value
    & opt string "/tmp/upec-farm.sock"
    & info [ "socket" ] ~doc ~docv:"PATH")

let listen_arg =
  let doc =
    "Additionally listen on TCP $(docv) (length-framed LDJSON with an \
     HMAC handshake; requires $(b,--auth-token-file))."
  in
  Arg.(
    value & opt (some string) None & info [ "listen" ] ~doc ~docv:"HOST:PORT")

let auth_token_arg =
  let doc =
    "Shared-secret token file for the TCP HMAC handshake. The daemon \
     refuses unauthenticated TCP connections; clients sign the \
     challenge with the same token."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "auth-token-file" ] ~doc ~docv:"FILE")

let cache_arg =
  let doc = "Cache directory (created if missing)." in
  Arg.(
    value & opt string "upec-farm-cache" & info [ "cache" ] ~doc ~docv:"DIR")

let workers_arg =
  let doc =
    "Worker processes. Each job runs in its own process with its own \
     GC; a crash or timeout kills one worker, never the daemon. 0 runs \
     the daemon cache-only: hits are served, misses answered \
     $(i,degraded)."
  in
  Arg.(value & opt int 2 & info [ "workers" ] ~doc ~docv:"N")

let job_timeout_arg =
  let doc =
    "Per-job wall-clock limit in seconds; an expired worker is \
     SIGKILLed, the job is retried with an escalated limit up to \
     $(b,--job-retries) times (0 = no limit)."
  in
  Arg.(value & opt float 0.0 & info [ "job-timeout" ] ~doc ~docv:"SECS")

let job_retries_arg =
  let doc =
    "How many times a job whose worker died (crash, timeout, torn \
     reply) is requeued before it is reported $(i,poisoned)."
  in
  Arg.(value & opt int 1 & info [ "job-retries" ] ~doc ~docv:"N")

let retry_escalation_arg =
  let doc = "Multiply the per-attempt timeout by $(docv) on each retry." in
  Arg.(value & opt float 2.0 & info [ "retry-escalation" ] ~doc ~docv:"X")

let max_queue_arg =
  let doc =
    "Bound on the submit queue; past it, submissions are shed \
     immediately with an $(i,overloaded) reply."
  in
  Arg.(value & opt int 256 & info [ "max-queue" ] ~doc ~docv:"N")

let batch_arg =
  let doc =
    "One-shot mode: read jobs (one JSON object per line) from $(docv), \
     run them through the same queue/lease/pool/cache machinery without \
     binding a socket, write replies to $(b,--results) and exit."
  in
  Arg.(value & opt (some string) None & info [ "batch" ] ~doc ~docv:"FILE")

let results_arg =
  let doc = "Where --batch writes its JSONL replies (default stdout)." in
  Arg.(value & opt (some string) None & info [ "results" ] ~doc ~docv:"FILE")

let log_arg =
  let doc =
    "Append every request, reply and lease event line to $(docv) (JSONL)."
  in
  Arg.(value & opt (some string) None & info [ "log" ] ~doc ~docv:"FILE")

let trace_arg =
  let doc = "Stream observability spans to $(docv) as JSONL." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let metrics_arg =
  let doc = "Write the final metrics registry to $(docv) as JSON on exit." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~doc ~docv:"FILE")

let obs_setup trace_file metrics_file =
  (match trace_file with
  | Some path ->
      Obs.Trace.set_sink (open_out path);
      at_exit Obs.Trace.close
  | None -> ());
  match metrics_file with
  | Some path -> at_exit (fun () -> Obs.Metrics.dump_file path)
  | None -> ()

let serve_cmd =
  let run socket listen auth_token_file cache workers job_timeout job_retries
      retry_escalation max_queue batch results log_file trace_file
      metrics_file =
    obs_setup trace_file metrics_file;
    let auth_token = Option.map Farm.Wire.load_token auth_token_file in
    let listeners =
      match listen with
      | None -> [ Farm.Wire.Unix_path socket ]
      | Some hp -> (
          match Farm.Wire.addr_of_string hp with
          | Farm.Wire.Tcp _ as tcp ->
              if auth_token = None then begin
                prerr_endline
                  "upec_farm: --listen requires --auth-token-file \
                   (unauthenticated TCP is refused by design)";
                exit 2
              end;
              [ Farm.Wire.Unix_path socket; tcp ]
          | Farm.Wire.Unix_path _ ->
              prerr_endline "upec_farm: --listen expects HOST:PORT";
              exit 2)
    in
    let log = Option.map open_out log_file in
    let worker_argv =
      [| Sys.executable_name; "worker"; "--cache"; cache |]
    in
    let server =
      Farm.Server.create ?log ~job_retries ~retry_escalation ~max_queue
        ?auth_token ~cache_dir:cache ~worker_argv ~workers ~job_timeout ()
    in
    let stop = Atomic.make false in
    List.iter
      (fun s ->
        Sys.set_signal s (Sys.Signal_handle (fun _ -> Atomic.set stop true)))
      [ Sys.sigint; Sys.sigterm ];
    (* dead workers close their pipe ends; EPIPE must not kill us *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let status =
      match batch with
      | Some file ->
          let jobs =
            let ic = open_in file in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                let rec go acc =
                  match input_line ic with
                  | line ->
                      if String.trim line = "" then go acc
                      else go (Json.of_string line :: acc)
                  | exception End_of_file -> List.rev acc
                in
                go [])
          in
          let replies = Farm.Server.run_batch server ~jobs in
          let oc =
            match results with Some f -> open_out f | None -> stdout
          in
          List.iter
            (fun r ->
              output_string oc (Json.to_string_compact r);
              output_char oc '\n')
            replies;
          if results <> None then close_out oc else flush oc;
          if
            List.for_all
              (fun r -> Json.to_bool (Json.member "ok" r) = Some true)
              replies
          then 0
          else 1
      | None ->
          Farm.Server.serve server ~listeners ~should_stop:(fun () ->
              Atomic.get stop);
          0
    in
    Farm.Server.close server;
    Option.iter close_out log;
    exit status
  in
  let doc = "Run the verification daemon (or a one-shot batch)." in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ listen_arg $ auth_token_arg $ cache_arg
      $ workers_arg $ job_timeout_arg $ job_retries_arg
      $ retry_escalation_arg $ max_queue_arg $ batch_arg $ results_arg
      $ log_arg $ trace_arg $ metrics_arg)

(* One job per stdin line, one outcome per stdout line. The store is
   re-opened per job: a read-only snapshot of whatever the daemon had
   published last — workers never write it. The chaos hook lets the
   harness SIGKILL a worker between reading a job and solving it: the
   job is provably in flight, the daemon must lease-retry it. *)
let worker_cmd =
  let run cache =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let rec loop () =
      match input_line stdin with
      | exception End_of_file -> ()
      | line ->
          if Farm.Chaos.fire "kill_worker_mid_job" then
            Unix.kill (Unix.getpid ()) Sys.sigkill;
          let reply =
            match
              let j = Json.of_string line in
              let job = Farm.Job.of_json (Json.member "job" j) in
              let store = Farm.Store.load ~dir:cache () in
              Farm.Exec.run ~store job
            with
            | outcome -> Farm.Exec.outcome_to_json outcome
            | exception e ->
                Json.Obj [ ("error", Json.Str (Printexc.to_string e)) ]
          in
          print_string (Json.to_string_compact reply);
          print_newline ();
          flush stdout;
          loop ()
    in
    loop ()
  in
  let doc = "Internal: pool worker (one job per stdin line)." in
  Cmd.v (Cmd.info "worker" ~doc) Term.(const run $ cache_arg)

(* -------- client side -------- *)

let connect_arg =
  let doc =
    "Daemon address: HOST:PORT (TCP, needs $(b,--auth-token-file)) or a \
     socket path. Overrides $(b,--socket)."
  in
  Arg.(
    value & opt (some string) None & info [ "connect" ] ~doc ~docv:"ADDR")

let rpc_timeout_arg =
  let doc = "Per-attempt deadline for the request (0 = none)." in
  Arg.(value & opt float 600.0 & info [ "rpc-timeout" ] ~doc ~docv:"SECS")

let rpc_attempts_arg =
  let doc =
    "Bounded retries per request (jittered exponential backoff between \
     attempts)."
  in
  Arg.(value & opt int 3 & info [ "rpc-attempts" ] ~doc ~docv:"N")

let target socket connect token_file =
  let addr = match connect with Some a -> a | None -> socket in
  Farm.Client.target ?token_file addr

let rpc ~timeout ~attempts tgt req =
  match Farm.Client.request ~timeout ~attempts tgt req with
  | reply -> reply
  | exception Farm.Client.Unavailable msg ->
      prerr_endline ("upec_farm: daemon unavailable: " ^ msg);
      exit 3

let job_arg =
  let doc =
    "Job description: {\"id\":..., \"design\":{...}, \"options\":{...}} \
     (every member optional; '{}' is the default check)."
  in
  Arg.(value & opt string "{}" & info [ "job" ] ~doc ~docv:"JSON")

let file_arg =
  let doc = "Submit every job in $(docv) (one JSON object per line)." in
  Arg.(value & opt (some string) None & info [ "file" ] ~doc ~docv:"FILE")

let submit_cmd =
  let run socket connect token_file timeout attempts job file =
    let tgt = target socket connect token_file in
    let jobs =
      match file with
      | Some f ->
          let ic = open_in f in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let rec go acc =
                match input_line ic with
                | line ->
                    if String.trim line = "" then go acc
                    else go (Json.of_string line :: acc)
                | exception End_of_file -> List.rev acc
              in
              go [])
      | None -> [ Json.of_string job ]
    in
    let ok = ref true in
    List.iter
      (fun j ->
        let reply =
          rpc ~timeout ~attempts tgt
            (Json.Obj [ ("op", Json.Str "submit"); ("job", j) ])
        in
        print_string (Json.to_string_compact reply);
        print_newline ();
        if Json.to_bool (Json.member "ok" reply) <> Some true then ok := false)
      jobs;
    exit (if !ok then 0 else 1)
  in
  let doc = "Submit job(s) and print the replies (waits for verdicts)." in
  Cmd.v
    (Cmd.info "submit" ~doc)
    Term.(
      const run $ socket_arg $ connect_arg $ auth_token_arg
      $ rpc_timeout_arg $ rpc_attempts_arg $ job_arg $ file_arg)

let simple_cmd name doc req =
  let run socket connect token_file timeout attempts =
    print_string
      (Json.to_string
         (rpc ~timeout ~attempts (target socket connect token_file) (req ())))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ socket_arg $ connect_arg $ auth_token_arg
      $ rpc_timeout_arg $ rpc_attempts_arg)

let status_cmd =
  simple_cmd "status" "Print daemon status (queue, workers, cache, failures)."
    (fun () -> Json.Obj [ ("op", Json.Str "status") ])

let shutdown_cmd =
  simple_cmd "shutdown" "Ask the daemon to exit." (fun () ->
      Json.Obj [ ("op", Json.Str "shutdown") ])

let gc_cmd =
  let run socket connect token_file timeout attempts max_lemmas max_reports =
    print_string
      (Json.to_string
         (rpc ~timeout ~attempts (target socket connect token_file)
            (Json.Obj
               [
                 ("op", Json.Str "gc");
                 ("max_lemmas", Json.Int max_lemmas);
                 ("max_reports", Json.Int max_reports);
               ])))
  in
  let max_lemmas_arg =
    Arg.(value & opt int 100_000 & info [ "max-lemmas" ] ~docv:"N")
  in
  let max_reports_arg =
    Arg.(value & opt int 1_000 & info [ "max-reports" ] ~docv:"N")
  in
  let doc = "Evict least-recently-used cache entries beyond the caps." in
  Cmd.v
    (Cmd.info "gc" ~doc)
    Term.(
      const run $ socket_arg $ connect_arg $ auth_token_arg
      $ rpc_timeout_arg $ rpc_attempts_arg $ max_lemmas_arg
      $ max_reports_arg)

let () =
  let doc =
    "UPEC-SSC proof farm: cached, sharded, fault-tolerant verification \
     service"
  in
  let info = Cmd.info "upec_farm" ~version:"1.1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ serve_cmd; worker_cmd; submit_cmd; status_cmd; gc_cmd; shutdown_cmd ]))
