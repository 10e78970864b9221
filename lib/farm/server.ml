module Json = Upec.Json

let m_jobs = Obs.Metrics.counter "farm.jobs"
let m_report_hits = Obs.Metrics.counter "farm.report_hits"
let m_report_misses = Obs.Metrics.counter "farm.report_misses"
let m_lemma_hits = Obs.Metrics.counter "farm.lemma_hits"
let m_lemma_misses = Obs.Metrics.counter "farm.lemma_misses"
let m_invalidations = Obs.Metrics.counter "farm.invalidations"
let m_worker_failures = Obs.Metrics.counter "farm.worker_failures"
let m_worker_timeouts = Obs.Metrics.counter "farm.worker_timeouts"
let m_worker_crashes = Obs.Metrics.counter "farm.worker_crashes"
let m_worker_protocol = Obs.Metrics.counter "farm.worker_protocol_errors"
let m_job_retries = Obs.Metrics.counter "farm.job_retries"
let m_jobs_poisoned = Obs.Metrics.counter "farm.jobs_poisoned"
let m_jobs_shed = Obs.Metrics.counter "farm.jobs_shed"
let m_jobs_degraded = Obs.Metrics.counter "farm.jobs_degraded"
let m_auth_failures = Obs.Metrics.counter "farm.auth_failures"
let g_queue_depth = Obs.Metrics.gauge "farm.queue_depth"
let g_lease_age = Obs.Metrics.gauge "farm.lease_age_seconds"
let h_job_seconds = Obs.Metrics.histogram "farm.job_seconds"

(* How long a TCP client gets to answer the HMAC challenge, and how
   long a reply write may stall before the connection is retired. *)
let handshake_timeout = 10.0
let write_timeout = 30.0

type conn_mode = Raw | Framed

type auth_state =
  | Authed  (** raw conns, and TCP without a configured token *)
  | Awaiting of string  (** TCP challenge nonce sent, response pending *)

type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;
  c_mode : conn_mode;
  mutable c_auth : auth_state;
  mutable c_expires : float;  (** handshake deadline; [infinity] after *)
  mutable c_alive : bool;
}

(* An accepted job the daemon owes an answer for: queued, then leased
   to a worker, requeued on worker death, and finally answered —
   exactly once — with a verdict, an error, or a poisoned notice. *)
type lease = {
  ls_job : Job.t;
  ls_reply : Json.t -> unit;
  mutable ls_attempts : int;
  mutable ls_started : float;  (** current attempt's dispatch time *)
}

type t = {
  t_store : Store.t;
  t_pool : Procpool.t;
  t_log : out_channel option;
  t_queue : lease Queue.t;
  t_inflight : lease list ref;
  t_job_timeout : float;
  t_job_retries : int;
  t_retry_escalation : float;
  t_max_queue : int;
  t_auth_token : string option;
  mutable t_shutdown : bool;
}

let create ?log ?(job_retries = 1) ?(retry_escalation = 2.0) ?(max_queue = 256)
    ?auth_token ~cache_dir ~worker_argv ~workers ~job_timeout () =
  {
    t_store = Store.load ~writer:true ~dir:cache_dir ();
    t_pool = Procpool.create ~worker_argv ~jobs:workers ~job_timeout;
    t_log = log;
    t_queue = Queue.create ();
    t_inflight = ref [];
    t_job_timeout = job_timeout;
    t_job_retries = max 0 job_retries;
    t_retry_escalation = Float.max 1.0 retry_escalation;
    t_max_queue = max 1 max_queue;
    t_auth_token = auth_token;
    t_shutdown = false;
  }

let store t = t.t_store

let log_line t dir json =
  match t.t_log with
  | None -> ()
  | Some oc ->
      output_string oc
        (Json.to_string_compact
           (Json.Obj [ ("dir", Json.Str dir); ("msg", json) ]));
      output_char oc '\n';
      flush oc

let log_event t kind fields =
  log_line t "event" (Json.Obj (("event", Json.Str kind) :: fields))

let error_reply ?(id = "") msg =
  Json.Obj
    [ ("ok", Json.Bool false); ("id", Json.Str id); ("error", Json.Str msg) ]

(* Degradation refusals carry a machine-readable flag next to the
   error string: "poisoned", "overloaded" or "degraded". *)
let refusal_reply ~kind ?(id = "") ?(fields = []) msg =
  Json.Obj
    ([
       ("ok", Json.Bool false);
       ("id", Json.Str id);
       (kind, Json.Bool true);
       ("error", Json.Str msg);
     ]
    @ fields)

let submit_reply outcome =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("id", Json.Str outcome.Exec.oc_id);
      ("report_key", Json.Str outcome.Exec.oc_report_key);
      ("cached", Json.Bool outcome.Exec.oc_report_hit);
      ("lemma_hits", Json.Int outcome.Exec.oc_lemma_hits);
      ("lemma_misses", Json.Int outcome.Exec.oc_lemma_misses);
      ("invalidated", Json.Int outcome.Exec.oc_invalidated);
      ("seconds", Json.Float outcome.Exec.oc_seconds);
      ("report", outcome.Exec.oc_report);
    ]

let account outcome =
  Obs.Metrics.incr m_jobs;
  if outcome.Exec.oc_report_hit then Obs.Metrics.incr m_report_hits
  else Obs.Metrics.incr m_report_misses;
  Obs.Metrics.add m_lemma_hits outcome.Exec.oc_lemma_hits;
  Obs.Metrics.add m_lemma_misses outcome.Exec.oc_lemma_misses;
  Obs.Metrics.add m_invalidations outcome.Exec.oc_invalidated;
  Obs.Metrics.observe h_job_seconds outcome.Exec.oc_seconds

(* Merge a worker's outcome into the cache and publish. The daemon is
   the only writer, so this is the only place the store changes. *)
let merge t outcome =
  List.iter
    (fun (svar, key, holds) -> Store.add_lemma t.t_store ~svar ~key ~holds)
    outcome.Exec.oc_new_lemmas;
  if not outcome.Exec.oc_report_hit then
    Store.add_report t.t_store ~key:outcome.Exec.oc_report_key
      outcome.Exec.oc_report;
  Store.save t.t_store

let update_gauges t =
  Obs.Metrics.set_gauge g_queue_depth (float_of_int (Queue.length t.t_queue));
  let now = Unix.gettimeofday () in
  let oldest =
    List.fold_left
      (fun acc l -> Float.max acc (now -. l.ls_started))
      0.0 !(t.t_inflight)
  in
  Obs.Metrics.set_gauge g_lease_age oldest

let drop_inflight t lease =
  t.t_inflight := List.filter (fun l -> l != lease) !(t.t_inflight)

let failure_metric = function
  | Procpool.Timeout -> m_worker_timeouts
  | Procpool.Crashed | Procpool.Read_error | Procpool.Spawn_failed
  | Procpool.Closed ->
      m_worker_crashes
  | Procpool.Protocol _ -> m_worker_protocol

(* All queued work is refused as degraded: no worker can serve, and a
   cache miss held forever is a hang, not an answer. *)
let shed_degraded t =
  while not (Queue.is_empty t.t_queue) do
    let lease = Queue.pop t.t_queue in
    Obs.Metrics.incr m_jobs_degraded;
    log_event t "degraded" [ ("id", Json.Str lease.ls_job.Job.jb_id) ];
    lease.ls_reply
      (refusal_reply ~kind:"degraded" ~id:lease.ls_job.Job.jb_id
         "no workers available; cache-only mode")
  done

let rec dispatch t =
  if Procpool.degraded t.t_pool then shed_degraded t
  else if (not (Queue.is_empty t.t_queue)) && Procpool.idle t.t_pool > 0 then begin
    let lease = Queue.pop t.t_queue in
    lease.ls_attempts <- lease.ls_attempts + 1;
    lease.ls_started <- Unix.gettimeofday ();
    let timeout =
      if t.t_job_timeout <= 0.0 then None
      else
        Some
          (t.t_job_timeout
          *. (t.t_retry_escalation ** float_of_int (lease.ls_attempts - 1)))
    in
    let request = Json.Obj [ ("job", Job.to_json lease.ls_job) ] in
    (* register the lease before submitting: a Spawn_failed callback
       fires synchronously from inside submit *)
    t.t_inflight := lease :: !(t.t_inflight);
    let accepted =
      Procpool.submit t.t_pool ?timeout request (fun r ->
          on_worker_reply t lease r)
    in
    if not accepted then begin
      (* raced with a slot going busy (or the breaker opening);
         retry on the next loop turn *)
      drop_inflight t lease;
      lease.ls_attempts <- lease.ls_attempts - 1;
      Queue.push lease t.t_queue
    end
    else dispatch t
  end;
  update_gauges t

and on_worker_reply t lease r =
  drop_inflight t lease;
  (match r with
  | Procpool.Reply json -> (
      match Json.to_str (Json.member "error" json) with
      | Some msg ->
          (* the worker itself answered with an error: the job failed
             deterministically (bad design, solver exception) — a
             fresh worker would fail identically, so no retry *)
          Obs.Metrics.incr m_worker_failures;
          lease.ls_reply (error_reply ~id:lease.ls_job.Job.jb_id msg)
      | None -> (
          match Exec.outcome_of_json json with
          | outcome ->
              Obs.Trace.with_span "farm.job"
                ~attrs:
                  [
                    ("id", Obs.Trace.Str lease.ls_job.Job.jb_id);
                    ("report_key", Obs.Trace.Str outcome.Exec.oc_report_key);
                    ("attempts", Obs.Trace.Int lease.ls_attempts);
                  ]
                (fun () -> merge t outcome);
              account outcome;
              lease.ls_reply (submit_reply outcome)
          | exception Json.Parse_error msg ->
              retry_or_poison t lease (Procpool.Protocol msg)))
  | Procpool.Failed failure -> retry_or_poison t lease failure);
  update_gauges t

(* The lease layer's contract: a worker death returns the job to the
   queue with an escalated timeout, a bounded number of times; after
   that the job is poisoned and reported. It is never silently
   dropped, and a retried solve starts from the same published cache
   snapshot as a clean one — the verdict cannot differ. *)
and retry_or_poison t lease failure =
  Obs.Metrics.incr m_worker_failures;
  Obs.Metrics.incr (failure_metric failure);
  let reason = Procpool.failure_to_string failure in
  if Procpool.retryable failure && lease.ls_attempts <= t.t_job_retries then begin
    Obs.Metrics.incr m_job_retries;
    log_event t "retry"
      [
        ("id", Json.Str lease.ls_job.Job.jb_id);
        ("attempt", Json.Int lease.ls_attempts);
        ("failure", Json.Str reason);
      ];
    Queue.push lease t.t_queue;
    dispatch t
  end
  else begin
    Obs.Metrics.incr m_jobs_poisoned;
    log_event t "poisoned"
      [
        ("id", Json.Str lease.ls_job.Job.jb_id);
        ("attempts", Json.Int lease.ls_attempts);
        ("failure", Json.Str reason);
      ];
    lease.ls_reply
      (refusal_reply ~kind:"poisoned" ~id:lease.ls_job.Job.jb_id
         ~fields:[ ("attempts", Json.Int lease.ls_attempts) ]
         (Printf.sprintf "job killed its worker (%s) %d time%s; quarantined"
            reason lease.ls_attempts
            (if lease.ls_attempts = 1 then "" else "s")))
  end

let handle_submit t j reply =
  match Job.of_json (Json.member "job" j) with
  | exception Json.Parse_error msg -> reply (error_reply ("bad job: " ^ msg))
  | job -> (
      (* report-level fast path: an unchanged job never reaches a
         worker — the daemon answers from the cache in-line. This
         path survives every degraded mode. *)
      match Exec.cached ~store:t.t_store job with
      | _, Some outcome ->
          account outcome;
          reply (submit_reply outcome)
      | _, None ->
          if Procpool.degraded t.t_pool then begin
            Obs.Metrics.incr m_jobs_degraded;
            log_event t "degraded" [ ("id", Json.Str job.Job.jb_id) ];
            reply
              (refusal_reply ~kind:"degraded" ~id:job.Job.jb_id
                 "no workers available; cache-only mode")
          end
          else if Queue.length t.t_queue >= t.t_max_queue then begin
            Obs.Metrics.incr m_jobs_shed;
            log_event t "overloaded" [ ("id", Json.Str job.Job.jb_id) ];
            reply
              (refusal_reply ~kind:"overloaded" ~id:job.Job.jb_id
                 ~fields:[ ("queue_limit", Json.Int t.t_max_queue) ]
                 "submit queue full; resubmit later")
          end
          else begin
            Queue.push
              {
                ls_job = job;
                ls_reply = reply;
                ls_attempts = 0;
                ls_started = Unix.gettimeofday ();
              }
              t.t_queue;
            dispatch t
          end
      | exception e ->
          reply
            (error_reply ~id:job.Job.jb_id
               ("job rejected: " ^ Printexc.to_string e)))

let status_json t =
  let lemmas, reports = Store.counts t.t_store in
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("queue_depth", Json.Int (Queue.length t.t_queue));
      ("queue_limit", Json.Int t.t_max_queue);
      ("inflight", Json.Int (List.length !(t.t_inflight)));
      ("workers", Json.Int (Procpool.jobs t.t_pool));
      ("idle_workers", Json.Int (Procpool.idle t.t_pool));
      ("degraded", Json.Bool (Procpool.degraded t.t_pool));
      ("cache_lemmas", Json.Int lemmas);
      ("cache_reports", Json.Int reports);
      ("store_quarantined", Json.Int (Store.quarantined t.t_store));
      ("worker_crashes", Json.Int (Procpool.crashes t.t_pool));
      ("worker_timeouts", Json.Int (Procpool.timeouts t.t_pool));
      ("worker_spawn_failures", Json.Int (Procpool.spawn_failures t.t_pool));
      ("job_retries", Json.Int (Obs.Metrics.counter_value m_job_retries));
      ("jobs_poisoned", Json.Int (Obs.Metrics.counter_value m_jobs_poisoned));
      ("jobs_shed", Json.Int (Obs.Metrics.counter_value m_jobs_shed));
      ("jobs_degraded", Json.Int (Obs.Metrics.counter_value m_jobs_degraded));
      ("auth_failures", Json.Int (Obs.Metrics.counter_value m_auth_failures));
      ("jobs_served", Json.Int (Obs.Metrics.counter_value m_jobs));
      ("report_hits", Json.Int (Obs.Metrics.counter_value m_report_hits));
      ("report_misses", Json.Int (Obs.Metrics.counter_value m_report_misses));
    ]

let handle_request t j reply =
  log_line t "in" j;
  let reply out =
    log_line t "out" out;
    reply out
  in
  match Json.to_str (Json.member "op" j) with
  | Some "submit" -> handle_submit t j reply
  | Some "status" -> reply (status_json t)
  | Some "ping" ->
      reply (Json.Obj [ ("ok", Json.Bool true); ("pong", Json.Bool true) ])
  | Some "gc" ->
      let cap k d =
        match Json.to_int (Json.member k j) with Some n -> n | None -> d
      in
      let evl, evr =
        Store.gc t.t_store ~max_lemmas:(cap "max_lemmas" 100_000)
          ~max_reports:(cap "max_reports" 1_000)
      in
      Store.save t.t_store;
      reply
        (Json.Obj
           [
             ("ok", Json.Bool true);
             ("evicted_lemmas", Json.Int evl);
             ("evicted_reports", Json.Int evr);
           ])
  | Some "shutdown" ->
      t.t_shutdown <- true;
      reply (Json.Obj [ ("ok", Json.Bool true); ("bye", Json.Bool true) ])
  | Some op -> reply (error_reply ("unknown op: " ^ op))
  | None -> reply (error_reply "missing op")

(* Reply writes run under a deadline: a client that stops reading
   retires its connection, never wedges the daemon. *)
let conn_reply conn out =
  if conn.c_alive then begin
    let payload = Json.to_string_compact out in
    let deadline = Unix.gettimeofday () +. write_timeout in
    match
      match conn.c_mode with
      | Raw -> Wire.write_all ~deadline conn.c_fd (payload ^ "\n")
      | Framed -> Wire.write_frame ~deadline conn.c_fd payload
    with
    | () -> ()
    | exception (Unix.Unix_error _ | Wire.Timeout) -> conn.c_alive <- false
  end

(* Extract complete lines from a connection buffer, leaving the
   partial tail in place. *)
let drain_lines buf =
  let s = Buffer.contents buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear buf;
      Buffer.add_string buf
        (String.sub s (last + 1) (String.length s - last - 1));
      String.split_on_char '\n' (String.sub s 0 last)

(* Framed connections: pop every complete frame; the first must be
   the HMAC response while a challenge is pending. Framing damage
   (bad header) is protocol corruption — refuse and drop. *)
let drain_frames t conn =
  let rec go () =
    match Wire.pop_frame conn.c_buf with
    | None -> ()
    | Some payload ->
        (match Json.of_string payload with
        | j -> (
            match conn.c_auth with
            | Awaiting nonce ->
                if
                  match t.t_auth_token with
                  | Some token -> Wire.auth_check ~token ~nonce j
                  | None -> true
                then begin
                  conn.c_auth <- Authed;
                  conn.c_expires <- infinity;
                  (* a bare request from an authed-by-default client
                     is still a request, not a handshake *)
                  if Json.to_str (Json.member "op" j) <> Some "auth" then
                    handle_request t j (conn_reply conn)
                end
                else begin
                  Obs.Metrics.incr m_auth_failures;
                  log_event t "auth_failed" [];
                  conn_reply conn (error_reply "auth failed");
                  conn.c_alive <- false
                end
            | Authed ->
                if Json.to_str (Json.member "op" j) <> Some "auth" then
                  handle_request t j (conn_reply conn))
        | exception Json.Parse_error msg ->
            conn_reply conn (error_reply ("bad request: " ^ msg)));
        if conn.c_alive then go ()
  in
  match go () with
  | () -> ()
  | exception Failure msg ->
      conn_reply conn (error_reply ("bad frame: " ^ msg));
      conn.c_alive <- false

let handle_conn_data t conn =
  match conn.c_mode with
  | Framed -> drain_frames t conn
  | Raw ->
      List.iter
        (fun line ->
          if String.trim line <> "" then
            match Json.of_string line with
            | j -> handle_request t j (conn_reply conn)
            | exception Json.Parse_error msg ->
                conn_reply conn (error_reply ("bad request: " ^ msg)))
        (drain_lines conn.c_buf)

let select_step t ~extra_read ~on_extra =
  let pool_fds = Procpool.fds t.t_pool in
  let fds = extra_read @ pool_fds in
  let timeout =
    match Procpool.next_deadline t.t_pool with
    | Some d -> Float.max 0.01 (Float.min 1.0 (d -. Unix.gettimeofday ()))
    | None -> 1.0
  in
  (match Unix.select fds [] [] timeout with
  | readable, _, _ ->
      Procpool.handle_readable t.t_pool
        (List.filter (fun fd -> List.memq fd pool_fds) readable);
      List.iter
        (fun fd -> if List.memq fd extra_read then on_extra fd)
        readable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  Procpool.expire t.t_pool;
  dispatch t

let bind_listener addr =
  match addr with
  | Wire.Unix_path path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, Raw)
  | Wire.Tcp (host, port) ->
      let ip =
        match Unix.inet_addr_of_string host with
        | ip -> ip
        | exception Failure _ -> (
            match host with
            | "localhost" -> Unix.inet_addr_loopback
            | _ -> Unix.inet_addr_any)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (ip, port));
      Unix.listen fd 64;
      (fd, Framed)

let accept_conn t listen_mode listen_fd =
  let cfd, _ = Unix.accept listen_fd in
  match listen_mode with
  | Raw ->
      Some
        {
          c_fd = cfd;
          c_buf = Buffer.create 4096;
          c_mode = Raw;
          c_auth = Authed;
          c_expires = infinity;
          c_alive = true;
        }
  | Framed -> (
      (* the handshake opens with our challenge; an unauthenticated
         peer gets [handshake_timeout] seconds, then the sweep *)
      let nonce = Wire.fresh_nonce () in
      let conn =
        {
          c_fd = cfd;
          c_buf = Buffer.create 4096;
          c_mode = Framed;
          c_auth =
            (match t.t_auth_token with
            | Some _ -> Awaiting nonce
            | None -> Awaiting nonce (* consumed or bypassed in drain *));
          c_expires = Unix.gettimeofday () +. handshake_timeout;
          c_alive = true;
        }
      in
      match
        Wire.write_frame
          ~deadline:(Unix.gettimeofday () +. write_timeout)
          cfd
          (Json.to_string_compact (Wire.auth_challenge ~nonce))
      with
      | () -> Some conn
      | exception (Unix.Unix_error _ | Wire.Timeout) ->
          (try Unix.close cfd with Unix.Unix_error _ -> ());
          None)

let serve t ~listeners ~should_stop =
  let bound = List.map bind_listener listeners in
  let conns = ref [] in
  let chunk = Bytes.create 65536 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
        !conns;
      List.iter
        (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
        bound;
      List.iter
        (function
          | Wire.Unix_path path -> (
              try Unix.unlink path with Unix.Unix_error _ -> ())
          | Wire.Tcp _ -> ())
        listeners)
    (fun () ->
      while not (t.t_shutdown || should_stop ()) do
        let listen_fds = List.map fst bound in
        let extra_read = listen_fds @ List.map (fun c -> c.c_fd) !conns in
        select_step t ~extra_read ~on_extra:(fun fd ->
            match List.find_opt (fun (lfd, _) -> lfd == fd) bound with
            | Some (lfd, mode) -> (
                match accept_conn t mode lfd with
                | Some conn -> conns := conn :: !conns
                | None -> ())
            | None -> (
                match List.find_opt (fun c -> c.c_fd == fd) !conns with
                | None -> ()
                | Some conn -> (
                    match Unix.read conn.c_fd chunk 0 65536 with
                    | 0 -> conn.c_alive <- false
                    | n ->
                        Buffer.add_subbytes conn.c_buf chunk 0 n;
                        handle_conn_data t conn
                    | exception Unix.Unix_error _ -> conn.c_alive <- false)));
        (* sweep dead connections and expired handshakes *)
        let now = Unix.gettimeofday () in
        List.iter
          (fun c ->
            if c.c_alive && c.c_expires < now then begin
              Obs.Metrics.incr m_auth_failures;
              log_event t "handshake_timeout" [];
              conn_reply c (error_reply "auth handshake timed out");
              c.c_alive <- false
            end)
          !conns;
        let dead, alive = List.partition (fun c -> not c.c_alive) !conns in
        List.iter
          (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ())
          dead;
        conns := alive
      done)

let run_batch t ~jobs =
  let n = List.length jobs in
  let results = Array.make n None in
  let done_count = ref 0 in
  List.iteri
    (fun i j ->
      handle_request t
        (Json.Obj [ ("op", Json.Str "submit"); ("job", j) ])
        (fun out ->
          results.(i) <- Some out;
          incr done_count))
    jobs;
  while !done_count < n do
    select_step t ~extra_read:[] ~on_extra:(fun _ -> ())
  done;
  Array.to_list
    (Array.map (function Some r -> r | None -> error_reply "lost") results)

let close t =
  Procpool.close t.t_pool;
  Store.save t.t_store
