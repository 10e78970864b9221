open Rtl
module Json = Upec.Json

type outcome = {
  oc_id : string;
  oc_report : Json.t;
  oc_report_key : string;
  oc_report_hit : bool;
  oc_lemma_hits : int;
  oc_lemma_misses : int;
  oc_invalidated : int;
  oc_new_lemmas : (string * string * bool) list;
  oc_seconds : float;
}

let m_lemma_hits = Obs.Metrics.counter "farm.lemma_hits"
let m_lemma_misses = Obs.Metrics.counter "farm.lemma_misses"
let m_invalidations = Obs.Metrics.counter "farm.invalidations"

let report_key_of ~fingerprint job =
  Digest.to_hex (Digest.string (fingerprint ^ ":" ^ Job.options_key job))

(* Spec-derived: the canonical design record digests without building
   the netlist, so a report-level probe is O(1) — and a job that
   arrived as deprecated CLI flags keys identically to the same design
   spelled as a Scenario.spec. *)
let report_key job =
  report_key_of
    ~fingerprint:(Upec.Fingerprint.design_spec job.Job.jb_design)
    job

(* Re-mark the [cache] block of a cached artefact as a report hit,
   keeping everything else byte-identical. *)
let mark_report_hit json =
  let patch_cache = function
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               if k = "report_hit" then (k, Json.Bool true) else (k, v))
             kvs)
    | v -> v
  in
  match json with
  | Json.Obj kvs ->
      Json.Obj
        (List.map
           (fun (k, v) -> if k = "cache" then (k, patch_cache v) else (k, v))
           kvs)
  | v -> v

let cached ~store job =
  let rkey = report_key job in
  ( rkey,
    Option.map
      (fun json ->
        {
          oc_id = job.Job.jb_id;
          oc_report = mark_report_hit json;
          oc_report_key = rkey;
          oc_report_hit = true;
          oc_lemma_hits = 0;
          oc_lemma_misses = 0;
          oc_invalidated = 0;
          oc_new_lemmas = [];
          oc_seconds = 0.0;
        })
      (Store.report store ~key:rkey) )

let run ~store job =
  let t0 = Unix.gettimeofday () in
  match cached ~store job with
  | _, Some hit -> { hit with oc_seconds = Unix.gettimeofday () -. t0 }
  | rkey, None ->
      let spec = Upec.Cli.spec_of job.Job.jb_design in
      let fp = Upec.Fingerprint.make spec in
      let fingerprint = Upec.Fingerprint.design fp in
      let hits = ref 0 and misses = ref 0 and invalidated = ref 0 in
      let cached_svars = ref [] in
      let new_lemmas = ref [] in
      (* Fresh results of this very run also answer repeat lookups
         (pers svars are re-checked every iteration; when the removed
         svars are outside the check's cone the key recurs). Those
         replays are intra-run memoisation, not farm-cache service, so
         they stay out of the hit/miss/invalidation accounting and of
         [cached_svars] — a cold run reports zero hits. *)
      let pending = Hashtbl.create 64 in
      let svar_cache =
        {
          Upec.Alg1.sc_lookup =
            (fun sv ~s ->
              let name = Structural.svar_name sv in
              let key = Upec.Fingerprint.check_key fp sv ~s in
              match Hashtbl.find_opt pending (name, key) with
              | Some _ as replay -> replay
              | None ->
                  let answer = Store.lemma store ~svar:name ~key in
                  (match answer with
                  | Some _ ->
                      incr hits;
                      Obs.Metrics.incr m_lemma_hits;
                      cached_svars := name :: !cached_svars
                  | None ->
                      incr misses;
                      Obs.Metrics.incr m_lemma_misses;
                      if Store.has_svar store ~svar:name then begin
                        incr invalidated;
                        Obs.Metrics.incr m_invalidations
                      end);
                  answer);
          sc_store =
            (fun sv ~s ~holds ->
              let name = Structural.svar_name sv in
              let key = Upec.Fingerprint.check_key fp sv ~s in
              Hashtbl.replace pending (name, key) holds;
              new_lemmas := (name, key, holds) :: !new_lemmas);
        }
      in
      let options =
        {
          job.Job.jb_options with
          Upec.Options.jobs = Upec.Cli.resolve_jobs job.Job.jb_options.Upec.Options.jobs;
        }
      in
      let report =
        if job.Job.jb_alg = 2 then
          Upec.Alg2.conclude_with ~svar_cache options spec
        else Upec.Alg1.run_with ~svar_cache options spec
      in
      let report =
        {
          report with
          Upec.Report.cache =
            Some
              {
                Upec.Report.ca_fingerprint = fingerprint;
                ca_report_hit = false;
                ca_lemma_hits = !hits;
                ca_lemma_misses = !misses;
                ca_invalidated = !invalidated;
                ca_cached_svars = List.sort_uniq compare !cached_svars;
              };
        }
      in
      {
        oc_id = job.Job.jb_id;
        oc_report = Upec.Report.to_json report;
        oc_report_key = rkey;
        oc_report_hit = false;
        oc_lemma_hits = !hits;
        oc_lemma_misses = !misses;
        oc_invalidated = !invalidated;
        oc_new_lemmas = List.rev !new_lemmas;
        oc_seconds = Unix.gettimeofday () -. t0;
      }

let outcome_to_json o =
  Json.Obj
    [
      ("id", Json.Str o.oc_id);
      ("report_key", Json.Str o.oc_report_key);
      ("report_hit", Json.Bool o.oc_report_hit);
      ("lemma_hits", Json.Int o.oc_lemma_hits);
      ("lemma_misses", Json.Int o.oc_lemma_misses);
      ("invalidated", Json.Int o.oc_invalidated);
      ( "new_lemmas",
        Json.List
          (List.map
             (fun (svar, key, holds) ->
               Json.List [ Json.Str svar; Json.Str key; Json.Bool holds ])
             o.oc_new_lemmas) );
      ("seconds", Json.Float o.oc_seconds);
      ("report", o.oc_report);
    ]

let req k conv j =
  match conv (Json.member k j) with
  | Some v -> v
  | None -> raise (Json.Parse_error ("outcome: bad member " ^ k))

let outcome_of_json j =
  {
    oc_id = req "id" Json.to_str j;
    oc_report = Json.member "report" j;
    oc_report_key = req "report_key" Json.to_str j;
    oc_report_hit = req "report_hit" Json.to_bool j;
    oc_lemma_hits = req "lemma_hits" Json.to_int j;
    oc_lemma_misses = req "lemma_misses" Json.to_int j;
    oc_invalidated = req "invalidated" Json.to_int j;
    oc_new_lemmas =
      (match Json.to_list (Json.member "new_lemmas" j) with
      | None -> raise (Json.Parse_error "outcome: bad member new_lemmas")
      | Some l ->
          List.map
            (function
              | Json.List [ Json.Str svar; Json.Str key; Json.Bool holds ] ->
                  (svar, key, holds)
              | _ -> raise (Json.Parse_error "outcome: bad lemma entry"))
            l);
    oc_seconds = req "seconds" Json.to_float j;
  }
