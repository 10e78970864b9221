(* Crash-safe persistence of UPEC-SSC iteration state.

   The checkpoint is deliberately string-based: it stores svar *names*,
   not svars, so (de)serialization is a pure {!Json} transformation that
   can be property-tested without building a SoC, and the algorithm
   layer owns the name -> svar resolution (guarded by the config hash,
   which changes whenever the name universe could). *)

type alg = Alg1 | Alg2

type t = {
  ck_alg : alg;
  ck_variant : string;
  ck_config_hash : string;
  ck_iter : int;  (* next iteration to run (1-based) *)
  ck_k : int;  (* unroll depth of that iteration; always 1 for Alg1 *)
  ck_frames : string list array;
      (* per-frame candidate sets as sorted svar names; Alg1 uses a
         single frame, Alg2 one per cycle 0..k *)
  ck_unknown : (string * string) list;
      (* svars degraded to Unknown so far, with the budget reason — they
         are out of every frame set but must surface in the report *)
  ck_costliest : int option;  (* the hand-over cap state *)
  ck_handover : int option;  (* the iteration that handed over *)
}

let version = 2
let magic = "upec-ssc-checkpoint"
let alg_tag = function Alg1 -> "alg1" | Alg2 -> "alg2"

(* ---- config hash ----------------------------------------------------

   Fingerprint of everything the iteration state depends on: algorithm,
   design variant, persistence model, state size and the full svar
   universe with per-svar persistence flags. Resuming under any other
   configuration would silently misinterpret the stored names. *)

let config_hash ~alg spec =
  let nl = spec.Spec.soc.Soc.Builder.netlist in
  let b = Buffer.create 4096 in
  Buffer.add_string b (alg_tag alg);
  Buffer.add_char b '\n';
  Buffer.add_string b (Spec.variant_tag spec.Spec.variant);
  Buffer.add_char b '\n';
  Buffer.add_string b
    (match spec.Spec.pers_model with
    | Spec.Full_pers -> "full-pers"
    | Spec.Memory_only -> "memory-only");
  Buffer.add_char b '\n';
  Buffer.add_string b (string_of_int (Rtl.Netlist.state_bits nl));
  Buffer.add_char b '\n';
  let names =
    Rtl.Structural.Svar_set.fold
      (fun sv acc ->
        (Rtl.Structural.svar_name sv, Spec.is_pers spec sv) :: acc)
      (Rtl.Structural.all_svars nl)
      []
    |> List.sort compare
  in
  List.iter
    (fun (n, pers) ->
      Buffer.add_string b n;
      Buffer.add_string b (if pers then " p\n" else " -\n"))
    names;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- JSON form ----------------------------------------------------- *)

let to_string ck =
  let strs l = Json.List (List.map (fun n -> Json.Str n) l) in
  (* the hand-over state is absent until it holds something, as in
     checkpoints written before it was kept *)
  let handover =
    List.filter_map
      (fun (name, v) -> Option.map (fun n -> (name, Json.Int n)) v)
      [ ("costliest", ck.ck_costliest); ("handover", ck.ck_handover) ]
  in
  Json.to_string
    (Json.Obj
       ([
          ("magic", Json.Str magic);
          ("version", Json.Int version);
          ("alg", Json.Str (alg_tag ck.ck_alg));
          ("variant", Json.Str ck.ck_variant);
          ("hash", Json.Str ck.ck_config_hash);
          ("iter", Json.Int ck.ck_iter);
          ("k", Json.Int ck.ck_k);
          ("frames", Json.List (Array.to_list (Array.map strs ck.ck_frames)));
          ( "unknown",
            Json.List
              (List.map
                 (fun (n, r) ->
                   Json.Obj [ ("name", Json.Str n); ("reason", Json.Str r) ])
                 ck.ck_unknown) );
        ]
       @ handover))

(* [Some] only when every element converts *)
let list_of conv j =
  Option.bind (Json.to_list j) (fun l ->
      List.fold_right
        (fun x acc ->
          match (conv x, acc) with
          | Some v, Some a -> Some (v :: a)
          | _ -> None)
        l (Some []))

let of_string text =
  let ( let* ) = Result.bind in
  let check ok msg = if ok then Ok () else Error msg in
  let field name conv j =
    match conv (Json.member name j) with
    | Some v -> Ok v
    | None -> Error ("missing or ill-typed member " ^ name)
  in
  let count name j =
    let* n = field name Json.to_int j in
    let* () = check (n >= 0) ("negative " ^ name) in
    Ok n
  in
  let optional_count name j =
    match Json.member name j with
    | Json.Null -> Ok None
    | _ -> Result.map Option.some (count name j)
  in
  let* j =
    match Json.of_string text with
    | j -> Ok j
    | exception Json.Parse_error m -> Error ("malformed checkpoint: " ^ m)
  in
  let* m = field "magic" Json.to_str j in
  let* () = check (m = magic) ("not a " ^ magic ^ " file") in
  let* v = field "version" Json.to_int j in
  let* () =
    check (v = version) (Printf.sprintf "unsupported checkpoint version %d" v)
  in
  let* alg =
    field "alg"
      (fun a ->
        match Json.to_str a with
        | Some "alg1" -> Some Alg1
        | Some "alg2" -> Some Alg2
        | _ -> None)
      j
  in
  let* variant = field "variant" Json.to_str j in
  let* hash = field "hash" Json.to_str j in
  let* iter = count "iter" j in
  let* k = count "k" j in
  let* frames = field "frames" (list_of (list_of Json.to_str)) j in
  let* unknown =
    field "unknown"
      (list_of (fun u ->
           let str name = Json.to_str (Json.member name u) in
           match (str "name", str "reason") with
           | Some n, Some r -> Some (n, r)
           | _ -> None))
      j
  in
  let* costliest = optional_count "costliest" j in
  let* handover = optional_count "handover" j in
  Ok
    {
      ck_alg = alg;
      ck_variant = variant;
      ck_config_hash = hash;
      ck_iter = iter;
      ck_k = k;
      ck_frames = Array.of_list frames;
      ck_unknown = unknown;
      ck_costliest = costliest;
      ck_handover = handover;
    }

let save path ck =
  Atomic_file.write ~dir:(Filename.dirname path) ~path (to_string ck)

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> of_string text
  | exception Sys_error m -> Error m
  | exception End_of_file -> Error "unreadable checkpoint file"

let pp fmt ck =
  Format.fprintf fmt
    "%s iteration %d, k=%d, |S|=%d%s, %d svar(s) unknown [%s, hash %s]"
    (match ck.ck_alg with Alg1 -> "Alg. 1" | Alg2 -> "Alg. 2")
    ck.ck_iter ck.ck_k
    (match Array.length ck.ck_frames with
    | 0 -> 0
    | n -> List.length ck.ck_frames.(n - 1))
    (if Array.length ck.ck_frames > 1 then
       Printf.sprintf " (%d frames)" (Array.length ck.ck_frames)
     else "")
    (List.length ck.ck_unknown)
    ck.ck_variant
    (String.sub ck.ck_config_hash 0 (min 12 (String.length ck.ck_config_hash)))
