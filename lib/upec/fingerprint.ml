open Rtl

(* Digests are built bottom-up with [Digest.string] at every node, so
   every intermediate is a fixed 16-byte string and the final digest of
   a shared subgraph is computed once (memoised on [Expr.tag]). Signals
   and memories enter by name and width — never by their process-local
   ids — which is what makes two builds of the same configuration hash
   equal. *)

let unop_tag = function
  | Expr.Not -> "not"
  | Expr.Neg -> "neg"
  | Expr.Redand -> "redand"
  | Expr.Redor -> "redor"
  | Expr.Redxor -> "redxor"

let binop_tag = function
  | Expr.Add -> "add"
  | Expr.Sub -> "sub"
  | Expr.Mul -> "mul"
  | Expr.And -> "and"
  | Expr.Or -> "or"
  | Expr.Xor -> "xor"
  | Expr.Eq -> "eq"
  | Expr.Ne -> "ne"
  | Expr.Ult -> "ult"
  | Expr.Ule -> "ule"
  | Expr.Slt -> "slt"
  | Expr.Sle -> "sle"
  | Expr.Shl -> "shl"
  | Expr.Lshr -> "lshr"
  | Expr.Ashr -> "ashr"

let signal_tag (s : Expr.signal) =
  Printf.sprintf "%s:%d" s.Expr.s_name s.Expr.s_width

let mem_tag (m : Expr.mem) =
  Printf.sprintf "%s:%d:%d:%d" m.Expr.m_name m.Expr.m_addr_width
    m.Expr.m_data_width m.Expr.m_depth

type ctx = { memo : (int, string) Hashtbl.t }

let rec edig ctx e =
  match Hashtbl.find_opt ctx.memo (Expr.tag e) with
  | Some d -> d
  | None ->
      let d =
        Digest.string
          (match Expr.node e with
          | Expr.Const bv -> "C" ^ Bitvec.to_string bv
          | Expr.Input s -> "I" ^ signal_tag s
          | Expr.Param s -> "P" ^ signal_tag s
          | Expr.Reg s -> "R" ^ signal_tag s
          | Expr.Memread (m, a) -> "M" ^ mem_tag m ^ edig ctx a
          | Expr.Unop (op, a) -> "U" ^ unop_tag op ^ edig ctx a
          | Expr.Binop (op, a, b) ->
              "B" ^ binop_tag op ^ edig ctx a ^ edig ctx b
          | Expr.Mux (s, a, b) -> "X" ^ edig ctx s ^ edig ctx a ^ edig ctx b
          | Expr.Concat (a, b) -> "K" ^ edig ctx a ^ edig ctx b
          | Expr.Slice (a, hi, lo) ->
              Printf.sprintf "S%d:%d%s" hi lo (edig ctx a))
      in
      Hashtbl.replace ctx.memo (Expr.tag e) d;
      d

let bv_opt = function None -> "-" | Some bv -> Bitvec.to_string bv

let bv_arr_opt = function
  | None -> "-"
  | Some arr ->
      String.concat "," (Array.to_list (Array.map Bitvec.to_string arr))

(* Content digest of one state element: everything that determines its
   next-cycle value (and, for certified replays, its simulator reset
   value). Memory cells of the same array share the port digests and
   differ only in the element index. *)
let reg_digest ctx (rd : Netlist.reg_def) =
  Digest.string
    (String.concat ":"
       [
         "reg";
         signal_tag rd.Netlist.rd_signal;
         edig ctx rd.Netlist.rd_next;
         bv_opt rd.Netlist.rd_init;
       ])

let mem_digest ctx (md : Netlist.mem_def) =
  Digest.string
    (String.concat ":"
       ("mem" :: mem_tag md.Netlist.md_mem
       :: bv_arr_opt md.Netlist.md_init
       :: List.concat_map
            (fun (wp : Netlist.write_port) ->
              [
                edig ctx wp.Netlist.wp_enable;
                edig ctx wp.Netlist.wp_addr;
                edig ctx wp.Netlist.wp_data;
              ])
            md.Netlist.md_ports))

let netlist_digest (nl : Netlist.t) =
  let ctx = { memo = Hashtbl.create 4096 } in
  let sorted_by f l = List.sort (fun a b -> compare (f a) (f b)) l in
  let b = Buffer.create 4096 in
  let section name lines =
    Buffer.add_string b name;
    Buffer.add_char b '\n';
    List.iter
      (fun l ->
        Buffer.add_string b l;
        Buffer.add_char b '\n')
      lines
  in
  section "inputs"
    (List.map signal_tag
       (sorted_by (fun s -> s.Expr.s_name) nl.Netlist.inputs));
  section "params"
    (List.map signal_tag
       (sorted_by (fun s -> s.Expr.s_name) nl.Netlist.params));
  section "regs"
    (List.map
       (fun rd ->
         rd.Netlist.rd_signal.Expr.s_name ^ " " ^ reg_digest ctx rd)
       (sorted_by
          (fun rd -> rd.Netlist.rd_signal.Expr.s_name)
          nl.Netlist.regs));
  section "mems"
    (List.map
       (fun md -> md.Netlist.md_mem.Expr.m_name ^ " " ^ mem_digest ctx md)
       (sorted_by (fun md -> md.Netlist.md_mem.Expr.m_name) nl.Netlist.mems));
  section "outputs"
    (List.map
       (fun (n, e) -> n ^ " " ^ edig ctx e)
       (sorted_by fst nl.Netlist.outputs));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- per-design state ------------------------------------------------ *)

type t = {
  fp_spec : Spec.t;
  fp_ctx : ctx;
  fp_design : string lazy_t;
  fp_env : string;  (* digest of the assumed environment over 2 cycles *)
  fp_env_dep : Structural.Svar_set.t;
  fp_elem_content : (string, string) Hashtbl.t;
      (* element name (reg name / mem name) -> content digest; cells
         append their index on use *)
  fp_elem_support : (string, Structural.Svar_set.t) Hashtbl.t;
      (* element name -> fan-in of its next-state function *)
  fp_guard : (string, string) Hashtbl.t;  (* svar name -> guard digest *)
}

let pers_tag = function
  | Spec.Full_pers -> "full-pers"
  | Spec.Memory_only -> "memory-only"

let elem_name = function
  | Structural.Sreg s -> s.Expr.s_name
  | Structural.Smem (m, _) -> m.Expr.m_name

let elem_support fp sv =
  let name = elem_name sv in
  match Hashtbl.find_opt fp.fp_elem_support name with
  | Some s -> s
  | None ->
      (* cell supports are index-independent except for the cell
         itself, which callers re-add; memoise the union per array *)
      let s =
        Structural.reg_support fp.fp_spec.Spec.soc.Soc.Builder.netlist sv
      in
      let s =
        match sv with
        | Structural.Smem _ -> Structural.Svar_set.remove sv s
        | Structural.Sreg _ -> s
      in
      Hashtbl.replace fp.fp_elem_support name s;
      s

let elem_content fp sv =
  let nl = fp.fp_spec.Spec.soc.Soc.Builder.netlist in
  let base name compute =
    match Hashtbl.find_opt fp.fp_elem_content name with
    | Some d -> d
    | None ->
        let d = compute () in
        Hashtbl.replace fp.fp_elem_content name d;
        d
  in
  match sv with
  | Structural.Sreg s ->
      base s.Expr.s_name (fun () ->
          reg_digest fp.fp_ctx (Netlist.find_reg nl s.Expr.s_name))
  | Structural.Smem (m, i) ->
      let d =
        base m.Expr.m_name (fun () ->
            mem_digest fp.fp_ctx (Netlist.find_mem nl m.Expr.m_name))
      in
      Digest.string (Printf.sprintf "%s[%d]" d i)

let guard_digest fp sv =
  let name = Structural.svar_name sv in
  match Hashtbl.find_opt fp.fp_guard name with
  | Some d -> d
  | None ->
      let d =
        match Spec.victim_cell_guard fp.fp_spec sv with
        | None -> "-"
        | Some g -> edig fp.fp_ctx g
      in
      Hashtbl.replace fp.fp_guard name d;
      d

let make spec =
  let nl = spec.Spec.soc.Soc.Builder.netlist in
  let ctx = { memo = Hashtbl.create 4096 } in
  let fp =
    {
      fp_spec = spec;
      fp_ctx = ctx;
      fp_design =
        lazy
          (Digest.to_hex
             (Digest.string
                (Checkpoint.config_hash ~alg:Checkpoint.Alg1 spec
                ^ netlist_digest nl)));
      fp_env = "";
      fp_env_dep = Structural.Svar_set.empty;
      fp_elem_content = Hashtbl.create 256;
      fp_elem_support = Hashtbl.create 256;
      fp_guard = Hashtbl.create 256;
    }
  in
  (* The environment is asserted at cycles 0 and 1; at cycle 1 it reads
     the next-state functions of its fan-in, so both the membership set
     and the content digest extend one transition deep. The victim-task
     macros constrain only the cut inputs and the symbolic range
     parameters — named by the port list and the guard digests. *)
  let env_expr = Spec.assumed_env spec in
  let env_cone = Structural.cone_of env_expr in
  let env_dep =
    Structural.Svar_set.fold
      (fun w acc ->
        Structural.Svar_set.union acc
          (Structural.Svar_set.add w (elem_support fp w)))
      env_cone env_cone
  in
  let env_digest =
    Digest.string
      (String.concat ":"
         ([
            "env";
            Spec.variant_tag spec.Spec.variant;
            pers_tag spec.Spec.pers_model;
            edig ctx env_expr;
          ]
         @ List.sort compare spec.Spec.soc.Soc.Builder.victim_port
         @ List.map
             (fun w -> Structural.svar_name w ^ "=" ^ elem_content fp w)
             (Structural.Svar_set.elements env_cone)))
  in
  { fp with fp_env = env_digest; fp_env_dep = env_dep }

let design fp = Lazy.force fp.fp_design
let env_dep fp = fp.fp_env_dep

(* Spec-level fingerprint: digests the declarative design record
   instead of the elaborated netlist, so a cache probe needs no build.
   Tied to the netlist digest by construction — [Cli.config_of] is a
   pure function of the record — and versioned so a codec change can
   never alias an old key. *)
let design_spec d =
  Digest.to_hex (Digest.string ("design-spec:1:" ^ Cli.design_key d))

let dep fp sv =
  Structural.Svar_set.union fp.fp_env_dep
    (Structural.Svar_set.add sv (elem_support fp sv))

let check_key fp sv ~s =
  let b = Buffer.create 1024 in
  Buffer.add_string b "check1:";
  Buffer.add_string b fp.fp_env;
  Buffer.add_string b (Structural.svar_name sv);
  Buffer.add_char b ':';
  Buffer.add_string b (string_of_int (Structural.svar_width sv));
  Buffer.add_char b ':';
  Buffer.add_string b (elem_content fp sv);
  Buffer.add_string b (guard_digest fp sv);
  let d = dep fp sv in
  Structural.Svar_set.iter
    (fun w ->
      if Structural.Svar_set.mem w d then begin
        Buffer.add_char b '|';
        Buffer.add_string b (Structural.svar_name w);
        Buffer.add_string b (guard_digest fp w)
      end)
    s;
  Digest.to_hex (Digest.string (Buffer.contents b))
