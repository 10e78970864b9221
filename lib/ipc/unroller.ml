open Rtl
open Bitblast

type instance = A | B

let pp_instance fmt = function
  | A -> Format.pp_print_string fmt "A"
  | B -> Format.pp_print_string fmt "B"

(* Per-frame, per-instance storage keyed by signal / mem ids. *)
type frame = {
  f_regs : (int, Blaster.vec) Hashtbl.t;  (* signal id -> vec *)
  f_mems : (int, Blaster.vec array) Hashtbl.t;  (* mem id -> element vecs *)
  f_inputs : (int, Blaster.vec) Hashtbl.t;  (* signal id -> vec *)
}

(* Growable frame store: O(1) indexed lookup and amortised O(1) append.
   The previous [frame list] representation made [frame_of] O(n) and the
   append on advance O(n), turning deep unrollings quadratic. *)
type frames = { mutable arr : frame array; mutable len : int }

let fv_create () = { arr = [||]; len = 0 }

let fv_get fv i =
  if i < 0 || i >= fv.len then invalid_arg "Unroller: frame out of range";
  fv.arr.(i)

let fv_push fv f =
  if fv.len = Array.length fv.arr then begin
    let cap = max 4 (2 * fv.len) in
    let arr = Array.make cap f in
    Array.blit fv.arr 0 arr 0 fv.len;
    fv.arr <- arr
  end;
  fv.arr.(fv.len) <- f;
  fv.len <- fv.len + 1

type t = {
  g : Aig.t;
  nl : Netlist.t;
  duo : bool;
  share : Structural.svar -> bool;  (* B takes A's cycle-0 vector *)
  params : (int, Blaster.vec) Hashtbl.t;  (* shared across inst and time *)
  frames_a : frames;  (* index 0 first *)
  frames_b : frames;
  mutable nframes : int;  (* highest state frame materialised *)
}

let graph t = t.g
let netlist t = t.nl
let two_instance t = t.duo

let new_frame () =
  {
    f_regs = Hashtbl.create 64;
    f_mems = Hashtbl.create 8;
    f_inputs = Hashtbl.create 32;
  }

let create ?(share = fun _ -> false) g nl ~two_instance =
  let t =
    {
      g;
      nl;
      duo = two_instance;
      share;
      params = Hashtbl.create 8;
      frames_a = fv_create ();
      frames_b = fv_create ();
      nframes = -1;
    }
  in
  List.iter
    (fun (s : Expr.signal) ->
      Hashtbl.replace t.params s.Expr.s_id
        (Blaster.fresh_vec g s.Expr.s_width))
    nl.Netlist.params;
  t

let frames_of t inst = match inst with A -> t.frames_a | B -> t.frames_b
let frame_of t inst i = fv_get (frames_of t inst) i

(* The symbolic starting state: fresh variables for every register and
   memory element, except that instance B takes A's own vector of every
   shared one ([a] is A's frame 0). *)
let state_frame_0 t ~a =
  let f = new_frame () in
  let vec sv width =
    match a with
    | Some a when t.share sv -> (
        match sv with
        | Structural.Sreg s -> Hashtbl.find a.f_regs s.Expr.s_id
        | Structural.Smem (m, i) -> (Hashtbl.find a.f_mems m.Expr.m_id).(i))
    | _ -> Blaster.fresh_vec t.g width
  in
  List.iter
    (fun rd ->
      let s = rd.Netlist.rd_signal in
      Hashtbl.replace f.f_regs s.Expr.s_id (vec (Structural.Sreg s) s.Expr.s_width))
    t.nl.Netlist.regs;
  List.iter
    (fun md ->
      let m = md.Netlist.md_mem in
      Hashtbl.replace f.f_mems m.Expr.m_id
        (Array.init m.Expr.m_depth (fun i ->
             vec (Structural.Smem (m, i)) m.Expr.m_data_width)))
    t.nl.Netlist.mems;
  f

let env_of t inst i =
  let f = frame_of t inst i in
  {
    Blaster.lookup_input =
      (fun s ->
        match Hashtbl.find_opt f.f_inputs s.Expr.s_id with
        | Some v -> v
        | None ->
            let v = Blaster.fresh_vec t.g s.Expr.s_width in
            Hashtbl.replace f.f_inputs s.Expr.s_id v;
            v);
    Blaster.lookup_param = (fun s -> Hashtbl.find t.params s.Expr.s_id);
    Blaster.lookup_reg = (fun s -> Hashtbl.find f.f_regs s.Expr.s_id);
    Blaster.lookup_mem = (fun m idx -> (Hashtbl.find f.f_mems m.Expr.m_id).(idx));
  }

(* Compute frame i+1 of one instance from frame i. *)
let h_frame_seconds = Obs.Metrics.histogram "unroll.frame_seconds"

let advance t inst =
  let i = (frames_of t inst).len - 1 in
  Obs.Metrics.time h_frame_seconds @@ fun () ->
  Obs.Trace.with_span "unroll.advance"
    ~attrs:
      [
        ("frame", Obs.Trace.Int (i + 1));
        ("instance", Obs.Trace.Str (match inst with A -> "A" | B -> "B"));
      ]
  @@ fun () ->
  let blast = Blaster.blaster t.g (env_of t inst i) in
  let next = new_frame () in
  List.iter
    (fun rd ->
      let s = rd.Netlist.rd_signal in
      Hashtbl.replace next.f_regs s.Expr.s_id (blast rd.Netlist.rd_next))
    t.nl.Netlist.regs;
  List.iter
    (fun md ->
      let m = md.Netlist.md_mem in
      let cur = Hashtbl.find (frame_of t inst i).f_mems m.Expr.m_id in
      (* Apply write ports; fold from last to first so the first port
         wins on an address clash, matching the simulator. *)
      let ports =
        List.map
          (fun wp ->
            ( blast wp.Netlist.wp_enable,
              blast wp.Netlist.wp_addr,
              blast wp.Netlist.wp_data ))
          md.Netlist.md_ports
      in
      let elems =
        Array.init m.Expr.m_depth (fun idx ->
            List.fold_left
              (fun acc (en, addr, data) ->
                let hit =
                  Aig.mk_and t.g en.(0) (Blaster.v_eq_const t.g addr idx)
                in
                Blaster.v_mux t.g hit data acc)
              cur.(idx) (List.rev ports))
      in
      Hashtbl.replace next.f_mems m.Expr.m_id elems)
    t.nl.Netlist.mems;
  fv_push (frames_of t inst) next

let ensure_frames t k =
  if t.nframes < 0 then begin
    (* materialise frame 0: fully symbolic starting state *)
    let a = state_frame_0 t ~a:None in
    fv_push t.frames_a a;
    if t.duo then fv_push t.frames_b (state_frame_0 t ~a:(Some a));
    t.nframes <- 0
  end;
  while t.nframes < k do
    advance t A;
    if t.duo then advance t B;
    t.nframes <- t.nframes + 1
  done

let frames t = t.nframes

let check_frame t i =
  if i > t.nframes then
    invalid_arg
      (Printf.sprintf "Unroller: frame %d not materialised (have %d)" i
         t.nframes)

let check_inst t inst =
  if inst = B && not t.duo then
    invalid_arg "Unroller: instance B of a single-instance unroller"

let reg_vec t inst ~frame s =
  check_inst t inst;
  check_frame t frame;
  Hashtbl.find (frame_of t inst frame).f_regs s.Expr.s_id

let mem_vec t inst ~frame m idx =
  check_inst t inst;
  check_frame t frame;
  (Hashtbl.find (frame_of t inst frame).f_mems m.Expr.m_id).(idx)

let svar_vec t inst ~frame v =
  match v with
  | Structural.Sreg s -> reg_vec t inst ~frame s
  | Structural.Smem (m, i) -> mem_vec t inst ~frame m i

let input_vec t inst ~frame s =
  check_inst t inst;
  check_frame t frame;
  let f = frame_of t inst frame in
  match Hashtbl.find_opt f.f_inputs s.Expr.s_id with
  | Some v -> v
  | None ->
      let v = Blaster.fresh_vec t.g s.Expr.s_width in
      Hashtbl.replace f.f_inputs s.Expr.s_id v;
      v

let param_vec t s = Hashtbl.find t.params s.Expr.s_id

let blast_at t inst ~frame e =
  check_inst t inst;
  check_frame t frame;
  Blaster.blaster t.g (env_of t inst frame) e

let svar_equal_lit t ~frame v =
  if not t.duo then invalid_arg "Unroller.svar_equal_lit: single instance";
  Blaster.v_eq t.g (svar_vec t A ~frame v) (svar_vec t B ~frame v)

let inputs_equal_lit t ~frame s =
  if not t.duo then invalid_arg "Unroller.inputs_equal_lit: single instance";
  Blaster.v_eq t.g (input_vec t A ~frame s) (input_vec t B ~frame s)
