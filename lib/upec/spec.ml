open Rtl

type variant = Vulnerable | Secure

let variant_tag = function Vulnerable -> "vulnerable" | Secure -> "secure"

type pers_model = Full_pers | Memory_only

type t = {
  soc : Soc.Builder.t;
  variant : variant;
  pers_model : pers_model;
}

let make ?(pers_model = Full_pers) soc variant =
  if not soc.Soc.Builder.mode_formal then
    invalid_arg "Upec.Spec.make: requires a formal-mode SoC";
  { soc; variant; pers_model }

let s_neg_victim t =
  Structural.Svar_set.filter
    (fun sv -> not (Soc.Builder.is_cpu t.soc sv))
    (Structural.all_svars t.soc.Soc.Builder.netlist)

let is_pers t sv =
  match t.pers_model with
  | Full_pers -> Soc.Builder.is_persistent t.soc sv
  | Memory_only -> (
      match sv with
      | Structural.Smem (m, _) -> t.soc.Soc.Builder.cell_addr m 0 <> None
      | Structural.Sreg _ -> false)

(* ---- symbolic protected range ---- *)

let params t =
  let base = Option.get t.soc.Soc.Builder.victim_base in
  let limit = Option.get t.soc.Soc.Builder.victim_limit in
  (Expr.param base, Expr.param limit)

let in_range t addr =
  let base, limit = params t in
  Expr.(and_list [ base <=: addr; addr <=: limit ])

let victim_cell_guard t sv =
  match sv with
  | Structural.Smem (m, i) -> (
      match t.soc.Soc.Builder.cell_addr m i with
      | Some a ->
          let aw = t.soc.Soc.Builder.soc_cfg.Soc.Config.addr_width in
          Some (in_range t (Expr.of_int ~width:aw a))
      | None -> None)
  | Structural.Sreg _ -> None

(* ---- assumed environment ---- *)

let cfg t = t.soc.Soc.Builder.soc_cfg

let window t region =
  let c = cfg t in
  let base = Soc.Memmap.region_base c region in
  let words =
    match region with
    | Soc.Memmap.Pub -> Soc.Memmap.pub_words c
    | Soc.Memmap.Priv -> Soc.Memmap.priv_words c
    | Soc.Memmap.Apb -> invalid_arg "Spec.window"
  in
  (base, base + words - 1)

let range_in_window t (lo, hi) =
  let aw = (cfg t).Soc.Config.addr_width in
  let base, limit = params t in
  Expr.(
    and_list
      [ of_int ~width:aw lo <=: base; limit <=: of_int ~width:aw hi ])

let range_wellformed t =
  let base, limit = params t in
  let ordered = Expr.(base <=: limit) in
  let contained =
    match t.variant with
    | Secure -> range_in_window t (window t Soc.Memmap.Priv)
    | Vulnerable ->
        Expr.(
          range_in_window t (window t Soc.Memmap.Pub)
          |: range_in_window t (window t Soc.Memmap.Priv))
  in
  Expr.(ordered &: contained)

(* [base, base+len) as (ext_base, ext_end) in aw+1 bits, plus the
   no-wrap condition ext_end <= 2^aw *)
let ext_range t (r : Soc.Builder.ip_range) =
  let aw = (cfg t).Soc.Config.addr_width in
  let eb = Expr.zero_extend r.Soc.Builder.ir_base (aw + 1) in
  let el = Expr.zero_extend r.Soc.Builder.ir_len (aw + 1) in
  let e_end = Expr.(eb +: el) in
  let no_wrap = Expr.(e_end <=: of_int ~width:(aw + 1) (1 lsl aw)) in
  (eb, e_end, no_wrap)

let disjoint_from_victim t (r : Soc.Builder.ip_range) =
  let aw = (cfg t).Soc.Config.addr_width in
  let base, limit = params t in
  let eb, e_end, no_wrap = ext_range t r in
  let evb = Expr.zero_extend base (aw + 1) in
  let evl = Expr.zero_extend limit (aw + 1) in
  Expr.(no_wrap &: (e_end <=: evb |: (evl <: eb)))

let threat_model t =
  Expr.and_list (List.map (disjoint_from_victim t) t.soc.Soc.Builder.ip_ranges)

let dma_ranges t =
  List.filter
    (fun (r : Soc.Builder.ip_range) ->
      String.length r.Soc.Builder.ir_name >= 4
      && String.sub r.Soc.Builder.ir_name 0 4 = "dma.")
    t.soc.Soc.Builder.ip_ranges

let range_avoids_window t (r : Soc.Builder.ip_range) (lo, hi) =
  let aw = (cfg t).Soc.Config.addr_width in
  let eb, e_end, no_wrap = ext_range t r in
  Expr.(
    no_wrap
    &: (e_end <=: of_int ~width:(aw + 1) lo
       |: (of_int ~width:(aw + 1) (hi + 1) <=: eb)))

let policy t =
  match t.variant with
  | Vulnerable -> Expr.vdd
  | Secure ->
      if (cfg t).Soc.Config.dma_on_private then
        let w = window t Soc.Memmap.Priv in
        Expr.and_list
          (List.map (fun r -> range_avoids_window t r w) (dma_ranges t))
      else Expr.vdd

(* ---- invariants (Sec. 3.4) ---- *)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let bank_invariants t ~xbar ~masters ~region ~bank_name ~bank =
  let nl = t.soc.Soc.Builder.netlist in
  let c = cfg t in
  let aw = c.Soc.Config.addr_width in
  match List.find_index (String.equal "dma") masters with
  | None -> []
  | Some dma_idx -> (
      try
        let reg name = Expr.reg (Netlist.find_reg nl name).Netlist.rd_signal in
        let rv = reg (Printf.sprintf "%s.%s.resp_valid" xbar bank_name) in
        let rm = reg (Printf.sprintf "%s.%s.resp_master" xbar bank_name) in
        let raddr = reg (Printf.sprintf "%s.raddr_q" bank_name) in
        let mw = Expr.width rm in
        let resp_to_dma = Expr.(rv &: (rm ==: of_int ~width:mw dma_idx)) in
        let banks =
          match region with
          | Soc.Memmap.Pub -> c.Soc.Config.pub_banks
          | Soc.Memmap.Priv -> c.Soc.Config.priv_banks
          | Soc.Memmap.Apb -> 1
        in
        let bb = log2 banks in
        let global =
          Expr.(
            of_int ~width:aw (Soc.Memmap.region_base c region + bank)
            +: shl (uresize raddr aw) (of_int ~width:aw bb))
        in
        let inv2 =
          ( Printf.sprintf "%s.%s: dma responses outside protected range" xbar
              bank_name,
            Expr.(~:(resp_to_dma &: in_range t global)) )
        in
        let inv1 =
          if t.variant = Secure && region = Soc.Memmap.Priv then
            [
              ( Printf.sprintf "%s.%s: no dma responses on private xbar" xbar
                  bank_name,
                Expr.(~:resp_to_dma) );
            ]
          else []
        in
        inv2 :: inv1
      with Not_found -> [])

(* Response-path consistency for the DMA (the only IP that consumes
   read data): while the DMA is waiting for a read response, the slave
   its outstanding address decodes to must be holding exactly that
   response — valid, routed to the DMA, with the read index latched from
   the outstanding address. Inductive per instance (a grant sets all
   three; without a grant there is no response and the FSM cannot be
   entering the wait state). Without it, removing transient response
   registers from S lets spurious response differences flow into the
   persistent [dma.data_q]. *)
let dma_response_invariants t =
  match t.soc.Soc.Builder.dma with
  | None -> []
  | Some dma ->
      let nl = t.soc.Soc.Builder.netlist in
      let c = cfg t in
      let reg name = Expr.reg (Netlist.find_reg nl name).Netlist.rd_signal in
      let waiting =
        Expr.(
          Soc.Dma.state_reg dma ==: of_int ~width:2 Soc.Dma.st_rd_wait)
      in
      let raddr = Expr.(Soc.Dma.src_reg dma +: Soc.Dma.cnt_reg dma) in
      (* companion invariant: the wait state is only ever entered by a
         granted read, which requires an active engine; a symbolic state
         with [rd_wait] but an idle engine would sit in the wait state
         forever while the response routing moves on *)
      let wait_implies_active =
        ( "dma: read-wait implies active transfer",
          Expr.(
            ~:waiting
            |: (Soc.Dma.busy_reg dma
               &: (Soc.Dma.cnt_reg dma <: Soc.Dma.len_reg dma))) )
      in
      let slave_inv ~xbar ~masters ~slave_name ~matches ~idx_reg ~expected_idx =
        match List.find_index (String.equal "dma") masters with
        | None -> []
        | Some dma_idx -> (
            try
              let rv = reg (Printf.sprintf "%s.%s.resp_valid" xbar slave_name) in
              let rm =
                reg (Printf.sprintf "%s.%s.resp_master" xbar slave_name)
              in
              let mw = Expr.width rm in
              let body =
                Expr.and_list
                  [
                    rv;
                    Expr.(rm ==: of_int ~width:mw dma_idx);
                    Expr.(idx_reg ==: expected_idx);
                  ]
              in
              let resp_to_dma =
                Expr.(rv &: (rm ==: of_int ~width:mw dma_idx))
              in
              [
                ( Printf.sprintf "%s.%s: dma read-wait response consistency"
                    xbar slave_name,
                  Expr.(~:(waiting &: matches) |: body) );
                (* dual: while the DMA waits, no *other* slave may hold a
                   response routed to it (a write response always leaves
                   the wait state, so this is inductive) *)
                ( Printf.sprintf "%s.%s: no stale dma responses" xbar
                    slave_name,
                  Expr.(~:(and_list [ waiting; ~:matches; resp_to_dma ])) );
              ]
            with Not_found -> [])
      in
      let sram_invs xbar masters region banks prefix =
        List.concat
          (List.init banks (fun i ->
               let name = Printf.sprintf "%s%d" prefix i in
               let idx_reg = reg (name ^ ".raddr_q") in
               let expected =
                 Expr.uresize (Soc.Memmap.sram_index c raddr region)
                   (Expr.width idx_reg)
               in
               slave_inv ~xbar ~masters ~slave_name:name
                 ~matches:(Soc.Memmap.decode_sram_select c raddr region ~bank:i)
                 ~idx_reg ~expected_idx:expected))
      in
      let apb_invs =
        let periphs =
          (if c.Soc.Config.with_timer then [ ("timer.cfg", Soc.Memmap.Timer) ]
           else [])
          @ [ ("dma.cfg", Soc.Memmap.Dma) ]
          @ (if c.Soc.Config.with_hwpe then [ ("hwpe.cfg", Soc.Memmap.Hwpe) ]
             else [])
          @
          if c.Soc.Config.with_uart then [ ("uart.cfg", Soc.Memmap.Uart) ]
          else []
        in
        List.concat_map
          (fun (name, periph) ->
            let idx_reg = reg (name ^ ".ridx_q") in
            slave_inv ~xbar:"xbar_pub"
              ~masters:t.soc.Soc.Builder.pub_masters ~slave_name:name
              ~matches:(Soc.Memmap.decode_periph_select c raddr periph)
              ~idx_reg
              ~expected_idx:(Soc.Memmap.periph_reg_index c raddr))
          periphs
      in
      wait_implies_active
      :: sram_invs "xbar_pub" t.soc.Soc.Builder.pub_masters Soc.Memmap.Pub
           c.Soc.Config.pub_banks "pub"
      @ (if c.Soc.Config.dma_on_private then
           sram_invs "xbar_priv" t.soc.Soc.Builder.priv_masters Soc.Memmap.Priv
             c.Soc.Config.priv_banks "priv"
         else [])
      @ apb_invs

let invariants t =
  let c = cfg t in
  let pub =
    List.concat
      (List.init c.Soc.Config.pub_banks (fun i ->
           bank_invariants t ~xbar:"xbar_pub"
             ~masters:t.soc.Soc.Builder.pub_masters ~region:Soc.Memmap.Pub
             ~bank_name:(Printf.sprintf "pub%d" i) ~bank:i))
  in
  let priv =
    List.concat
      (List.init c.Soc.Config.priv_banks (fun i ->
           bank_invariants t ~xbar:"xbar_priv"
             ~masters:t.soc.Soc.Builder.priv_masters ~region:Soc.Memmap.Priv
             ~bank_name:(Printf.sprintf "priv%d" i) ~bank:i))
  in
  pub @ priv @ dma_response_invariants t

let assumed_env t =
  Expr.and_list
    ([ range_wellformed t; threat_model t; policy t ]
    @ List.map snd (invariants t))
