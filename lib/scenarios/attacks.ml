open Isa.Asm
open Isa.Encoding

type dma_timer_reading = { dt_accesses : int; dt_timer : int; dt_cycles : int }
type hwpe_reading = { hw_accesses : int; hw_zero_cells : int }

(* ---- E1: DMA + timer ---- *)

let dma_timer_program cfg ~n =
  Scenario.mmio_write (Scenario.byte_of cfg Soc.Memmap.Timer 0) 2
  @ Scenario.mmio_write (Scenario.byte_of cfg Soc.Memmap.Dma 1) 0
  @ Scenario.mmio_write (Scenario.byte_of cfg Soc.Memmap.Dma 2) 64
  @ Scenario.mmio_write (Scenario.byte_of cfg Soc.Memmap.Dma 3) 24
  @ Scenario.mmio_write (Scenario.byte_of cfg Soc.Memmap.Dma 0) 1
  @ [ I Ebreak ]
  @ Scenario.victim_section ~target:(Scenario.pub_base cfg) ~n
  @ [
      L "retrieval";
      Li (10, Scenario.byte_of cfg Soc.Memmap.Timer 1);
      I (Lw (28, 10, 0));
      I Ebreak;
    ]

let dma_timer_of ?(slice = 120) spec ns =
  let cfg = Scenario.sim_config spec in
  List.map
    (fun n ->
      let rom, symbols = assemble_with_symbols (dma_timer_program cfg ~n) in
      let eng, cycles = Scenario.run_schedule cfg ~rom ~symbols ~slice in
      {
        dt_accesses = n;
        dt_timer = Rtl.Bitvec.to_int (Sim.Engine.mem_value eng "cpu.regs" 28);
        dt_cycles = cycles;
      })
    ns

(* ---- E7: HWPE + memory ---- *)

let primed_word_base = 512

let hwpe_program cfg ~primed_words ~n =
  let region = Scenario.pub_base cfg + (primed_word_base * 4) in
  [
    Li (5, region);
    Li (6, primed_words);
    L "prime";
    I (Sw (0, 5, 0));
    I (Addi (5, 5, 4));
    I (Addi (6, 6, -1));
    Bne_l (6, 0, "prime");
  ]
  @ Scenario.mmio_write (Scenario.byte_of cfg Soc.Memmap.Hwpe 1) primed_word_base
  @ Scenario.mmio_write (Scenario.byte_of cfg Soc.Memmap.Hwpe 2) primed_words
  @ Scenario.mmio_write (Scenario.byte_of cfg Soc.Memmap.Hwpe 3) 1
  @ Scenario.mmio_write (Scenario.byte_of cfg Soc.Memmap.Hwpe 0) 1
  @ [ I Ebreak ]
  @ Scenario.victim_section ~target:region ~n
  @ [
      L "retrieval";
      Li (5, region + ((primed_words - 1) * 4));
      Li (6, primed_words);
      Li (28, 0);
      L "scan";
      I (Lw (7, 5, 0));
      Bne_l (7, 0, "found");
      I (Addi (28, 28, 1));
      I (Addi (5, 5, -4));
      I (Addi (6, 6, -1));
      Bne_l (6, 0, "scan");
      L "found";
      I Ebreak;
    ]

let hwpe_memory_of ?(slice = 640) ?(primed_words = 1024) spec ns =
  let cfg = Scenario.sim_config spec in
  List.map
    (fun n ->
      let rom, symbols =
        assemble_with_symbols (hwpe_program cfg ~primed_words ~n)
      in
      let eng, _ = Scenario.run_schedule cfg ~rom ~symbols ~slice in
      {
        hw_accesses = n;
        hw_zero_cells =
          Rtl.Bitvec.to_int (Sim.Engine.mem_value eng "cpu.regs" 28);
      })
    ns
