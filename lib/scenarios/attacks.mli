(** End-to-end attack firmware scenarios, shared by the runnable
    examples and the benchmark harness (experiments E1 and E7).

    Both scenarios follow the three-phase structure of Sec. 2.2
    (preparation / recording / retrieval), realised as one firmware
    image whose phases are separated by the task switch points. The
    victim's secret is its number of memory accesses [n]; the victim
    phase is padded to a fixed cycle budget so only contention — not
    code length — reaches the attacker.

    The design under test comes from a {!Scenario.spec}: the same
    declarative record the scenario matrix, the farm and the CLI use. *)

type dma_timer_reading = {
  dt_accesses : int;  (** victim accesses n *)
  dt_timer : int;  (** timer value read by the attacker *)
  dt_cycles : int;  (** total cycles to halt *)
}

val dma_timer_of :
  ?slice:int -> Scenario.spec -> int list -> dma_timer_reading list
(** The Fig. 1 attack: DMA transfer + timer auto-start, on the spec's
    design at simulation scale ({!Scenario.sim_config}). A lower timer
    reading at the retrieval point means the DMA finished later, i.e.
    more victim accesses won arbitration. [slice] is the victim's
    fixed cycle budget (default 120). *)

type hwpe_reading = {
  hw_accesses : int;
  hw_zero_cells : int;
      (** zero cells above the HWPE frontier at retrieval: higher means
          the accelerator made less progress *)
}

val hwpe_memory_of :
  ?slice:int ->
  ?primed_words:int ->
  Scenario.spec ->
  int list ->
  hwpe_reading list
(** The Sec. 4.1 variant: accelerator progressively overwriting a
    primed region; retrieval scans the footprint. No timer access.
    Defaults keep the historical E7 amplitudes ([slice = 640],
    [primed_words = 1024]). *)
