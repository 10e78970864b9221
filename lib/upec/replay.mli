open Rtl

(** Replaying a formal counterexample on the concrete simulator. *)

val check : Netlist.t -> Ipc.Cex.t -> bool
(** [check nl cex] is [(Certval.validate nl cex).v_ok]: the simulator
    reproduces the counterexample's state trajectory frame by frame.
    Kept only because the layer ledger's [detect] workload
    (bench/ledger/ledger.ml) calls it; everything else calls
    {!Certval.validate}, which also reports the mismatches. *)
