(* Quickstart: build the Pulpissimo-like SoC, check the soundness of
   the assumed invariants, run UPEC-SSC on the baseline (vulnerable)
   and on the secured variant, and print both verdicts.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  Format.printf "== UPEC-SSC quickstart ==@.@.";
  (* 1. Build the SoC in formal mode: the CPU is cut at its bus
     interface, and the victim's protected address range is symbolic. *)
  let cfg = Soc.Config.formal_tiny in
  let soc = Soc.Builder.build cfg Soc.Builder.Formal in
  Format.printf "SoC: %s@.@." (Rtl.Netlist.stats soc.Soc.Builder.netlist);

  (* 2. The method needs a handful of reachability invariants to rule
     out false counterexamples from the symbolic starting state
     (Sec. 3.4). They are verified, not trusted. *)
  let secure_spec = Upec.Spec.make soc Upec.Spec.Secure in
  Format.printf "invariant soundness (base + induction): %b@.@."
    (Upec.Invariant.all_sound secure_spec);

  (* 3. Baseline SoC: Algorithm 1 finds a timing side channel — victim
     memory accesses modulate a spying IP's progress, which survives
     the context switch in persistent state. *)
  let vuln_spec = Upec.Spec.make soc Upec.Spec.Vulnerable in
  (* every knob lives in one record; here: a fresh solver session per
     check, the paper's own per-iteration re-check *)
  let options =
    {
      Upec.Options.default with
      Upec.Options.incremental = false;
      max_iterations = 64;
    }
  in
  let vuln_report = Upec.Alg1.run_with options vuln_spec in
  Format.printf "%a@.@." Upec.Report.pp vuln_report;

  (* 4. With the Sec. 4.2 countermeasure (protected range mapped to the
     private memory; DMA kept out of it by firmware constraints) the
     same procedure reaches a fixed point: proven secure, with
     unbounded validity. *)
  let secure_report = Upec.Alg1.run_with options secure_spec in
  Format.printf "%a@.@." Upec.Report.pp secure_report;

  Format.printf "summary:@.  %a@.  %a@." Upec.Report.pp_summary vuln_report
    Upec.Report.pp_summary secure_report
