module Engine_intf = Lq_catalog.Engine_intf
module Catalog = Lq_catalog.Catalog
module Profile = Lq_metrics.Profile

let engine : Engine_intf.t =
  {
    Engine_intf.name = "compiled-c";
    describe = "generated C: tight loops over flat row stores, no staging";
    (* Hekaton-style native compilation: flat row stores only, no
       correlated sub-queries (§7.5), and groups must reduce to fused
       accumulators — whole group values cannot be materialized. *)
    caps =
      {
        Engine_intf.caps_any with
        needs_flat_sources = true;
        supports_correlated = false;
        supports_group_no_selector = false;
      };
    prepare =
      (fun ?instr cat ~param_types plan ->
        let trace = Option.map (fun (i : Lq_catalog.Instr.t) -> i.Lq_catalog.Instr.trace) instr in
        let start = Profile.now_ms () in
        (* The interpreted program and the C listing share one loop IR
           (and the JIT compiles that listing). *)
        let nplan, source =
          try
            let ir = Loop.lower cat ~params:param_types plan in
            (Nplan.compile ?trace ir, Codegen_c.emit_lowered ir)
          with
          | Catalog.Not_flat table ->
            Engine_intf.unsupported
              "source %S is not an array of structs (flat schema required, §5)" table
          | Lq_expr.Typecheck.Type_error msg -> Engine_intf.unsupported "%s" msg
        in
        let codegen_ms = Profile.now_ms () -. start in
        { Engine_intf.execute = Nplan.execute nplan; codegen_ms; source = Some source });
  }
