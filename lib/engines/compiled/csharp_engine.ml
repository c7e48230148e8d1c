module Engine_intf = Lq_catalog.Engine_intf
module Profile = Lq_metrics.Profile

let make ~name ~describe options : Engine_intf.t =
  {
    Engine_intf.name;
    describe;
    (* The generated C# cannot re-enter the interpreter mid-loop, so
       correlated sub-queries are refused at plan time (§7.5). *)
    caps = { Engine_intf.caps_any with supports_correlated = false };
    prepare =
      (fun ?instr cat ~param_types:_ query ->
        let start = Profile.now_ms () in
        let plan = Plan.compile ~options ?instr cat query in
        let source = Codegen_cs.emit query in
        let codegen_ms = Profile.now_ms () -. start in
        {
          Engine_intf.execute = (fun ~params () -> Plan.execute plan ~params);
          codegen_ms;
          source = Some source;
        });
  }

let engine =
  make ~name:"compiled-csharp"
    ~describe:"generated C#: fused loops, compiled predicates, boxed values"
    Options.default

let engine_with options =
  make
    ~name:(Printf.sprintf "compiled-csharp[%s]" (Options.to_string options))
    ~describe:"generated C# with explicit codegen options" options
