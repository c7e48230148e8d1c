module Engine_intf = Lq_catalog.Engine_intf
module Profile = Lq_metrics.Profile

(* [options], when given, re-lowers the plan under ablation flags; the
   default engine prepares the plan it is handed. *)
let make ~name ~describe ?options () : Engine_intf.t =
  {
    Engine_intf.name;
    describe;
    (* The generated C# cannot re-enter the interpreter mid-loop, so
       correlated sub-queries are refused at plan time (§7.5). *)
    caps = { Engine_intf.caps_any with supports_correlated = false };
    prepare =
      (fun ?instr cat ~param_types:_ plan ->
        let start = Profile.now_ms () in
        let query = Lq_plan.Plan.to_ast plan in
        let plan =
          match options with
          | None -> plan
          | Some options -> Lq_plan.Lower.lower ~options cat query
        in
        let compiled = Plan.compile ?instr cat plan in
        let source = Codegen_cs.emit query in
        let codegen_ms = Profile.now_ms () -. start in
        {
          Engine_intf.execute = (fun ~params () -> Plan.execute compiled ~params);
          codegen_ms;
          source = Some source;
        });
  }

let engine =
  make ~name:"compiled-csharp"
    ~describe:"generated C#: fused loops, compiled predicates, boxed values" ()

let engine_with options =
  make
    ~name:(Printf.sprintf "compiled-csharp[%s]" (Lq_plan.Options.to_string options))
    ~describe:"generated C# with explicit codegen options" ~options ()
