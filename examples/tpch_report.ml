(* TPC-H report: load a generated dataset and run Q1–Q3 on a chosen
   engine, printing results, plan listings and timings — the §7 setup as a
   runnable program.

     dune exec examples/tpch_report.exe -- [engine] [sf]
     dune exec examples/tpch_report.exe -- compiled-c 0.01 *)

open Lq_value
module Engine_intf = Lq_catalog.Engine_intf

let () =
  let engine_name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "hybrid-csharp-c[max]" in
  let sf = if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 0.01 in
  let engine =
    match Lq_core.Engines.by_name engine_name with
    | Some e -> e
    | None ->
      Printf.eprintf "unknown engine %S; available:\n" engine_name;
      List.iter
        (fun (e : Engine_intf.t) -> Printf.eprintf "  %-28s %s\n" e.name e.describe)
        Lq_core.Engines.all;
      exit 2
  in
  Printf.printf "loading TPC-H at scale factor %.3f...\n%!" sf;
  let t0 = Unix.gettimeofday () in
  let catalog = Lq_tpch.Dbgen.load ~sf () in
  Printf.printf "loaded in %.0f ms (%s)\n%!"
    ((Unix.gettimeofday () -. t0) *. 1000.0)
    (String.concat ", "
       (List.map
          (fun name ->
            Printf.sprintf "%s: %d" name
              (Lq_catalog.Catalog.row_count (Lq_catalog.Catalog.table catalog name)))
          (Lq_catalog.Catalog.names catalog)));
  let provider = Lq_core.Provider.create catalog in
  let params = Lq_tpch.Queries.default_params in
  List.iter
    (fun (qname, q) ->
      Printf.printf "\n===== %s on %s =====\n%!" qname engine.Engine_intf.name;
      match Lq_core.Provider.prepare_only provider ~engine q with
      | exception Engine_intf.Unsupported msg ->
        Printf.printf "unsupported: %s\n" msg
      | prepared, _ ->
        Printf.printf "code generation: %.2f ms\n" prepared.Engine_intf.codegen_ms;
        (* A traced run (the prepared plan is now cached): the phase
           breakdown is a fold over its spans. *)
        let trace = Lq_trace.Trace.start ~label:qname () in
        let t0 = Unix.gettimeofday () in
        let rows =
          Lq_trace.Trace.with_trace trace (fun () ->
              Lq_core.Provider.run provider ~engine ~params q)
        in
        let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
        Lq_trace.Trace.finish trace;
        Printf.printf "executed in %.1f ms, %d result rows; first rows:\n" ms
          (List.length rows);
        List.iteri
          (fun i r -> if i < 4 then Printf.printf "  %s\n" (Value.to_string r))
          rows;
        Printf.printf "phase breakdown:\n";
        List.iter
          (fun (name, ms) -> Printf.printf "%-28s %10.3f ms\n" name ms)
          (Lq_trace.Trace.phases trace))
    Lq_tpch.Queries.all
