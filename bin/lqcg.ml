(* lqcg — command-line front end to the query-compilation library.

   Subcommands:
     engines              list execution strategies
     tables  [--sf]       generate TPC-H data and show cardinalities
     run     [-e] [-q]    run a TPC-H query on an engine
     plan    [-e] [-q]    show the optimized tree and generated source
     explain [-e] [-q]    show the lowered physical plan + capability verdict
                          (--trace adds a traced run's span tree)
     profile [-e] [-q]    run under the cache simulator
     trace   [QUERY]      run one query through the service with tracing on
                          and print the span tree (+ Chrome JSON via --out)
     serve   [...]        run a load-generated workload against the
                          multi-Domain query service (--trace-sample /
                          --trace-out export the slowest sampled traces) *)

open Cmdliner
open Lq_value
module Engine_intf = Lq_catalog.Engine_intf

let sf_arg =
  Arg.(value & opt float 0.01 & info [ "sf" ] ~docv:"SF" ~doc:"TPC-H scale factor.")

let engine_arg =
  Arg.(
    value
    & opt string "compiled-c"
    & info [ "e"; "engine" ] ~docv:"ENGINE" ~doc:"Execution strategy (see $(b,engines)).")

(* Single source of truth for the query surface: the paper trio, the
   correlated Q2 variant, and whatever Queries.extended grows to — the
   help text and the error message both derive from it, so new queries
   can't drift out of either. *)
let query_catalog =
  Lq_tpch.Queries.all
  @ [ ("Q2corr", Lq_tpch.Queries.q2_correlated) ]
  @ Lq_tpch.Queries.extended

let query_names = String.concat ", " (List.map fst query_catalog)

let query_arg =
  Arg.(
    value
    & opt string "Q1"
    & info [ "q"; "query" ] ~docv:"QUERY"
        ~doc:(Printf.sprintf "TPC-H query: %s." query_names))

let resolve_engine name =
  match Lq_core.Engines.by_name name with
  | Some e -> e
  | None ->
    Printf.eprintf "unknown engine %S (try `lqcg engines`)\n" name;
    exit 2

let resolve_query name =
  let target = String.uppercase_ascii name in
  match
    List.find_opt (fun (n, _) -> String.uppercase_ascii n = target) query_catalog
  with
  | Some (_, q) -> q
  | None ->
    Printf.eprintf "unknown query %S (%s)\n" name query_names;
    exit 2

let load sf =
  let catalog = Lq_tpch.Dbgen.load ~sf () in
  (catalog, Lq_core.Provider.create catalog)

let engines_cmd =
  let doc = "List the execution strategies." in
  let run () =
    List.iter
      (fun (e : Engine_intf.t) -> Printf.printf "%-28s %s\n" e.name e.describe)
      Lq_core.Engines.all
  in
  Cmd.v (Cmd.info "engines" ~doc) Term.(const run $ const ())

let tables_cmd =
  let doc = "Generate TPC-H data and print table cardinalities." in
  let run sf =
    let catalog, _ = load sf in
    List.iter
      (fun name ->
        let t = Lq_catalog.Catalog.table catalog name in
        Printf.printf "%-10s %8d rows   flat:%b\n" name
          (Lq_catalog.Catalog.row_count t)
          (Lq_catalog.Catalog.is_flat t))
      (Lq_catalog.Catalog.names catalog)
  in
  Cmd.v (Cmd.info "tables" ~doc) Term.(const run $ sf_arg)

let run_cmd =
  let doc = "Run a TPC-H query on an engine." in
  let run sf engine_name query_name =
    (match Sys.getenv_opt "LQ_FAULT_SPEC" with
    | None -> ()
    | Some s -> (
      match Lq_fault.Inject.parse_spec s with
      | Ok spec ->
        Lq_fault.Inject.enable spec;
        Printf.printf "fault injection armed: %s\n%!" (Lq_fault.Inject.spec_to_string spec)
      | Error msg ->
        Printf.eprintf "bad fault spec: %s\n" msg;
        exit 2));
    let _, provider = load sf in
    let engine = resolve_engine engine_name in
    let query = resolve_query query_name in
    match
      Lq_core.Provider.run provider ~engine ~params:Lq_tpch.Queries.extended_params query
    with
    | exception Engine_intf.Unsupported msg -> Printf.printf "unsupported: %s\n" msg
    | rows ->
      (* Words allocated on this Domain by the warm run: minor (exact,
         where [Gc.counters] lags to the last minor collection), and major
         words allocated directly (not promoted from the minor heap). *)
      let minor0 = Gc.minor_words () in
      let _, promoted0, major0 = Gc.counters () in
      let t0 = Lq_metrics.Profile.now_ms () in
      let rows2 =
        Lq_core.Provider.run provider ~engine ~params:Lq_tpch.Queries.extended_params
          query
      in
      let ms = Lq_metrics.Profile.now_ms () -. t0 in
      let minor1 = Gc.minor_words () in
      let _, promoted1, major1 = Gc.counters () in
      ignore rows;
      Printf.printf "%d rows in %.1f ms (warm plan)\n" (List.length rows2) ms;
      Printf.printf "alloc: %.0f minor + %.0f direct-major words per execution (warm plan)\n"
        (minor1 -. minor0)
        (major1 -. major0 -. (promoted1 -. promoted0));
      List.iter (fun r -> Printf.printf "%s\n" (Value.to_string r)) rows2;
      Printf.printf "\n%s" (Lq_core.Provider.report provider)
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ sf_arg $ engine_arg $ query_arg)

let plan_cmd =
  let doc = "Show the optimized expression tree and the generated source." in
  let run sf engine_name query_name =
    let _, provider = load sf in
    let engine = resolve_engine engine_name in
    let query = resolve_query query_name in
    Printf.printf "=== optimized expression tree ===\n%s\n\n"
      (Lq_expr.Pretty.query_to_string (Lq_core.Provider.optimized provider query));
    (try
       Printf.printf "=== equivalent SQL ===\n%s\n\n" (Lq_expr.Sql.to_sql query)
     with Lq_expr.Sql.Not_representable msg ->
       Printf.printf "=== equivalent SQL === (not representable: %s)\n\n" msg);
    match Lq_core.Provider.prepare_only provider ~engine query with
    | exception Engine_intf.Unsupported msg -> Printf.printf "unsupported: %s\n" msg
    | prepared, _ -> (
      Printf.printf "=== code generation: %.2f ms ===\n" prepared.Engine_intf.codegen_ms;
      match prepared.Engine_intf.source with
      | Some src -> print_endline src
      | None -> print_endline "(interpreted engine: no generated source)")
  in
  Cmd.v (Cmd.info "plan" ~doc) Term.(const run $ sf_arg $ engine_arg $ query_arg)

(* One traced provider run: installs a fresh span tree, executes, and
   returns the finished trace (also noted in the slow-query ring). *)
let traced_run provider ~engine ~label query =
  let tr = Lq_trace.Trace.start ~label () in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Lq_trace.Trace.finish tr;
        Lq_trace.Trace.Ring.note Lq_trace.Trace.slow_log tr)
      (fun () ->
        Lq_trace.Trace.with_trace tr (fun () ->
            Lq_core.Provider.run provider ~engine ~params:Lq_tpch.Queries.extended_params
              query))
  in
  (tr, result)

let explain_cmd =
  let doc = "Show the lowered physical plan and the engine's capability verdict." in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Also run the query once with tracing on and print the span tree.")
  in
  let run sf engine_name query_name with_trace =
    let _, provider = load sf in
    let engine = resolve_engine engine_name in
    let query = resolve_query query_name in
    let rendered, verdict = Lq_core.Provider.explain provider ~engine query in
    Printf.printf "=== physical plan (shared lowering) ===\n%s\n" rendered;
    (match verdict with
    | Ok () -> Printf.printf "engine %s: supported\n" engine.Engine_intf.name
    | Error reason ->
      Printf.printf "engine %s: unsupported — %s\n" engine.Engine_intf.name reason);
    if with_trace then
      match traced_run provider ~engine ~label:query_name query with
      | exception Engine_intf.Unsupported msg -> Printf.printf "unsupported: %s\n" msg
      | tr, rows ->
        Printf.printf "\n=== trace (%d rows) ===\n%s" (List.length rows)
          (Lq_trace.Tree.to_string tr)
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run $ sf_arg $ engine_arg $ query_arg $ trace_arg)

let profile_cmd =
  let doc = "Run a query under the trace-driven cache simulator." in
  let run sf engine_name query_name =
    let _, provider = load sf in
    let engine = resolve_engine engine_name in
    let query = resolve_query query_name in
    let hierarchy = Lq_cachesim.Hierarchy.default () in
    match
      Lq_core.Provider.run_instrumented provider ~engine
        ~params:Lq_tpch.Queries.extended_params hierarchy query
    with
    | exception Engine_intf.Unsupported msg -> Printf.printf "unsupported: %s\n" msg
    | rows ->
      Printf.printf "%d rows\n%s\n" (List.length rows)
        (Lq_cachesim.Hierarchy.report hierarchy)
  in
  Cmd.v (Cmd.info "profile" ~doc) Term.(const run $ sf_arg $ engine_arg $ query_arg)

let trace_cmd =
  let doc =
    "Run one query through the query service with tracing forced on, print the \
     span tree and the phase breakdown of the completing attempt."
  in
  let query_pos =
    Arg.(
      value & pos 0 string "Q1"
      & info [] ~docv:"QUERY" ~doc:(Printf.sprintf "TPC-H query: %s." query_names))
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the trace as Chrome trace_event JSON (loadable in \
             chrome://tracing and Perfetto).")
  in
  let run sf engine_name query_name out =
    let _, provider = load sf in
    let engine = resolve_engine engine_name in
    let query = resolve_query query_name in
    let config = { Lq_service.Service.default_config with domains = 1 } in
    let svc = Lq_service.Service.create ~config provider in
    let result =
      Lq_service.Service.run_sync svc ~label:query_name ~engine
        ~params:Lq_tpch.Queries.extended_params ~trace:true query
    in
    Lq_service.Service.shutdown svc;
    match result with
    | Error rej ->
      Printf.eprintf "rejected: %s\n" (Lq_service.Service.rejection_to_string rej);
      exit 1
    | Ok resp -> (
      Printf.printf "%s\n" (Lq_service.Request.response_to_string resp);
      match resp.Lq_service.Request.trace with
      | None -> print_endline "(no trace recorded)"
      | Some tr ->
        Printf.printf "\n%s" (Lq_trace.Tree.to_string tr);
        (match Lq_service.Request.phases resp with
        | [] -> ()
        | phases ->
          Printf.printf "\n== phases (completing attempt) ==\n";
          List.iter (fun (name, ms) -> Printf.printf "%-28s %10.3f ms\n" name ms) phases);
        (match out with
        | None -> ()
        | Some path ->
          Lq_trace.Chrome.write_file ~path [ tr ];
          Printf.printf "chrome trace written to %s\n" path))
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ sf_arg $ engine_arg $ query_pos $ out_arg)

let serve_cmd =
  let doc =
    "Serve a TPC-H workload through the multi-Domain query service and report \
     latency, throughput, degradation and cache behaviour."
  in
  let domains_arg =
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N" ~doc:"Worker Domains.")
  in
  let queue_arg =
    Arg.(
      value
      & opt int 32
      & info [ "queue" ] ~docv:"DEPTH" ~doc:"Admission queue capacity (load shed beyond).")
  in
  let rate_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "rate" ] ~docv:"REQ/S"
          ~doc:"Open-loop Poisson arrival rate; 0 selects the closed loop.")
  in
  let clients_arg =
    Arg.(
      value
      & opt int 8
      & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop client Domains.")
  in
  let requests_arg =
    Arg.(
      value
      & opt int 400
      & info [ "n"; "requests" ] ~docv:"N"
          ~doc:"Total requests (split across clients in closed-loop mode).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request deadline; 0 means none.")
  in
  let chaos_arg =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Arm a default seeded fault-injection spec (codegen + execute + staging \
             faults) to exercise retries, fallback and the circuit breakers.")
  in
  let fault_spec_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-spec" ] ~docv:"SPEC"
          ~doc:
            "Explicit fault-injection spec, e.g. \
             'seed=42;provider/execute=0.05:transient'. Overrides $(b,--chaos) and the \
             LQ_FAULT_SPEC environment variable.")
  in
  let max_rows_arg =
    Arg.(
      value
      & opt int 0
      & info [ "max-rows" ] ~docv:"N"
          ~doc:"Per-request row budget (staged + materialized); 0 means unlimited.")
  in
  let max_bytes_arg =
    Arg.(
      value
      & opt int 0
      & info [ "max-bytes" ] ~docv:"N"
          ~doc:"Per-request staged-byte budget; 0 means unlimited.")
  in
  let trace_sample_arg =
    Arg.(
      value
      & opt float 0.0
      & info [ "trace-sample" ] ~docv:"P"
          ~doc:
            "Head-sample this fraction of requests with a span tree (0 disables; \
             defaults to 1 when $(b,--trace-out) is given).")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "After the run, write the slowest sampled traces as Chrome trace_event \
             JSON (chrome://tracing / Perfetto).")
  in
  let default_chaos_spec =
    "seed=42;provider/prepare=0.05:codegen;provider/execute=0.05:transient;hybrid/staging=0.05:transient"
  in
  let run sf engine_name domains queue rate clients requests deadline_ms chaos fault_spec
      max_rows max_bytes trace_sample trace_out =
    (match
       match (fault_spec, chaos, Sys.getenv_opt "LQ_FAULT_SPEC") with
       | Some s, _, _ -> Some s
       | None, true, _ -> Some default_chaos_spec
       | None, false, env -> env
     with
    | None -> ()
    | Some s -> (
      match Lq_fault.Inject.parse_spec s with
      | Ok spec ->
        Lq_fault.Inject.enable spec;
        Printf.printf "fault injection armed: %s\n%!" (Lq_fault.Inject.spec_to_string spec)
      | Error msg ->
        Printf.eprintf "bad fault spec: %s\n" msg;
        exit 2));
    let catalog = Lq_tpch.Dbgen.load ~sf () in
    let provider = Lq_core.Provider.create ~recycle_results:true catalog in
    let engine = resolve_engine engine_name in
    let budget =
      {
        Lq_fault.Governor.max_rows = (if max_rows > 0 then Some max_rows else None);
        max_bytes = (if max_bytes > 0 then Some max_bytes else None);
      }
    in
    let trace_sample =
      if trace_sample <= 0.0 && trace_out <> None then 1.0 else trace_sample
    in
    let sampler =
      if trace_sample > 0.0 then
        Some (Lq_trace.Trace.Sampler.create ~p:trace_sample ())
      else None
    in
    let config =
      {
        Lq_service.Service.default_config with
        domains;
        queue_capacity = queue;
        budget;
        sampler;
      }
    in
    let svc = Lq_service.Service.create ~config provider in
    let workload =
      Lq_tpch.Workloads.service_mix
      |> List.map (fun (label, q, params_of) ->
             Lq_service.Loadgen.item ~engine ~params_of label q)
      |> Array.of_list
    in
    let arrival =
      if rate > 0.0 then Lq_service.Loadgen.Open { rate_per_s = rate; total = requests }
      else
        Lq_service.Loadgen.Closed
          {
            clients;
            requests_per_client = max 1 (requests / max 1 clients);
          }
    in
    let deadline_ms = if deadline_ms > 0.0 then Some deadline_ms else None in
    Printf.printf "serving %d-item TPC-H mix on %d Domain(s), queue %d, engine %s (%s)\n%!"
      (Array.length workload) domains queue engine.Engine_intf.name
      (match arrival with
      | Lq_service.Loadgen.Open { rate_per_s; total } ->
        Printf.sprintf "open loop: %.0f req/s, %d requests" rate_per_s total
      | Lq_service.Loadgen.Closed { clients; requests_per_client } ->
        Printf.sprintf "closed loop: %d clients x %d requests" clients
          requests_per_client);
    let report = Lq_service.Loadgen.run ?deadline_ms ~workload arrival svc in
    Lq_service.Service.shutdown svc;
    Printf.printf "\n== load report ==\n%s" (Lq_service.Loadgen.to_string report);
    Printf.printf "\n== service (post-shutdown) ==\n%s" (Lq_service.Service.report svc);
    if Lq_fault.Inject.enabled () then
      Printf.printf "\n== fault injection ==\n%s" (Lq_fault.Inject.report ());
    (match trace_out with
    | None -> ()
    | Some path -> (
      match Lq_trace.Trace.Ring.slowest Lq_trace.Trace.slow_log with
      | [] -> Printf.printf "\nno sampled traces to export\n"
      | traces ->
        Lq_trace.Chrome.write_file ~path traces;
        Printf.printf "\n%d slowest sampled trace(s) written to %s\n"
          (List.length traces) path));
    if not (Lq_service.Loadgen.conserved report) then begin
      Printf.eprintf "request accounting NOT conserved\n";
      exit 1
    end
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ sf_arg $ engine_arg $ domains_arg $ queue_arg $ rate_arg $ clients_arg
      $ requests_arg $ deadline_arg $ chaos_arg $ fault_spec_arg $ max_rows_arg
      $ max_bytes_arg $ trace_sample_arg $ trace_out_arg)

let () =
  let doc = "query compilation for managed runtimes (VLDB 2014 reproduction)" in
  let info = Cmd.info "lqcg" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            engines_cmd; tables_cmd; run_cmd; plan_cmd; explain_cmd; profile_cmd;
            trace_cmd; serve_cmd;
          ]))
