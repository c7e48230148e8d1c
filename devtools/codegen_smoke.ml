(* C-emission smoke: render the generated C for every extended-TPC-H
   query (plus Q2corr, which must render as a stub rather than crash)
   and push each supported emission through `cc -fsyntax-only`. Each
   query is emitted in two forms: with its constants as literals, and
   parameterized — every constant a register, typed from its binding —
   as compiled-c-jit prepares it through the provider. The emitter's
   claim is that its output is real C, not a listing — this is the check
   that keeps it honest without linking or executing anything.

   Exit 0: every supported plan's emission compiles (stubs are reported
   but don't fail). Exit 1: cc rejected an emission. Exit 77-style loud
   skip when no C compiler is on PATH. *)

module Catalog = Lq_catalog.Catalog

let cc () =
  match Sys.getenv_opt "LQ_CC" with
  | Some cc -> cc
  | None -> "cc"

let cc_available () =
  Sys.command (Printf.sprintf "command -v %s >/dev/null 2>&1" (cc ())) = 0

let syntax_check name source =
  let path = Filename.temp_file "lq_codegen_smoke" ".c" in
  let oc = open_out path in
  output_string oc source;
  close_out oc;
  let log = path ^ ".log" in
  let rc =
    Sys.command
      (Printf.sprintf "%s -std=c11 -fsyntax-only %s > %s 2>&1"
         (cc ()) (Filename.quote path) (Filename.quote log))
  in
  if rc <> 0 then begin
    Printf.eprintf "FAIL %s: cc -fsyntax-only rejected the emission\n" name;
    let ic = open_in log in
    (try
       while true do
         prerr_endline (input_line ic)
       done
     with End_of_file -> ());
    close_in ic;
    Printf.eprintf "--- emission kept at %s\n" path;
    Sys.remove log;
    false
  end
  else begin
    Sys.remove path;
    Sys.remove log;
    true
  end

let () =
  if not (cc_available ()) then begin
    print_endline "codegen smoke SKIPPED: no C compiler on PATH";
    exit 0
  end;
  let cat = Lq_tpch.Dbgen.load ~sf:0.001 () in
  let queries =
    Lq_tpch.Queries.all
    @ Lq_tpch.Queries.extended
    @ [ ("Q2corr", Lq_tpch.Queries.q2_correlated) ]
  in
  let prov = Lq_core.Provider.create cat in
  let failures = ref 0 in
  let stubs = ref 0 in
  let emissions = ref 0 in
  let emit name param_types q =
    incr emissions;
    match Lq_native.Loop.lower cat ~params:param_types (Lq_plan.Lower.lower cat q) with
    | exception _ ->
      incr stubs;
      Printf.printf "  %-16s stub (does not lower)\n" name
    | ir -> (
      match Lq_native.Codegen_c.emit_plan ir with
      | exception Lq_native.Codegen_c.Unsupported_c reason ->
        incr stubs;
        Printf.printf "  %-16s stub (%s)\n" name reason
      | prog ->
        if syntax_check name prog.Lq_native.Codegen_c.c_source then
          Printf.printf "  %-16s ok (%d tables, %d int regs, %d float regs)\n" name
            (List.length prog.Lq_native.Codegen_c.scan_tables)
            (List.length prog.Lq_native.Codegen_c.int_params)
            (List.length prog.Lq_native.Codegen_c.float_params)
        else incr failures)
  in
  List.iter
    (fun (name, q) ->
      let front = Lq_core.Provider.front_end prov ~params:Lq_tpch.Queries.extended_params q in
      let param_types = Lq_core.Provider.param_types prov front in
      emit (name ^ " literal") param_types q;
      emit (name ^ " param") param_types front.Lq_core.Provider.parameterized)
    queries;
  Printf.printf "codegen smoke: %d queries, %d emissions, %d stubs, %d failures\n"
    (List.length queries) !emissions !stubs !failures;
  if !failures > 0 then exit 1
