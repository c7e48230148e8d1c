(* The allocation guard of the closure tier: a warm [compiled-c] execution
   allocates a constant plus a few words per result row, and nothing per
   input row. Floats live in the plan's register file, hash probes return
   immediates, so the row loops never touch the heap; only the boxed
   result rows do.

   The guard runs in whatever profile [dune runtest] uses. The dev
   profile compiles repository modules with [-opaque], so nothing from
   [Lq_storage] inlines into [Nplan]: a float passed across that boundary
   would show up here as two words per row. *)

module Engine_intf = Lq_catalog.Engine_intf
module Queries = Lq_tpch.Queries

let sf = 0.002
let cat = Lq_tpch.Dbgen.load ~sf ()
let prov = Lq_core.Provider.create cat
let params = Queries.extended_params
let lineitem_rows = Lq_catalog.Catalog.row_count (Lq_catalog.Catalog.table cat "lineitem")

(* Words allocated on this Domain: minor plus direct-major (major words
   that were not promoted out of the minor heap). The minor count is
   [Gc.minor_words]: in OCaml 5.1 [Gc.counters] counts the minor heap's
   words only at each minor collection, so a collection inside the
   measured window would charge it with everything allocated since the
   previous one. *)
let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. (major -. promoted)

(* Per-execution words of a warm plan, averaged over [reps] executions. *)
let per_execution (prepared : Engine_intf.prepared) ~params ~reps =
  ignore (prepared.Engine_intf.execute ~params () : Lq_value.Value.t list);
  let rows = ref 0 in
  let w0 = words () in
  for _ = 1 to reps do
    rows := List.length (prepared.Engine_intf.execute ~params ())
  done;
  let w1 = words () in
  ((w1 -. w0) /. float_of_int reps, !rows)

(* A constant for the execution's set-up (parameter binding, the boxed
   result list, the per-execution sink closures) plus a small budget per
   boxed result row. *)
let constant_words = 1024.0
let words_per_result_row = 32.0

(* The plan a request runs: prepared from the provider's parameterized
   front end, its constants bound as registers at execute. *)
let guard name query () =
  let front = Lq_core.Provider.front_end prov ~params query in
  let prepared =
    Lq_core.Engines.compiled_c.Engine_intf.prepare cat
      ~param_types:(Lq_core.Provider.param_types prov front)
      front.Lq_core.Provider.plan
  in
  let w, rows = per_execution prepared ~params:(front.Lq_core.Provider.bindings @ params) ~reps:5 in
  Printf.printf "%s %.1f words, %d rows\n" name w rows;
  let bound = constant_words +. (words_per_result_row *. float_of_int rows) in
  if w > bound then
    Alcotest.failf "%s: %.0f words per execution over %d lineitem rows (%d result rows); bound %.0f"
      name w lineitem_rows rows bound

let () =
  Alcotest.run "alloc"
    [
      ( "compiled-c",
        List.map
          (fun (name, q) -> Alcotest.test_case name `Quick (guard name q))
          [ ("Q1", Queries.q1); ("Q6", Queries.q6); ("Q14", Queries.q14) ] );
    ]
