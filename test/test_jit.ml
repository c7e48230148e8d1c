(* The native JIT: differential correctness against the reference
   interpreter, artifact-cache behaviour (a repeated prepare never pays a
   second cc run), the async recurrence rule (a compile is queued by a
   plan's second execution, once), tier hot-swap under concurrent
   executions, the chaos path (injected compiler failure degrades to the
   interpreted tier / typed Codegen_error through the service ladder
   with zero failed requests), and the bounded on-disk cache (eviction,
   startup sweep, dropping cleanup).

   Every test that needs a real compiler skips loudly when none is on
   PATH; the suite stays green on compiler-less machines. *)

open Lq_value
module Engine_intf = Lq_catalog.Engine_intf
module Backend = Lq_jit.Backend
module Tier = Lq_jit.Tier
module Counters = Lq_metrics.Counters

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let count name = Counters.count Backend.counters name

(* Isolate this binary's artifacts from any shared cache directory. *)
let fresh_cache_dir () =
  let dir = Filename.temp_file "lq_jit_test" ".cache" in
  Sys.remove dir;
  Unix.putenv "LQ_JIT_CACHE_DIR" dir;
  Backend.reset_for_tests ();
  dir

let () = ignore (fresh_cache_dir ())
let jit = Lq_core.Engines.compiled_c_jit
let oracle_cat () = Lq_tpch.Dbgen.load ~sf:0.01 ()

let with_env pairs f =
  let saved = List.map (fun (k, _) -> (k, Sys.getenv_opt k)) pairs in
  List.iter (fun (k, v) -> Unix.putenv k v) pairs;
  Fun.protect
    ~finally:(fun () ->
      (* Unix.putenv cannot unset; restore to a recognized-off value. *)
      List.iter (fun (k, old) -> Unix.putenv k (Option.value old ~default:"")) saved)
    f

let requires_cc f () =
  if not (Backend.cc_available ()) then print_endline "SKIPPED: no C compiler on PATH" else f ()

let rows_equal a b = List.length a = List.length b && List.for_all2 Value.equal a b

(* Polls [ready] every 50 ms; fails the test if it does not hold within
   30 s. For what the background compile worker does. *)
let wait_until what ready =
  let deadline = Unix.gettimeofday () +. 30. in
  let rec go () =
    if not (ready ()) then
      if Unix.gettimeofday () > deadline then Alcotest.failf "%s never happened" what
      else begin
        Unix.sleepf 0.05;
        go ()
      end
  in
  go ()

(* Artifacts obtained for a digest, whether built or found in a cache. *)
let artifacts () =
  count "service/jit/compiles" + count "service/jit/cache_hit_mem"
  + count "service/jit/cache_hit_disk"

(* --- differential: every TPC-H query, sync-compiled, vs reference ----- *)

let test_differential_tpch () =
  with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] (fun () ->
    let cat = oracle_cat () in
    let prov = Lq_core.Provider.create cat in
    let params = Lq_tpch.Queries.default_params @ Lq_tpch.Queries.extended_params in
    List.iter
      (fun (name, q) ->
        let before = count "service/jit/exec_jit" in
        let expected = Lq_core.Provider.reference prov ~params q in
        let got = Lq_core.Provider.run prov ~engine:jit ~params q in
        check_bool (name ^ ": jit rows = reference rows") true (rows_equal expected got);
        check_bool (name ^ ": served from the jit tier") true
          (count "service/jit/exec_jit" > before))
      (Lq_tpch.Queries.all @ Lq_tpch.Queries.extended))

(* --- random differential over the sales catalog ----------------------- *)

let prop_random_differential =
  Lq_testkit.qtest ~count:80 "differential: compiled-c-jit agrees with reference (sync)"
    Lq_testkit.gen_query (fun q ->
      if not (Backend.cc_available ()) then true
      else
        with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] (fun () ->
          let cat = Lq_testkit.sales_catalog () in
          match Lq_testkit.engine_agrees_with_reference cat jit q with
          | `Agree | `Unsupported -> true
          | `Disagree _ -> false))

(* --- cache: a repeated prepare never pays a second cc run -------------- *)

let test_cache_hits () =
  with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] (fun () ->
    let dir = fresh_cache_dir () in
    let cat = oracle_cat () in
    let params = Lq_tpch.Queries.default_params in
    let q = Lq_tpch.Queries.q1 in
    let run () =
      let p = Lq_testkit.prepare cat jit q in
      p.Engine_intf.execute ~params ()
    in
    let compiles0 = count "service/jit/compiles" in
    let r1 = run () in
    check_int "first prepare compiles once" (compiles0 + 1) (count "service/jit/compiles");
    let mem0 = count "service/jit/cache_hit_mem" in
    let r2 = run () in
    check_int "second prepare: no new cc run" (compiles0 + 1) (count "service/jit/compiles");
    check_bool "second prepare: memory hit" true (count "service/jit/cache_hit_mem" > mem0);
    check_bool "same rows from both artifacts" true (rows_equal r1 r2);
    (* Drop the in-memory cache: the third prepare must load the .so from
       disk, still without compiling. *)
    Unix.putenv "LQ_JIT_CACHE_DIR" dir;
    Backend.reset_for_tests ();
    let disk0 = count "service/jit/cache_hit_disk" in
    let r3 = run () in
    check_int "disk-cached prepare: no new cc run" (compiles0 + 1) (count "service/jit/compiles");
    check_bool "disk hit recorded" true (count "service/jit/cache_hit_disk" > disk0);
    check_bool "disk artifact rows agree" true (rows_equal r1 r3);
    (* Only durable cache inhabitants may remain: artifacts, their
       integrity manifests, and the validation runner — no .c/.err/.tmp
       droppings from the compile or the sandbox. *)
    check_bool "no build droppings left behind" true
      (Array.for_all
         (fun f ->
           Filename.check_suffix f ".so"
           || Filename.check_suffix f ".so.manifest"
           || Filename.check_suffix f ".exe")
         (Sys.readdir dir));
    check_bool "integrity manifest written at cache-insert" true
      (Array.exists (fun f -> Filename.check_suffix f ".so.manifest") (Sys.readdir dir)))

(* --- tiering: async compiles wait for the shape to recur ---------------- *)

let test_compile_on_recurrence () =
  with_env [ ("LQ_JIT_MODE", "async"); ("LQ_JIT", "on") ] (fun () ->
    ignore (fresh_cache_dir ());
    let cat = oracle_cat () in
    let prov = Lq_core.Provider.create cat in
    let params = Lq_tpch.Queries.default_params in
    let q = Lq_tpch.Queries.q1 in
    let expected = Lq_core.Provider.reference prov ~params q in
    let queued () = count "service/jit/queued" in
    let queued0 = queued () in
    let prepared = Lq_testkit.prepare cat jit q in
    let run () =
      check_bool "rows = reference" true
        (rows_equal expected (prepared.Engine_intf.execute ~params ()))
    in
    check_int "prepare queues no compile" queued0 (queued ());
    run ();
    check_int "a first execution queues no compile" queued0 (queued ());
    run ();
    check_int "the second execution queues one compile" (queued0 + 1) (queued ());
    let jit0 = count "service/jit/exec_jit" in
    wait_until "promotion to the jit tier" (fun () ->
      run ();
      count "service/jit/exec_jit" > jit0);
    check_int "later executions queue nothing more" (queued0 + 1) (queued ()))

(* --- tiering: async hot-swap under a 4-Domain execution storm ---------- *)

let test_hot_swap_storm () =
  with_env [ ("LQ_JIT_MODE", "async"); ("LQ_JIT", "on") ] (fun () ->
    ignore (fresh_cache_dir ());
    let cat = oracle_cat () in
    let prov = Lq_core.Provider.create cat in
    let params = Lq_tpch.Queries.default_params in
    let q = Lq_tpch.Queries.q1 in
    let expected = Lq_core.Provider.reference prov ~params q in
    let queued0 = count "service/jit/queued" in
    let artifacts0 = artifacts () in
    let prepared = Lq_testkit.prepare cat jit q in
    let bad = Atomic.make 0 in
    let execs_per_domain = 60 in
    let worker () =
      for _ = 1 to execs_per_domain do
        let rows = prepared.Engine_intf.execute ~params () in
        if not (rows_equal expected rows) then Atomic.incr bad
      done
    in
    let domains = List.init 4 (fun _ -> Domain.spawn worker) in
    List.iter Domain.join domains;
    check_int "no torn or divergent executions during the swap" 0 (Atomic.get bad);
    check_int "racing executions queue exactly one compile" (queued0 + 1)
      (count "service/jit/queued");
    (* The background compile must land eventually; poll briefly, then
       confirm the jit tier actually serves. *)
    let jit0 = count "service/jit/exec_jit" in
    wait_until "the compile landing (tier stuck interpreted)" (fun () ->
      let rows = prepared.Engine_intf.execute ~params () in
      check_bool "post-swap rows agree" true (rows_equal expected rows);
      count "service/jit/exec_jit" > jit0);
    check_int "one artifact for the storm" (artifacts0 + 1) (artifacts ()))

(* --- chaos: injected compiler failure --------------------------------- *)

let inject_spec = "seed=7;jit/compile=1:codegen"

let with_injection spec f =
  match Lq_fault.Inject.parse_spec spec with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
    Lq_fault.Inject.enable s;
    Fun.protect ~finally:Lq_fault.Inject.disable f

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_chaos_sync_typed_failure () =
  with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] (fun () ->
    ignore (fresh_cache_dir ());
    (match Lq_fault.Inject.parse_spec inject_spec with
    | Ok spec -> Lq_fault.Inject.enable spec
    | Error msg -> Alcotest.fail msg);
    Fun.protect ~finally:Lq_fault.Inject.disable (fun () ->
      let cat = oracle_cat () in
      match Lq_testkit.prepare cat jit Lq_tpch.Queries.q1 with
      | _ -> Alcotest.fail "prepare succeeded under a 100% jit/compile fault"
      | exception Lq_fault.Fault f ->
        check_bool "typed codegen fault" true (f.Lq_fault.kind = Lq_fault.Codegen_error)))

let test_chaos_service_ladder () =
  (* Sync mode + 100% compile fault: the service's preferred engine fails
     prepare with Codegen_error; every request must still complete via
     the fallback ladder — zero failed requests. *)
  with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] (fun () ->
    ignore (fresh_cache_dir ());
    (match Lq_fault.Inject.parse_spec inject_spec with
    | Ok spec -> Lq_fault.Inject.enable spec
    | Error msg -> Alcotest.fail msg);
    Fun.protect ~finally:Lq_fault.Inject.disable (fun () ->
      let cat = oracle_cat () in
      let prov = Lq_core.Provider.create cat in
      let svc = Lq_service.Service.create prov in
      Fun.protect
        ~finally:(fun () -> Lq_service.Service.shutdown svc)
        (fun () ->
          let params = Lq_tpch.Queries.default_params in
          let failures = ref 0 in
          let completed = ref 0 in
          for _ = 1 to 12 do
            match
              Lq_service.Service.run_sync svc ~engine:jit ~params Lq_tpch.Queries.q1
            with
            | Ok { Lq_service.Request.outcome = Completed _; _ } -> incr completed
            | Ok _ -> incr failures
            | Error _ -> incr failures
          done;
          check_int "zero failed requests under compiler chaos" 0 !failures;
          check_int "all requests completed (degraded or fast-failed to fallback)" 12 !completed)))

let test_chaos_async_degrades_interpreted () =
  with_env [ ("LQ_JIT_MODE", "async"); ("LQ_JIT", "on") ] (fun () ->
    ignore (fresh_cache_dir ());
    (match Lq_fault.Inject.parse_spec inject_spec with
    | Ok spec -> Lq_fault.Inject.enable spec
    | Error msg -> Alcotest.fail msg);
    Fun.protect ~finally:Lq_fault.Inject.disable (fun () ->
      let cat = oracle_cat () in
      let prov = Lq_core.Provider.create cat in
      let params = Lq_tpch.Queries.default_params in
      let q = Lq_tpch.Queries.q1 in
      let expected = Lq_core.Provider.reference prov ~params q in
      let fails0 = count "service/jit/compile_failures" in
      let prepared = Lq_testkit.prepare cat jit q in
      (* The second execution queues the compile. Wait for it to hit the
         injected fault, then confirm every execution still answers —
         interpreted. *)
      for _ = 1 to 2 do
        let rows = prepared.Engine_intf.execute ~params () in
        check_bool "pre-compile execution agrees with reference" true (rows_equal expected rows)
      done;
      wait_until "the injected compile fault" (fun () ->
        count "service/jit/compile_failures" > fails0);
      let jit0 = count "service/jit/exec_jit" in
      for _ = 1 to 5 do
        let rows = prepared.Engine_intf.execute ~params () in
        check_bool "degraded execution agrees with reference" true (rows_equal expected rows)
      done;
      check_int "no execution took the jit tier" jit0 (count "service/jit/exec_jit")))

(* --- LQ_JIT=off kill switch -------------------------------------------- *)

let test_jit_off () =
  with_env [ ("LQ_JIT", "off"); ("LQ_JIT_MODE", "sync") ] (fun () ->
    ignore (fresh_cache_dir ());
    let cat = oracle_cat () in
    let prov = Lq_core.Provider.create cat in
    let params = Lq_tpch.Queries.default_params in
    let q = Lq_tpch.Queries.q1 in
    let compiles0 = count "service/jit/compiles" in
    let interp0 = count "service/jit/exec_interpreted" in
    let expected = Lq_core.Provider.reference prov ~params q in
    let prepared = Lq_testkit.prepare cat jit q in
    let rows = prepared.Engine_intf.execute ~params () in
    check_bool "LQ_JIT=off still answers (interpreted)" true (rows_equal expected rows);
    check_int "LQ_JIT=off never compiles" compiles0 (count "service/jit/compiles");
    check_bool "LQ_JIT=off serves interpreted" true
      (count "service/jit/exec_interpreted" > interp0))

(* --- disk cache: bounded by size, swept at startup --------------------- *)

let test_disk_cache_eviction () =
  with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] (fun () ->
    let dir = fresh_cache_dir () in
    let cat = oracle_cat () in
    let prepare q = ignore (Lq_testkit.prepare cat jit q) in
    prepare Lq_tpch.Queries.q1;
    let sos () =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".so")
      |> List.sort compare
    in
    let first =
      match sos () with
      | [ f ] -> f
      | l -> Alcotest.failf "expected one .so after first prepare, got %d" (List.length l)
    in
    let size = (Unix.stat (Filename.concat dir first)).Unix.st_size in
    (* Re-open the cache with room for roughly one object: compiling a
       second, different query must evict the first (seeded by the
       startup sweep). *)
    with_env [ ("LQ_JIT_CACHE_BYTES", string_of_int (size + 512)) ] (fun () ->
      Backend.reset_for_tests ();
      prepare Lq_tpch.Queries.q6;
      let remaining = sos () in
      check_int "one object survives the bound" 1 (List.length remaining);
      check_bool "the older object was evicted" false (List.mem first remaining));
    (* Startup sweep also clears stale droppings. *)
    let stale = Filename.concat dir "lqjit-deadbeef.0-0.c" in
    let oc = open_out stale in
    output_string oc "int x;";
    close_out oc;
    let old = Unix.gettimeofday () -. 3600. in
    Unix.utimes stale old old;
    Backend.reset_for_tests ();
    prepare Lq_tpch.Queries.q1;
    check_bool "stale dropping swept at startup" false (Sys.file_exists stale))

(* --- guarded tiering: sandboxed validation before promotion ------------ *)

let test_validation_promotes () =
  with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] (fun () ->
    ignore (fresh_cache_dir ());
    let cat = oracle_cat () in
    let prov = Lq_core.Provider.create cat in
    let params = Lq_tpch.Queries.default_params in
    let q = Lq_tpch.Queries.q1 in
    let expected = Lq_core.Provider.reference prov ~params q in
    let v0 = count "service/jit/validations" in
    let p0 = count "service/jit/validations_passed" in
    let jit0 = count "service/jit/exec_jit" in
    let prepared = Lq_testkit.prepare cat jit q in
    let rows = prepared.Engine_intf.execute ~params () in
    check_bool "validated rows = reference" true (rows_equal expected rows);
    check_int "exactly one sandboxed validation" (v0 + 1) (count "service/jit/validations");
    check_int "the validation passed" (p0 + 1) (count "service/jit/validations_passed");
    check_bool "promoted: served from the jit tier" true (count "service/jit/exec_jit" > jit0);
    (* Promotion is once per prepared plan: the next execution goes
       straight to the jit tier without another sandbox run. *)
    ignore (prepared.Engine_intf.execute ~params ());
    check_int "no revalidation after promotion" (v0 + 1) (count "service/jit/validations"))

(* One helper for the three contained-failure drills: arm [spec], prepare
   + execute once, and require (a) correct rows, (b) zero jit-tier
   executions, (c) a sticky Failed slot (no revalidation on re-execute). *)
let contained_failure_drill spec =
  with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] (fun () ->
    ignore (fresh_cache_dir ());
    let cat = oracle_cat () in
    let prov = Lq_core.Provider.create cat in
    let params = Lq_tpch.Queries.default_params in
    let q = Lq_tpch.Queries.q1 in
    let expected = Lq_core.Provider.reference prov ~params q in
    let fails0 = count "service/jit/validation_failures" in
    let jit0 = count "service/jit/exec_jit" in
    with_injection spec (fun () ->
      let prepared = Lq_testkit.prepare cat jit q in
      let rows = prepared.Engine_intf.execute ~params () in
      check_bool "request completed with reference rows" true (rows_equal expected rows);
      check_bool "validation failure recorded" true
        (count "service/jit/validation_failures" > fails0);
      check_int "unvalidated artifact never served in-process" jit0
        (count "service/jit/exec_jit");
      (* Sticky: the quarantined artifact is not retried. *)
      let v1 = count "service/jit/validations" in
      let rows2 = prepared.Engine_intf.execute ~params () in
      check_bool "subsequent executions serve interpreted" true (rows_equal expected rows2);
      check_int "no revalidation of a failed artifact" v1 (count "service/jit/validations");
      check_int "still zero jit-tier executions" jit0 (count "service/jit/exec_jit")))

let test_validation_crash_contained () =
  (* internal → the runner child raises SIGSEGV while executing the
     artifact; the parent must survive and serve interpreted. *)
  contained_failure_drill "seed=3;jit/validate=1:internal"

let test_validation_divergence_contained () =
  (* codegen → the sandboxed rows diverge from the interpreter's. *)
  contained_failure_drill "seed=4;jit/validate=1:codegen"

let test_validation_timeout_contained () =
  (* transient → the runner child wedges; the deadline kill must fire
     well inside the test budget and count a validation timeout. *)
  with_env [ ("LQ_JIT_VALIDATE_TIMEOUT_MS", "300") ] (fun () ->
    let to0 = count "service/jit/validation_timeouts" in
    let t0 = Unix.gettimeofday () in
    contained_failure_drill "seed=5;jit/validate=1:transient";
    check_bool "wedged sandbox killed within the deadline" true
      (Unix.gettimeofday () -. t0 < 20.);
    check_bool "validation timeout counted" true
      (count "service/jit/validation_timeouts" > to0))

let test_validate_off_promotes_directly () =
  with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on"); ("LQ_JIT_VALIDATE", "off") ]
    (fun () ->
      ignore (fresh_cache_dir ());
      let cat = oracle_cat () in
      let prov = Lq_core.Provider.create cat in
      let params = Lq_tpch.Queries.default_params in
      let q = Lq_tpch.Queries.q1 in
      let expected = Lq_core.Provider.reference prov ~params q in
      let v0 = count "service/jit/validations" in
      let jit0 = count "service/jit/exec_jit" in
      let prepared = Lq_testkit.prepare cat jit q in
      let rows = prepared.Engine_intf.execute ~params () in
      check_bool "rows = reference" true (rows_equal expected rows);
      check_int "no sandbox run with LQ_JIT_VALIDATE=off" v0 (count "service/jit/validations");
      check_bool "served from the jit tier immediately" true
        (count "service/jit/exec_jit" > jit0))

(* --- compile watchdog: a hung cc is killed, not waited out -------------- *)

let test_cc_watchdog () =
  with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] (fun () ->
    ignore (fresh_cache_dir ());
    let script = Filename.temp_file "lq_slow_cc" ".sh" in
    let oc = open_out script in
    output_string oc "#!/bin/sh\nsleep 30\n";
    close_out oc;
    Unix.chmod script 0o755;
    Fun.protect
      ~finally:(fun () -> try Sys.remove script with Sys_error _ -> ())
      (fun () ->
        let cat = oracle_cat () in
        with_env [ ("LQ_CC", script); ("LQ_JIT_CC_TIMEOUT_MS", "300") ] (fun () ->
          Backend.reset_for_tests ();
          let to0 = count "service/jit/cc_timeouts" in
          let t0 = Unix.gettimeofday () in
          (match Lq_testkit.prepare cat jit Lq_tpch.Queries.q1 with
          | _ -> Alcotest.fail "prepare succeeded under a hung compiler"
          | exception Lq_fault.Fault f ->
            check_bool "typed Codegen_error" true (f.Lq_fault.kind = Lq_fault.Codegen_error);
            check_bool "failure names the timeout" true (contains f.Lq_fault.detail "timed out")
          | exception e -> Alcotest.failf "unexpected exception: %s" (Printexc.to_string e));
          check_bool "hung compiler killed within the deadline" true
            (Unix.gettimeofday () -. t0 < 10.);
          check_bool "cc timeout counted" true (count "service/jit/cc_timeouts" > to0));
        (* The pipeline is not wedged: with the real compiler restored the
           same shape compiles, validates and serves. *)
        Backend.reset_for_tests ();
        let prov = Lq_core.Provider.create cat in
        let params = Lq_tpch.Queries.default_params in
        let expected = Lq_core.Provider.reference prov ~params Lq_tpch.Queries.q1 in
        let prepared = Lq_testkit.prepare cat jit Lq_tpch.Queries.q1 in
        let rows = prepared.Engine_intf.execute ~params () in
        check_bool "next compile job succeeds after the kill" true (rows_equal expected rows)))

(* --- artifact integrity: corruption detected before dlopen -------------- *)

(* Corrupt by replacing the file with its truncated half through a
   rename (fresh inode): an in-place ftruncate of a still-mapped .so
   would SIGBUS this very process at exit-time finalization — the OS
   hazard is real, but it is not the failure mode under test here. *)
let truncate_file path =
  let size = (Unix.stat path).Unix.st_size in
  let ic = open_in_bin path in
  let half = really_input_string ic (size / 2) in
  close_in ic;
  let tmp = path ^ ".trunc.tmp" in
  let oc = open_out_bin tmp in
  output_string oc half;
  close_out oc;
  Sys.rename tmp path

let test_corrupt_cache_detected () =
  with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] (fun () ->
    let dir = fresh_cache_dir () in
    let cat = oracle_cat () in
    let params = Lq_tpch.Queries.default_params in
    let run () =
      let p = Lq_testkit.prepare cat jit Lq_tpch.Queries.q1 in
      p.Engine_intf.execute ~params ()
    in
    let r1 = run () in
    let so =
      match
        Sys.readdir dir |> Array.to_list |> List.filter (fun f -> Filename.check_suffix f ".so")
      with
      | [ f ] -> Filename.concat dir f
      | l -> Alcotest.failf "expected one artifact, got %d" (List.length l)
    in
    truncate_file so;
    (* Re-open the cache: the disk hit must detect the truncation via the
       manifest, evict, and transparently recompile. *)
    Unix.putenv "LQ_JIT_CACHE_DIR" dir;
    Backend.reset_for_tests ();
    let corrupt0 = count "service/jit/cache_corrupt" in
    let compiles0 = count "service/jit/compiles" in
    let r2 = run () in
    check_bool "recompiled artifact rows agree" true (rows_equal r1 r2);
    check_int "corruption detected before dlopen" (corrupt0 + 1)
      (count "service/jit/cache_corrupt");
    check_int "exactly one recompile" (compiles0 + 1) (count "service/jit/compiles"))

let test_chaos_cache_corruption () =
  (* Same recovery, driven end-to-end by the "jit/cache" injection point
     corrupting the object on the disk-hit path. *)
  with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] (fun () ->
    let dir = fresh_cache_dir () in
    let cat = oracle_cat () in
    let params = Lq_tpch.Queries.default_params in
    let run () =
      let p = Lq_testkit.prepare cat jit Lq_tpch.Queries.q1 in
      p.Engine_intf.execute ~params ()
    in
    let r1 = run () in
    Unix.putenv "LQ_JIT_CACHE_DIR" dir;
    Backend.reset_for_tests ();
    let corrupt0 = count "service/jit/cache_corrupt" in
    with_injection "seed=11;jit/cache=1:internal" (fun () ->
      let r2 = run () in
      check_bool "rows survive injected cache corruption" true (rows_equal r1 r2);
      check_bool "corruption counted" true (count "service/jit/cache_corrupt" > corrupt0)))

(* --- per-digest serialization: one compile, one handle ------------------ *)

let test_per_digest_race () =
  ignore (fresh_cache_dir ());
  let source =
    "#include <stdint.h>\n\
     int64_t lq_query(const unsigned char **srcs, const int64_t *nrows,\n\
     \                 const int64_t *ip, const double *fp,\n\
     \                 const unsigned char *db, const int32_t *dofs,\n\
     \                 unsigned char *out, int64_t cap) {\n\
     \  (void)srcs; (void)nrows; (void)ip; (void)fp;\n\
     \  (void)db; (void)dofs; (void)out; (void)cap;\n\
     \  return 0;\n\
     }\n"
  in
  let digest = Digest.to_hex (Digest.string source) in
  let compiles0 = count "service/jit/compiles" in
  let errors = Atomic.make 0 in
  let domains =
    List.init 4 (fun _ ->
      Domain.spawn (fun () ->
        for _ = 1 to 8 do
          match Backend.get ~digest ~source with
          | Ok _ -> ()
          | Error _ -> Atomic.incr errors
        done))
  in
  List.iter Domain.join domains;
  check_int "no failed gets under the race" 0 (Atomic.get errors);
  check_int "four racing Domains, one compile" (compiles0 + 1) (count "service/jit/compiles")

(* --- fuzz: random plans x random data through the full guarded pipeline - *)

let prop_validated_differential =
  Lq_testkit.qtest ~count:100
    "validated differential: sandboxed promotion preserves rows (sync)"
    QCheck2.Gen.(pair (int_range 4 80) Lq_testkit.gen_query)
    (fun (n, q) ->
      if not (Backend.cc_available ()) then true
      else
        with_env
          [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on"); ("LQ_JIT_VALIDATE", "on") ]
          (fun () ->
            let cat = Lq_testkit.sales_catalog ~n ~seed:((n * 7919) + 13) () in
            let fails0 = count "service/jit/validation_failures" in
            match Lq_testkit.engine_agrees_with_reference cat jit q with
            | `Agree | `Unsupported ->
              (* a legitimate artifact must never flunk its sandbox run *)
              count "service/jit/validation_failures" = fails0
            | `Disagree _ -> false))

(* --- unsupported shapes serve interpreted, engine stays total ---------- *)

let test_unsupported_serves_interpreted () =
  with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] (fun () ->
    let cat = oracle_cat () in
    let prov = Lq_core.Provider.create cat in
    let params = Lq_tpch.Queries.default_params @ Lq_tpch.Queries.extended_params in
    (* Q2's uncorrelated-subquery rewrite lowers but its aggregate shape
       has no C form on some plans; pick a shape Codegen_c refuses:
       whole-group materialization is the reliable one. *)
    let q = Lq_tpch.Queries.q2_correlated in
    match Lq_core.Provider.run prov ~engine:jit ~params q with
    | rows ->
      let expected = Lq_core.Provider.reference prov ~params q in
      check_bool "unsupported-in-C shape still answers" true (rows_equal expected rows)
    | exception Engine_intf.Unsupported _ ->
      (* Correlated shapes are refused by the native planner itself —
         also acceptable: the engine mirrors compiled-c's surface. *)
      ())

(* --- integer division by zero: the same typed fault on both tiers ------ *)

(* Every literal is rebound to a parameter, so a shape promoted while its
   divisor was 5 runs its object when a later request sends 0. *)
let test_div_by_zero_typed () =
  with_env [ ("LQ_JIT_MODE", "sync"); ("LQ_JIT", "on") ] (fun () ->
    ignore (fresh_cache_dir ());
    let cat = oracle_cat () in
    let prov = Lq_core.Provider.create cat in
    let fault_kind engine q =
      match Lq_core.Provider.run prov ~engine q with
      | _ -> Alcotest.fail "a zero divisor produced rows"
      | exception Lq_fault.Fault f -> f.Lq_fault.kind
    in
    List.iter
      (fun (name, op) ->
        let q k = Lq_expr.Dsl.(source "lineitem" |> select "l" (op (v "l" $. "l_linenumber") (int k))) in
        let served k =
          let jit0 = count "service/jit/exec_jit" in
          let rows = Lq_core.Provider.run prov ~engine:jit (q k) in
          check_bool (name ^ ": rows = reference") true
            (rows_equal (Lq_core.Provider.reference prov (q k)) rows);
          check_bool (name ^ ": served from the jit tier") true (count "service/jit/exec_jit" > jit0)
        in
        served 5;
        served 5;
        let jit0 = count "service/jit/exec_jit" in
        let kind = fault_kind jit (q 0) in
        check_bool (name ^ " 0: the jit tier ran it") true (count "service/jit/exec_jit" > jit0);
        check_bool (name ^ " 0: the interpreted tier's fault kind") true
          (kind = fault_kind Lq_core.Engines.compiled_c (q 0));
        (* A request fault does not quarantine the artifact. *)
        served 5)
      [ ("/", Lq_expr.Dsl.( /: )); ("%", Lq_expr.Dsl.( %: )) ])

(* --- C coverage of extended TPC-H cannot shrink silently ---------------- *)

let test_c_coverage () =
  let cat = Lq_tpch.Dbgen.load ~sf:0.001 () in
  let emits q =
    let params = Lq_testkit.param_types ~params:Lq_tpch.Queries.extended_params cat q in
    match Lq_native.Codegen_c.emit_plan (Lq_native.Loop.lower cat ~params (Lq_plan.Lower.lower cat q)) with
    | _ -> Ok ()
    | exception Lq_native.Codegen_c.Unsupported_c msg -> Error msg
  in
  List.iter
    (fun (name, q) ->
      match emits q with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s has no C form: %s" name msg)
    (Lq_tpch.Queries.all @ Lq_tpch.Queries.extended
    @ [ ("Q2corr", Lq_tpch.Queries.q2_correlated) ]);
  (* The shapes with no C form are still refused, not mistranslated. *)
  let open Lq_expr.Dsl in
  List.iter
    (fun (name, q) -> check_bool (name ^ " has no C form") true (Result.is_error (emits q)))
    [
      ("Lower", source "customer" |> where "c" (lower (v "c" $. "c_mktsegment") =: str "building"));
      ("Upper", source "customer" |> select "c" (upper (v "c" $. "c_name")));
      ( "nested sub-query",
        source "lineitem"
        |> where "l"
             (v "l" $. "l_quantity" >: avg (subquery (source "lineitem")) "x" (v "x" $. "l_quantity"))
      );
    ]

let () =
  Alcotest.run "jit"
    [
      ( "differential",
        [
          Alcotest.test_case "tpch queries vs reference (sync)" `Slow
            (requires_cc test_differential_tpch);
          prop_random_differential;
        ] );
      ( "cache",
        [
          Alcotest.test_case "repeated prepare skips cc" `Quick (requires_cc test_cache_hits);
          Alcotest.test_case "disk cache eviction and sweep" `Quick
            (requires_cc test_disk_cache_eviction);
        ] );
      ( "tiering",
        [
          Alcotest.test_case "async compile waits for a second execution" `Quick
            (requires_cc test_compile_on_recurrence);
          Alcotest.test_case "hot swap under 4-domain storm" `Slow
            (requires_cc test_hot_swap_storm);
          Alcotest.test_case "LQ_JIT=off serves interpreted" `Quick
            (requires_cc test_jit_off);
          Alcotest.test_case "unsupported shape serves interpreted" `Quick
            (requires_cc test_unsupported_serves_interpreted);
          Alcotest.test_case "zero divisor is a typed fault on both tiers" `Quick
            (requires_cc test_div_by_zero_typed);
          Alcotest.test_case "every extended TPC-H query emits C" `Quick test_c_coverage;
        ] );
      ( "validation",
        [
          Alcotest.test_case "pass promotes to the jit tier" `Quick
            (requires_cc test_validation_promotes);
          Alcotest.test_case "sandbox crash is contained" `Quick
            (requires_cc test_validation_crash_contained);
          Alcotest.test_case "row divergence is contained" `Quick
            (requires_cc test_validation_divergence_contained);
          Alcotest.test_case "wedged sandbox is killed" `Quick
            (requires_cc test_validation_timeout_contained);
          Alcotest.test_case "LQ_JIT_VALIDATE=off promotes directly" `Quick
            (requires_cc test_validate_off_promotes_directly);
          prop_validated_differential;
        ] );
      ( "guards",
        [
          Alcotest.test_case "hung compiler killed by the watchdog" `Quick
            (requires_cc test_cc_watchdog);
          Alcotest.test_case "truncated artifact evicted and recompiled" `Quick
            (requires_cc test_corrupt_cache_detected);
          Alcotest.test_case "jit/cache chaos recovers end-to-end" `Quick
            (requires_cc test_chaos_cache_corruption);
          Alcotest.test_case "racing domains share one compile" `Quick
            (requires_cc test_per_digest_race);
        ] );
      ( "chaos",
        [
          Alcotest.test_case "sync compile fault is typed Codegen_error" `Quick
            (requires_cc test_chaos_sync_typed_failure);
          Alcotest.test_case "service ladder: zero failed requests" `Quick
            (requires_cc test_chaos_service_ladder);
          Alcotest.test_case "async compile fault degrades interpreted" `Quick
            (requires_cc test_chaos_async_degrades_interpreted);
        ] );
    ]
