(* End-to-end benchmark: one workload through the query service.

   A run sets the workload up five times (datagen, forcing the catalog's
   derived stores, an untimed warm-up pass through a fresh provider and
   service) and reports the median set-up time. The first four set-ups
   run in child processes, the first of which also computes the reference
   answers; the last serves the run. It measures a timed window of
   closed-loop traffic: each client Domain submits one request to
   [Lq_service.Service], awaits the response and checks its rows before
   sending the next, the way a LINQ caller consumes a result.

   With [--trace 1] the same process then replays the first 300 requests
   of the schedule on one client with the service bypassed, wrapping each
   call into a layer's public function in a benchmark-owned span, and
   sweeps every registered engine over a probe query. Untraced runs print
   the end-to-end metrics, traced runs the per-layer ones; the last line
   of standard output is the JSON result.

   Usage:
     e2e.exe --workload tpch-native --seed 42 --seconds 15 --trace 0
     e2e.exe --workload adhoc-cold --seconds 2 --trace 1 --out spans --smoke

   Exit status: 0 when every checked answer equals the reference and the
   run's guards hold (enough reads for a p99; every native execution on
   the JIT tier in tpch-native), 1 otherwise, 2 on a usage error. *)

open Lq_value
module Catalog = Lq_catalog.Catalog
module Engine_intf = Lq_catalog.Engine_intf
module Provider = Lq_core.Provider
module Service = Lq_service.Service
module Request = Lq_service.Request
module Counters = Lq_metrics.Counters
module Stats = Lq_metrics.Stats
module Args = Lq_bench.Args
module W = Lq_e2e.Workload
module Pct = Lq_e2e.Pct
module Rows = Lq_e2e.Rows
module Tally = Lq_e2e.Tally
module Spans = Lq_e2e.Spans
module Metric = Lq_e2e.Metric

let now_ms = Lq_metrics.Profile.now_ms
let workload_name = ref ""
let seed = ref 42
let seconds = ref 15.
let trace = ref false
let out_dir = ref "."
let smoke = ref false
let setup_only = ref false
let references = ref false

let parse_args () =
  let specs =
    [
      Args.Value
        ( "--workload", "NAME", (fun v -> workload_name := v),
          "one of " ^ String.concat ", " W.names );
      Args.Value ("--seed", "N", (fun v -> seed := Args.int_value v), "schedule seed (default 42)");
      Args.Value
        ("--seconds", "S", (fun v -> seconds := Args.float_value v), "timed window (default 15)");
      Args.Value
        ( "--trace", "0|1",
          (fun v ->
            trace := match v with "0" -> false | "1" -> true | _ -> failwith "expected 0 or 1"),
          "1: replay traced and print the per-layer metrics" );
      Args.Value ("--out", "DIR", (fun v -> out_dir := v), "where span files go (default .)");
      Args.Flag
        ( "--smoke", (fun () -> smoke := true),
          "sf 0.002 for every workload and no minimum read count" );
      Args.Flag
        ( "--setup-only", (fun () -> setup_only := true),
          "set up once, print the timings and exit (how a run repeats its set-up)" );
      Args.Flag
        ( "--references", (fun () -> references := true),
          "with --setup-only: also write the reference answers, marshalled" );
    ]
  in
  Args.parse ~prog:"e2e.exe" specs (List.tl (Array.to_list Sys.argv));
  if !seconds <= 0. then Args.fail ~prog:"e2e.exe" specs "--seconds must be positive"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("e2e: " ^ msg);
      exit 1)
    fmt

(* a set-up of a tenth of a second is at the mercy of one scheduling
   hiccup; the median of five is not *)
let setups = 5

(* --- JIT artifact isolation -------------------------------------------- *)

(* Every set-up gets its own empty artifact cache, so no run (and no
   set-up repetition) reuses objects compiled by another; the directories
   are deleted when the run exits. *)
let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let jit_root =
  lazy
    (let dir = Filename.temp_dir "lq-e2e-jit-" "" in
     at_exit (fun () -> remove_tree dir);
     dir)

let use_jit_cache k =
  Unix.putenv "LQ_JIT_CACHE_DIR"
    (Filename.concat (Lazy.force jit_root) (Printf.sprintf "setup-%d" k))

(* --- set-up ---------------------------------------------------------------- *)

type setup = {
  cat : Catalog.t;
  prov : Provider.t;
  svc : Service.t;
  datagen_s : float;
  force_s : float;
  warm_s : float;
}

let service_config = { Service.default_config with domains = 2; queue_capacity = 64 }

let force cat =
  List.iter
    (fun name ->
      let t = Catalog.table cat name in
      ignore (Catalog.boxed t);
      if Catalog.is_flat t then begin
        ignore (Catalog.store t);
        ignore (Catalog.cols t)
      end)
    (Catalog.names cat)

let set_up (w : W.t) ~sf =
  let t0 = now_ms () in
  let cat = Lq_tpch.Dbgen.load ~seed:W.dataset_seed ~sf () in
  let t1 = now_ms () in
  force cat;
  let t2 = now_ms () in
  let prov = Provider.create ~recycle_results:w.recycle_results cat in
  let svc = Service.create ~config:service_config prov in
  List.iter
    (function
      | W.Write _ -> ()
      | W.Read r -> (
        match Service.run_sync svc ~label:r.label ~engine:r.engine ~params:r.params r.query with
        | Ok { Request.outcome = Request.Completed { degraded = false; _ }; _ } -> ()
        | Ok resp -> fail "warm-up: %s" (Request.response_to_string resp)
        | Error rej -> fail "warm-up: %s" (Service.rejection_to_string rej)))
    w.warm;
  let t3 = now_ms () in
  {
    cat;
    prov;
    svc;
    datagen_s = (t1 -. t0) /. 1000.;
    force_s = (t2 -. t1) /. 1000.;
    warm_s = (t3 -. t2) /. 1000.;
  }

(* --- the oracle ----------------------------------------------------------- *)

let replace_customer cat rows =
  Catalog.replace cat ~name:"customer" ~schema:(Catalog.schema (Catalog.table cat "customer")) rows

(* Reference answers come from [Provider.reference] over a catalog
   holding the customer version the read saw: a copy of the served
   catalog sharing its rows (never forced), so writes to the served one
   cannot reach the oracle. Answers are memoized by oracle key; the
   window's clients only read the table, which is filled before it. *)
type oracle = {
  expected : (string, Value.t list) Hashtbl.t;
  providers : Provider.t option array;  (** per customer version *)
  cat : Catalog.t;
  customers : Value.t list array;
}

let oracle cat customers =
  { expected = Hashtbl.create 64; providers = Array.make W.versions None; cat; customers }

let answer o (r : W.read) =
  match Hashtbl.find_opt o.expected r.oracle with
  | Some rows -> rows
  | None ->
    let p =
      match o.providers.(r.version) with
      | Some p -> p
      | None ->
        let c = Catalog.create () in
        List.iter
          (fun name ->
            let t = Catalog.table o.cat name in
            Catalog.add c ~name ~schema:(Catalog.schema t)
              (if String.equal name "customer" then o.customers.(r.version) else Catalog.rows t))
          (Catalog.names o.cat);
        let p = Provider.create c in
        o.providers.(r.version) <- Some p;
        p
    in
    let rows = Provider.reference p ~params:r.params r.query in
    Hashtbl.replace o.expected r.oracle rows;
    rows

(* --- the timed window ------------------------------------------------------ *)

type client_result = {
  tally : Tally.t;
  latencies : float list;  (** reads, submit to response *)
  queue_ms : float list;
  exec_ms : float list;
  checked : int;
  wrong : int;
  deferred : (W.read * Value.t list) list;  (** checked after the window *)
  result_hit_ms : float list;  (** reads the result cache answered *)
  result_miss_ms : float list;  (** reads it did not *)
  last_ms : float;
}

let result_hits prov =
  match Provider.result_cache_stats prov with Some st -> st.hits | None -> 0

let client (w : W.t) (s : setup) ~(oracle : oracle) ~next ~deadline () =
  let tally = Tally.create () in
  let latencies = ref [] and queue = ref [] and exec = ref [] in
  let checked = ref 0 and wrong = ref 0 and deferred = ref [] and last = ref (now_ms ()) in
  (* a read is a result-cache hit when the hit count moved across it;
     only a lone client can tell its own reads apart *)
  let classify = w.recycle_results && w.clients = 1 in
  let hit_ms = ref [] and miss_ms = ref [] in
  while now_ms () < deadline do
    let i = Atomic.fetch_and_add next 1 in
    (match w.op i with
    | W.Write v ->
      replace_customer s.cat oracle.customers.(v);
      Tally.note_write tally
    | W.Read r -> (
      let hits0 = if classify then result_hits s.prov else 0 in
      let t0 = now_ms () in
      let res = Service.run_sync s.svc ~label:r.label ~engine:r.engine ~params:r.params r.query in
      let ms = now_ms () -. t0 in
      latencies := ms :: !latencies;
      if classify then
        if result_hits s.prov > hits0 then hit_ms := ms :: !hit_ms else miss_ms := ms :: !miss_ms;
      Tally.note tally res;
      match res with
      | Ok { Request.outcome = Request.Completed { rows; _ }; queue_ms; exec_ms; _ } -> (
        queue := queue_ms :: !queue;
        exec := exec_ms :: !exec;
        match Hashtbl.find_opt oracle.expected r.oracle with
        | Some e ->
          incr checked;
          if not (Rows.agree_for r.query ~expected:e rows) then incr wrong
        | None -> if w.checked ~trace:!trace i then deferred := (r, rows) :: !deferred)
      | _ -> ()));
    last := now_ms ()
  done;
  {
    tally;
    latencies = !latencies;
    queue_ms = !queue;
    exec_ms = !exec;
    checked = !checked;
    wrong = !wrong;
    deferred = !deferred;
    result_hit_ms = !hit_ms;
    result_miss_ms = !miss_ms;
    last_ms = !last;
  }

(* --- counters -------------------------------------------------------------- *)

type snapshot = {
  jit : string -> float;  (** a [service/jit/*] counter *)
  jit_prepares : float;  (** plan-cache misses on the JIT engine *)
  plan : Lq_core.Query_cache.stats;
  result : Lq_core.Result_cache.stats option;
  retried : int;
  gc : Gc.stat;
}

let jit_counters () =
  let values =
    List.map
      (fun n -> (n, Counters.value Lq_jit.Backend.counters ("service/jit/" ^ n)))
      [
        "compiles"; "compile_ms"; "compile_failures"; "cache_hit_mem"; "cache_hit_disk";
        "unsupported"; "validations"; "exec_jit"; "exec_interpreted";
      ]
  in
  fun n -> List.assoc n values

let snapshot (s : setup) =
  {
    jit = jit_counters ();
    jit_prepares =
      float_of_int (Counters.count (Provider.cache_counters s.prov) "misses/compiled-c-jit");
    plan = Provider.cache_stats s.prov;
    result = Provider.result_cache_stats s.prov;
    retried = Lq_service.Svc_metrics.retried (Service.metrics s.svc);
    gc = Gc.quick_stat ();
  }

let ratio a b = if b = 0. then 0. else a /. b

(* --- the traced pass -------------------------------------------------------- *)

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type prepared = {
  optimize_ms : float;
  lower_ms : float;
  codegen_ms : float;
  outcome : [ `Hit | `Miss ];
  plan : Engine_intf.prepared;
  params : (string * Value.t) list;  (** the read's, plus its extracted constants *)
}

(* The functions [Provider.run] calls, in its order, each in its own
   span: [codegen] is [prepare_only] minus the optimize and lower work it
   repeats internally. *)
let prepare spans cat prov ~req (r : W.read) =
  let timed layer f = Spans.timed spans ~req ~layer f in
  let q, optimize_ms = timed "optimizer" (fun () -> Provider.optimized prov r.query) in
  let _, lower_ms =
    timed "lower" (fun () -> Lq_plan.Lower.lower cat (fst (Lq_expr.Shape.parameterize q)))
  in
  let (plan, outcome), prepare_ms =
    timed "codegen" (fun () -> Provider.prepare_only prov ~engine:r.engine r.query)
  in
  {
    optimize_ms;
    lower_ms;
    codegen_ms = Float.max 0. (prepare_ms -. optimize_ms -. lower_ms);
    outcome;
    plan;
    params = r.params @ Lq_core.Query_cache.const_params (Lq_expr.Shape.consts q);
  }

(* (rows, ms, kilowords allocated) *)
let execute spans ~req p =
  let a0 = allocated_words () in
  let rows, ms =
    Spans.timed spans ~req ~layer:"execute" (fun () ->
        p.plan.Engine_intf.execute ~params:p.params ())
  in
  (rows, ms, (allocated_words () -. a0) /. 1000.)

let probe_of (e : Engine_intf.t) =
  (* the Min variants only take queries whose results are source rows *)
  if e == Lq_core.Engines.hybrid_min || e == Lq_core.Engines.hybrid_min_buffered then
    ("sorting", Lq_tpch.Workloads.sorting, Lq_tpch.Workloads.params ~sel:0.002)
  else ("Q6", Lq_tpch.Queries.q6, (W.vectors_of "Q6").(0))

(* Every engine but sqlserver-native over its probe query: three cold
   prepares, then one untimed execution (which validates and promotes a
   JIT artifact) and three timed ones; medians of each. *)
let sweep spans cat oracle =
  Unix.putenv "LQ_JIT_MODE" "sync";
  let prov = Provider.create cat in
  List.concat
    (List.mapi
       (fun k (e : Engine_intf.t) ->
         let req = W.traced_requests + k in
         let label, query, params = probe_of e in
         let r = { W.label; query; params; engine = e; version = 0; oracle = "probe " ^ label } in
         let cold =
           List.init 3 (fun _ ->
               Provider.clear_cache prov;
               prepare spans cat prov ~req r)
         in
         let p = List.hd cold in
         let rows, _, _ = execute spans ~req p in
         if not (Rows.agree_for query ~expected:(answer oracle r) rows) then
           fail "sweep: %s answers its probe wrongly" e.name;
         let timed = List.init 3 (fun _ -> execute spans ~req p) in
         let slug = Metric.slug e.name in
         [
           ( Printf.sprintf "codegen.%s.p50_ms" slug,
             Stats.median (List.map (fun c -> c.codegen_ms) cold) );
           ( Printf.sprintf "execute.%s.ms" slug,
             Stats.median (List.map (fun (_, ms, _) -> ms) timed) );
           ( Printf.sprintf "execute.%s.alloc_kw" slug,
             Stats.median (List.map (fun (_, _, kw) -> kw) timed) );
         ])
       Metric.sweep_engines)

type traced = {
  spans : Spans.t;
  optimize : float list;
  lower : float list;
  codegen_miss : float list;
  source_kb : (string * float) list;  (** engine name, KiB of source, per miss *)
  exec : float list;
  alloc_kw : float list;
  replace : float list;
  replay_ops : float;
  wrong : int;
  sweep : (string * float) list;  (** per-engine metric values *)
}

let traced_pass (w : W.t) (s : setup) (oracle : oracle) =
  let spans = Spans.create () in
  let prov = Provider.create ~recycle_results:w.recycle_results s.cat in
  let optimize = ref [] and lower = ref [] and miss = ref [] and src = ref [] in
  let exec = ref [] and alloc = ref [] and replace = ref [] and answers = ref [] in
  let replace_timed ~req v =
    let (), ms =
      Spans.timed spans ~req ~layer:"catalog" (fun () ->
          replace_customer s.cat oracle.customers.(v))
    in
    replace := ms :: !replace
  in
  (* the window left the customer table at some version; the replay
     starts where the schedule starts *)
  replace_customer s.cat oracle.customers.(0);
  let t0 = now_ms () in
  for i = 0 to W.traced_requests - 1 do
    match w.op i with
    | W.Write v -> replace_timed ~req:i v
    | W.Read r ->
      let rows, _ =
        Spans.timed spans ~req:i ~layer:"request" (fun () ->
            let p = prepare spans s.cat prov ~req:i r in
            let rows, ms, kw = execute spans ~req:i p in
            optimize := p.optimize_ms :: !optimize;
            lower := p.lower_ms :: !lower;
            exec := ms :: !exec;
            alloc := kw :: !alloc;
            if p.outcome = `Miss then begin
              miss := p.codegen_ms :: !miss;
              Option.iter
                (fun source ->
                  src := (r.engine.name, float_of_int (String.length source) /. 1024.) :: !src)
                p.plan.Engine_intf.source
            end;
            if w.recycle_results then begin
              (* the whole pipeline again, now through the result cache *)
              let recycled, _ =
                Spans.timed spans ~req:i ~layer:"provider" (fun () ->
                    Provider.run prov ~engine:r.engine ~params:r.params r.query)
              in
              answers := (r, recycled) :: !answers
            end;
            rows)
      in
      answers := (r, rows) :: !answers
  done;
  let replay_ops = float_of_int W.traced_requests /. ((now_ms () -. t0) /. 1000.) in
  let sweep = sweep spans s.cat oracle in
  (* workloads that never write still time Catalog.replace, on probes *)
  if !replace = [] then
    List.iteri (fun k v -> replace_timed ~req:(W.traced_requests + 100 + k) v) [ 1; 2; 3; 0 ];
  let wrong =
    List.length
      (List.filter
         (fun ((r : W.read), rows) ->
           let ok = Rows.agree_for r.query ~expected:(answer oracle r) rows in
           if not ok then Printf.printf "wrong rows: traced %s on %s\n" r.oracle r.engine.name;
           not ok)
         !answers)
  in
  {
    spans;
    optimize = !optimize;
    lower = !lower;
    codegen_miss = !miss;
    source_kb = !src;
    exec = !exec;
    alloc_kw = !alloc;
    replace = !replace;
    replay_ops;
    wrong;
    sweep;
  }

(* --- main -------------------------------------------------------------------- *)

let () =
  parse_args ();
  let w =
    match W.make ~seed:!seed !workload_name with
    | Some w -> w
    | None ->
      Printf.eprintf "e2e: unknown workload %S (one of %s)\n" !workload_name
        (String.concat ", " W.names);
      exit 2
  in
  let sf = if !smoke then 0.002 else w.sf in
  Unix.putenv "LQ_JIT_MODE" w.jit_mode;
  let customers_of cat =
    let base = Catalog.rows (Catalog.table cat "customer") in
    Array.init W.versions (W.customer_version ~seed:!seed base)
  in
  if !setup_only then begin
    let s = set_up w ~sf in
    Service.shutdown s.svc;
    Printf.printf "setup %.17g %.17g %.17g\n" s.datagen_s s.force_s s.warm_s;
    if !references then begin
      let o = oracle s.cat (customers_of s.cat) in
      let answers = List.map (fun (r : W.read) -> (r.oracle, answer o r)) w.references in
      Marshal.to_channel stdout (answers : (string * Value.t list) list) []
    end;
    exit 0
  end;
  Printf.printf "workload %s: sf %g, %d client(s), seed %d, window %g s, trace %b\n%!" w.name sf
    w.clients !seed !seconds !trace;
  (* Set up [setups] times and serve from the last. The earlier set-ups
     run in child processes, so their memory and JIT state cannot leak
     into the served one; the first child also computes the reference
     answers (the datasets are identical), which keeps the reference
     interpreter's garbage out of the served heap. *)
  let answers = ref [] in
  let discarded =
    List.init (setups - 1) (fun k ->
        use_jit_cache k;
        let args =
          [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int !seed ]
          @ [ "--setup-only" ]
          @ (if !smoke then [ "--smoke" ] else [])
          @ if k = 0 then [ "--references" ] else []
        in
        let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
        let rec timings () =
          match In_channel.input_line ic with
          | None -> None
          | Some line -> (
            match Scanf.sscanf_opt line "setup %f %f %f" (fun d f w -> (d, f, w)) with
            | Some t -> Some t
            | None -> timings ())
        in
        let t = timings () in
        (if k = 0 && t <> None then
           try answers := (Marshal.from_channel ic : (string * Value.t list) list)
           with End_of_file | Failure _ -> fail "set-up %d sent no reference answers" k);
        match (Unix.close_process_in ic, t) with
        | Unix.WEXITED 0, Some t -> t
        | _ -> fail "set-up %d failed" k)
  in
  use_jit_cache (setups - 1);
  let jit_at_setup = jit_counters () in
  let s = set_up w ~sf in
  let timings = (s.datagen_s, s.force_s, s.warm_s) :: discarded in
  let median f = Stats.median (List.map f timings) in
  let datagen_s = median (fun (d, _, _) -> d) in
  let force_s = median (fun (_, f, _) -> f) in
  let warm_s = median (fun (_, _, w) -> w) in
  let setup_s = median (fun (d, f, w) -> d +. f +. w) in
  Printf.printf "set-up: median %.3f s of %d (datagen %.3f, force %.3f, warm %.3f)\n%!" setup_s
    setups datagen_s force_s warm_s;
  let oracle = oracle s.cat (customers_of s.cat) in
  List.iter (fun (key, rows) -> Hashtbl.replace oracle.expected key rows) !answers;
  (* the window *)
  let before = snapshot s in
  let next = Atomic.make 0 in
  let t_start = now_ms () in
  let deadline = t_start +. (!seconds *. 1000.) in
  let results =
    List.init w.clients (fun _ -> Domain.spawn (client w s ~oracle ~next ~deadline))
    |> List.map Domain.join
  in
  let after = snapshot s in
  (* the served process's peak, before any checking after the window *)
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  (* the window lasts until the last in-flight operation returned *)
  let elapsed_s =
    (List.fold_left (fun m r -> Float.max m r.last_ms) t_start results -. t_start) /. 1000.
  in
  let tally = Tally.merge (List.map (fun r -> r.tally) results) in
  let ops = Tally.attempted tally in
  let all f = Array.of_list (List.concat_map f results) in
  let latencies = all (fun r -> r.latencies) in
  let deferred = List.concat_map (fun r -> r.deferred) results in
  let sum f = List.fold_left (fun n r -> n + f r) 0 results in
  let wrong =
    ref
      (sum (fun r -> r.wrong)
      + List.length
          (List.filter
             (fun ((r : W.read), rows) ->
               not (Rows.agree_for r.query ~expected:(answer oracle r) rows))
             deferred))
  in
  Printf.printf
    "window: %d ops (%d reads, %d writes) in %.3f s; %d errors (error_rate %g); %d checked, \
     wrong_rows %d\n%!"
    ops (Array.length latencies) tally.writes elapsed_s (Tally.errors tally)
    (Tally.error_rate tally)
    (sum (fun r -> r.checked) + List.length deferred)
    !wrong;
  let guard_failures = ref [] in
  let guard msg = guard_failures := msg :: !guard_failures in
  let pct q samples =
    match Pct.quantile q samples with
    | v -> v
    | exception (Pct.Too_few _ as e) ->
      if (not !smoke) || samples = [||] then guard (Printexc.to_string e);
      if samples = [||] then 0. else Pct.nearest_rank q samples
  in
  let d_jit n = after.jit n -. before.jit n in
  let promoted = ratio (d_jit "exec_jit") (d_jit "exec_jit" +. d_jit "exec_interpreted") in
  if String.equal w.name "tpch-native" && promoted <> 1.0 then
    guard (Printf.sprintf "jit.promoted_ratio is %g, not 1.0" promoted);
  let values =
    if not !trace then
      [
        ("throughput_ops", float_of_int ops /. elapsed_s);
        ("latency_p50_ms", pct 0.5 latencies);
        ("latency_p99_ms", pct 0.99 latencies);
        ("setup_s", setup_s);
        ("heap_peak_mb", heap_peak_mb);
      ]
    else begin
      Service.shutdown s.svc;
      let tr = traced_pass w s oracle in
      wrong := !wrong + tr.wrong;
      if not (Sys.file_exists !out_dir) then Unix.mkdir !out_dir 0o755;
      let path = Filename.concat !out_dir (w.name ^ ".spans.json") in
      Spans.write tr.spans path;
      Printf.printf "traced pass: %d requests at %.1f ops/s; %d spans written to %s\n%!"
        W.traced_requests tr.replay_ops (List.length (Spans.spans tr.spans)) path;
      (* JIT work counts from the served set-up to the end of the window:
         the set-up's compiles are what tpch-native pays in set-up *)
      let run_jit n = after.jit n -. jit_at_setup n in
      let hits = float_of_int (after.plan.hits - before.plan.hits) in
      let misses = float_of_int (after.plan.misses - before.plan.misses) in
      let result_hits, result_lookups, invalidations =
        match (before.result, after.result) with
        | Some b, Some a ->
          ( float_of_int (a.hits - b.hits),
            float_of_int (a.hits - b.hits + a.misses - b.misses),
            float_of_int (a.invalidations - b.invalidations) )
        | _ -> (0., 0., 0.)
      in
      let per_op x = x /. float_of_int (max 1 ops) in
      let gc_delta f = per_op (float_of_int (f after.gc - f before.gc)) in
      let med = function [] -> 0. | xs -> Stats.median xs in
      (* prepares (on the served provider, so since its set-up) whose C
         source was still waiting for the compile worker *)
      let backlog =
        after.jit_prepares
        -. List.fold_left ( +. ) 0.
             (List.map run_jit
                [
                  "unsupported"; "compiles"; "compile_failures"; "cache_hit_mem"; "cache_hit_disk";
                ])
      in
      [
        ("service.queue_p50_ms", pct 0.5 (all (fun r -> r.queue_ms)));
        ("service.queue_p99_ms", pct 0.99 (all (fun r -> r.queue_ms)));
        ("service.exec_p50_ms", pct 0.5 (all (fun r -> r.exec_ms)));
        ("service.degraded", float_of_int tally.degraded);
        ("service.retried", float_of_int (after.retried - before.retried));
        ("provider.plan_hit_ratio", ratio hits (hits +. misses));
        ("provider.plan_evictions", float_of_int (after.plan.evictions - before.plan.evictions));
        ("provider.result_hit_ratio", ratio result_hits result_lookups);
        ("provider.result_invalidations", invalidations);
        ("provider.result_hit_p50_ms", med (List.concat_map (fun r -> r.result_hit_ms) results));
        ("provider.result_miss_p50_ms", med (List.concat_map (fun r -> r.result_miss_ms) results));
        ("optimizer.p50_ms", med tr.optimize);
        ("lower.p50_ms", med tr.lower);
        ("codegen.miss_p50_ms", med tr.codegen_miss);
        ("jit.promoted_ratio", promoted);
        ("jit.compiles", run_jit "compiles");
        ("jit.cc_ms_mean", ratio (run_jit "compile_ms") (run_jit "compiles"));
        ("jit.validations", run_jit "validations");
        ("jit.backlog_end", backlog);
        ("execute.p50_ms", med tr.exec);
        ("execute.alloc_kw_per_op", med tr.alloc_kw);
        ("catalog.datagen_s", datagen_s);
        ("catalog.force_s", force_s);
        ("catalog.warm_s", warm_s);
        ("catalog.replace_p50_ms", med tr.replace);
        ("gc.minor_per_op", gc_delta (fun g -> g.Gc.minor_collections));
        ("gc.major_per_op", gc_delta (fun g -> g.Gc.major_collections));
        ( "gc.promoted_kw_per_op",
          per_op ((after.gc.promoted_words -. before.gc.promoted_words) /. 1000.) );
        ("trace.replay_ops", tr.replay_ops);
      ]
      @ List.map
          (fun (e : Engine_intf.t) ->
            ( Metric.source_kb e,
              med
                (List.filter_map
                   (fun (name, kb) -> if String.equal name e.name then Some kb else None)
                   tr.source_kb) ))
          Metric.source_engines
      @ tr.sweep
    end
  in
  Service.shutdown s.svc;
  List.iter (fun (n, v) -> Printf.printf "  %-36s %.6g\n" n v) values;
  List.iter (fun g -> Printf.printf "guard failed: %s\n" g) !guard_failures;
  let correct = !wrong = 0 in
  let line =
    try
      Metric.result_line ~trace:!trace ~correct ~attempted:ops
        ~failed:(Tally.errors tally + !wrong) values
    with Metric.Bad_metrics msg -> fail "%s" msg
  in
  print_endline line;
  if (not correct) || !guard_failures <> [] then exit 1
