(* The four workloads of the end-to-end benchmark and their seeded
   request schedules.

   A workload is an infinite sequence of operations, [op i] being the
   i-th of the schedule; closed-loop clients draw indices from one shared
   counter, so the operations run in a window are always a prefix of the
   schedule whatever the interleaving. The dataset is fixed (dbgen seed
   42); [--seed] drives only the schedule: the order of the parameter
   vectors and engines, the ad-hoc shapes and their constants, and the
   customer versions written by [dashboard-writes]. Why each workload
   exists is recorded in BENCHMARK.json and the README. *)

open Lq_value
module Ast = Lq_expr.Ast
module Engines = Lq_core.Engines
module Q = Lq_tpch.Queries

type read = {
  label : string;
  query : Ast.query;
  params : (string * Value.t) list;
  engine : Lq_catalog.Engine_intf.t;
  version : int;  (** the customer version the read sees *)
  oracle : string;  (** key of the reference answer this read must equal *)
}

type op =
  | Read of read
  | Write of int  (** install this customer version *)

type t = {
  name : string;
  sf : float;
  clients : int;
  jit_mode : string;  (** [LQ_JIT_MODE] during set-up and the window *)
  recycle_results : bool;
  op : int -> op;
  warm : op list;  (** the untimed warm-up pass, run during set-up *)
  references : read list;
      (** reads whose answers are precomputed before the window; a read
          whose oracle key is absent here is checked after the window,
          when [checked] selects it *)
  checked : trace:bool -> int -> bool;
}

let dataset_seed = 42

(* --- TPC-H queries and their parameter vectors ------------------------ *)

let int k n = (k, Value.Int n)
let str k x = (k, Value.Str x)
let date k y m d = (k, Value.Date (Date.of_ymd y m d))

let with_params overrides =
  List.fold_left
    (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc)
    Q.extended_params overrides

(* Three fixed vectors per query; which one a request uses is seeded. *)
let tpch =
  [
    ("Q1", Q.q1, [ [ int "q1_delta" 60 ]; [ int "q1_delta" 90 ]; [ int "q1_delta" 120 ] ]);
    ( "Q2",
      Q.q2,
      [
        [ int "q2_size" 15; str "q2_type" "%BRASS"; str "q2_region" "EUROPE" ];
        [ int "q2_size" 25; str "q2_type" "%STEEL"; str "q2_region" "ASIA" ];
        [ int "q2_size" 40; str "q2_type" "%TIN"; str "q2_region" "AMERICA" ];
      ] );
    ( "Q3",
      Q.q3,
      [
        [ str "q3_segment" "BUILDING"; date "q3_date" 1995 3 15 ];
        [ str "q3_segment" "MACHINERY"; date "q3_date" 1995 3 1 ];
        [ str "q3_segment" "AUTOMOBILE"; date "q3_date" 1995 3 25 ];
      ] );
    ( "Q5",
      Q.q5,
      [
        [ str "q5_region" "ASIA"; date "q5_date" 1994 1 1 ];
        [ str "q5_region" "EUROPE"; date "q5_date" 1995 1 1 ];
        [ str "q5_region" "AMERICA"; date "q5_date" 1996 1 1 ];
      ] );
    ( "Q6",
      Q.q6,
      [
        [ ("q6_discount", Value.Float 0.05) ];
        [ ("q6_discount", Value.Float 0.06) ];
        [ ("q6_discount", Value.Float 0.07); date "q6_date" 1995 1 1 ];
      ] );
    ( "Q10",
      Q.q10,
      [ [ date "q10_date" 1993 10 1 ]; [ date "q10_date" 1994 1 1 ]; [ date "q10_date" 1994 7 1 ] ] );
    ( "Q12",
      Q.q12,
      [
        [ str "q12_mode1" "MAIL"; str "q12_mode2" "SHIP" ];
        [ str "q12_mode1" "TRUCK"; str "q12_mode2" "AIR"; date "q12_date" 1995 1 1 ];
        [ str "q12_mode1" "RAIL"; str "q12_mode2" "FOB"; date "q12_date" 1996 1 1 ];
      ] );
    ( "Q14",
      Q.q14,
      [ [ date "q14_date" 1995 9 1 ]; [ date "q14_date" 1995 3 1 ]; [ date "q14_date" 1994 6 1 ] ] );
  ]
  |> List.map (fun (label, q, vectors) -> (label, q, Array.of_list (List.map with_params vectors)))

let reads_customer q = List.mem "customer" (Ast.sources_of_query q)

(* The answer depends on the customer version only for queries that read
   that table; the others share one reference across versions. *)
let oracle_key label q vector version =
  Printf.sprintf "%s#%d@%d" label vector (if reads_customer q then version else 0)

let versions = 4

(* [op i] for i a multiple of [write_every] minus one is a write. *)
let write_every = 50

(* --- schedules ---------------------------------------------------------- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Lq_exec.Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Reads cycle through [items] in rounds, each round a fresh seeded
   shuffle, so every item recurs at the same rate in any long prefix. *)
let rounds ~seed n =
  let len = 1 lsl 16 in
  let rng = Lq_exec.Prng.create (Hashtbl.hash ("rounds", seed)) in
  let sched = Array.make len 0 in
  let round = Array.init n Fun.id in
  let pos = ref 0 in
  while !pos < len do
    shuffle rng round;
    Array.blit round 0 sched !pos (min n (len - !pos));
    pos := !pos + n
  done;
  fun j -> sched.(j mod len)

type item = {
  i_label : string;
  i_query : Ast.query;
  i_vector : int;
  i_engine : Lq_catalog.Engine_intf.t;
}

let items ~labels ~engines_for =
  List.concat_map
    (fun (label, q, vectors) ->
      if not (List.mem label labels) then []
      else
        List.concat_map
          (fun engine ->
            List.init (Array.length vectors) (fun v ->
                { i_label = label; i_query = q; i_vector = v; i_engine = engine }))
          (engines_for label))
    tpch
  |> Array.of_list

let vectors_of label =
  let _, _, vectors = List.find (fun (l, _, _) -> String.equal l label) tpch in
  vectors

let read_of_item ~version it =
  {
    label = it.i_label;
    query = it.i_query;
    params = (vectors_of it.i_label).(it.i_vector);
    engine = it.i_engine;
    version;
    oracle = oracle_key it.i_label it.i_query it.i_vector version;
  }

(* One warm-up read per (query, engine): fills the plan cache (and, on
   the JIT, compiles, validates and promotes every shape). *)
let warm_reads items =
  Array.to_list items
  |> List.filter (fun it -> it.i_vector = 0)
  |> List.map (fun it -> Read (read_of_item ~version:0 it))

let all_references ~versions items =
  Array.to_list items
  |> List.concat_map (fun it ->
         List.init (if reads_customer it.i_query then versions else 1) (fun version ->
             read_of_item ~version it))
  |> List.sort_uniq (fun a b -> String.compare a.oracle b.oracle)

let tpch_workload ~name ~sf ~clients ~jit_mode ~labels ~engines_for ~seed =
  let items = items ~labels ~engines_for in
  let next = rounds ~seed (Array.length items) in
  {
    name;
    sf;
    clients;
    jit_mode;
    recycle_results = false;
    op = (fun i -> Read (read_of_item ~version:0 items.(next i)));
    warm = warm_reads items;
    references = all_references ~versions:1 items;
    checked = (fun ~trace:_ _ -> true);
  }

let all_queries = List.map (fun (l, _, _) -> l) tpch

(* sf 0.005 and one client, the steadiest of the settings the README
   compares: at sf 0.02 the joins' (Q5, Q3) latency moves with the
   host's memory contention, by up to two times from run to run, and a
   second client doubles the spread again. *)
let tpch_native ~seed =
  tpch_workload ~name:"tpch-native" ~sf:0.005 ~clients:1 ~jit_mode:"sync" ~labels:all_queries
    ~engines_for:(fun _ -> [ Engines.compiled_c_jit ])
    ~seed

(* sf 0.005: at 0.02 the managed engines complete about 60 reads/s on
   two cores, too few for a p99 (1000 reads) within one timed window. *)
let tpch_managed ~seed =
  let managed =
    [ Engines.compiled_c; Engines.vectorwise; Engines.hybrid_buffered; Engines.compiled_csharp ]
  in
  tpch_workload ~name:"tpch-managed" ~sf:0.005 ~clients:2 ~jit_mode:"async" ~labels:all_queries
    ~engines_for:(fun label ->
      (* the parallel engine takes single-scan plans only *)
      if List.mem label [ "Q1"; "Q6" ] then managed @ [ Engines.compiled_c_parallel ] else managed)
    ~seed

(* One client: [Catalog.replace] is not synchronized against readers, so
   writes must not overlap reads. *)
let dashboard_writes ~seed =
  let items =
    items
      ~labels:[ "Q1"; "Q3"; "Q5"; "Q6"; "Q10"; "Q12"; "Q14" ]
      ~engines_for:(fun _ -> [ Engines.vectorwise ])
  in
  let next = rounds ~seed (Array.length items) in
  {
    name = "dashboard-writes";
    sf = 0.02;
    clients = 1;
    jit_mode = "async";
    recycle_results = true;
    op =
      (fun i ->
        if (i + 1) mod write_every = 0 then Write (((i + 1) / write_every) mod versions)
        else
          let version = i / write_every mod versions in
          Read (read_of_item ~version items.(next (i - (i / write_every)))));
    warm = warm_reads items;
    references = all_references ~versions items;
    checked = (fun ~trace:_ _ -> true);
  }

let adhoc_engines =
  [| Engines.compiled_c_jit; Engines.compiled_csharp; Engines.vectorwise; Engines.hybrid_buffered |]

(* The reference interpreter is slow next to the engines, so only a
   sample of the window is checked: every tenth response, at most 300
   reference evaluations in all, including the traced requests. *)
let adhoc_check_every = 10
let traced_requests = 300

let adhoc_cold ~seed =
  let request = Adhoc.request ~seed in
  let read i =
    let engine = adhoc_engines.(i mod Array.length adhoc_engines) in
    Read
      {
        label = "adhoc";
        query = request i;
        params = [];
        engine;
        version = 0;
        oracle = Printf.sprintf "adhoc#%d" i;
      }
  in
  {
    name = "adhoc-cold";
    (* sf 0.002 rather than 0.005: the README gives the measured split of
       optimize + lower + codegen against execute at both, and the read
       rate that keeps a slowed-down window above 1000 reads *)
    sf = 0.002;
    clients = 2;
    jit_mode = "async";
    recycle_results = false;
    op = read;
    (* warm-up shapes come from the far end of the permutation, which no
       window reaches *)
    warm = List.init 8 (fun j -> read (Adhoc.space_size - 1 - j));
    references = [];
    checked =
      (fun ~trace i ->
        i mod adhoc_check_every = 0
        && i < (if trace then traced_requests else traced_requests * adhoc_check_every));
  }

let all =
  [
    ("tpch-native", tpch_native);
    ("tpch-managed", tpch_managed);
    ("adhoc-cold", adhoc_cold);
    ("dashboard-writes", dashboard_writes);
  ]

let names = List.map fst all
let make ~seed name = Option.map (fun f -> f ~seed) (List.assoc_opt name all)

(* --- customer versions ----------------------------------------------- *)

let segments = [| "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "HOUSEHOLD"; "MACHINERY" |]

(* Version 0 is the generated table; versions 1-3 each change 1% of its
   rows (segment, nation, balance), chosen from the seed. *)
let customer_version ~seed base version =
  if version = 0 then base
  else
    let rng = Lq_exec.Prng.create (Hashtbl.hash ("customer", seed, version)) in
    List.map
      (fun row ->
        if Lq_exec.Prng.int rng 100 <> 0 then row
        else
          match row with
          | Value.Record fields ->
            Value.Record
              (Array.map
                 (fun (name, v) ->
                   match name with
                   | "c_mktsegment" -> (name, Value.Str (Lq_exec.Prng.pick rng segments))
                   | "c_nationkey" -> (name, Value.Int (Lq_exec.Prng.int rng 25))
                   | "c_acctbal" -> (name, Value.Float (Value.to_float v +. 1000.))
                   | _ -> (name, v))
                 fields)
          | v -> v)
      base
