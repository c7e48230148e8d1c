let linq_to_objects = Lq_linqobj.Linq_objects.engine
let compiled_csharp = Lq_compiled.Csharp_engine.engine
let compiled_c = Lq_native.Native_engine.engine
let hybrid = Lq_hybrid.Hybrid_engine.engine
let hybrid_buffered = Lq_hybrid.Hybrid_engine.engine_buffered
let hybrid_min = Lq_hybrid.Hybrid_engine.make ~construction:Lq_hybrid.Hybrid_engine.Min ()

let hybrid_min_buffered =
  Lq_hybrid.Hybrid_engine.make ~buffered:true ~construction:Lq_hybrid.Hybrid_engine.Min ()

let compiled_c_parallel = Lq_parallel.Parallel_engine.engine
let compiled_c_jit = Lq_jit.Jit_engine.engine
let sqlserver_interpreted = Lq_volcano.Volcano_engine.engine
let vectorwise = Lq_vector.Vector_engine.engine

let paper_engines =
  [ linq_to_objects; compiled_csharp; compiled_c; hybrid; hybrid_buffered ]

let all =
  [
    linq_to_objects;
    compiled_csharp;
    compiled_c;
    hybrid;
    hybrid_buffered;
    hybrid_min;
    hybrid_min_buffered;
    sqlserver_interpreted;
    vectorwise;
    compiled_c_parallel;
    compiled_c_jit;
  ]

let by_name name =
  List.find_opt (fun (e : Lq_catalog.Engine_intf.t) -> String.equal e.name name) all
