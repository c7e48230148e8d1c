module Counters = Lq_metrics.Counters
module Lru = Lq_lru.Lru

type admission =
  | Admit_all
  | Cost_aware of float

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
  rejected : int;
  compile_ms : float;
}

type entry = {
  prepared : Lq_catalog.Engine_intf.prepared;
  cost_ms : float;  (** reported codegen cost, the admission currency *)
  tables : string list;  (** source tables baked into the plan *)
}

type t = {
  mu : Mutex.t;
  lru : entry Lru.t;
  admission : admission;
  counters : Counters.t;
}

let default_capacity = 256

let create ?(max_entries = default_capacity) ?(admission = Admit_all) () =
  {
    mu = Mutex.create ();
    lru = Lru.create ~max_entries ();
    admission;
    counters = Counters.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Keys pair the engine with the canonical shape; '\000' cannot occur in
   engine names, so the pairing is injective. *)
let key ~engine ~shape = engine ^ "\000" ^ shape

let engine_of_key k =
  match String.index_opt k '\000' with
  | Some i -> String.sub k 0 i
  | None -> k

let find_or_compile t ~engine ~shape ?(tables = []) ~compile () =
  Lq_fault.Inject.hit "cache/query";
  let key = key ~engine ~shape in
  let cached =
    locked t (fun () ->
        match Lru.find t.lru key with
        | Some entry ->
          Counters.incr t.counters "hits";
          Counters.incr t.counters ("hits/" ^ engine);
          Some entry.prepared
        | None -> None)
  in
  match cached with
  | Some prepared -> (prepared, `Hit)
  | None ->
    (* Compile outside the lock: codegen can be slow, and other Domains
       must be able to hit the cache meanwhile. A racing Domain compiling
       the same shape wastes one compilation but corrupts nothing. *)
    let prepared = compile () in
    let cost_ms = prepared.Lq_catalog.Engine_intf.codegen_ms in
    locked t (fun () ->
        Counters.incr t.counters "misses";
        Counters.incr t.counters ("misses/" ^ engine);
        Counters.add_ms t.counters "compile_ms" cost_ms;
        Counters.add_ms t.counters ("compile_ms/" ^ engine) cost_ms;
        if not (Lru.mem t.lru key) then begin
          (* Cost-aware admission: when full, a newcomer much cheaper to
             rebuild than the would-be victim is not worth the eviction —
             re-compiling the newcomer later costs less than re-compiling
             the victim would. *)
          let cap = Lru.max_entries t.lru in
          let reject =
            match (t.admission, Lru.peek_lru t.lru) with
            | Cost_aware factor, Some (_, victim)
              when cap >= 0 && Lru.length t.lru >= cap ->
              victim.cost_ms > cost_ms *. factor
            | _ -> false
          in
          if reject then Counters.incr t.counters "rejected"
          else
            match Lru.add t.lru ~key { prepared; cost_ms; tables } with
            | Some evicted ->
              Counters.incr ~by:(List.length evicted) t.counters "evictions"
            | None -> Counters.incr t.counters "rejected"
        end);
    (prepared, `Miss)

(* Compiled plans bind their sources at prepare time (the native backend
   compiles against the table's flat store), so a reloaded table makes
   every plan over it stale, not just its recycled results. *)
let invalidate t ~table =
  locked t (fun () ->
      let dropped =
        Lru.drop_where t.lru (fun _ entry ->
            List.exists (String.equal table) entry.tables)
      in
      if dropped > 0 then Counters.incr ~by:dropped t.counters "invalidations")

let stats t =
  locked t (fun () ->
      {
        hits = Counters.count t.counters "hits";
        misses = Counters.count t.counters "misses";
        entries = Lru.length t.lru;
        evictions = Counters.count t.counters "evictions";
        rejected = Counters.count t.counters "rejected";
        compile_ms = Counters.value t.counters "compile_ms";
      })

let counters t = t.counters

let engines t =
  locked t (fun () ->
      Lru.to_alist t.lru
      |> List.map (fun (k, _) -> engine_of_key k)
      |> List.sort_uniq String.compare)

let clear t =
  locked t (fun () ->
      Lru.clear t.lru;
      Counters.reset t.counters)

let const_params consts =
  List.mapi (fun i v -> (Printf.sprintf "__c%d" i, v)) consts
