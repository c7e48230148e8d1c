open Lq_value
module Counters = Lq_metrics.Counters
module Lru = Lq_lru.Lru

type stats = {
  hits : int;
  misses : int;
  entries : int;
  cached_rows : int;
  evictions : int;
  invalidations : int;
}

type entry = {
  rows : Value.t list;
  tables : string list;  (** source tables; the invalidation fan-out *)
}

type t = {
  mu : Mutex.t;
  lru : entry Lru.t;
  counters : Counters.t;
}

let create ?(max_entries = 128) ?(max_rows = 262_144) () =
  {
    mu = Mutex.create ();
    lru = Lru.create ~max_entries ~max_weight:max_rows ();
    counters = Counters.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* The values are marshalled, not printed: the encoding keeps each
   constructor tag and every float's bits, so [Int 1] and [Float 1.0], or
   two floats [Value.to_string] rounds alike, never share an entry. *)
let key ~engine ~shape ~consts ~params =
  let params = List.sort (fun (a, _) (b, _) -> String.compare a b) params in
  String.concat "\000"
    [ engine; shape; Marshal.to_string (consts, params) [ Marshal.No_sharing ] ]

let find t key =
  locked t (fun () ->
      match Lru.find t.lru key with
      | Some entry ->
        Counters.incr t.counters "hits";
        Some entry.rows
      | None ->
        Counters.incr t.counters "misses";
        None)

let store t key ?(tables = []) rows =
  locked t (fun () ->
      if not (Lru.mem t.lru key) then
        let weight = List.length rows in
        match Lru.add t.lru ~key ~weight { rows; tables } with
        | Some evicted ->
          if evicted <> [] then
            Counters.incr ~by:(List.length evicted) t.counters "evictions"
        | None -> Counters.incr t.counters "rejected")

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
        cached_rows = Lru.total_weight t.lru;
        evictions = Counters.count t.counters "evictions";
        invalidations = Counters.count t.counters "invalidations";
      })

let counters t = t.counters

let clear t =
  locked t (fun () ->
      Lru.clear t.lru;
      Counters.reset t.counters)
