open Lq_value

exception Not_flat of string

type table = {
  name : string;
  schema : Schema.t;
  rows : Value.t list;
  nrows : int;  (** counted once here, so [row_count] never walks [rows] *)
  boxed : Value.t array Lazy.t;
  flat : Lq_storage.Rowstore.t Lazy.t;
  columns : Lq_storage.Colstore.t Lazy.t;
  heap_addrs : int array Lazy.t;
  force_mu : Mutex.t;
      (** serializes first-forcing of the lazy stores: concurrent
          [Lazy.force] from two Domains raises [Undefined], and a cold
          table's first queries arrive concurrently under the service's
          worker pool *)
  indexes : (string, Lq_exec.Int_table.Multi.t) Hashtbl.t;
}

type t = {
  tables : (string, table) Hashtbl.t;
  dict : Lq_storage.Dict.t;
  heap : Lq_cachesim.Heap_model.t;
  listeners : (string -> unit) ref list Atomic.t;
      (** invalidation hooks, called with the table name on mutation; each
          cell is one registration's identity *)
}

let create () =
  {
    tables = Hashtbl.create 16;
    dict = Lq_storage.Dict.create ();
    heap = Lq_cachesim.Heap_model.create ();
    listeners = Atomic.make [];
  }

(* Compare-and-set, so concurrent (un)subscribers never lose a hook. *)
let on_invalidate t hook =
  let rec update f =
    let old = Atomic.get t.listeners in
    if not (Atomic.compare_and_set t.listeners old (f old)) then update f
  in
  let cell = ref hook in
  update (fun hooks -> cell :: hooks);
  fun () -> update (List.filter (fun c -> c != cell))

let notify_invalidate t name = List.iter (fun hook -> !hook name) (Atomic.get t.listeners)

let dict t = t.dict

let schema_is_flat schema =
  Array.for_all
    (fun (f : Schema.field) -> Vtype.is_scalar f.Schema.ty)
    (Schema.fields schema)

let make_table t ~name ~schema rows =
  let nrows = List.length rows in
  let rec table =
    {
      name;
      schema;
      rows;
      nrows;
      boxed = lazy (Array.of_list rows);
      flat =
        lazy
          (if not (schema_is_flat schema) then raise (Not_flat name)
           else
             Lq_storage.Rowstore.of_records ~layout:(Lq_storage.Layout.of_schema schema)
               ~dict:t.dict rows);
      columns = lazy (Lq_storage.Colstore.of_rowstore (Lazy.force table.flat));
      heap_addrs =
        lazy
          (Lq_cachesim.Heap_model.alloc_rows t.heap ~nrows
             ~nfields:(Schema.arity schema));
      force_mu = Mutex.create ();
      indexes = Hashtbl.create 4;
    }
  in
  table

let add t ~name ~schema rows =
  if Hashtbl.mem t.tables name then
    invalid_arg (Printf.sprintf "Catalog.add: table %S already registered" name);
  Hashtbl.add t.tables name (make_table t ~name ~schema rows)

let remove t name =
  if Hashtbl.mem t.tables name then begin
    Hashtbl.remove t.tables name;
    notify_invalidate t name
  end

let table t name =
  match Hashtbl.find_opt t.tables name with
  | Some table -> table
  | None -> raise (Lq_expr.Eval.Unbound_source name)

let names t = Hashtbl.fold (fun name _ acc -> name :: acc) t.tables [] |> List.sort compare
let schema table = table.schema
let name table = table.name
let rows table = table.rows
(* Every force goes through the table mutex — including reads of
   already-computed stores. [Lazy.is_val] cannot serve as a lock-free
   fast path: it reports [true] while another Domain is mid-force (the
   block carries [forcing_tag], not [lazy_tag]), so an unlocked force
   behind it still races into [Undefined]. The lock is per-query, not
   per-row, so the cost is noise. The [columns] thunk forces [flat]
   internally; that inner plain [Lazy.force] already holds the mutex,
   and every entry point is guarded here. *)
let force_store table l =
  Mutex.lock table.force_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock table.force_mu) (fun () -> Lazy.force l)

let boxed table = force_store table table.boxed
let row_count table = table.nrows
let is_flat table = schema_is_flat table.schema

let store table = force_store table table.flat

let cols table = force_store table table.columns
let column_encodings table = Lq_storage.Colstore.encodings (cols table)
let heap_addrs table = force_store table table.heap_addrs

let eval_ctx t ~params =
  Lq_expr.Eval.ctx ~catalog:(fun name -> (table t name).rows) ~params ()

let tenv t ~params =
  Lq_expr.Typecheck.tenv ~source_type:(fun name -> Schema.to_vtype (table t name).schema) ~params ()

(* --- hash indexes (§9 future work) --- *)

let create_index t ~table:tname ~column =
  let tbl = table t tname in
  if not (Hashtbl.mem tbl.indexes column) then begin
    let store = store tbl in
    let layout = Lq_storage.Rowstore.layout store in
    let col = Lq_storage.Layout.field_index_exn layout column in
    (match (Lq_storage.Layout.field_at layout col).Lq_storage.Layout.ftype with
    | Lq_storage.Ftype.F64 ->
      invalid_arg (Printf.sprintf "Catalog.create_index: float column %S" column)
    | _ -> ());
    let n = Lq_storage.Rowstore.length store in
    let index = Lq_exec.Int_table.Multi.create (max 16 n) in
    let read = Lq_storage.Rowstore.int_reader store col in
    for row = 0 to n - 1 do
      Lq_exec.Int_table.Multi.add index (read row) row
    done;
    Hashtbl.add tbl.indexes column index
  end

let index table column = Hashtbl.find_opt table.indexes column
let indexed_columns table = Hashtbl.fold (fun c _ acc -> c :: acc) table.indexes []

(* A new version keeps the hash indexes declared on the old one (on the
   columns it still has), rebuilt over its rows, so plans prepared after
   the write still probe. *)
let replace t ~name ~schema rows =
  let indexed =
    match Hashtbl.find_opt t.tables name with
    | Some old -> List.filter (Schema.mem schema) (indexed_columns old)
    | None -> []
  in
  Hashtbl.replace t.tables name (make_table t ~name ~schema rows);
  List.iter (fun column -> create_index t ~table:name ~column) indexed;
  notify_invalidate t name
