open Lq_value

type t = {
  layout : Layout.t;
  dict : Dict.t;
  mutable data : bytes;
  mutable nrows : int;
  base_addr : int;
}

(* A generous synthetic range is reserved up front so addresses stay stable
   while the buffer grows. *)
let synthetic_span = 1 lsl 32

let create ?(capacity_rows = 1024) ~layout ~dict () =
  let width = max 1 (Layout.row_width layout) in
  {
    layout;
    dict;
    data = Bytes.make (max 64 (capacity_rows * width)) '\000';
    nrows = 0;
    base_addr = Addr_space.alloc synthetic_span;
  }

let layout t = t.layout
let dict t = t.dict
let length t = t.nrows
let data t = t.data
let base_addr t = t.base_addr

let addr t ~row ~col =
  let f = Layout.field_at t.layout col in
  t.base_addr + (row * Layout.row_width t.layout) + f.Layout.offset

let ensure t rows =
  let width = max 1 (Layout.row_width t.layout) in
  let needed = rows * width in
  if needed > Bytes.length t.data then begin
    let cap = max needed (Bytes.length t.data * 2) in
    let data = Bytes.make cap '\000' in
    Bytes.blit t.data 0 data 0 (t.nrows * width);
    t.data <- data
  end

let alloc_row t =
  ensure t (t.nrows + 1);
  let row = t.nrows in
  t.nrows <- row + 1;
  row

let field_offset t ~row ~col =
  let f = Layout.field_at t.layout col in
  ((row * Layout.row_width t.layout) + f.Layout.offset, f.Layout.ftype)

let get_int t ~row ~col =
  let off, ftype = field_offset t ~row ~col in
  match ftype with
  | Ftype.Bool8 -> if Fbuf.get_bool t.data off then 1 else 0
  | Ftype.I32 | Ftype.Date32 | Ftype.Str32 -> Fbuf.get_i32 t.data off
  | Ftype.I64 -> Fbuf.get_i64 t.data off
  | Ftype.F64 -> invalid_arg "Rowstore.get_int: float field"

let get_float t ~row ~col =
  let off, ftype = field_offset t ~row ~col in
  match ftype with
  | Ftype.F64 -> Fbuf.get_f64 t.data off
  | Ftype.Bool8 | Ftype.I32 | Ftype.Date32 | Ftype.Str32 | Ftype.I64 ->
    invalid_arg "Rowstore.get_float: integer field"

let set_int t ~row ~col v =
  let off, ftype = field_offset t ~row ~col in
  match ftype with
  | Ftype.Bool8 -> Fbuf.set_bool t.data off (v <> 0)
  | Ftype.I32 | Ftype.Date32 | Ftype.Str32 -> Fbuf.set_i32 t.data off v
  | Ftype.I64 -> Fbuf.set_i64 t.data off v
  | Ftype.F64 -> invalid_arg "Rowstore.set_int: float field"

let set_float t ~row ~col v =
  let off, ftype = field_offset t ~row ~col in
  match ftype with
  | Ftype.F64 -> Fbuf.set_f64 t.data off v
  | Ftype.Bool8 | Ftype.I32 | Ftype.Date32 | Ftype.Str32 | Ftype.I64 ->
    invalid_arg "Rowstore.set_float: integer field"

let encode_field t ~row ~col v =
  let f = Layout.field_at t.layout col in
  match (f.Layout.ftype, v) with
  | Ftype.F64, _ -> set_float t ~row ~col (Value.to_float v)
  | Ftype.Bool8, Value.Bool b -> set_int t ~row ~col (if b then 1 else 0)
  | (Ftype.I32 | Ftype.I64), Value.Int i -> set_int t ~row ~col i
  | Ftype.Date32, Value.Date d -> set_int t ~row ~col d
  | Ftype.Str32, Value.Str s -> set_int t ~row ~col (Dict.intern t.dict s)
  | _ ->
    invalid_arg
      (Printf.sprintf "Rowstore: cannot store %s into field %s"
         (Value.to_string v) f.Layout.name)

let append_record t record =
  let row = alloc_row t in
  Array.iteri
    (fun col (f : Layout.field) ->
      encode_field t ~row ~col (Value.field record f.Layout.name))
    (Layout.fields t.layout)

let of_records ~layout ~dict records =
  let t = create ~capacity_rows:(max 16 (List.length records)) ~layout ~dict () in
  List.iter (append_record t) records;
  t

let decode dict data (f : Layout.field) base =
  let off = base + f.Layout.offset in
  match f.Layout.ftype with
  | Ftype.Bool8 -> Value.Bool (Fbuf.get_bool data off)
  | Ftype.F64 -> Value.Float (Fbuf.get_f64 data off)
  | Ftype.I64 -> Value.Int (Fbuf.get_i64 data off)
  | Ftype.I32 -> Value.Int (Fbuf.get_i32 data off)
  | Ftype.Date32 -> Value.Date (Fbuf.get_i32 data off)
  | Ftype.Str32 -> Value.Str (Dict.get dict (Fbuf.get_i32 data off))

let get_value t ~row ~col =
  decode t.dict t.data (Layout.field_at t.layout col) (row * Layout.row_width t.layout)

let row_value t row =
  Value.Record
    (Array.mapi
       (fun col (f : Layout.field) -> (f.Layout.name, get_value t ~row ~col))
       (Layout.fields t.layout))

let int_reader ?trace t col =
  let f = Layout.field_at t.layout col in
  let width = Layout.row_width t.layout in
  let off = f.Layout.offset in
  let base = t.base_addr + off in
  let traced k =
    match trace with
    | None -> k
    | Some tr ->
      fun row ->
        tr (base + (row * width));
        k row
  in
  match f.Layout.ftype with
  | Ftype.Bool8 -> traced (fun row -> if Fbuf.get_bool t.data ((row * width) + off) then 1 else 0)
  | Ftype.I32 | Ftype.Date32 | Ftype.Str32 ->
    traced (fun row -> Fbuf.get_i32 t.data ((row * width) + off))
  | Ftype.I64 -> traced (fun row -> Fbuf.get_i64 t.data ((row * width) + off))
  | Ftype.F64 -> invalid_arg "Rowstore.int_reader: float field"

let float_reader ?trace t col =
  let f = Layout.field_at t.layout col in
  let width = Layout.row_width t.layout in
  let off = f.Layout.offset in
  let base = t.base_addr + off in
  match f.Layout.ftype with
  | Ftype.F64 -> (
    match trace with
    | None -> fun row -> Fbuf.get_f64 t.data ((row * width) + off)
    | Some tr ->
      fun row ->
        tr (base + (row * width));
        Fbuf.get_f64 t.data ((row * width) + off))
  | _ -> invalid_arg "Rowstore.float_reader: integer field"

let value_reader ?trace t col =
  let f = Layout.field_at t.layout col in
  let width = Layout.row_width t.layout in
  let off = f.Layout.offset in
  let base = t.base_addr + off in
  let read row = decode t.dict t.data f (row * width) in
  match trace with
  | None -> read
  | Some tr ->
    fun row ->
      tr (base + (row * width));
      read row

let clear t = t.nrows <- 0
