open Lq_value

type entry = {
  path : string list;
  flat_name : string;
  vty : Vtype.t;
}

type t = {
  entries : entry list;
  steps : (int * string) list list;
      (** per entry, the path as (static slot, member name) pairs *)
  with_index : bool;
  layout : Layout.t;
}

let index_field = "__idx"
let name_of_path path = String.concat "_" path

(* A path as (static slot, member name) steps through the source type,
   and the type at its end. *)
let resolve source path =
  let rec go ty = function
    | [] -> ([], ty)
    | name :: rest ->
      let fields = match ty with Vtype.Record fields -> fields | _ -> [] in
      let rec find i = function
        | (n, fty) :: _ when String.equal n name -> (i, fty)
        | _ :: more -> find (i + 1) more
        | [] ->
          invalid_arg
            (Printf.sprintf "Mapping: type %s has no member %S" (Vtype.to_string ty) name)
      in
      let i, fty = find 0 fields in
      let steps, leaf = go fty rest in
      ((i, name) :: steps, leaf)
  in
  go source path

let build ~source ~paths ~with_index =
  let seen = Hashtbl.create 16 in
  let unique = List.filter (fun p ->
      if Hashtbl.mem seen p then false
      else begin
        Hashtbl.add seen p ();
        true
      end)
      paths
  in
  let resolved =
    List.map
      (fun path ->
        let steps, vty = resolve source path in
        if not (Vtype.is_scalar vty) then
          invalid_arg
            (Printf.sprintf "Mapping: path %s leads to non-scalar %s"
               (String.concat "." path) (Vtype.to_string vty));
        ({ path; flat_name = name_of_path path; vty }, steps))
      unique
  in
  let entries = List.map fst resolved in
  let flat_fields = List.map (fun e -> (e.flat_name, e.vty)) entries in
  let flat_fields =
    if with_index then flat_fields @ [ (index_field, Vtype.Int) ] else flat_fields
  in
  { entries; steps = List.map snd resolved; with_index; layout = Layout.make flat_fields }

let entries t = t.entries
let layout t = t.layout

let flat_name t path =
  List.find_opt (fun e -> e.path = path) t.entries
  |> Option.map (fun e -> e.flat_name)

let extract v path = List.fold_left Value.field v path

(* --- the compiled row writer ---------------------------------------- *)

(* Member [name] at its static position [i]: the positional read, checked
   against the name, with a lookup by name when the runtime record is
   laid out differently. *)
let member v i name =
  match v with
  | Value.Record fields
    when i < Array.length fields && String.equal (fst (Array.unsafe_get fields i)) name ->
    snd (Array.unsafe_get fields i)
  | _ -> Value.field v name

let getter = function
  | [ (i, name) ] -> fun v -> member v i name
  | steps -> fun v -> List.fold_left (fun v (i, name) -> member v i name) v steps

let cannot_stage (f : Layout.field) v =
  invalid_arg
    (Printf.sprintf "Mapping: cannot stage %s into %s : %s" (Value.to_string v) f.Layout.name
       (Vtype.to_string f.Layout.vty))

(* One writer per field type, its row offset fixed. *)
let field_writer ~dict (f : Layout.field) get =
  let off = f.Layout.offset in
  match f.Layout.ftype with
  | Ftype.F64 -> (
    fun page base v ->
      match get v with
      | Value.Float x -> Bytes.set_int64_le page (base + off) (Int64.bits_of_float x)
      | other -> cannot_stage f other)
  | Ftype.I64 -> (
    fun page base v ->
      match get v with
      | Value.Int i -> Fbuf.set_i64 page (base + off) i
      | other -> cannot_stage f other)
  | Ftype.I32 -> (
    fun page base v ->
      match get v with
      | Value.Int i -> Fbuf.set_i32 page (base + off) i
      | other -> cannot_stage f other)
  | Ftype.Date32 -> (
    fun page base v ->
      match get v with
      | Value.Date d -> Fbuf.set_i32 page (base + off) d
      | other -> cannot_stage f other)
  | Ftype.Bool8 -> (
    fun page base v ->
      match get v with
      | Value.Bool b -> Fbuf.set_bool page (base + off) b
      | other -> cannot_stage f other)
  | Ftype.Str32 -> (
    fun page base v ->
      match get v with
      | Value.Str s -> Fbuf.set_i32 page (base + off) (Dict.intern dict s)
      | other -> cannot_stage f other)

let writer t ~dict =
  let writers =
    Array.of_list
      (List.mapi
         (fun col steps -> field_writer ~dict (Layout.field_at t.layout col) (getter steps))
         t.steps)
  in
  let n = Array.length writers in
  let write_fields page base v =
    for k = 0 to n - 1 do
      (Array.unsafe_get writers k) page base v
    done
  in
  if t.with_index then begin
    let index_off = (Layout.field_at t.layout n).Layout.offset in
    fun page base ~index v ->
      write_fields page base v;
      Fbuf.set_i64 page (base + index_off) index
  end
  else fun page base ~index:_ v -> write_fields page base v

let describe t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "object-oriented                  -> native\n";
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%-32s -> %s : %s\n"
           (String.concat "." e.path) e.flat_name (Vtype.to_string e.vty)))
    t.entries;
  if t.with_index then
    Buffer.add_string buf
      (Printf.sprintf "%-32s -> %s : int (source array index)\n" "<reference>" index_field);
  Buffer.contents buf
