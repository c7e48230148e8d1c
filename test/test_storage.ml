(* Tests for the flat storage substrate: byte buffers, layouts, the row
   store, the dictionary, columns, buffer pages and §6.2 mappings. *)

open Lq_value
open Lq_storage

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- fbuf --- *)

let test_fbuf_roundtrip () =
  let b = Bytes.make 64 '\000' in
  Fbuf.set_i32 b 0 (-123456);
  check_int "i32" (-123456) (Fbuf.get_i32 b 0);
  Fbuf.set_i64 b 8 max_int;
  check_int "i64 max_int" max_int (Fbuf.get_i64 b 8);
  Fbuf.set_i64 b 16 min_int;
  check_int "i64 min_int" min_int (Fbuf.get_i64 b 16);
  Fbuf.set_f64 b 24 3.14159;
  Alcotest.(check (float 0.0)) "f64" 3.14159 (Fbuf.get_f64 b 24);
  Fbuf.set_bool b 32 true;
  check_bool "bool" true (Fbuf.get_bool b 32)

let prop_fbuf_i64 =
  Lq_testkit.qtest ~count:300 "fbuf: i64 roundtrips any int" QCheck2.Gen.int (fun x ->
      let b = Bytes.make 8 '\000' in
      Fbuf.set_i64 b 0 x;
      Fbuf.get_i64 b 0 = x)

(* --- layout --- *)

let demo_layout () =
  Layout.make
    [
      ("flag", Vtype.Bool);
      ("qty", Vtype.Int);
      ("price", Vtype.Float);
      ("day", Vtype.Date);
      ("name", Vtype.String);
    ]

let test_layout_offsets () =
  let l = demo_layout () in
  let offs = Array.to_list (Layout.fields l) |> List.map (fun f -> f.Layout.offset) in
  Alcotest.(check (list int)) "packed offsets" [ 0; 1; 9; 17; 21 ] offs;
  check_int "row width" 25 (Layout.row_width l);
  check_int "index" 2 (Layout.field_index_exn l "price");
  check_bool "c struct mentions types" true
    (let s = Layout.c_struct ~name:"row_t" l in
     String.length s > 0
     && String.index_opt s '{' <> None
     &&
     let contains sub =
       Lq_expr.Scalar.like_match ~pattern:("%" ^ sub ^ "%") s
     in
     contains "double" && contains "int64_t")

let test_layout_reorder () =
  let l = demo_layout () in
  let r = Layout.reorder l ~first:[ "name"; "price" ] in
  Alcotest.(check (list string))
    "reordered names" [ "name"; "price"; "flag"; "qty"; "day" ]
    (Array.to_list (Layout.fields r) |> List.map (fun f -> f.Layout.name));
  check_int "same width" (Layout.row_width l) (Layout.row_width r);
  check_int "first offset 0" 0 (Layout.field_at r 0).Layout.offset

let test_layout_rejects_nested () =
  Alcotest.check_raises "nested record"
    (Invalid_argument "Ftype.of_vtype: {x: int} has no flat representation")
    (fun () -> ignore (Layout.make [ ("r", Vtype.Record [ ("x", Vtype.Int) ]) ]))

(* --- dict --- *)

let test_dict () =
  let d = Dict.create () in
  let a = Dict.intern d "hello" in
  let b = Dict.intern d "world" in
  check_int "first is 0" 0 a;
  check_int "second is 1" 1 b;
  check_int "stable" a (Dict.intern d "hello");
  check_str "decode" "world" (Dict.get d b);
  check_bool "find miss" true (Dict.find d "nope" = None);
  check_int "size" 2 (Dict.size d);
  Alcotest.check_raises "bad code" (Invalid_argument "Dict.get: unknown code 99")
    (fun () -> ignore (Dict.get d 99));
  (* growth *)
  for i = 0 to 2000 do
    ignore (Dict.intern d (string_of_int i))
  done;
  check_str "after growth" "1500" (Dict.get d (Option.get (Dict.find d "1500")))

(* --- rowstore --- *)

let demo_schema =
  Schema.make
    [
      ("flag", Vtype.Bool);
      ("qty", Vtype.Int);
      ("price", Vtype.Float);
      ("day", Vtype.Date);
      ("name", Vtype.String);
    ]

let demo_row i =
  Schema.row demo_schema
    [
      Value.Bool (i mod 2 = 0);
      Value.Int (i * 3);
      Value.Float (float_of_int i /. 4.0);
      Value.Date (1000 + i);
      Value.Str (Printf.sprintf "s%d" (i mod 5));
    ]

let test_rowstore_roundtrip () =
  let rows = List.init 100 demo_row in
  let store =
    Rowstore.of_records ~layout:(Layout.of_schema demo_schema)
      ~dict:(Dict.create ()) rows
  in
  check_int "length" 100 (Rowstore.length store);
  List.iteri
    (fun i expected ->
      check_bool
        (Printf.sprintf "row %d" i)
        true
        (Value.equal expected (Rowstore.row_value store i)))
    rows

let test_rowstore_readers () =
  let rows = List.init 10 demo_row in
  let store =
    Rowstore.of_records ~layout:(Layout.of_schema demo_schema) ~dict:(Dict.create ())
      rows
  in
  let qty = Rowstore.int_reader store 1 in
  let price = Rowstore.float_reader store 2 in
  check_int "int reader" 9 (qty 3);
  Alcotest.(check (float 0.0)) "float reader" 0.75 (price 3);
  (* traced reader reports addresses within the store's range *)
  let hits = ref [] in
  let traced = Rowstore.int_reader ~trace:(fun a -> hits := a :: !hits) store 1 in
  ignore (traced 3);
  ignore (traced 4);
  check_int "two traces" 2 (List.length !hits);
  check_int "trace matches addr" (Rowstore.addr store ~row:3 ~col:1)
    (List.nth !hits 1)

let test_rowstore_write_clear () =
  let store =
    Rowstore.create ~layout:(Layout.make [ ("a", Vtype.Int); ("b", Vtype.Float) ])
      ~dict:(Dict.create ()) ()
  in
  let r = Rowstore.alloc_row store in
  Rowstore.set_int store ~row:r ~col:0 42;
  Rowstore.set_float store ~row:r ~col:1 1.5;
  check_int "read back" 42 (Rowstore.get_int store ~row:r ~col:0);
  Alcotest.check_raises "type mismatch"
    (Invalid_argument "Rowstore.get_int: float field") (fun () ->
      ignore (Rowstore.get_int store ~row:r ~col:1));
  Rowstore.clear store;
  check_int "cleared" 0 (Rowstore.length store);
  (* growth across many rows *)
  for i = 0 to 5000 do
    let r = Rowstore.alloc_row store in
    Rowstore.set_int store ~row:r ~col:0 i
  done;
  check_int "growth preserves data" 4999 (Rowstore.get_int store ~row:4999 ~col:0)

(* --- colstore --- *)

let test_colstore () =
  let rows = List.init 20 demo_row in
  let store =
    Rowstore.of_records ~layout:(Layout.of_schema demo_schema) ~dict:(Dict.create ())
      rows
  in
  let cols = Colstore.of_rowstore store in
  check_int "length" 20 (Colstore.length cols);
  check_int "qty col" 9 (Colstore.ints cols 1).(3);
  Alcotest.(check (float 0.0)) "price col" 0.75 (Colstore.floats cols 2).(3);
  Alcotest.check_raises "wrong accessor" (Invalid_argument "Colstore.ints: float column")
    (fun () -> ignore (Colstore.ints cols 2));
  List.iteri
    (fun i expected ->
      check_bool "row reconstruction" true (Value.equal expected (Colstore.row_value cols i)))
    rows

(* --- colstore encodings --- *)

let int_column_store ints =
  let schema = Schema.make [ ("x", Vtype.Int) ] in
  Rowstore.of_records ~layout:(Layout.of_schema schema) ~dict:(Dict.create ())
    (List.map (fun x -> Schema.row schema [ Value.Int x ]) ints)

let test_colstore_encoding_choice () =
  let enc ints = Colstore.encoding (Colstore.of_rowstore (int_column_store ints)) 0 in
  check_str "long runs pick rle" "rle" (enc (List.init 400 (fun i -> i / 100)));
  check_str "low cardinality picks dict8" "dict8"
    (enc (List.init 400 (fun i -> i * 7 mod 11)));
  check_str "mid cardinality picks dict16" "dict16"
    (enc (List.init 4000 (fun i -> i * 37 mod 700)));
  check_str "high cardinality stays plain" "plain"
    (enc (List.init 400 (fun i -> i * 1_000_003)));
  check_str "tiny stores stay plain" "plain" (enc (List.init 8 (fun i -> i mod 2)));
  (* float columns dictionary-encode too *)
  let fschema = Schema.make [ ("y", Vtype.Float) ] in
  let fstore =
    Rowstore.of_records ~layout:(Layout.of_schema fschema) ~dict:(Dict.create ())
      (List.init 400 (fun i -> Schema.row fschema [ Value.Float (float_of_int (i mod 5)) ]))
  in
  let fcols = Colstore.of_rowstore fstore in
  check_str "float dict" "dict8" (Colstore.encoding fcols 0);
  Alcotest.(check (float 0.0)) "float decode" 3.0 (Colstore.floats fcols 0).(3)

let gen_int_column : int list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* style = int_range 0 2 in
  match style with
  | 0 ->
    (* low cardinality: dictionary territory *)
    let* n = int_range 0 600 in
    list_size (return n) (int_range (-5) 5)
  | 1 ->
    (* run shaped: a few values each repeated a random run length *)
    let* runs =
      list_size (int_range 0 40) (pair (int_range (-3) 3) (int_range 1 50))
    in
    return (List.concat_map (fun (v, len) -> List.init len (fun _ -> v)) runs)
  | _ ->
    (* arbitrary: usually stays plain *)
    let* n = int_range 0 600 in
    list_size (return n) int

let prop_colstore_roundtrip =
  Lq_testkit.qtest ~count:200 "colstore: every encoding decodes to its source"
    gen_int_column (fun ints ->
      let cols = Colstore.of_rowstore (int_column_store ints) in
      let expected = Array.of_list ints in
      let n = Array.length expected in
      let col = Colstore.column cols 0 in
      Colstore.ints cols 0 = expected
      && Array.for_all Fun.id (Array.init n (fun i -> Colstore.get_int_at col i = expected.(i)))
      (* plain is always a candidate, so encoding never loses *)
      && Colstore.encoded_bytes cols 0 <= 8 * n)

(* --- selvec --- *)

let test_selvec () =
  let sv = Selvec.of_array [| 2; 5; 9 |] in
  check_int "length" 3 (Selvec.length sv);
  check_int "get" 5 (Selvec.get sv 1);
  let inner = Selvec.of_array [| 0; 2 |] in
  Alcotest.(check (array int)) "compose resolves to base indices" [| 2; 9 |]
    (Selvec.to_array (Selvec.compose (Some sv) inner));
  Alcotest.(check (array int)) "compose without base is identity" [| 0; 2 |]
    (Selvec.to_array (Selvec.compose None inner));
  Alcotest.(check (array int)) "of_mask through a base" [| 2; 9 |]
    (Selvec.to_array (Selvec.of_mask ~base:sv [| 1; 0; 1 |]));
  Alcotest.(check (array int)) "of_mask bare" [| 0; 2 |]
    (Selvec.to_array (Selvec.of_mask [| 1; 0; 1 |]));
  Alcotest.(check (array int)) "of_pred keeps base-space rows" [| 5; 9 |]
    (Selvec.to_array (Selvec.of_pred ~base:sv ~n:3 (fun row -> row > 2)));
  Alcotest.(check (array int)) "of_ranges concatenates" [| 1; 2; 7 |]
    (Selvec.to_array (Selvec.of_ranges [ (1, 3); (7, 8) ]))

(* --- encoded-column differential (vectorwise vs the oracle) --- *)

(* A fixture whose columns provably land on every encoding, so random
   filters/aggregates through the vector engine exercise the dictionary-
   and run-probe pushdown paths as well as the mask fallback. *)
let enc_schema =
  Schema.make
    [
      ("id", Vtype.Int);
      ("run", Vtype.Int);
      ("grp", Vtype.Int);
      ("price", Vtype.Float);
      ("city", Vtype.String);
    ]

let enc_catalog ?(n = 400) ~seed () =
  let rng = Lq_exec.Prng.create seed in
  let cities = [| "a"; "b"; "c" |] in
  let rows =
    List.init n (fun i ->
        Schema.row enc_schema
          [
            Value.Int i;
            Value.Int (i / 40);
            Value.Int (Lq_exec.Prng.int rng 7);
            Value.Float (float_of_int (Lq_exec.Prng.int rng 9));
            Value.Str cities.(Lq_exec.Prng.int rng (Array.length cities));
          ])
  in
  let cat = Lq_catalog.Catalog.create () in
  Lq_catalog.Catalog.add cat ~name:"enc" ~schema:enc_schema rows;
  cat

let test_enc_fixture_encodings () =
  let cat = enc_catalog ~seed:1 () in
  let encs =
    Lq_catalog.Catalog.column_encodings (Lq_catalog.Catalog.table cat "enc")
  in
  Alcotest.(check (list (pair string string)))
    "fixture covers every encoding"
    [
      ("id", "plain");
      ("run", "rle");
      ("grp", "dict8");
      ("price", "dict8");
      ("city", "dict8");
    ]
    encs

let gen_enc_query =
  let open QCheck2.Gen in
  let open Lq_expr.Dsl in
  let pred =
    oneof
      [
        (* single-field predicates: the probe-pushdown shapes *)
        (let* k = int_range 0 12 in
         return (v "s" $. "run" =: int k));
        (let* k = int_range 0 12 in
         return (v "s" $. "run" <: int k));
        (let* k = int_range 0 8 in
         return (v "s" $. "grp" =: int k));
        (let* k = int_range 0 8 in
         return (v "s" $. "grp" >=: int k));
        (let* x = float_range 0.0 10.0 in
         return (v "s" $. "price" <: float x));
        (let* c = oneofl [ "a"; "b"; "z" ] in
         return (v "s" $. "city" =: str c));
        (* two-field compound: must fall back to the mask path *)
        (let* k = int_range 0 8 and* j = int_range 0 12 in
         return ((v "s" $. "grp" =: int k) ||: (v "s" $. "run" >: int j)));
      ]
  in
  let* p1 = pred in
  let base = source "enc" |> where "s" p1 in
  let* shape = int_range 0 3 in
  match shape with
  | 0 -> return base
  | 1 ->
    return
      (base |> select "s" (record [ ("g", v "s" $. "grp"); ("p", v "s" $. "price") ]))
  | 2 ->
    (* stacked filters: the second probe composes through the selection *)
    let* p2 = pred in
    return (base |> where "s" p2 |> select "s" (v "s" $. "id"))
  | _ ->
    return
      (base
      |> group_by
           ~key:("s", v "s" $. "grp")
           ~result:
             ( "g",
               record
                 [
                   ("k", v "g" $. "Key");
                   ("n", count (v "g"));
                   ("total", sum (v "g") "x" (v "x" $. "run"));
                   ("avg_price", avg (v "g") "x" (v "x" $. "price"));
                 ] ))

let enc_cat = lazy (enc_catalog ~seed:5 ())
let enc_prov = lazy (Lq_core.Provider.create (Lazy.force enc_cat))

let prop_encoded_differential =
  Lq_testkit.qtest ~count:150
    "vectorwise over encoded columns agrees with the oracle" gen_enc_query
    (fun q ->
      match
        Lq_testkit.engine_agrees_with_reference
          ~provider:(Lazy.force enc_prov) (Lazy.force enc_cat)
          Lq_vector.Vector_engine.engine q
      with
      | `Agree | `Unsupported -> true
      | `Disagree _ -> false)

(* Four Domains intern the same fresh strings, each in its own order,
   while a base of older strings is read: every string must get exactly
   one code, and every code must decode back to its string. *)
let test_dict_domains () =
  let d = Dict.create () in
  let base = Array.init 1000 (fun i -> Printf.sprintf "base-%d" i) in
  Array.iter (fun s -> ignore (Dict.intern d s : int)) base;
  let n = 20_000 in
  let fresh = Array.init n (fun i -> Printf.sprintf "fresh-%d" i) in
  let domains = 4 in
  let codes =
    List.init domains (fun k ->
        Domain.spawn (fun () ->
            let mine = Array.make n (-1) in
            for j = 0 to n - 1 do
              (* a different stride per Domain (each coprime to [n]):
                 they race on every string *)
              let i = (j * [| 1; 3; 7; 9 |].(k)) mod n in
              mine.(i) <- Dict.intern d fresh.(i);
              ignore (Dict.intern d base.(j mod 1000) : int)
            done;
            mine))
    |> List.map Domain.join
  in
  let first = List.hd codes in
  List.iteri
    (fun k mine ->
      Array.iteri
        (fun i code ->
          if code <> first.(i) then
            Alcotest.failf "%S: code %d on Domain 0, %d on Domain %d" fresh.(i) first.(i) code k)
        mine)
    codes;
  Array.iteri
    (fun i code ->
      if not (String.equal (Dict.get d code) fresh.(i)) then
        Alcotest.failf "code %d decodes to %S, not %S" code (Dict.get d code) fresh.(i);
      if Dict.find d fresh.(i) <> Some code then Alcotest.failf "find %S" fresh.(i))
    first;
  check_int "one code per string" (1000 + n) (Dict.size d)

(* --- mapping --- *)

let nested_ty = Schema.to_vtype Lq_testkit.nested_schema

let test_mapping_build () =
  let m =
    Mapping.build ~source:nested_ty
      ~paths:[ [ "shop"; "city" ]; [ "item"; "price" ]; [ "shop"; "city" ] ]
      ~with_index:true
  in
  (* duplicates collapse; names follow the path; index column last *)
  Alcotest.(check (list string))
    "flat names" [ "shop_city"; "item_price"; "__idx" ]
    (Array.to_list (Layout.fields (Mapping.layout m)) |> List.map (fun f -> f.Layout.name));
  check_bool "flat_name lookup" true
    (Mapping.flat_name m [ "item"; "price" ] = Some "item_price");
  check_bool "describe mentions path" true
    (Lq_expr.Scalar.like_match ~pattern:"%shop.city%" (Mapping.describe m))

let test_mapping_write () =
  let m =
    Mapping.build ~source:nested_ty
      ~paths:[ [ "shop"; "city" ]; [ "item"; "price" ]; [ "oid" ] ]
      ~with_index:true
  in
  let dict = Dict.create () in
  let row = List.hd (Lq_testkit.nested_rows ~n:1 ()) in
  let page = Bytes.make 256 '\000' in
  let write = Mapping.writer m ~dict in
  write page 0 ~index:41 row;
  let layout = Mapping.layout m in
  let city_off = (Layout.field_at layout 0).Layout.offset in
  let price_off = (Layout.field_at layout 1).Layout.offset in
  let idx_off = (Layout.field_at layout 3).Layout.offset in
  check_str "city staged" "London" (Dict.get dict (Fbuf.get_i32 page city_off));
  check_bool "price staged" true
    (Fbuf.get_f64 page price_off = Value.to_float (Mapping.extract row [ "item"; "price" ]));
  check_int "index staged" 41 (Fbuf.get_i64 page idx_off);
  (* the compiled writer reads members at their static slots; a record
     laid out differently stages the same row through name lookups *)
  let fields = match row with Value.Record fs -> Array.to_list fs | _ -> assert false in
  let page' = Bytes.make 256 '\000' in
  write page' 0 ~index:41 (Value.record (List.rev fields));
  check_bool "reordered record staged by name" true (Bytes.equal page page');
  check_bool "ill-typed member rejected" true
    (match
       write page' 0 ~index:41
         (Value.record
            (List.map (fun (n, v) -> if n = "oid" then (n, Value.Str "x") else (n, v)) fields))
     with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_mapping_errors () =
  Alcotest.check_raises "unknown member"
    (Invalid_argument "Mapping: type {name: string; price: float; weight: int} has no member \"nope\"")
    (fun () ->
      ignore (Mapping.build ~source:nested_ty ~paths:[ [ "item"; "nope" ] ] ~with_index:false));
  check_bool "non-scalar leaf rejected" true
    (match Mapping.build ~source:nested_ty ~paths:[ [ "item" ] ] ~with_index:false with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "storage"
    [
      ("fbuf", [ Alcotest.test_case "roundtrip" `Quick test_fbuf_roundtrip; prop_fbuf_i64 ]);
      ( "layout",
        [
          Alcotest.test_case "offsets" `Quick test_layout_offsets;
          Alcotest.test_case "reorder" `Quick test_layout_reorder;
          Alcotest.test_case "rejects nested" `Quick test_layout_rejects_nested;
        ] );
      ( "dict",
        [
          Alcotest.test_case "intern/get" `Quick test_dict;
          Alcotest.test_case "4 Domains intern one code per string" `Quick test_dict_domains;
        ] );
      ( "rowstore",
        [
          Alcotest.test_case "roundtrip" `Quick test_rowstore_roundtrip;
          Alcotest.test_case "readers" `Quick test_rowstore_readers;
          Alcotest.test_case "write/clear/growth" `Quick test_rowstore_write_clear;
        ] );
      ( "colstore",
        [
          Alcotest.test_case "decompose" `Quick test_colstore;
          Alcotest.test_case "encoding choice" `Quick test_colstore_encoding_choice;
          prop_colstore_roundtrip;
        ] );
      ("selvec", [ Alcotest.test_case "construction and composition" `Quick test_selvec ]);
      ( "encoded differential",
        [
          Alcotest.test_case "fixture encodings" `Quick test_enc_fixture_encodings;
          prop_encoded_differential;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "build" `Quick test_mapping_build;
          Alcotest.test_case "write" `Quick test_mapping_write;
          Alcotest.test_case "errors" `Quick test_mapping_errors;
        ] );
    ]
