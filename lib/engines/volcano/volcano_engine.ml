open Lq_value
module Ast = Lq_expr.Ast
module Eval = Lq_expr.Eval
module Scalar = Lq_expr.Scalar
module Catalog = Lq_catalog.Catalog
module Engine_intf = Lq_catalog.Engine_intf
module Rowstore = Lq_storage.Rowstore
module P = Lq_plan.Plan

(* The classic iterator interface: explicit state, one boxed tuple per
   [next], interpretation everywhere. *)
type operator = {
  op_open : unit -> unit;
  next : unit -> Value.t option;
  close : unit -> unit;
}

module Vtbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let rec build ?instr ctx cat (p : P.t) : operator =
  let apply1 l v = Eval.apply ctx ~env:[] l [ v ] in
  match p.P.op with
  | P.Scan s ->
    (* Scans decode relational rows into boxed tuples, one per next.
       Under instrumentation each decode touches every field of the row
       (the whole-row traffic that makes the iterator model expensive on
       a row store), reported to the cache model at its flat address. *)
    let store = Catalog.store (Catalog.table cat s.P.table) in
    let nfields = Array.length (Lq_storage.Layout.fields (Rowstore.layout store)) in
    let trace_row =
      match instr with
      | None -> fun _ -> ()
      | Some (i : Lq_catalog.Instr.t) ->
        fun row ->
          for col = 0 to nfields - 1 do
            i.Lq_catalog.Instr.trace (Rowstore.addr store ~row ~col)
          done
    in
    let pos = ref 0 in
    {
      op_open = (fun () -> pos := 0);
      next =
        (fun () ->
          if !pos >= Rowstore.length store then None
          else begin
            trace_row !pos;
            let v = Rowstore.row_value store !pos in
            incr pos;
            Some v
          end);
      close = ignore;
    }
  | P.Filter (src, preds) ->
    let input = build ?instr ctx cat src in
    (* Conjuncts are cost-ordered in the plan; test cheapest first. *)
    let passes v =
      List.for_all (fun (pr : P.pred) -> Value.to_bool (apply1 pr.P.lambda v)) preds
    in
    {
      input with
      next =
        (fun () ->
          let rec loop () =
            match input.next () with
            | None -> None
            | Some v -> if passes v then Some v else loop ()
          in
          loop ());
    }
  | P.Project (src, sel) ->
    let input = build ?instr ctx cat src in
    { input with next = (fun () -> Option.map (apply1 sel) (input.next ())) }
  | P.Join { P.left; right; left_key; right_key; result; strategy = _ } ->
    let louter = build ?instr ctx cat left in
    let rinner = build ?instr ctx cat right in
    let table = Vtbl.create 1024 in
    let pending = ref [] in
    let drain_inner () =
      rinner.op_open ();
      let rec loop () =
        match rinner.next () with
        | None -> ()
        | Some v ->
          let k = apply1 right_key v in
          (match Vtbl.find_opt table k with
          | Some cell -> cell := v :: !cell
          | None -> Vtbl.add table k (ref [ v ]));
          loop ()
      in
      loop ();
      rinner.close ()
    in
    {
      op_open =
        (fun () ->
          Vtbl.reset table;
          pending := [];
          drain_inner ();
          louter.op_open ());
      next =
        (fun () ->
          let rec loop () =
            match !pending with
            | r :: rest ->
              pending := rest;
              Some r
            | [] -> (
              match louter.next () with
              | None -> None
              | Some l -> (
                match Vtbl.find_opt table (apply1 left_key l) with
                | None -> loop ()
                | Some cell ->
                  pending :=
                    List.rev_map (fun r -> Eval.apply ctx ~env:[] result [ l; r ]) !cell;
                  loop ()))
          in
          loop ());
      close = louter.close;
    }
  | P.Aggregate a ->
    (* Interpretation ignores the plan's fused registry: the evaluator
       re-walks the materialized item lists per aggregate, which is the
       per-tuple overhead this engine exists to exhibit. *)
    let { P.input = group_source; key; group_result; _ } = a in
    let input = build ?instr ctx cat group_source in
    let results = ref [] in
    let materialize () =
      input.op_open ();
      let table = Vtbl.create 256 in
      let order = ref [] in
      let rec loop () =
        match input.next () with
        | None -> ()
        | Some v ->
          let k = apply1 key v in
          (match Vtbl.find_opt table k with
          | Some cell -> cell := v :: !cell
          | None ->
            Vtbl.add table k (ref [ v ]);
            order := k :: !order);
          loop ()
      in
      loop ();
      input.close ();
      results :=
        List.rev_map
          (fun k ->
            let g =
              Eval.group_value ~key:k ~items:(List.rev !(Vtbl.find table k))
            in
            match group_result with
            | None -> g
            | Some sel -> apply1 sel g)
          !order
    in
    {
      op_open = (fun () -> materialize ());
      next =
        (fun () ->
          match !results with
          | [] -> None
          | r :: rest ->
            results := rest;
            Some r);
      close = ignore;
    }
  | P.Sort (src, keys) -> build_sort ?instr ctx cat src keys
  | P.Top_k { input; keys; limit } ->
    (* No bounded heap in the iterator model: full sort, then limit. *)
    take_op ctx (build_sort ?instr ctx cat input keys) limit
  | P.Limit (src, n) -> take_op ctx (build ?instr ctx cat src) n
  | P.Offset (src, n) ->
    let input = build ?instr ctx cat src in
    let skipped = ref false in
    {
      input with
      op_open =
        (fun () ->
          skipped := false;
          input.op_open ());
      next =
        (fun () ->
          if not !skipped then begin
            skipped := true;
            let k = Value.to_int (Eval.expr ctx ~env:[] n) in
            let rec drop i = if i > 0 && Option.is_some (input.next ()) then drop (i - 1) in
            drop k
          end;
          input.next ());
    }
  | P.Distinct src ->
    let input = build ?instr ctx cat src in
    let seen = Vtbl.create 256 in
    {
      input with
      op_open =
        (fun () ->
          Vtbl.reset seen;
          input.op_open ());
      next =
        (fun () ->
          let rec loop () =
            match input.next () with
            | None -> None
            | Some v ->
              if Vtbl.mem seen v then loop ()
              else begin
                Vtbl.add seen v ();
                Some v
              end
          in
          loop ());
    }

and build_sort ?instr ctx cat src keys : operator =
  let apply1 l v = Eval.apply ctx ~env:[] l [ v ] in
  let input = build ?instr ctx cat src in
    let sorted = ref [] in
    {
      op_open =
        (fun () ->
          input.op_open ();
          let rows = ref [] in
          let rec loop () =
            match input.next () with
            | None -> ()
            | Some v ->
              rows := v :: !rows;
              loop ()
          in
          loop ();
          input.close ();
          let arr = Array.of_list (List.rev !rows) in
          let keyed =
            Array.map
              (fun v -> List.map (fun (k : Ast.sort_key) -> apply1 k.Ast.by v) keys)
              arr
          in
          let idx = Array.init (Array.length arr) Fun.id in
          let cmp i j =
            let rec go ks a b =
              match (ks, a, b) with
              | [], [], [] -> Int.compare i j
              | (k : Ast.sort_key) :: ks, x :: a, y :: b ->
                let c = Scalar.cmp x y in
                let c = match k.Ast.dir with Ast.Asc -> c | Ast.Desc -> -c in
                if c <> 0 then c else go ks a b
              | _ -> assert false
            in
            go keys keyed.(i) keyed.(j)
          in
          Array.sort cmp idx;
          sorted := Array.to_list (Array.map (fun i -> arr.(i)) idx));
      next =
        (fun () ->
          match !sorted with
          | [] -> None
          | r :: rest ->
            sorted := rest;
            Some r);
      close = ignore;
    }
and take_op ctx (input : operator) n : operator =
  let remaining = ref 0 in
    {
      op_open =
        (fun () ->
          remaining := Value.to_int (Eval.expr ctx ~env:[] n);
          input.op_open ());
      next =
        (fun () ->
          if !remaining <= 0 then None
          else
            match input.next () with
            | None -> None
            | some ->
              decr remaining;
              some);
      close = input.close;
    }

let engine : Engine_intf.t =
  {
    name = "sqlserver-interpreted";
    describe = "Volcano stand-in: interpreted open/next/close over the row store";
    caps = { Engine_intf.caps_any with needs_flat_sources = true };
    prepare =
      (fun ?instr cat ~param_types:_ plan ->
        (* Interpreted engines generate no code: the shared plan is
           their program. *)
        {
          Engine_intf.execute =
            (fun ~params () ->
              let ctx = Catalog.eval_ctx cat ~params in
              let root = build ?instr ctx cat plan in
              root.op_open ();
              let acc = ref [] in
              let rec loop () =
                match root.next () with
                | None -> ()
                | Some v ->
                  acc := v :: !acc;
                  loop ()
              in
              loop ();
              root.close ();
              List.rev !acc);
          codegen_ms = 0.0;
          source = None;
        });
  }
