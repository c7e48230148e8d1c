(* Codes are dense and never change. [table] is an open-addressing table
   of immutable (string, code) pairs, at most half full. Lookups probe it
   without a lock: a racing insert only ever fills an empty slot, so a
   reader sees a pair or a free slot, never a torn one, and a miss is
   settled under [mu]. Inserts and resizes happen under [mu]; a resize
   fills a new array before publishing it. A reader that raced an insert
   can hold a code newer than the [count] it sees; [get] settles that
   under [mu] too. *)
type t = {
  table : (string * int) array Atomic.t;  (** power-of-two length *)
  mu : Mutex.t;
  strings : string array Atomic.t;  (** by code; replaced, never grown in place *)
  count : int Atomic.t;
}

(* A free slot, told apart by physical equality. *)
let empty = ("", -1)

let create () =
  {
    table = Atomic.make (Array.make 256 empty);
    mu = Mutex.create ();
    strings = Atomic.make (Array.make 256 "");
    count = Atomic.make 0;
  }

(* The code of [s], or [-1 - i] for the free slot [i] it would take. *)
let rec probe slots mask s i =
  let e = Array.unsafe_get slots i in
  if e == empty then -1 - i
  else if String.equal (fst e) s then snd e
  else probe slots mask s ((i + 1) land mask)

let find_in slots s h =
  let mask = Array.length slots - 1 in
  probe slots mask s (h land mask)

(* Under [mu]: a table twice as large holding the same pairs. *)
let grow t slots =
  let bigger = Array.make (2 * Array.length slots) empty in
  Array.iter
    (fun e -> if e != empty then bigger.(-1 - find_in bigger (fst e) (Hashtbl.hash (fst e))) <- e)
    slots;
  Atomic.set t.table bigger

(* Under [mu]: a fresh code for [s], which takes free slot [i]. *)
let add t slots i s =
  let code = Atomic.get t.count in
  let strings = Atomic.get t.strings in
  if code = Array.length strings then begin
    let grown = Array.make (code * 2) "" in
    Array.blit strings 0 grown 0 code;
    grown.(code) <- s;
    Atomic.set t.strings grown
  end
  else strings.(code) <- s;
  Atomic.set t.count (code + 1);
  slots.(i) <- (s, code);
  if 2 * (code + 1) > Array.length slots then grow t slots;
  code

(* The code of [s], or [-1]; [insert] interns it when absent. *)
let lookup t s ~insert =
  let h = Hashtbl.hash s in
  let found = find_in (Atomic.get t.table) s h in
  if found >= 0 then found
  else begin
    Mutex.lock t.mu;
    let slots = Atomic.get t.table in
    let found = find_in slots s h in
    let code = if found >= 0 then found else if insert then add t slots (-1 - found) s else -1 in
    Mutex.unlock t.mu;
    code
  end

let intern t s = lookup t s ~insert:true

let find t s =
  let code = lookup t s ~insert:false in
  if code >= 0 then Some code else None

let get t code =
  let strings = Atomic.get t.strings in
  if code >= 0 && code < Atomic.get t.count && code < Array.length strings then
    Array.unsafe_get strings code
  else begin
    Mutex.lock t.mu;
    let known = code >= 0 && code < Atomic.get t.count in
    let strings = Atomic.get t.strings in
    Mutex.unlock t.mu;
    if not known then invalid_arg (Printf.sprintf "Dict.get: unknown code %d" code);
    strings.(code)
  end

let size t = Atomic.get t.count
