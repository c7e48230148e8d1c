(** String dictionary.

    Flat storage cannot hold pointers, so string fields store 4-byte codes
    into a dictionary. Equality on codes coincides with equality on strings
    only within one dictionary; the catalog therefore shares a single
    dictionary across all tables of a dataset, which keeps cross-table
    string joins sound. Pattern predicates ([LIKE], prefixes) decode
    through {!get}.

    A dictionary is shared by every Domain that plans or executes queries
    over its catalog, and strings are interned at execute (parameters,
    [Lower]/[Upper] results, hybrid staging). It is Domain-safe: a string
    gets exactly one code however many Domains intern it at once, and a
    code always decodes to its string. A lookup that finds its string
    takes no lock; only inserts (and lookups that miss) do. *)

type t

val create : unit -> t
val intern : t -> string -> int
(** The code of the string, interning it on first sight. *)

val find : t -> string -> int option
(** The code, if the string was interned before — constants compiled into
    predicates use this: an unseen constant matches nothing. *)

val get : t -> int -> string
(** @raise Invalid_argument on an unknown code. *)

val size : t -> int
