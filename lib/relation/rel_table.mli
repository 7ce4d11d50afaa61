(** In-memory table storage for the relational substrate.

    Rows are stored positionally against the table schema in a growable
    slot array; deletions tombstone the slot.  Secondary indexes (B+tree
    or hash) map column values to row ids and are maintained on every
    mutation.  Hash indexes key on {!Value.Tbl}, so [Int 1] and
    [Float 1.0] are one key, as they are for [=].

    The [_rows] functions hand out the stored [Value.t array] rows
    themselves, slot [i] holding the [i]-th schema column: the SQL
    executor reads them without copying and must not write into them.
    The tuple functions name each row through one per-table header. *)

type t

type index_kind = Btree_index | Hash_index

exception Constraint_violation of string
(** Raised on duplicate primary key or schema violations. *)

val create : ?primary_key:string -> Dschema.relational -> t
(** @raise Invalid_argument when the primary key is not a schema column. *)

val schema : t -> Dschema.relational
val name : t -> string
val row_count : t -> int
val primary_key : t -> string option

(** {1 Mutation} *)

val insert : t -> Tuple.t -> int
(** Coerce the tuple into schema shape and append it; returns the row id.
    @raise Constraint_violation when coercion fails or the primary key is
    duplicated. *)

val insert_values : t -> Value.t list -> int
(** Positional insert (must match schema arity). *)

val delete_where : t -> (Tuple.t -> bool) -> int
(** Delete all rows satisfying the predicate; returns how many. *)

val delete_rows : t -> (Value.t array -> bool) -> int
(** {!delete_where} over positional rows. *)

val update_where : t -> (Tuple.t -> bool) -> (Tuple.t -> Tuple.t) -> int
(** Update matching rows through the function (result is re-coerced);
    returns how many. *)

val update_rows : t -> (Value.t array -> bool) -> (Value.t array -> Value.t array) -> int
(** {!update_where} over positional rows.  The function must not write
    into the row it is given (readers may share it). *)

val clear : t -> unit

(** {1 Access} *)

val scan : t -> (int -> Tuple.t -> unit) -> unit
(** Iterate live rows in insertion order. *)

val to_list : t -> Tuple.t list

val iter_rows : t -> (Value.t array -> unit) -> unit
(** Iterate the stored rows of live slots in insertion order. *)

(** {1 Indexes} *)

val create_index : t -> kind:index_kind -> string -> unit
(** Index a column; backfills from existing rows.
    @raise Invalid_argument for unknown columns or duplicate index. *)

val has_index : t -> string -> index_kind option

val lookup_eq : t -> string -> Value.t -> Tuple.t list
(** Equality lookup through an index when one exists, else a scan. *)

val lookup_range :
  t -> string -> ?lo:Value.t * bool -> ?hi:Value.t * bool -> unit -> Tuple.t list
(** Range lookup; uses a B+tree index when available, else a scan with
    filtering.  Results are in key order when served by the index.
    Rows whose key is NULL are never returned. *)

val lookup_eq_rows : t -> string -> Value.t -> Value.t array list
val lookup_range_rows :
  t -> string -> ?lo:Value.t * bool -> ?hi:Value.t * bool -> unit -> Value.t array list
(** {!lookup_eq} and {!lookup_range} returning the stored rows. *)

val index_served : t -> string -> [ `Eq | `Range ] -> bool
(** Would {!lookup_eq} / {!lookup_range} on this column be index-backed?
    (The planner's costing hook.) *)
