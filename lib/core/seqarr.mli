(** A growable array of actions in ascending sequence-number order.

    One (location, thread) cell of the engine ({!Execution.loc_cell}) and
    of the streaming certifier's sweep is one of these: actions are
    appended as they happen, so the array stays seq-sorted, and "the
    newest entry at or below a bound" is a binary search.  Every entry of
    such a cell belongs to one thread, so whether a clock covers an entry
    is monotone in its seq, and "the newest entry a clock covers" is the
    same search with the clock's slot for that thread as the bound. *)

type t

val create : unit -> t
val length : t -> int
val is_empty : t -> bool

(** [get c i] is the [i]-th oldest entry; [0 <= i < length c]. *)
val get : t -> int -> Action.t

(** The newest entry; [c] must not be empty. *)
val last : t -> Action.t

(** Append an action newer than every entry. *)
val push : t -> Action.t -> unit

(** Index of the newest entry with [seq <= bound], or [-1]. *)
val newest_le : t -> int -> int

(** The newest entry with [seq <= bound], or [default]. *)
val newest_le_or : t -> int -> default:Action.t -> Action.t

(** Drop every entry, releasing the actions to the GC. *)
val clear : t -> unit

(** Keep the entries satisfying the predicate, in order, compacting in
    place and releasing the dropped ones; returns how many were dropped. *)
val filter_in_place : t -> (Action.t -> bool) -> int

(** The entries, oldest first (allocates; for tests). *)
val to_list : t -> Action.t list
