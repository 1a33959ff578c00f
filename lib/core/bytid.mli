(** Lookup in an array kept ascending by thread id, through int keys that
    order as the tids: a location's cell tids in {!Execution} and a race
    shadow class's entries (a tid packed above a seq) in {!Race}. *)

(** [search keys n key] is the first index in [keys.(0 .. n-1)], which
    strictly ascend, whose key is at least [key], or [n]: the index of
    the element [key] stands for, or of where it would be inserted if
    there is none.  A binary search. *)
val search : int array -> int -> int -> int
