(** Clock vectors (Section 4.2 and Section 6.1 of the paper).

    A clock vector maps thread ids to sequence numbers.  C11Tester uses clock
    vectors in two distinct roles:

    - tracking the happens-before relation (the per-thread vectors [C],
      [F^rel], [F^acq] and the per-store reads-from vector [RF] of Figure 9);
    - computing reachability in the modification-order graph (Theorem 1:
      for two stores to the same location, [CV_A <= CV_B] iff [B] is
      reachable from [A]).

    Slots that were never written hold 0, which is below every real sequence
    number (sequence numbers start at 1). *)

type t

(** The empty (bottom) clock vector: every slot is 0. *)
val bottom : unit -> t

(** [of_slot ~tid ~seq] is the vector with slot [tid] set to [seq] and every
    other slot 0 — the initial mo-graph clock vector of a store. *)
val of_slot : tid:int -> seq:int -> t

val copy : t -> t
val get : t -> int -> int
val set : t -> int -> int -> unit

(** [merge dst src] sets [dst := dst ∪ src] (pointwise max) and reports
    whether [dst] changed — the [Merge] procedure of Figure 6. *)
val merge : t -> t -> bool

(** [union a b] is a fresh pointwise max. *)
val union : t -> t -> t

(** [leq a b] is the pointwise comparison [a <= b]. *)
val leq : t -> t -> bool

val equal : t -> t -> bool

(** [intersect a b] is the pointwise min, the [∩] operator used to compute
    [CV_min] when pruning the execution graph (Section 7.1).  Slots absent
    from either vector are treated as 0. *)
val intersect : t -> t -> t

(** [covers cv ~tid ~seq] tests whether the event with sequence number [seq]
    executed by thread [tid] is accounted for by [cv], i.e. whether that
    event happens before the point [cv] summarises. *)
val covers : t -> tid:int -> seq:int -> bool

(** Number of slots ever touched (an upper bound on thread ids + 1). *)
val width : t -> int

(** [round_width n] is the width a clock grows to when it needs [n]
    slots: the smallest power of two [>= n], never below 4.  So no clock
    of an execution whose thread ids are below [n] is wider than
    [round_width n]. *)
val round_width : int -> int

(** The underlying slot array, for read-only scans on hot paths (the race
    detector's conflict loop).  Callers must not mutate it, and must not
    hold it across a {!set} or {!merge} (growth may reallocate). *)
val raw : t -> int array

val pp : Format.formatter -> t -> unit
