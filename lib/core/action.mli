(** Memory actions (the [LoadElem]/[StoreElem]/[RMWElem]/[FenceElem] records
    of Figure 10).

    Every visible memory operation gets a globally unique, strictly
    increasing sequence number; sequence numbers double as event identities
    and as the epochs stored in clock vectors.  Synchronisation operations
    (mutexes, thread create/join) also consume sequence numbers but are not
    materialised as actions — their only memory-model effect is on the
    happens-before clock vectors. *)

type kind =
  | Load
  | Store
  | Rmw
  | Na_store
      (** A non-atomic store to a location that is also accessed atomically:
          [atomic_init], memory reuse, or raw copies (Section 7.2).  It
          participates in modification order like a relaxed store but races
          like a plain access and never heads a release sequence. *)
  | Fence

(** Extension point for the per-action mo-graph node cache.  {!Mograph}
    extends it with its node type, letting an action carry a direct pointer
    to its graph node without a module cycle (Action is below Mograph in
    the dependency order).  Everyone else initialises the slot to
    {!No_graph_node} and otherwise ignores it. *)
type graph_node = ..

type graph_node += No_graph_node

type t = {
  seq : int;
  tid : int;
  kind : kind;
  loc : int;  (** [-1] for fences *)
  mo : Memorder.t;
  mutable value : int;  (** value written, or — for loads — the value read *)
  mutable rf : t option;  (** the store a load/RMW read from *)
  hb_cv : Clockvec.t;
      (** snapshot of the executing thread's clock vector [C_t] at this
          action (including the action's own slot and, for acquire reads,
          the synchronisation just formed) *)
  mutable rf_cv : Clockvec.t option;
      (** the reads-from clock vector [RF_s] of a store/RMW: what a reader
          acquires when it synchronises with the release sequence this store
          belongs to *)
  mutable rmw_claimed : bool;
      (** true once an RMW has read from this store; no second RMW may *)
  volatile : bool;
  mutable mo_node : graph_node;
      (** {!Mograph}'s cached node for this store ({!No_graph_node} until
          the store enters the graph) — spares a hash lookup on every
          prior-set edge *)
}

val is_write : t -> bool
val is_read : t -> bool

(** [happens_before a b]: [a -hb-> b], decided from [b]'s clock-vector
    snapshot. *)
val happens_before : t -> t -> bool
