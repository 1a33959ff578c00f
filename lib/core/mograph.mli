(** The modification-order graph (Section 4 of the paper).

    Nodes represent atomic stores/RMWs; an [mo] edge from [A] to [B] is the
    constraint [A -mo-> B]; an [rmw] edge additionally pins [B] immediately
    after [A].  The set of constraints is satisfiable iff the graph is
    acyclic, and C11Tester never adds a cycle (Section 4.3), so no rollback
    is needed.

    Each node carries a clock vector.  By Theorem 1 of the paper, for two
    nodes [A], [B] writing the same location in an acyclic graph,
    [CV_A <= CV_B] iff [B] is reachable from [A]; this is what lets
    reachability queries run in O(threads) instead of a graph traversal. *)

type node = {
  action : Action.t;
  mutable edges : node array;
      (** outgoing mo edges, dynarray-style: only [edges.(0 .. nedges-1)]
          are live — use {!succs} unless on a hot path *)
  mutable nedges : int;
  mutable rmw : node option;  (** the RMW that reads from this store *)
  mutable cv : Clockvec.t;
  mutable pruned : bool;
  mutable mark : int;
      (** generation stamp: frontier membership during clock propagation *)
}

type t

val create : unit -> t

(** The live out-edges of a node as a list (allocates; for tests and
    debugging output). *)
val succs : node -> node list

(** Number of live (non-pruned) nodes. *)
val size : t -> int

(** [get_node g a] returns the node for store [a], creating it (with the
    initial clock vector [⊥_CV] of Section 4.2) on first use.  The node is
    cached on the action itself ({!Action.t.mo_node}), so repeated lookups
    are a field read, not a hash probe. *)
val get_node : t -> Action.t -> node

val find_node : t -> Action.t -> node option

(** A node that belongs to no graph: the answer of {!live_node} for a
    store without a live node. *)
val absent : node

(** [live_node g a] is [a]'s live node in [g], or {!absent} (compare with
    [==]).  Like {!find_node}, without allocating an option. *)
val live_node : t -> Action.t -> node

(** [add_edge g from to_] — the [AddEdge] procedure of Figure 6: skip
    redundant edges, follow rmw chains, insert the edge and propagate clock
    vectors breadth-first.  Duplicate-edge detection scans the source's
    edge array while it holds at most a handful of edges and is a hashed
    (from, to) probe once the source is a hub, so it is O(1) either way;
    insertion is an amortised-O(1) dynarray append. *)
val add_edge : t -> node -> node -> unit

(** [has_edge g from to_]: does [from] carry the out-edge [from -mo-> to_]
    (the membership test {!add_edge} deduplicates with)? *)
val has_edge : t -> node -> node -> bool

(** [add_rmw_edge g from rmw] — the [AddRMWEdge] procedure of Figure 6:
    record the rmw link, migrate [from]'s outgoing edges to [rmw], then add
    a plain mo edge. *)
val add_rmw_edge : t -> node -> node -> unit

(** [reaches g a b]: is [b] reachable from [a]?  Implemented as the clock
    vector comparison of Theorem 1.  Only meaningful for two stores to the
    same location. *)
val reaches : t -> Action.t -> Action.t -> bool

(** [edge_would_close_cycle g ~from ~to_]: would the mo constraint
    [from -> to_] make the constraint set unsatisfiable?  This follows
    [from]'s rmw chain the same way {!add_edge} does before testing
    reachability from [to_] — the refinement of the paper's Section 4.3
    check needed because an RMW pinned immediately after [from] inherits
    its ordering obligations. *)
val edge_would_close_cycle : t -> from:Action.t -> to_:Action.t -> bool

(** Reference implementation of reachability by depth-first search over the
    edges (following rmw links), used by property tests to validate
    Theorem 1. *)
val reaches_dfs : t -> Action.t -> Action.t -> bool

(** [remove_node g a] deletes the node during execution-graph pruning.  The
    caller guarantees the store can no longer be read (Section 7.1). *)
val remove_node : t -> Action.t -> unit

(** [iter_nodes g f] visits every live node. *)
val iter_nodes : t -> (node -> unit) -> unit

(** [check_acyclic g] runs a full DFS cycle check; for tests. *)
val check_acyclic : t -> bool

(** [to_dot g] renders the live graph in Graphviz DOT syntax (mo edges
    plain, rmw edges bold red) for debugging small executions. *)
val to_dot : t -> string
