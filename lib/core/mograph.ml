type node = {
  action : Action.t;
  mutable edges : node array;
  mutable nedges : int;
  mutable rmw : node option;
  mutable cv : Clockvec.t;
  mutable pruned : bool;
  mutable mark : int;
}

(* The per-action node cache (see Action.graph_node): the graph id guards
   against an action being shared between two graphs (tests do this), and
   the [pruned] flag against a stale pointer after a prune sweep. *)
type Action.graph_node += Cached of node * int

(* Tables keyed by a store's seq (or a packed edge key): int-specialised,
   so a lookup compares keys inline instead of through the polymorphic
   [compare].  The hash is the generic table's, so the node table keeps
   the bucket layout, and with it the [iter_nodes] order, of a
   [(int, node) Hashtbl.t]. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = Hashtbl.hash x
end)

type t = {
  id : int;
  nodes : node Itbl.t;
  mutable hub_keys : unit Itbl.t option;
      (* membership of the out-edges of hub nodes (see [scan_limit]) as
         packed (from.seq, to.seq) keys; created with the first hub *)
  queue : node Queue.t;  (* reusable BFS worklist for [propagate_from] *)
  mutable gen : int;  (* current propagation generation for [mark] stamps *)
}

(* Graph ids stamp the per-action node cache, so two graphs alive at once
   (one per domain during parallel campaigns) must never share an id:
   a plain ref could hand the same id to two domains — or, worse, repeat
   an id within one domain after a lost update — validating stale cached
   nodes.  Hence an atomic counter. *)
let next_graph_id = Atomic.make 0
let no_edges : node array = [||]

let create () =
  let id = 1 + Atomic.fetch_and_add next_graph_id 1 in
  (* sized for short executions — a graph is created per execution (litmus
     tests build a handful of nodes) and Hashtbl grows itself under the
     bigger workloads *)
  {
    id;
    nodes = Itbl.create 16;
    hub_keys = None;
    queue = Queue.create ();
    gen = 0;
  }

let size t = Itbl.length t.nodes

let new_node t (a : Action.t) =
  let n =
    {
      action = a;
      edges = no_edges;
      nedges = 0;
      rmw = None;
      cv = Clockvec.of_slot ~tid:a.tid ~seq:a.seq;
      pruned = false;
      mark = 0;
    }
  in
  Itbl.add t.nodes a.seq n;
  a.mo_node <- Cached (n, t.id);
  n

(* The node of an action whose cache misses: one of another graph, one
   pruned, or a store seen for the first time. *)
let[@inline never] get_node_slow t (a : Action.t) =
  match Itbl.find_opt t.nodes a.seq with
  | Some n ->
    a.mo_node <- Cached (n, t.id);
    n
  | None -> new_node t a

let[@inline] get_node t (a : Action.t) =
  match a.mo_node with
  | Cached (n, gid) when gid = t.id && not n.pruned -> n
  | _ -> get_node_slow t a

(* The node no graph holds: what [live_node] answers for a store without
   a live node, so callers that ask per pair allocate no option. *)
let absent =
  {
    action =
      {
        Action.seq = -1;
        tid = -1;
        kind = Action.Fence;
        loc = -1;
        mo = Memorder.Relaxed;
        value = 0;
        rf = None;
        hb_cv = Clockvec.bottom ();
        rf_cv = None;
        rmw_claimed = false;
        volatile = false;
        mo_node = Action.No_graph_node;
      };
    edges = no_edges;
    nedges = 0;
    rmw = None;
    cv = Clockvec.bottom ();
    pruned = true;
    mark = 0;
  }

let[@inline never] live_node_slow t (a : Action.t) =
  match Itbl.find t.nodes a.seq with
  | n -> n
  | exception Not_found -> absent

let[@inline] live_node t (a : Action.t) =
  match a.mo_node with
  | Cached (n, gid) when gid = t.id && not n.pruned -> n
  | _ -> live_node_slow t a

let find_node t a =
  let n = live_node t a in
  if n == absent then None else Some n

(* Edge membership.  Most stores have a handful of mo successors, so
   membership is a scan of the node's own edge array: no hashing, no
   allocation.  A node with more than [scan_limit] out-edges is a hub
   (a store every later store of a busy location is ordered after, when
   nothing is pruned): its edges are also indexed in [hub_keys], so the
   membership test stays O(1) however many successors it collects.
   Invariant: [hub_keys] holds exactly the edges of nodes with
   [nedges > scan_limit]. *)
let scan_limit = 8

(* Sequence numbers stay well below 2^31 (they are bounded by the engine's
   step limit), so an edge is one native int. *)
let edge_key from to_ = (from.action.Action.seq lsl 31) lor to_.action.Action.seq

let hub_keys t =
  match t.hub_keys with
  | Some h -> h
  | None ->
    let h = Itbl.create 64 in
    t.hub_keys <- Some h;
    h

let[@inline never] hub_has_edge t from to_ =
  Itbl.mem (hub_keys t) (edge_key from to_)

(* A loop, not a recursive function, so the scan inlines into callers. *)
let[@inline] has_edge t from to_ =
  if from.nedges <= scan_limit then begin
    let edges = from.edges in
    let i = ref (from.nedges - 1) in
    while !i >= 0 && Array.unsafe_get edges !i != to_ do
      decr i
    done;
    !i >= 0
  end
  else hub_has_edge t from to_

let push_edge t from to_ =
  let n = from.nedges in
  if n = Array.length from.edges then begin
    let arr =
      if n = 0 then [| to_; to_; to_; to_ |]
      else begin
        let arr = Array.make (2 * n) to_ in
        Array.blit from.edges 0 arr 0 n;
        arr
      end
    in
    from.edges <- arr
  end;
  from.edges.(n) <- to_;
  from.nedges <- n + 1;
  if n >= scan_limit then begin
    let h = hub_keys t in
    (* on becoming a hub, index the edges the scan used to cover *)
    if n = scan_limit then
      for i = 0 to n - 1 do
        Itbl.replace h (edge_key from from.edges.(i)) ()
      done;
    Itbl.replace h (edge_key from to_) ()
  end

(* Forget [n]'s out-edges (they are being migrated or the node pruned). *)
let clear_edges t n =
  if n.nedges > scan_limit then begin
    let h = hub_keys t in
    for i = 0 to n.nedges - 1 do
      Itbl.remove h (edge_key n n.edges.(i))
    done
  end;
  n.edges <- no_edges;
  n.nedges <- 0

let succs n =
  let rec go i acc = if i < 0 then acc else go (i - 1) (n.edges.(i) :: acc) in
  go (n.nedges - 1) []

(* Merge procedure of Figure 6. *)
let[@inline] merge dst src =
  if Clockvec.leq src.cv dst.cv then false else Clockvec.merge dst.cv src.cv

(* Breadth-first clock propagation with a generation-stamped frontier: a
   node whose [mark] carries the current generation is already queued, so
   repeated merges into it while it waits don't enqueue it again. *)
let propagate_from t start =
  t.gen <- t.gen + 1;
  let gen = t.gen in
  let q = t.queue in
  Queue.add start q;
  start.mark <- gen;
  while not (Queue.is_empty q) do
    let node = Queue.pop q in
    node.mark <- 0;
    for i = 0 to node.nedges - 1 do
      let dst = node.edges.(i) in
      if merge dst node && dst.mark <> gen then begin
        dst.mark <- gen;
        Queue.add dst q
      end
    done
  done

(* An RMW is pinned immediately after the store it reads from, so a store
   ordered after the head of an rmw chain is really ordered after the whole
   chain: walk to its end (stopping short if the chain runs into [to_]
   itself, in which case the edge lands on [to_]'s direct predecessor). *)
let rec chain_end_before to_ n =
  match n.rmw with
  | None -> n
  | Some next -> if next == to_ then n else chain_end_before to_ next

let add_edge t from to_ =
  if from == to_ then ()
  else
    let must_add_edge =
      (match from.rmw with Some r -> r == to_ | None -> false)
      || from.action.tid = to_.action.tid
    in
    if Clockvec.leq from.cv to_.cv && not must_add_edge then ()
    else begin
      let from = chain_end_before to_ from in
      if not (has_edge t from to_) then push_edge t from to_;
      if merge to_ from then propagate_from t to_
    end

let add_rmw_edge t from rmw =
  from.rmw <- Some rmw;
  for i = 0 to from.nedges - 1 do
    let dst = from.edges.(i) in
    if dst != rmw && not (has_edge t rmw dst) then push_edge t rmw dst
  done;
  (* drop the hub keys with the edges, or a stale hit would suppress a
     later re-insertion (in particular of the [from -> rmw] edge itself,
     which [from] often already carries as a same-thread sb edge) *)
  clear_edges t from;
  add_edge t from rmw;
  (* Each migrated edge is a new constraint [rmw -mo-> dst].  AddEdge's
     final merge may report no change (the rmw's clock can already cover
     the store it read), which would skip propagation, so push the rmw's
     clock over its out-edges unconditionally. *)
  propagate_from t rmw

let[@inline] reaches t (a : Action.t) (b : Action.t) =
  if a.seq = b.seq then true
  else
    let na = get_node t a and nb = get_node t b in
    Clockvec.leq na.cv nb.cv

(* Would adding the constraint [from -mo-> to_] close a cycle?  AddEdge
   redirects an edge whose source heads an rmw chain to the end of that
   chain (the RMW pinned immediately after a store inherits the store's
   ordering obligations), so feasibility must be checked against the
   chain's end, not against [from] itself.  A chain that runs into [to_]
   itself makes the edge redundant: its end is then [absent]. *)
let rec chain_end_unless to_ n =
  match n.rmw with
  | Some r -> if r == to_ then absent else chain_end_unless to_ r
  | None -> n

let[@inline] edge_would_close_cycle t ~from ~to_ =
  from.Action.seq <> to_.Action.seq
  &&
  let nf = get_node t from and nt = get_node t to_ in
  (* most stores head no rmw chain: walk only when one does *)
  let eff = match nf.rmw with None -> nf | Some _ -> chain_end_unless nt nf in
  eff != absent && (eff == nt || Clockvec.leq nt.cv eff.cv)

let reaches_dfs t (a : Action.t) (b : Action.t) =
  match (find_node t a, find_node t b) with
  | None, _ | _, None -> a.seq = b.seq
  | Some na, Some nb ->
    let visited = Hashtbl.create 64 in
    let rec go n =
      n == nb
      ||
      if Hashtbl.mem visited n.action.seq then false
      else begin
        Hashtbl.add visited n.action.seq ();
        let nbrs = match n.rmw with Some r -> r :: succs n | None -> succs n in
        List.exists go nbrs
      end
    in
    na == nb || go na

let remove_node t (a : Action.t) =
  match Itbl.find_opt t.nodes a.seq with
  | None -> ()
  | Some n ->
    n.pruned <- true;
    clear_edges t n;
    a.mo_node <- Action.No_graph_node;
    Itbl.remove t.nodes a.seq

let iter_nodes t f = Itbl.iter (fun _ n -> f n) t.nodes

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph mo {\n  rankdir=LR;\n";
  iter_nodes t (fun n ->
      let a = n.action in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"#%d t%d loc%d=%d\"];\n" a.Action.seq
           a.Action.seq a.Action.tid a.Action.loc a.Action.value));
  iter_nodes t (fun n ->
      List.iter
        (fun dst ->
          Buffer.add_string buf
            (Printf.sprintf "  n%d -> n%d;\n" n.action.Action.seq
               dst.action.Action.seq))
        (succs n);
      match n.rmw with
      | Some r ->
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d [style=bold,color=red,label=\"rmw\"];\n"
             n.action.Action.seq r.action.Action.seq)
      | None -> ());
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let check_acyclic t =
  let color = Hashtbl.create 64 in
  (* 1 = on stack, 2 = done *)
  let exception Cycle in
  let rec visit n =
    match Hashtbl.find_opt color n.action.seq with
    | Some 1 -> raise Cycle
    | Some _ -> ()
    | None ->
      Hashtbl.add color n.action.seq 1;
      let nbrs = match n.rmw with Some r -> r :: succs n | None -> succs n in
      List.iter visit nbrs;
      Hashtbl.replace color n.action.seq 2
  in
  try
    iter_nodes t visit;
    true
  with Cycle -> false
