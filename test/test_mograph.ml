(* The modification-order graph: unit tests for AddEdge / AddRMWEdge and a
   property-based validation of Theorem 1 (clock-vector comparison equals
   graph reachability) against a DFS reference, over randomly generated
   graphs built with the same discipline the operational model uses. *)

let check = Alcotest.(check bool)

let mk_store ?(tid = 0) ?(loc = 0) seq =
  {
    Action.seq;
    tid;
    kind = Action.Store;
    loc;
    mo = Memorder.Relaxed;
    value = 0;
    rf = None;
    hb_cv = Clockvec.of_slot ~tid ~seq;
    rf_cv = None;
    rmw_claimed = false;
    volatile = false;
    mo_node = Action.No_graph_node;
  }

let test_simple_edge () =
  let g = Mograph.create () in
  let a = mk_store ~tid:0 1 and b = mk_store ~tid:1 2 in
  Mograph.add_edge g (Mograph.get_node g a) (Mograph.get_node g b);
  check "a reaches b" true (Mograph.reaches g a b);
  check "b does not reach a" false (Mograph.reaches g b a);
  check "matches dfs" true (Mograph.reaches_dfs g a b);
  check "acyclic" true (Mograph.check_acyclic g)

let test_transitive_propagation () =
  let g = Mograph.create () in
  let stores = Array.init 5 (fun i -> mk_store ~tid:i (i + 1)) in
  (* chain 0 -> 1 -> 2 -> 3, then 4 -> 0 must propagate through the chain *)
  for i = 0 to 2 do
    Mograph.add_edge g
      (Mograph.get_node g stores.(i))
      (Mograph.get_node g stores.(i + 1))
  done;
  Mograph.add_edge g (Mograph.get_node g stores.(4)) (Mograph.get_node g stores.(0));
  check "4 reaches 3 transitively" true (Mograph.reaches g stores.(4) stores.(3));
  check "3 does not reach 4" false (Mograph.reaches g stores.(3) stores.(4))

let test_rmw_edge_migration () =
  let g = Mograph.create () in
  let s = mk_store ~tid:0 1 in
  let later = mk_store ~tid:1 2 in
  let rmw = mk_store ~tid:2 3 in
  (* s -> later, then rmw pinned right after s: the edge must migrate *)
  Mograph.add_edge g (Mograph.get_node g s) (Mograph.get_node g later);
  Mograph.add_rmw_edge g (Mograph.get_node g s) (Mograph.get_node g rmw);
  check "s reaches rmw" true (Mograph.reaches g s rmw);
  check "rmw reaches later (migrated)" true (Mograph.reaches g rmw later);
  check "later does not reach rmw" false (Mograph.reaches g later rmw);
  check "acyclic" true (Mograph.check_acyclic g);
  (* a new edge into s must land after the rmw chain *)
  let newer = mk_store ~tid:3 4 in
  Mograph.add_edge g (Mograph.get_node g newer) (Mograph.get_node g s);
  check "dfs agrees everywhere" true
    (List.for_all
       (fun (a, b) -> Mograph.reaches g a b = Mograph.reaches_dfs g a b)
       [ (s, rmw); (rmw, later); (newer, s); (s, newer); (newer, later) ])

let test_remove_node () =
  let g = Mograph.create () in
  let a = mk_store ~tid:0 1 and b = mk_store ~tid:1 2 in
  Mograph.add_edge g (Mograph.get_node g a) (Mograph.get_node g b);
  check "size 2" true (Mograph.size g = 2);
  Mograph.remove_node g a;
  check "size 1 after removal" true (Mograph.size g = 1);
  check "find_node returns None" true (Mograph.find_node g a = None)

let test_to_dot () =
  let g = Mograph.create () in
  let a = mk_store ~tid:0 1 and b = mk_store ~tid:1 2 and r = mk_store ~tid:2 3 in
  Mograph.add_edge g (Mograph.get_node g a) (Mograph.get_node g b);
  Mograph.add_rmw_edge g (Mograph.get_node g b) (Mograph.get_node g r);
  let dot = Mograph.to_dot g in
  let has needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length dot && (String.sub dot i n = needle || go (i + 1))
    in
    go 0
  in
  check "digraph header" true (has "digraph mo");
  check "mo edge rendered" true (has "n1 -> n2");
  check "rmw edge rendered" true (has "n2 -> n3 [style=bold");
  check "closing brace" true (has "}")

let test_self_edge_ignored () =
  let g = Mograph.create () in
  let a = mk_store ~tid:0 1 in
  let n = Mograph.get_node g a in
  Mograph.add_edge g n n;
  check "still acyclic" true (Mograph.check_acyclic g)

(* Edge membership is a scan of a node's edge array up to a small
   out-degree and a hashed probe beyond it (a hub).  [has_edge] must agree
   with the edge arrays themselves across that switch, after an rmw
   migration empties a hub, and after a hub is removed. *)
let test_hub_membership () =
  let g = Mograph.create () in
  let node = Mograph.get_node g in
  let exact name live =
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            let na = node a and nb = node b in
            if Mograph.has_edge g na nb <> List.memq nb (Mograph.succs na) then
              Alcotest.failf "%s: has_edge #%d -> #%d disagrees with the edges"
                name a.Action.seq b.Action.seq)
          live)
      live
  in
  let hub = mk_store ~tid:0 1 in
  (* same-thread successors: AddEdge keeps every sb-ordered edge, so the
     hub's out-degree grows by one per store *)
  let succs = List.init 40 (fun i -> mk_store ~tid:0 (i + 2)) in
  List.iteri
    (fun i s ->
      Mograph.add_edge g (node hub) (node s);
      Mograph.add_edge g (node hub) (node s);
      check
        (Printf.sprintf "out-degree %d, no duplicate" (i + 1))
        true
        (List.length (Mograph.succs (node hub)) = i + 1);
      exact (Printf.sprintf "degree %d" (i + 1)) (hub :: succs))
    succs;
  (* migration moves the hub's 40 edges to the rmw and leaves the hub
     with the single rmw edge *)
  let rmw = mk_store ~tid:1 100 in
  Mograph.add_rmw_edge g (node hub) (node rmw);
  check "hub keeps only the rmw edge" true
    (match Mograph.succs (node hub) with [ x ] -> x == node rmw | _ -> false);
  check "rmw took every edge" true
    (List.length (Mograph.succs (node rmw)) = 40);
  exact "after migration" (hub :: rmw :: succs);
  (* removing the new hub drops its keys: a node for the same store that
     becomes a hub again must not see the old edges *)
  Mograph.remove_node g rmw;
  let live = hub :: succs in
  exact "after removal" live;
  let again = node rmw in
  let fresh = List.init 12 (fun i -> mk_store ~tid:1 (200 + i)) in
  List.iter (fun s -> Mograph.add_edge g again (node s)) fresh;
  check "re-added hub has 12 edges" true (List.length (Mograph.succs again) = 12);
  exact "re-added hub" ((rmw :: live) @ fresh)

(* ------------------------------------------------------------------ *)
(* Theorem 1 property.

   We emulate the operational model's usage of the graph: stores arrive
   with increasing sequence numbers from a handful of threads; each new
   store gets edges from its thread's previous store (sb-induced mo) and
   from a random subset of older stores (WritePriorSet); occasionally an
   older store [s] receives edges from older stores [e] that cannot
   already be reached from [s] (ReadPriorSet + feasibility check); and some
   new stores are RMWs pinned behind an unclaimed older store. *)

type op =
  | New_store of int (* thread *) * int list (* extra predecessors (indices) *)
  | New_rmw of int (* thread *)
  | Old_edges of int (* target index *) * int list (* source indices *)

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (frequency
         [
           (5, map2 (fun t ps -> New_store (t, ps)) (int_range 0 3) (list_size (int_range 0 3) (int_range 0 1000)));
           (2, map (fun t -> New_rmw t) (int_range 0 3));
           (2, map2 (fun t ss -> Old_edges (t, ss)) (int_range 0 1000) (list_size (int_range 1 3) (int_range 0 1000)));
         ]))

let build ops =
  let g = Mograph.create () in
  let nodes = ref [||] in
  let last_by_thread = Array.make 4 None in
  let seq = ref 0 in
  let nth i arr = if Array.length arr = 0 then None else Some arr.(i mod Array.length arr) in
  let add_new tid =
    incr seq;
    let s = mk_store ~tid !seq in
    let n = Mograph.get_node g s in
    (match last_by_thread.(tid) with
    | Some prev -> Mograph.add_edge g (Mograph.get_node g prev) n
    | None -> ());
    last_by_thread.(tid) <- Some s;
    nodes := Array.append !nodes [| s |];
    s
  in
  List.iter
    (fun op ->
      match op with
      | New_store (tid, preds) ->
        let s = add_new tid in
        List.iter
          (fun pi ->
            match nth pi !nodes with
            | Some p when p.Action.seq <> s.Action.seq ->
              Mograph.add_edge g (Mograph.get_node g p) (Mograph.get_node g s)
            | _ -> ())
          preds
      | New_rmw tid -> (
        (* pin the new node behind an unclaimed store, like an RMW.  The
           operational model only lets an RMW read a store that is not
           hb-superseded and whose prior-set constraints are feasible; the
           reading thread's previous store is always in the prior set. *)
        let p = last_by_thread.(tid) in
        let feasible (s : Action.t) =
          match p with
          | Some prev when prev.Action.seq <> s.Action.seq ->
            not (Mograph.edge_would_close_cycle g ~from:prev ~to_:s)
          | _ -> true
        in
        let eligible =
          Array.to_list !nodes
          |> List.filter (fun (s : Action.t) ->
                 (not s.rmw_claimed) && feasible s)
        in
        match eligible with
        | [] -> ignore (add_new tid)
        | target :: _ ->
          let r = add_new tid in
          (* the load phase adds the prior-set edge prev -> target *)
          (match p with
          | Some prev when prev.Action.seq <> target.Action.seq ->
            Mograph.add_edge g
              (Mograph.get_node g prev)
              (Mograph.get_node g target)
          | _ -> ());
          target.Action.rmw_claimed <- true;
          Mograph.add_rmw_edge g
            (Mograph.get_node g target)
            (Mograph.get_node g r))
      | Old_edges (ti, sources) -> (
        match nth ti !nodes with
        | None -> ()
        | Some s ->
          List.iter
            (fun si ->
              match nth si !nodes with
              | Some e
                when e.Action.seq <> s.Action.seq
                     && not (Mograph.edge_would_close_cycle g ~from:e ~to_:s)
                ->
                (* mimics ReadPriorSet: only add if it cannot close a cycle *)
                Mograph.add_edge g (Mograph.get_node g e) (Mograph.get_node g s)
              | _ -> ())
            sources))
    ops;
  (g, Array.to_list !nodes)

let prop_theorem_1 =
  QCheck.Test.make ~name:"Theorem 1: CV comparison = DFS reachability"
    ~count:200
    (QCheck.make gen_ops)
    (fun ops ->
      let g, nodes = build ops in
      Mograph.check_acyclic g
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 Mograph.reaches g a b = Mograph.reaches_dfs g a b)
               nodes)
           nodes)

(* edge_would_close_cycle must agree with a from-scratch DFS oracle: chase
   [from]'s rmw chain exactly as AddEdge would (the chain running into
   [to_] means the edge is redundant), then ask whether [to_] reaches the
   chain's end by searching the edge arrays and rmw links directly —
   never through clock vectors.  The agreement must survive pruning: the
   pruner only ever removes predecessor-closed sets (everything mo-before
   an anchor), which is exactly what keeps Theorem 1 valid on the live
   nodes, so we prune the same way and re-check every live pair. *)

let node_dfs_reaches (start : Mograph.node) (target : Mograph.node) =
  let visited = Hashtbl.create 16 in
  let rec go (n : Mograph.node) =
    n == target
    ||
    if Hashtbl.mem visited n.Mograph.action.Action.seq then false
    else begin
      Hashtbl.add visited n.Mograph.action.Action.seq ();
      let hit = ref false in
      for i = 0 to n.Mograph.nedges - 1 do
        if (not !hit) && go n.Mograph.edges.(i) then hit := true
      done;
      (match n.Mograph.rmw with
      | Some r when not !hit -> hit := go r
      | _ -> ());
      !hit
    end
  in
  go start

let close_cycle_oracle g ~from ~to_ =
  if from.Action.seq = to_.Action.seq then false
  else
    match (Mograph.find_node g from, Mograph.find_node g to_) with
    | Some nf, Some nt ->
      let rec chain_end (n : Mograph.node) =
        match n.Mograph.rmw with
        | Some r -> if r == nt then None else chain_end r
        | None -> Some n
      in
      (match chain_end nf with
      | None -> false
      | Some eff -> node_dfs_reaches nt eff)
    | _ -> QCheck.Test.fail_report "oracle queried on a pruned action"

let prop_would_close_cycle =
  QCheck.Test.make
    ~name:"edge_would_close_cycle = DFS feasibility oracle (incl. pruned)"
    ~count:200
    (QCheck.make QCheck.Gen.(pair gen_ops (int_range 0 1000)))
    (fun (ops, anchor_pick) ->
      let g, nodes = build ops in
      let agree ns =
        List.for_all
          (fun a ->
            List.for_all
              (fun b ->
                Mograph.edge_would_close_cycle g ~from:a ~to_:b
                = close_cycle_oracle g ~from:a ~to_:b)
              ns)
          ns
      in
      agree nodes
      &&
      match nodes with
      | [] -> true
      | _ ->
        let anchor = List.nth nodes (anchor_pick mod List.length nodes) in
        let doomed =
          List.filter
            (fun (x : Action.t) ->
              x.Action.seq <> anchor.Action.seq && Mograph.reaches g x anchor)
            nodes
        in
        List.iter (Mograph.remove_node g) doomed;
        let live =
          List.filter (fun x -> Mograph.find_node g x <> None) nodes
        in
        agree live)

let prop_acyclic_invariant =
  QCheck.Test.make ~name:"construction discipline keeps the graph acyclic"
    ~count:200
    (QCheck.make gen_ops)
    (fun ops ->
      let g, _ = build ops in
      Mograph.check_acyclic g)

(* ---------- allocation guard ---------- *)

(* The reachability queries run in every mo-graph propagation, prior-set
   feasibility test and Theorem-1 comparison, so they allocate nothing:
   1,000 calls of each must cost no more minor words than an empty loop
   (the measurement's own overhead). *)
let test_queries_allocate_nothing () =
  let g = Mograph.create () in
  let s = mk_store ~tid:0 1 and later = mk_store ~tid:1 2 in
  let rmw = mk_store ~tid:2 3 and wide = mk_store ~tid:9 4 in
  Mograph.add_edge g (Mograph.get_node g s) (Mograph.get_node g later);
  Mograph.add_rmw_edge g (Mograph.get_node g s) (Mograph.get_node g rmw);
  ignore (Mograph.get_node g wide);
  let ca = (Mograph.get_node g later).Mograph.cv in
  let cb = (Mograph.get_node g wide).Mograph.cv in
  let words f =
    let w0 = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Gc.minor_words () -. w0
  in
  let base = words (fun () -> true) in
  List.iter
    (fun (name, f) ->
      let w = words f -. base in
      if w > 0. then Alcotest.failf "%s: %.0f minor words per 1,000 calls" name w)
    [
      ("Clockvec.leq", fun () -> Clockvec.leq ca cb && Clockvec.leq cb ca);
      ("Mograph.reaches", fun () -> Mograph.reaches g s later);
      ( "Mograph.edge_would_close_cycle",
        fun () ->
          Mograph.edge_would_close_cycle g ~from:s ~to_:later
          && Mograph.edge_would_close_cycle g ~from:later ~to_:wide );
    ]

let suite =
  [
    Alcotest.test_case "simple edge" `Quick test_simple_edge;
    Alcotest.test_case "transitive propagation" `Quick test_transitive_propagation;
    Alcotest.test_case "rmw edge migration" `Quick test_rmw_edge_migration;
    Alcotest.test_case "remove node" `Quick test_remove_node;
    Alcotest.test_case "to_dot" `Quick test_to_dot;
    Alcotest.test_case "self edge ignored" `Quick test_self_edge_ignored;
    Alcotest.test_case "hub edge membership" `Quick test_hub_membership;
    Alcotest.test_case "reachability queries allocate nothing" `Quick
      test_queries_allocate_nothing;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_theorem_1; prop_would_close_cycle; prop_acyclic_invariant ]
