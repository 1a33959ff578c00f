(* Execution-graph pruning (Section 7.1): conservative pruning must keep
   the graph bounded on long executions without changing the set of
   producible behaviours; aggressive pruning may shrink behaviours but
   never produces a forbidden one. *)

let check = Alcotest.(check bool)

let conservative = Pruner.Conservative { interval = 8 }
let aggressive = Pruner.Aggressive { window = 128; interval = 8 }

let config ?(prune = Pruner.No_prune) seed =
  { (Tool.config ~prune Tool.C11tester) with Engine.seed = seed }

(* A long producer/consumer loop over one atomic: without pruning the
   mo-graph holds every store ever made; with conservative pruning the
   consumer keeps synchronising so old stores become unreadable and are
   collected.  The main thread plays the consumer itself — a thread parked
   in a join never advances its clock and (correctly) blocks pruning. *)
let counter_program ~rounds () =
  let x = C11.Atomic.make 0 in
  let producer =
    C11.Thread.spawn (fun () ->
        for i = 1 to rounds do
          C11.Atomic.store ~mo:Memorder.Release x i
        done)
  in
  for _ = 1 to rounds do
    ignore (C11.Atomic.load ~mo:Memorder.Acquire x)
  done;
  C11.Thread.join producer

let test_conservative_bounds_memory () =
  let no_prune = Engine.run (config 5L) (counter_program ~rounds:400) in
  let pruned =
    Engine.run (config ~prune:conservative 5L) (counter_program ~rounds:400)
  in
  check "unpruned graph holds all stores" true (no_prune.Engine.final_footprint > 300);
  check "pruning collected stores" true (pruned.Engine.pruned_stores > 100);
  check "pruned footprint is much smaller" true
    (pruned.Engine.final_footprint * 3 < no_prune.Engine.final_footprint)

let test_aggressive_prunes_at_least_as_much () =
  let cons =
    Engine.run (config ~prune:conservative 7L) (counter_program ~rounds:400)
  in
  let aggr =
    Engine.run (config ~prune:aggressive 7L) (counter_program ~rounds:400)
  in
  check "aggressive collects too" true (aggr.Engine.pruned_stores > 0);
  check "footprints bounded" true
    (aggr.Engine.final_footprint < 400 && cons.Engine.final_footprint < 400)

(* Outcome preservation: the support of a litmus test's outcome histogram
   must be identical with and without conservative pruning. *)
let outcome_support ~prune (t : Litmus.t) =
  let config = Tool.config ~prune Tool.C11tester in
  Litmus.explore ~config ~iters:1200 t |> List.map fst |> List.sort compare

let test_conservative_preserves_outcomes () =
  List.iter
    (fun name ->
      match Litmus.find name with
      | None -> Alcotest.failf "missing litmus %s" name
      | Some t ->
        let base = outcome_support ~prune:Pruner.No_prune t in
        let pruned = outcome_support ~prune:(Pruner.Conservative { interval = 4 }) t in
        if base <> pruned then
          Alcotest.failf "%s: outcome support changed under conservative pruning"
            name)
    [ "mp_relaxed"; "sb_relaxed"; "2+2w_relaxed"; "corr" ]

let test_aggressive_sound_on_litmus () =
  List.iter
    (fun (t : Litmus.t) ->
      let config =
        Tool.config ~prune:(Pruner.Aggressive { window = 8; interval = 4 })
          Tool.C11tester
      in
      let bad = Litmus.violations ~config ~iters:800 t in
      if bad <> [] then
        Alcotest.failf "%s: aggressive pruning produced forbidden outcomes"
          t.Litmus.name)
    Litmus.catalog

let test_cv_min () =
  let rng = Rng.create 1L in
  let race = Race.create () in
  let exec = Execution.create ~mode:Execution.Full_c11 ~rng ~race () in
  let t0 = Execution.new_thread exec ~parent:None in
  Execution.tick_sync exec ~tid:t0;
  (* the child starts with a copy of the parent's clock, so the parent's
     first event is covered by everyone *)
  let t1 = Execution.new_thread exec ~parent:(Some t0) in
  Execution.tick_sync exec ~tid:t1;
  Execution.tick_sync exec ~tid:t1;
  let cv = Pruner.cv_min exec in
  check "cv_min covers t0's pre-fork event" true
    (Clockvec.covers cv ~tid:t0 ~seq:1);
  check "cv_min excludes t1's unsynchronised events" false
    (Clockvec.covers cv ~tid:t1 ~seq:3)

let test_no_prune_policy () =
  let rng = Rng.create 1L in
  let race = Race.create () in
  let exec = Execution.create ~mode:Execution.Full_c11 ~rng ~race () in
  check "no-prune does nothing" true
    (Pruner.maybe_prune Pruner.No_prune exec ~ops:64 = None)

let test_workloads_clean_under_pruning () =
  (* correct workloads stay bug-free when pruning is on *)
  List.iter
    (fun name ->
      match Registry.find name with
      | None -> Alcotest.failf "missing workload %s" name
      | Some w ->
        let config = Tool.config ~prune:conservative Tool.C11tester in
        let s =
          Tester.run ~config ~iters:60
            (w.Registry.run ~variant:Variant.Correct ~scale:w.Registry.default_scale)
        in
        if s.Tester.buggy_executions > 0 then
          Alcotest.failf "%s: false positives under conservative pruning" name)
    [ "seqlock"; "ms-queue"; "mpmc-queue" ]

(* ---------- prior sets against the all-threads list reference ---------- *)

(* ReadPriorSet and WritePriorSet (Figure 13) as they were computed over
   newest-first action lists: every thread from 0 up, each term a linear
   scan.  The engine now visits only the location's cells and binary-
   searches each seq-sorted array; the sets must be the same actions in
   the same order. *)
module Prior_ref = struct
  open Execution

  let newest_first s = List.rev (Seqarr.to_list s)

  let rec first_before bound = function
    | [] -> None
    | (x : Action.t) :: rest ->
      if x.seq < bound then Some x else first_before bound rest

  let rec first_covered cd nc = function
    | [] -> None
    | (x : Action.t) :: rest ->
      if x.tid < nc && x.seq <= cd.(x.tid) then Some x
      else first_covered cd nc rest

  let newer (acc : Action.t option) (c : Action.t option) =
    match (acc, c) with
    | None, x -> x
    | Some _, None -> acc
    | Some a, Some b -> if b.seq > a.seq then c else acc

  let get_write (a : Action.t) =
    match a.kind with
    | Action.Store | Action.Rmw | Action.Na_store -> Some a
    | Action.Load -> a.rf
    | Action.Fence -> None

  let prior_for_thread exec li ~u ~last_fence ~is_sc_op ~current =
    let cell = List.find_opt (fun c -> c.cell_tid = u) li.cells in
    let stores = match cell with None -> [] | Some c -> newest_first c.c_stores in
    let fences = newest_first exec.threads.(u).sc_fences in
    let s1 =
      if is_sc_op then
        match fences with [] -> None | (ft : Action.t) :: _ -> first_before ft.seq stores
      else None
    in
    let s2 =
      match (last_fence, cell) with
      | Some (fl : Action.t), Some c -> first_before fl.seq (newest_first c.c_sc_stores)
      | _ -> None
    in
    let s3 =
      match last_fence with
      | None -> None
      | Some (fl : Action.t) -> (
        match first_before fl.seq fences with
        | None -> None
        | Some fb -> first_before fb.seq stores)
    in
    let s4 =
      match cell with
      | None -> None
      | Some c ->
        first_covered (Clockvec.raw current) (Clockvec.width current)
          (newest_first c.c_accesses)
    in
    match newer (newer (newer s1 s2) s3) s4 with None -> None | Some a -> get_write a

  let all_threads exec li ts ~is_sc_op ~current init =
    let last_fence =
      match newest_first ts.sc_fences with [] -> None | f :: _ -> Some f
    in
    let ps = ref init in
    for u = 0 to exec.nthreads - 1 do
      match prior_for_thread exec li ~u ~last_fence ~is_sc_op ~current with
      | Some w -> ps := w :: !ps
      | None -> ()
    done;
    !ps

  let read_prior_base exec li ts ~load_mo =
    all_threads exec li ts ~is_sc_op:(Memorder.is_seq_cst load_mo) ~current:ts.c []

  let write_prior_set exec li ts ~store_mo ~current =
    let is_sc_op = Memorder.is_seq_cst store_mo in
    let init =
      match (is_sc_op, Internal.last_sc_store li) with
      | true, Some x -> [ x ]
      | _ -> []
    in
    all_threads exec li ts ~is_sc_op ~current init
end

(* The same actions, physically, in the same order. *)
let same a b = List.length a = List.length b && List.for_all2 ( == ) a b

(* What compacting a location's arrays in place must keep, read without
   the arrays' searches, so that the compaction is checked itself and not
   only through the prior sets above (which read the compacted arrays):
   - [cells] and [by_tid] hold the same cells, [by_tid] ascending by tid
     and [cell_tids] holding their tids;
   - [store_count] is the number of stores the cells hold;
   - a cell's seq_cst stores are exactly the seq_cst entries of its stores;
   - every access that read a store reads one the location still holds
     (a load or RMW of a pruned store goes with it);
   - a cell's accesses keep every store of its stores but the RMWs whose
     store was pruned, in order;
   - in Full_c11, every store held has its live mo-graph node (the pruner
     removes a pruned store's node), so no pruned store is left behind.
   Returns the first violation. *)
let compaction_violation (exec : Execution.t) (li : Execution.loc_info) =
  let open Execution in
  let fail fmt =
    Printf.ksprintf (fun m -> Some (Printf.sprintf "loc %d: %s" li.li_loc m)) fmt
  in
  let stores = List.concat_map (fun c -> Seqarr.to_list c.c_stores) li.cells in
  let held (s : Action.t) = List.memq s stores in
  let reads_pruned (a : Action.t) =
    match a.rf with Some s -> not (held s) | None -> false
  in
  let is_store (a : Action.t) =
    match a.kind with
    | Action.Store | Action.Rmw | Action.Na_store -> true
    | Action.Load | Action.Fence -> false
  in
  let by_tid = Array.to_list (Array.sub li.by_tid 0 li.ncells) in
  let rec ascending = function
    | a :: (b :: _ as rest) -> a.cell_tid < b.cell_tid && ascending rest
    | _ -> true
  in
  let cell_violation c =
    let st = Seqarr.to_list c.c_stores and acc = Seqarr.to_list c.c_accesses in
    if
      not
        (same (Seqarr.to_list c.c_sc_stores)
           (List.filter (fun (a : Action.t) -> Memorder.is_seq_cst a.mo) st))
    then fail "t%d: sc stores are not its seq_cst stores" c.cell_tid
    else
      match List.find_opt reads_pruned acc with
      | Some a -> fail "t%d: #%d reads a store no longer held" c.cell_tid a.seq
      | None ->
        if
          not
            (same (List.filter is_store acc)
               (List.filter
                  (fun (s : Action.t) -> not (s.kind = Action.Rmw && reads_pruned s))
                  st))
        then fail "t%d: accesses and stores disagree" c.cell_tid
        else (
          match
            List.find_opt
              (fun s ->
                exec.mode = Full_c11 && Mograph.live_node exec.graph s == Mograph.absent)
              st
          with
          | Some s -> fail "t%d: store #%d has no live node" c.cell_tid s.seq
          | None -> None)
  in
  if
    not
      (ascending by_tid
      && Array.to_list (Array.sub li.cell_tids 0 li.ncells)
         = List.map (fun c -> c.cell_tid) by_tid
      && List.length by_tid = List.length li.cells
      && List.for_all (fun c -> List.memq c by_tid) li.cells)
  then fail "cells and by_tid disagree"
  else if li.store_count <> List.length stores then
    fail "store_count %d, %d stores held" li.store_count (List.length stores)
  else List.find_map cell_violation li.cells

(* Random fuzz programs of every profile (denser than the CLI default:
   up to four threads of 16 ops over two atomic locations, so seq_cst
   fences and stores interleave), cut off after a random number of steps
   so the sets are compared mid-execution, under each pruning policy and
   both memory modes; at the cut every location is queried for every
   thread, every order, and (for WritePriorSet) both the thread's own
   clock and an RMW-style what-if clock. *)
let prop_prior_sets_match_reference =
  let profiles = Array.of_list Fuzz.all_profiles in
  QCheck.Test.make
    ~name:"cell-iterating prior sets equal the all-threads reference"
    ~count:300
    QCheck.(
      pair
        (quad (int_range 0 1_000_000) (int_range 0 2) (int_range 4 300) bool)
        (int_range 0 (Array.length profiles - 1)))
    (fun ((pseed, policy, max_steps, total_mo), profile) ->
      let cfg =
        {
          Fuzz.default_gen_cfg with
          g_threads = 4;
          g_ops = 16;
          g_atomic_locs = 2;
          g_profile = profiles.(profile);
        }
      in
      let prog = Fuzz.generate ~cfg ~seed:(Int64.of_int pseed) in
      let prune =
        match policy with
        | 0 -> Pruner.No_prune
        | 1 -> Pruner.Conservative { interval = 3 }
        | _ -> Pruner.Aggressive { window = 12; interval = 3 }
      in
      let config =
        {
          Engine.default_config with
          mode = (if total_mo then Execution.Total_mo else Execution.Full_c11);
          prune;
          max_steps;
          seed = Fuzz.exec_seed prog ~attempt:0;
        }
      in
      let ok = ref true and broken = ref None in
      let check_final (exec : Execution.t) =
        Array.iter
          (function
            | None -> ()
            | Some li ->
              if !broken = None then broken := compaction_violation exec li;
              for tid = 0 to exec.Execution.nthreads - 1 do
                let ts = exec.Execution.threads.(tid) in
                let other =
                  exec.Execution.threads.((tid + 1) mod exec.Execution.nthreads)
                in
                List.iter
                  (fun mo ->
                    if
                      not
                        (same
                           (Execution.Internal.read_prior_base exec li ts ~load_mo:mo)
                           (Prior_ref.read_prior_base exec li ts ~load_mo:mo))
                    then ok := false;
                    List.iter
                      (fun current ->
                        if
                          not
                            (same
                               (Execution.Internal.write_prior_set exec li ts
                                  ~store_mo:mo ~current)
                               (Prior_ref.write_prior_set exec li ts ~store_mo:mo
                                  ~current))
                        then ok := false)
                      [ ts.Execution.c; Clockvec.union ts.Execution.c other.Execution.c ])
                  Memorder.[ Relaxed; Acquire; Release; Seq_cst ]
              done)
          exec.Execution.locs
      in
      let exec = ref None in
      (match
         Engine.run
           ~inspect:(fun e -> exec := Some e)
           config (Fuzz.to_closure prog)
       with
      | _ -> check_final (Option.get !exec)
      | exception Execution.Model_error msg
        when policy = 2
             && String.starts_with ~prefix:"no feasible store for rmw" msg ->
        (* aggressive pruning with a window this small can prune the only
           store an RMW could read (e.g. program 51685, profile 2, 46
           steps), and the engine then stops with this model error: there
           is no final state to compare.  Any other model error fails the
           property. *)
        ());
      match !broken with
      | Some msg -> QCheck.Test.fail_reportf "compaction: %s" msg
      | None -> !ok)

(* Ten threads first touch one atomic location out of tid order, so each
   new cell opens its slot of [by_tid]/[cell_tids] at an inner position
   while the arrays grow from their first capacity (4) through a doubling
   (8 -> 16).  The orders: for every k < 10 and every p <= k, the k-th
   cell lands at position p (the other tids up to k ascending, then the
   one with p below it, then the rest), plus one shuffle.  The location
   is allocated after 17 non-atomic ones, so the loc-indexed tables also
   grow past their first capacity of 16 and the atomic-location set takes
   its first capacity at loc 17.  The cell invariant of
   [compaction_violation] is checked after every insertion. *)
let test_cells_in_shuffled_tid_order () =
  let n = 10 in
  let placed k p =
    List.filter (fun t -> t <> p) (List.init (k + 1) Fun.id)
    @ [ p ]
    @ List.init (n - k - 1) (fun i -> k + 1 + i)
  in
  let shuffled = [ 9; 5; 7; 0; 2; 8; 1; 4; 3; 6 ] in
  let orders =
    shuffled :: List.concat_map (fun k -> List.init (k + 1) (placed k)) (List.init n Fun.id)
  in
  List.iter
    (fun order ->
      let exec =
        Execution.create ~mode:Execution.Full_c11 ~rng:(Rng.create 1L)
          ~race:(Race.create ()) ()
      in
      let main = Execution.new_thread exec ~parent:None in
      for _ = 2 to n do
        ignore (Execution.new_thread exec ~parent:(Some main))
      done;
      let plain =
        List.init 17 (fun i ->
            let loc = Execution.fresh_loc exec ~atomic:false ~name:None in
            Execution.na_write exec ~tid:main ~loc (100 + i);
            loc)
      in
      let x = Execution.fresh_loc exec ~atomic:true ~name:None in
      List.iteri
        (fun k tid ->
          Execution.atomic_store exec ~tid ~loc:x ~mo:Memorder.Relaxed
            ~volatile:false k;
          let li = Option.get (Execution.Internal.find_loc exec x) in
          if li.Execution.ncells <> k + 1 then
            Alcotest.failf "%d cells after %d first touches" li.Execution.ncells (k + 1);
          match compaction_violation exec li with
          | Some msg ->
            Alcotest.failf "order %s, touch %d: %s"
              (String.concat "," (List.map string_of_int order))
              k msg
          | None -> ())
        order;
      check "atomic-location set" true
        (Execution.is_atomic_loc exec x
        && not (List.exists (Execution.is_atomic_loc exec) plain));
      check "plain values kept" true
        (List.for_all2
           (fun i loc -> Execution.na_read exec ~tid:main ~loc = 100 + i)
           (List.init 17 Fun.id) plain))
    orders

let suite =
  [
    Alcotest.test_case "conservative bounds memory" `Slow test_conservative_bounds_memory;
    Alcotest.test_case "aggressive prunes" `Slow test_aggressive_prunes_at_least_as_much;
    Alcotest.test_case "conservative preserves outcomes" `Slow
      test_conservative_preserves_outcomes;
    Alcotest.test_case "aggressive sound on litmus" `Slow test_aggressive_sound_on_litmus;
    Alcotest.test_case "cv_min" `Quick test_cv_min;
    Alcotest.test_case "no-prune policy" `Quick test_no_prune_policy;
    Alcotest.test_case "workloads clean under pruning" `Slow
      test_workloads_clean_under_pruning;
    Alcotest.test_case "cells in shuffled tid order" `Quick
      test_cells_in_shuffled_tid_order;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_prior_sets_match_reference ]
