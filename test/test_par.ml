(* Parallel campaign layer: merge algebra and the determinism contract.

   The unit tests pin the algebraic properties Par.Merge promises
   (associativity, commutativity, order-independence of histogram and
   dedup merges); the parity tests then check the end-to-end contract the
   CLI's `-j N` flag advertises — merged observables bit-identical to the
   sequential runner for every job count — on a real workload, a litmus
   test and a campaign's first buggy execution. *)

let check = Alcotest.(check bool)

(* ---------- Merge.add: associative, commutative, zero identity ---------- *)

let counters_of (a, b, c, d) =
  {
    Par.Merge.executions = a;
    buggy = b;
    racy = c;
    asserts = d;
    deadlocks = a land 1;
    limits = b land 1;
    certified = c land 1;
    cert_rejected = d land 1;
    certified_ops = (a * 7) + c;
    retired_prefix_ops = (b * 4) + d;
    atomic_ops = a * 3;
    na_ops = b * 2;
    max_graph = c;
    steps = d * 5;
  }

let counters_gen = QCheck.(quad small_nat small_nat small_nat small_nat)

let prop_add_assoc =
  QCheck.Test.make ~name:"Merge.add associative" ~count:100
    QCheck.(triple counters_gen counters_gen counters_gen)
    (fun (x, y, z) ->
      let x = counters_of x and y = counters_of y and z = counters_of z in
      Par.Merge.(add (add x y) z = add x (add y z)))

let prop_add_comm =
  QCheck.Test.make ~name:"Merge.add commutative" ~count:100
    QCheck.(pair counters_gen counters_gen)
    (fun (x, y) ->
      let x = counters_of x and y = counters_of y in
      Par.Merge.(add x y = add y x))

let test_add_zero () =
  let c = counters_of (3, 1, 4, 1) in
  check "zero is identity" true
    Par.Merge.(add c zero = c && add zero c = c)

(* ---------- Merge.histogram: order-independent, first-occurrence ------- *)

(* Sequential order: "a"@0, "b"@1, "c"@4; counts a=3, b=2, c=1.  Dealt to
   two shards leapfrog-style. *)
let shard_a = [ ("a", 2, 0); ("c", 1, 4) ]
let shard_b = [ ("b", 2, 1); ("a", 1, 3) ]
let merged_expected = [ ("a", 3); ("b", 2); ("c", 1) ]

let test_histogram_merge () =
  check "two shards" true
    (Par.Merge.histogram [ shard_a; shard_b ] = merged_expected);
  check "shard order irrelevant" true
    (Par.Merge.histogram [ shard_b; shard_a ] = merged_expected);
  check "extra empty shards" true
    (Par.Merge.histogram [ []; shard_a; []; shard_b ] = merged_expected)

let test_histogram_single_shard () =
  (* A jobs=1 campaign is one shard: the merge must be the identity
     modulo dropping the first-occurrence index. *)
  let one = [ ("x", 5, 0); ("y", 2, 2); ("z", 1, 7) ] in
  check "single shard passthrough" true
    (Par.Merge.histogram [ one ] = [ ("x", 5); ("y", 2); ("z", 1) ])

(* ---------- Merge.dedup: min-index per key, ascending ------------------ *)

let test_dedup_across_shards () =
  (* Sequential first occurrences: k1@0, k2@1, k3@5; shard 1 sees k2
     later (index 3) than shard 0's... no — each shard records its own
     first sighting; the merge keeps the global minimum. *)
  let s0 = [ (0, "k1/a"); (4, "k3/x") ] in
  let s1 = [ (1, "k2/b"); (3, "k1/late"); (5, "k3/late") ] in
  let key s = String.sub s 0 2 in
  let merged = Par.Merge.dedup ~key [ s0; s1 ] in
  check "global first occurrence wins, ascending" true
    (merged = [ "k1/a"; "k2/b"; "k3/x" ]);
  check "shard order irrelevant" true
    (Par.Merge.dedup ~key [ s1; s0 ] = merged)

(* ---------- Merge.check_ranges: partial-failure audit ------------------ *)

let test_check_ranges_unit () =
  let open Par.Merge in
  let r = check_ranges ~workers:4 ~total:40 [ 0; 1; 2; 3 ] in
  check "complete range set is ok" true
    (range_ok r && r.missing = [] && r.duplicated = []);
  let r = check_ranges ~workers:4 ~total:40 [ 3; 0; 2 ] in
  check "missing shard detected" true (r.missing = [ 1 ] && r.duplicated = []);
  check "missing shard not ok" false (range_ok r);
  let r = check_ranges ~workers:4 ~total:40 [ 0; 1; 1; 2; 3; 3 ] in
  check "duplicated shards detected" true
    (r.missing = [] && r.duplicated = [ 1; 3 ]);
  check "duplicated shard not ok" false (range_ok r);
  let r = check_ranges ~workers:3 ~total:10 [] in
  check "everything missing, ascending" true (r.missing = [ 0; 1; 2 ])

let prop_check_ranges_order_independent =
  (* The audit must report the same (sorted) fault lists no matter what
     order the shards arrived in — that is what makes a degraded
     summary's failed-range report deterministic. *)
  QCheck.Test.make ~name:"Merge.check_ranges order-independent" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 7)))
    (fun (workers, raw) ->
      let ranges = List.filter (fun w -> w < workers) raw in
      let a = Par.Merge.check_ranges ~workers ~total:100 ranges in
      let b = Par.Merge.check_ranges ~workers ~total:100 (List.rev ranges) in
      let c =
        Par.Merge.check_ranges ~workers ~total:100 (List.sort compare ranges)
      in
      a = b && b = c
      && List.sort compare a.Par.Merge.missing = a.Par.Merge.missing
      && List.sort compare a.Par.Merge.duplicated = a.Par.Merge.duplicated)

let prop_check_ranges_exact =
  (* check_ranges is exactly the complement test: a worker index is
     missing iff it never occurs, duplicated iff it occurs twice+. *)
  QCheck.Test.make ~name:"Merge.check_ranges exact complement" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 7)))
    (fun (workers, raw) ->
      let ranges = List.filter (fun w -> w < workers) raw in
      let occurs w = List.length (List.filter (( = ) w) ranges) in
      let all = List.init workers (fun w -> w) in
      let r = Par.Merge.check_ranges ~workers ~total:100 ranges in
      r.Par.Merge.missing = List.filter (fun w -> occurs w = 0) all
      && r.Par.Merge.duplicated = List.filter (fun w -> occurs w > 1) all)

let test_degraded_merge_deterministic () =
  (* A lost shard degrades the summary, but deterministically: merging
     the survivors must give the same result in every arrival order. *)
  let w =
    match Registry.find "ms-queue" with
    | Some w -> w
    | None -> Alcotest.fail "ms-queue missing"
  in
  let config = Tool.config ~seed:99L ~max_steps:150_000 Tool.C11tester in
  let body =
    w.Registry.run ~variant:Variant.Buggy ~scale:w.Registry.default_scale
  in
  let shards =
    List.init 4 (fun worker ->
        Tester.run_shard ~config ~total:24 ~start:worker ~stride:4 body)
  in
  (* worker 2's range is lost *)
  let survivors = [ List.nth shards 0; List.nth shards 1; List.nth shards 3 ] in
  let sum_a, hist_a = Tester.merge_shard_list survivors in
  let sum_b, hist_b = Tester.merge_shard_list (List.rev survivors) in
  let render s = Jsonx.to_pretty_string (Tester.summary_to_json s) in
  Alcotest.(check string)
    "degraded summary independent of merge order" (render sum_a)
    (render sum_b);
  check "degraded histogram independent of merge order" true (hist_a = hist_b);
  let full, _ = Tester.merge_shard_list shards in
  check "degraded summary covers survivors only" true
    (sum_a.Tester.executions
    = full.Tester.executions
      - Tester.shard_executions (List.nth shards 2))

(* ---------- shard_size ------------------------------------------------- *)

let test_shard_size () =
  List.iter
    (fun (jobs, total) ->
      let sum = ref 0 in
      for worker = 0 to jobs - 1 do
        sum := !sum + Par.shard_size ~jobs ~total ~worker
      done;
      if !sum <> total then
        Alcotest.failf "jobs=%d total=%d: shard sizes sum to %d" jobs total
          !sum)
    [ (1, 10); (2, 10); (3, 10); (4, 3); (7, 100); (5, 0) ]

(* ---------- End-to-end parity: the determinism contract ---------------- *)

let summary_string s = Jsonx.to_pretty_string (Tester.summary_to_json s)

let test_workload_parity () =
  let w =
    match Registry.find "ms-queue" with
    | Some w -> w
    | None -> Alcotest.fail "ms-queue missing"
  in
  let config = Tool.config ~seed:99L ~max_steps:150_000 Tool.C11tester in
  let body =
    w.Registry.run ~variant:Variant.Buggy ~scale:w.Registry.default_scale
  in
  let seq = Tester.run ~config ~iters:24 body in
  List.iter
    (fun jobs ->
      let par = Tester.run ~jobs ~config ~iters:24 body in
      Alcotest.(check string)
        (Printf.sprintf "summary jobs=%d" jobs)
        (summary_string seq) (summary_string par);
      check
        (Printf.sprintf "race order jobs=%d" jobs)
        true
        (seq.Tester.distinct_races = par.Tester.distinct_races))
    [ 1; 2; 4 ]

let test_litmus_parity () =
  let t =
    match Litmus.find "mp_relaxed" with
    | Some t -> t
    | None -> Alcotest.fail "mp_relaxed missing"
  in
  let config = Tool.config ~seed:7L Tool.C11tester in
  let seq = Litmus.explore ~config ~iters:300 t in
  List.iter
    (fun jobs ->
      let par = Litmus.explore ~jobs ~config ~iters:300 t in
      check (Printf.sprintf "histogram jobs=%d" jobs) true (seq = par))
    [ 1; 2; 4 ]

(* The buggy seqlock at seed 1: execution 3 is its first buggy one. *)
let seqlock_campaign () =
  let w =
    match Registry.find "seqlock" with
    | Some w -> w
    | None -> Alcotest.fail "seqlock missing"
  in
  ( Tool.config ~seed:1L ~max_steps:150_000 Tool.C11tester,
    w.Registry.run ~variant:Variant.Buggy ~scale:w.Registry.default_scale )

(* [first_buggy] is the lowest buggy index of a sequential scan of the
   campaign's executions, at every job count. *)
let first_buggy_parity ~config body =
  let iters = 24 in
  let rec scan i =
    if i >= iters then None
    else
      let seed = Rng.substream config.Engine.seed ~index:i in
      if Engine.buggy (Engine.run { config with Engine.seed } body) then Some i
      else scan (i + 1)
  in
  let expected = scan 0 in
  List.iter
    (fun jobs ->
      let s = Tester.run ~jobs ~config ~iters body in
      check (Printf.sprintf "first_buggy jobs=%d" jobs) true
        (s.Tester.first_buggy = expected))
    [ 1; 2; 3; 4 ];
  expected

let test_first_buggy_parity () =
  let config, body = seqlock_campaign () in
  check "the first buggy execution is past worker 0's first" true
    (first_buggy_parity ~config body = Some 3)

let test_first_buggy_without_bug () =
  let w =
    match Registry.find "spsc-queue" with
    | Some w -> w
    | None -> Alcotest.fail "spsc-queue missing"
  in
  let config = Tool.config ~seed:5L ~max_steps:150_000 Tool.C11tester in
  let body =
    w.Registry.run ~variant:Variant.Correct ~scale:w.Registry.default_scale
  in
  check "no buggy execution" true (first_buggy_parity ~config body = None)

(* Replaying a campaign's first buggy execution is buggy and fills the
   ring with the same events at every job count. *)
let test_replay_ring_parity () =
  let config, body = seqlock_campaign () in
  let replay jobs =
    let s = Tester.run ~jobs ~config ~iters:24 body in
    let obs = Obs.create ~ring_capacity:65536 in
    match s.Tester.first_buggy with
    | None -> Alcotest.fail "no buggy execution"
    | Some index ->
      let o = Tester.replay ~obs ~config ~index body in
      check (Printf.sprintf "replay is buggy jobs=%d" jobs) true (Engine.buggy o);
      Obs.ring_events obs |> List.map (Format.asprintf "%a" Obs.pp_event)
  in
  let ring = replay 1 in
  check "ring holds events" true (ring <> []);
  List.iter
    (fun jobs ->
      check (Printf.sprintf "identical ring jobs=%d" jobs) true (replay jobs = ring))
    [ 2; 3; 4 ]

(* Counters and gauges merge exactly across domains, so a campaign's
   metrics are the same for every job count; only histogram percentile
   windows and profile timings may differ.  rwlock's peak mo-graph size
   is reached by an execution that worker 0 of 4 does not run. *)
let test_metrics_parity () =
  let w =
    match Registry.find "rwlock" with
    | Some w -> w
    | None -> Alcotest.fail "rwlock missing"
  in
  let config = Tool.config Tool.C11tester in
  let body =
    w.Registry.run ~variant:Variant.Buggy ~scale:w.Registry.default_scale
  in
  let run jobs =
    let metrics = Metrics.create () in
    let s = Tester.run ~metrics ~jobs ~config ~iters:30 body in
    (s, Metrics.counters metrics, Metrics.gauges metrics)
  in
  let s1, c1, g1 = run 1 in
  check "peak gauge is the summary's" true
    (g1 = [ ("mograph.peak_nodes", float_of_int s1.Tester.max_graph_size) ]);
  List.iter
    (fun jobs ->
      let _, c, g = run jobs in
      check (Printf.sprintf "counters jobs=%d" jobs) true (c = c1);
      check (Printf.sprintf "gauges jobs=%d" jobs) true (g = g1))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "add zero identity" `Quick test_add_zero;
    Alcotest.test_case "histogram merge" `Quick test_histogram_merge;
    Alcotest.test_case "histogram single shard" `Quick
      test_histogram_single_shard;
    Alcotest.test_case "dedup across shards" `Quick test_dedup_across_shards;
    Alcotest.test_case "check_ranges audit" `Quick test_check_ranges_unit;
    Alcotest.test_case "degraded merge deterministic" `Slow
      test_degraded_merge_deterministic;
    Alcotest.test_case "shard sizes partition" `Quick test_shard_size;
    Alcotest.test_case "workload parity" `Slow test_workload_parity;
    Alcotest.test_case "litmus parity" `Quick test_litmus_parity;
    Alcotest.test_case "first_buggy parity" `Slow test_first_buggy_parity;
    Alcotest.test_case "first_buggy without bug" `Quick
      test_first_buggy_without_bug;
    Alcotest.test_case "replay ring parity" `Slow test_replay_ring_parity;
    Alcotest.test_case "metrics parity across jobs" `Quick test_metrics_parity;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_add_assoc;
        prop_add_comm;
        prop_check_ranges_order_independent;
        prop_check_ranges_exact;
      ]
