(* Fixed-seed performance + parity suite.

   Unlike the paper-figure experiments (which use Bechamel sampling and
   per-call fresh seeds), this suite runs every workload for a fixed
   iteration count from a fixed seed and reports wall time, executions/sec
   and shared-memory ops/sec — numbers that are comparable build-to-build
   on the same machine.  It also records the parity observables (buggy /
   racy execution counts, distinct races, total op counts, litmus outcome
   histograms): the hot-path optimisation work promises bit-for-bit
   identical fixed-seed outcomes, and diffing two runs of this suite is
   how that promise is checked (see README "Performance").

   `main.exe -- perf --json FILE` embeds the whole document under the
   "perf" key; BENCH_*.json files at the repo root are assembled from two
   such runs (pre- and post-optimisation). *)

let seed = 20260806L
let iters_ds = ref 400
let iters_app = ref 50
let iters_litmus = ref 2500

(* Campaign sharding (`--jobs N`).  The parity observables are
   bit-identical for every job count — only the wall times change — so
   jobs > 1 runs are diffable against the sequential baseline exactly
   like build-to-build comparisons. *)
let jobs = ref 1

let quick () =
  iters_ds := 20;
  iters_app := 3;
  iters_litmus := 150

(* The last document produced, picked up by main.ml's --json writer. *)
let last_doc : Jsonx.t option ref = ref None

type row = {
  r_name : string;
  r_iters : int;
  r_scale : int;
  r_wall : float;
  r_ops : int;
  r_buggy : int;
  r_racy : int;
  r_distinct : int;
  r_mean_steps : float;
  r_top_heap_words : int;  (* GC high-water after the campaign *)
  r_live_words : int;
}

let run_workload (w : Registry.t) ~iters =
  let config = Tool.config ~seed ~max_steps:150_000 Tool.C11tester in
  let s, wall =
    Stats.timed (fun () ->
        Tester.run ~jobs:!jobs ~config ~iters
          (w.Registry.run ~variant:Variant.Buggy ~scale:w.Registry.default_scale))
  in
  (* memory high-water next to ops/s: Gc.stat is the expensive exact
     readout (live_words walks the heap), taken once per campaign after
     the timed region so it never perturbs the wall numbers *)
  let gc = Gc.stat () in
  let ops = s.Tester.total_atomic_ops + s.Tester.total_na_ops in
  {
    r_name = w.Registry.name;
    r_iters = iters;
    r_scale = w.Registry.default_scale;
    r_wall = wall;
    r_ops = ops;
    r_buggy = s.Tester.buggy_executions;
    r_racy = s.Tester.race_executions;
    r_distinct = List.length s.Tester.distinct_races;
    r_mean_steps = s.Tester.mean_steps;
    r_top_heap_words = gc.Gc.top_heap_words;
    r_live_words = gc.Gc.live_words;
  }

let row_to_json r =
  Jsonx.Obj
    [
      ("name", Jsonx.String r.r_name);
      ("iters", Jsonx.Int r.r_iters);
      ("scale", Jsonx.Int r.r_scale);
      ("wall_s", Jsonx.Float r.r_wall);
      ( "execs_per_s",
        Jsonx.Float (if r.r_wall > 0.0 then float_of_int r.r_iters /. r.r_wall else nan) );
      ( "ops_per_s",
        Jsonx.Float (if r.r_wall > 0.0 then float_of_int r.r_ops /. r.r_wall else nan) );
      ("total_ops", Jsonx.Int r.r_ops);
      ("buggy_executions", Jsonx.Int r.r_buggy);
      ("race_executions", Jsonx.Int r.r_racy);
      ("distinct_races", Jsonx.Int r.r_distinct);
      ("mean_steps", Jsonx.Float r.r_mean_steps);
      ("gc_top_heap_words", Jsonx.Int r.r_top_heap_words);
      ("gc_live_words", Jsonx.Int r.r_live_words);
    ]

(* Deterministically ordered litmus histogram: sorted by outcome, not by
   frequency, so the JSON is diffable across builds. *)
let litmus_row (t : Litmus.t) =
  let config = Tool.config ~seed Tool.C11tester in
  let hist, wall =
    Stats.timed (fun () ->
        Litmus.explore ~jobs:!jobs ~config ~iters:!iters_litmus t)
  in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) hist in
  let weak = Litmus.weak_observed hist t in
  let violations = List.filter (fun (o, _) -> not (t.Litmus.allowed o)) hist in
  (t, sorted, weak, violations, wall)

let litmus_to_json (t, sorted, weak, violations, wall) =
  Jsonx.Obj
    [
      ("name", Jsonx.String t.Litmus.name);
      ("iters", Jsonx.Int !iters_litmus);
      ("wall_s", Jsonx.Float wall);
      ("weak_observed", Jsonx.Bool weak);
      ("violations", Jsonx.Int (List.length violations));
      ( "outcomes",
        Jsonx.List
          (List.map
             (fun (o, n) ->
               Jsonx.Obj
                 [
                   ( "outcome",
                     Jsonx.List (List.map (fun v -> Jsonx.Int v) o) );
                   ("count", Jsonx.Int n);
                 ])
             sorted) );
    ]

let run () =
  Bench_util.header
    (Printf.sprintf
       "Fixed-seed perf suite (seed %Ld%s): wall time, throughput and parity \
        observables per workload"
       seed
       (if !jobs > 1 then Printf.sprintf ", %d domains" !jobs else ""));
  Printf.printf "%-16s %6s %9s %10s %12s %6s %6s %5s\n" "workload" "iters"
    "wall" "execs/s" "ops/s" "buggy" "racy" "races";
  let rows =
    List.map
      (fun (w : Registry.t) ->
        let iters =
          match w.Registry.category with
          | Registry.Application -> !iters_app
          | Registry.Injected | Registry.Data_structure -> !iters_ds
        in
        let r = run_workload w ~iters in
        Printf.printf "%-16s %6d %9s %10.1f %12.0f %6d %6d %5d\n%!" r.r_name
          r.r_iters
          (Bench_util.pp_seconds r.r_wall)
          (float_of_int r.r_iters /. r.r_wall)
          (float_of_int r.r_ops /. r.r_wall)
          r.r_buggy r.r_racy r.r_distinct;
        Metrics.set_gauge Bench_util.metrics
          ("perf.wall_s." ^ r.r_name) r.r_wall;
        Metrics.set_gauge Bench_util.metrics
          ("perf.ops_per_s." ^ r.r_name)
          (float_of_int r.r_ops /. r.r_wall);
        r)
      Registry.all
  in
  let litmus = List.map litmus_row Litmus.catalog in
  let litmus_wall =
    List.fold_left (fun acc (_, _, _, _, w) -> acc +. w) 0.0 litmus
  in
  let total_wall =
    List.fold_left (fun acc r -> acc +. r.r_wall) litmus_wall rows
  in
  let total_ops = List.fold_left (fun acc r -> acc + r.r_ops) 0 rows in
  Printf.printf
    "litmus suite: %d tests in %s\ntotal: %s wall, %d ops (%.0f ops/s \
     aggregate)\n%!"
    (List.length litmus)
    (Bench_util.pp_seconds litmus_wall)
    (Bench_util.pp_seconds total_wall)
    total_ops
    (float_of_int total_ops /. total_wall);
  Metrics.set_gauge Bench_util.metrics "perf.total_wall_s" total_wall;
  Metrics.set_gauge Bench_util.metrics "perf.total_ops_per_s"
    (float_of_int total_ops /. total_wall);
  let gc = Gc.stat () in
  Printf.printf "memory high-water: %d top-heap words, %d live\n%!"
    gc.Gc.top_heap_words gc.Gc.live_words;
  Metrics.set_gauge Bench_util.metrics "perf.gc_top_heap_words"
    (float_of_int gc.Gc.top_heap_words);
  last_doc :=
    Some
      (Jsonx.Obj
         [
           ("schema", Jsonx.String "c11-perfsuite-v1");
           ("seed", Jsonx.String (Int64.to_string seed));
           ("jobs", Jsonx.Int !jobs);
           ("total_wall_s", Jsonx.Float total_wall);
           ("total_ops", Jsonx.Int total_ops);
           ( "total_ops_per_s",
             Jsonx.Float (float_of_int total_ops /. total_wall) );
           ("gc_top_heap_words", Jsonx.Int gc.Gc.top_heap_words);
           ("gc_live_words", Jsonx.Int gc.Gc.live_words);
           ("workloads", Jsonx.List (List.map row_to_json rows));
           ("litmus", Jsonx.List (List.map litmus_to_json litmus));
         ])
