(* Benchmark driver.  One process runs one workload in one mode and
   prints one JSON document as its last line of output; run.py spawns it,
   applies the committed expectations and prints the benchmark's result.

     driver.exe setup WORKLOAD --seed N
     driver.exe run   WORKLOAD --seed N --seconds S [--small] [--mutation M]
     driver.exe trace WORKLOAD --seed N --seconds S [--spans FILE] [--small]
     driver.exe check WORKLOAD --seed N [--small] [--mutation M]

   Every timing is taken here, from outside the libraries, around calls
   into their public functions: Tester, Litmus, Engine, Fuzz, Lint, Svc
   and Cache.  [setup] does only the work a user pays before the first
   timed call of every invocation; run.py times whole [setup] processes.
   [run] checks a first pass, repeats the timed pass for [--seconds] and
   reports rates from the median pass time, scaled to a reference CPU
   speed (see the kernel below).  [trace] does the same for half of
   [--seconds] (the base of [trace.overhead]) and then runs the workload
   once more with spans recorded around every public call, from which
   the per-layer metrics are computed.  [check] runs the checked first
   pass alone, for the gate's expectations and its self-check. *)

let now_ns = Profile.now_ns
let secs_since t0 = float_of_int (now_ns () - t0) /. 1e9
let median xs = Stats.percentile 50.0 xs
let digest j = Digest.to_hex (Digest.string (Jsonx.to_string j))
let hex64 s = Printf.sprintf "0x%Lx" s
let steps_of (s : Tester.summary) =
  int_of_float (Float.round (s.Tester.mean_steps *. float_of_int s.Tester.executions))
let ops_of (s : Tester.summary) = s.Tester.total_atomic_ops + s.Tester.total_na_ops

(* ------------------------------------------------------------------ *)
(* CPU speed *)

(* The VM this benchmark was tuned on shares its host, and its CPU speed
   drifts by up to 40% for seconds to minutes at a time: whole runs were
   that much slower, so no choice of pass or percentile hides it.  A fixed
   kernel made of the engine's kinds of work (map and hash-table updates
   with allocation, an effect round trip, int-array writes) therefore runs
   before every timed call, and a pass's wall time is scaled to the speed
   at which the kernel takes [kernel_ref_s], about its time on that VM
   when it was quiet.  Measured there, campaign's raw pass times moved
   30% within one run while the scaled ones moved 4%.  The kernel starts
   from an emptied minor heap, so the garbage a timed call leaves behind
   is not charged to it. *)
let kernel_ref_s = 0.8e-3
let kernel_s = ref 0.0
let kernel_calls = ref 0
let kernel_sink = ref 0

module Int_map = Map.Make (Int)

type _ Effect.t += Tick : int -> int Effect.t

let kernel () =
  Gc.minor ();
  let t0 = now_ns () in
  let m = ref Int_map.empty in
  for i = 0 to 4000 do
    m := Int_map.add ((i * 7919) land 2047) i !m
  done;
  let h = Hashtbl.create 64 in
  for i = 0 to 4000 do
    Hashtbl.replace h (i land 1023)
      (i :: Option.value ~default:[] (Hashtbl.find_opt h (i land 1023)))
  done;
  let cv = Array.make 64 0 in
  let steps () =
    let acc = ref 0 in
    for i = 0 to 3000 do
      acc := !acc + Effect.perform (Tick i);
      let k = i land 63 in
      cv.(k) <- max cv.(k) (cv.((k + 7) land 63) + 1)
    done;
    !acc
  in
  let r =
    Effect.Deep.match_with steps ()
      {
        retc = Fun.id;
        exnc = raise;
        effc =
          (fun (type a) (e : a Effect.t) ->
            match e with
            | Tick i ->
              Some
                (fun (k : (a, _) Effect.Deep.continuation) ->
                  Effect.Deep.continue k (i land 7))
            | _ -> None);
      }
  in
  kernel_sink := !kernel_sink + Int_map.cardinal !m + Hashtbl.length h + r + cv.(0);
  kernel_s := !kernel_s +. secs_since t0;
  incr kernel_calls

(* [f ()] and the CPU speed it ran at, relative to the reference: from the
   kernel runs inside it and one more after it. *)
let with_speed f =
  kernel_s := 0.0;
  kernel_calls := 0;
  let r = f () in
  kernel ();
  (r, kernel_ref_s *. float_of_int !kernel_calls /. !kernel_s)

(* [f x] timed, after a kernel run: result and seconds.  [fresh] first
   compacts the heap, so the call starts from the heap a new process
   would have. *)
let timed ?(fresh = false) f x =
  if fresh then Gc.compact ();
  kernel ();
  let t0 = now_ns () in
  let r = f x in
  (r, secs_since t0)

let timed_map ?fresh f xs = List.split (List.map (timed ?fresh f) xs)

let sum = List.fold_left ( +. ) 0.0

(* Per-input failure lists: how many inputs failed, and all failures. *)
let tally per_input =
  (List.length (List.filter (( <> ) []) per_input), List.concat per_input)

(* One check of input [name]: no failure, or one with [key]. *)
let check name cond key note = if cond then [] else [ (key, name ^ ": " ^ note) ]

(* ------------------------------------------------------------------ *)
(* Spans *)

(* Spans are kept in memory and written out once the run ends.  Each
   records its name, start, end, parent span and the minor-heap words
   allocated inside it; self time is a span minus its children. *)
module Span = struct
  type t = {
    id : int;
    name : string;
    parent : int;
    t0 : int;
    t1 : int;
    words : float;
  }

  let on = ref false
  let recorded : t list ref = ref []
  let stack = ref [ 0 ]
  let next = ref 1

  let with_ name f =
    if not !on then f ()
    else begin
      let id = !next in
      incr next;
      let parent = List.hd !stack in
      stack := id :: !stack;
      let w0 = Gc.minor_words () in
      let t0 = now_ns () in
      let r = f () in
      let t1 = now_ns () in
      let words = Gc.minor_words () -. w0 in
      stack := List.tl !stack;
      recorded := { id; name; parent; t0; t1; words } :: !recorded;
      r
    end

  type agg = {
    mutable count : int;
    mutable self_ns : int;
    mutable total_words : float;
    mutable durs : float list;  (** span durations, in ns *)
  }

  let aggregate () =
    let children = Hashtbl.create 1024 in
    List.iter
      (fun s ->
        let d = s.t1 - s.t0 in
        Hashtbl.replace children s.parent
          (d + Option.value ~default:0 (Hashtbl.find_opt children s.parent)))
      !recorded;
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let a =
          match Hashtbl.find_opt by_name s.name with
          | Some a -> a
          | None ->
            let a = { count = 0; self_ns = 0; total_words = 0.0; durs = [] } in
            Hashtbl.add by_name s.name a;
            a
        in
        let d = s.t1 - s.t0 in
        a.count <- a.count + 1;
        a.self_ns <-
          a.self_ns + d - Option.value ~default:0 (Hashtbl.find_opt children s.id);
        a.total_words <- a.total_words +. s.words;
        a.durs <- float_of_int d :: a.durs)
      !recorded;
    by_name

  let write path ~run_id =
    let oc = open_out path in
    List.iter
      (fun s ->
        output_string oc
          (Jsonx.to_string
             (Jsonx.Obj
                [
                  ("run", Jsonx.String run_id);
                  ("id", Jsonx.Int s.id);
                  ("parent", Jsonx.Int s.parent);
                  ("name", Jsonx.String s.name);
                  ("start_ns", Jsonx.Int s.t0);
                  ("end_ns", Jsonx.Int s.t1);
                  ("minor_words", Jsonx.Float s.words);
                ]));
        output_char oc '\n')
      (List.rev !recorded);
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* What a pass reports *)

type pass = {
  wall : float;  (** seconds inside the timed calls *)
  execs : int;
  ops : int;
  programs : int;
  observables : Jsonx.t;
      (** the outputs the gate compares; identical on every pass *)
  failed : int;  (** outputs that are wrong *)
  failures : (string * string) list;
      (** (key, note) of the wrong outputs; one entry per distinct
          finding where several outputs share a key *)
}

type workload = {
  attempted : int;
  pass : unit -> pass;
  trace : pass -> float * (string * float) list * (string * string) list;
      (** the traced run, given the last untraced pass: the wall time of
          its counterpart of one untraced pass, the per-layer metrics and
          the failures *)
}

(* Per-execution timing from the "dsl.exec" spans (one public call per
   execution): sample count, percentiles, busy time and allocation. *)
let exec_metrics ~steps by_name =
  match Hashtbl.find_opt by_name "dsl.exec" with
  | None -> []
  | Some (a : Span.agg) ->
    let busy = sum a.Span.durs in
    [
      ("dsl.exec_samples", float_of_int a.Span.count);
      ("dsl.exec_us_p50", Stats.percentile 50.0 a.Span.durs /. 1e3);
      ("dsl.exec_us_p99", Stats.percentile 99.0 a.Span.durs /. 1e3);
      ("dsl.ns_per_step", busy /. float_of_int (max 1 steps));
      ("dsl.alloc_words_per_step", a.Span.total_words /. float_of_int (max 1 steps));
    ]

let self_s by_name name =
  match Hashtbl.find_opt by_name name with
  | Some (a : Span.agg) -> float_of_int a.Span.self_ns /. 1e9
  | None -> 0.0

let phase_s profile name =
  match Profile.snapshot profile name with
  | Some s -> float_of_int s.Profile.total_ns /. 1e9
  | None -> 0.0

(* The engine's own phase timers and counters, read through the
   [?profile]/[?metrics] arguments of the public entry points. *)
let core_metrics profile metrics =
  [
    ("core.prior_set_s", phase_s profile "prior_set");
    ("core.may_read_from_s", phase_s profile "may_read_from");
    ("core.mo_graph_update_s", phase_s profile "mo_graph_update");
    ("core.race_check_s", phase_s profile "race_check");
    ("core.cv_merge_s", phase_s profile "cv_merge");
    ("core.release_seq_s", phase_s profile "release_seq");
    ("core.prune_sweep_s", phase_s profile "prune_sweep");
    ( "core.mrf_candidates_mean",
      match Metrics.histo_snapshot metrics "mrf.candidates" with
      | Some h when h.Metrics.count > 0 -> h.Metrics.mean
      | _ -> 0.0 );
    ("core.pruned_stores", float_of_int (Metrics.counter_value metrics "prune.stores"));
  ]

let summary_counts (ss : Tester.summary list) =
  let total f = float_of_int (List.fold_left (fun acc s -> acc + f s) 0 ss) in
  let certified = total (fun s -> s.Tester.certified_ops) in
  let retired = total (fun s -> s.Tester.retired_prefix_ops) in
  [
    ("dsl.execs", total (fun s -> s.Tester.executions));
    ("dsl.steps", total steps_of);
    ("dsl.ops", total ops_of);
    ( "core.graph_peak_nodes",
      float_of_int (List.fold_left (fun m s -> max m s.Tester.max_graph_size) 0 ss) );
    ("check.certified_ops", certified);
    ("check.retired_ops", retired);
    ("check.retired_ratio", if certified > 0.0 then retired /. certified else 0.0);
    ("check.rejected", total (fun s -> s.Tester.cert_rejected_executions));
  ]

(* ------------------------------------------------------------------ *)
(* campaign: the perf suite's mix through Tester.run and Litmus.explore *)

type input =
  | Reg of {
      name : string;
      scale : int;
      iters : int;
      config : Engine.config;
      body : unit -> unit;
    }
  | Lit of { lt : Litmus.t; iters : int; config : Engine.config }

let input_name = function Reg r -> r.name | Lit l -> l.lt.Litmus.name

(* 17 registry workloads, buggy variants at default scale, 400 executions
   each (50 for the application analogues); 31 litmus tests at 2500. *)
let registry_inputs ~seed ~div =
  List.map
    (fun (w : Registry.t) ->
      let iters =
        match w.Registry.category with
        | Registry.Application -> 50
        | Registry.Injected | Registry.Data_structure -> 400
      in
      Reg
        {
          name = w.Registry.name;
          scale = w.Registry.default_scale;
          iters = max 1 (iters / div);
          config = Tool.config ~seed ~max_steps:150_000 Tool.C11tester;
          body = w.Registry.run ~variant:Variant.Buggy ~scale:w.Registry.default_scale;
        })
    Registry.all

let litmus_inputs ~seed ~div =
  List.map
    (fun lt ->
      Lit { lt; iters = max 1 (2500 / div); config = Tool.config ~seed Tool.C11tester })
    Litmus.catalog

let hist_json hist =
  Jsonx.List
    (List.map
       (fun (o, n) ->
         Jsonx.List [ Jsonx.List (List.map (fun v -> Jsonx.Int v) o); Jsonx.Int n ])
       (List.sort compare hist))

(* The parity observables of one input, and its failures. *)
let input_result input (s : Tester.summary) hist =
  let common =
    [
      ("name", Jsonx.String (input_name input));
      ("executions", Jsonx.Int s.Tester.executions);
      ("ops", Jsonx.Int (ops_of s));
      ("steps", Jsonx.Int (steps_of s));
    ]
  in
  match (input, hist) with
  | Reg r, _ ->
    let obs =
      Jsonx.Obj
        (common
        @ [
            ("buggy", Jsonx.Int s.Tester.buggy_executions);
            ("racy", Jsonx.Int s.Tester.race_executions);
            ("distinct_races", Jsonx.Int (List.length s.Tester.distinct_races));
            ("summary_md5", Jsonx.String (digest (Tester.summary_to_json s)));
          ])
    in
    let fails =
      check r.name (s.Tester.executions = r.iters) "campaign:short-run"
        (Printf.sprintf "ran %d of %d executions" s.Tester.executions r.iters)
    in
    (obs, fails)
  | Lit l, Some hist ->
    let bad = List.filter (fun (o, _) -> not (l.lt.Litmus.allowed o)) hist in
    let obs =
      Jsonx.Obj
        (common
        @ [
            ("outcomes", hist_json hist);
            ("disallowed", Jsonx.Int (List.length bad));
            ("summary_md5", Jsonx.String (digest (Tester.summary_to_json s)));
          ])
    in
    let fails =
      check l.lt.Litmus.name (bad = []) "litmus:disallowed-outcome"
        (Printf.sprintf "%d disallowed outcomes" (List.length bad))
    in
    (obs, fails)
  | Lit _, None -> assert false

let run_input = function
  | Reg r -> (Tester.run ~config:r.config ~iters:r.iters r.body, None)
  | Lit l ->
    let s, hist = Litmus.explore_summary ~config:l.config ~iters:l.iters l.lt in
    (s, Some hist)

let fold_inputs inputs results =
  let obs, fails =
    List.split (List.map2 (fun i (s, h) -> input_result i s h) inputs results)
  in
  let ss = List.map fst results in
  let failed, failures = tally fails in
  (Jsonx.List obs, failed, failures, ss)

let campaign ~seed ~div =
  let inputs = registry_inputs ~seed ~div @ litmus_inputs ~seed ~div in
  let pass () =
    let results, walls = timed_map run_input inputs in
    let observables, failed, failures, ss = fold_inputs inputs results in
    {
      wall = sum walls;
      execs = List.fold_left (fun a s -> a + s.Tester.executions) 0 ss;
      ops = List.fold_left (fun a s -> a + ops_of s) 0 ss;
      programs = List.length inputs;
      observables;
      failed;
      failures;
    }
  in
  let trace (last : pass) =
    (* one timed public call per execution: run_shard on one index, then
       the shard merge must reproduce the untraced summary exactly *)
    let (merged, walls), speed =
      with_speed @@ fun () ->
      timed_map
        (fun input ->
          Span.with_ "campaign.input" (fun () ->
              match input with
              | Reg r ->
                let shards =
                  List.init r.iters (fun k ->
                      Span.with_ "dsl.exec" (fun () ->
                          Tester.run_shard ~config:r.config ~total:r.iters ~start:k
                            ~stride:r.iters r.body))
                in
                (fst (Tester.merge_shard_list shards), None)
              | Lit l ->
                let shards =
                  List.init l.iters (fun k ->
                      Span.with_ "dsl.exec" (fun () ->
                          Tester.run_shard ~config:l.config ~total:l.iters ~start:k
                            ~stride:l.iters l.lt.Litmus.run_once))
                in
                let s, hist = Tester.merge_shard_list shards in
                (s, Some (Litmus.rank_hist hist))))
        inputs
    in
    let traced_wall = sum walls *. speed in
    let observables, _, _, ss = fold_inputs inputs merged in
    let fails =
      if digest observables <> digest last.observables then
        [ ("trace:merge-mismatch", "merged run_shard results differ from Tester.run") ]
      else []
    in
    (* the engine's phase split, from a profiled rerun *)
    let profile = Profile.create () and metrics = Metrics.create () in
    Span.with_ "core.profiled" (fun () ->
        List.iter
          (function
            | Reg r ->
              ignore (Tester.run ~profile ~metrics ~config:r.config ~iters:r.iters r.body)
            | Lit l ->
              ignore
                (Tester.run_collect ~profile ~metrics ~config:l.config ~iters:l.iters
                   l.lt.Litmus.run_once))
          inputs);
    let by_name = Span.aggregate () in
    let counts = summary_counts ss in
    let steps = int_of_float (List.assoc "dsl.steps" counts) in
    ( traced_wall,
      counts @ exec_metrics ~steps by_name @ core_metrics profile metrics,
      fails )
  in
  { attempted = List.length inputs; pass; trace }

(* ------------------------------------------------------------------ *)
(* tier: two long single executions under the --scale tier contract *)

let tier_config ~seed ~mutation ~certify =
  {
    (Tool.config ~seed
       ~prune:(Pruner.Aggressive { window = 4096; interval = 64 })
       ~max_steps:30_000_000 Tool.C11tester)
    with
    Engine.certify;
    mutation;
  }

(* (workload, variant, fraction of its registry tier scale) *)
let tier_spec = [ ("spsc-queue", Variant.Buggy, 200); ("mcs-lock", Variant.Correct, 20) ]

let tier ~seed ~div ~mutation =
  let inputs =
    List.map
      (fun (name, variant, frac) ->
        let w = Option.get (Registry.find name) in
        let scale = max 50 (Option.get w.Registry.scale_tier / frac / div) in
        (name, variant, scale, w.Registry.run ~variant ~scale))
      tier_spec
  in
  (* each execution starts from a compacted heap, as it would in its own
     `c11test run --scale tier` process *)
  let run_all ?(span = "tier.run") ?(profile = Profile.null) ?(metrics = Metrics.null)
      ~certify () =
    let config = tier_config ~seed ~mutation ~certify in
    let ss, walls =
      timed_map ~fresh:true
        (fun (_, _, _, body) ->
          Span.with_ span (fun () -> Tester.run ~profile ~metrics ~config ~iters:1 body))
        inputs
    in
    (ss, sum walls)
  in
  let result ss =
    let obs, fails =
      List.split
        (List.map2
           (fun (name, variant, scale, _) (s : Tester.summary) ->
             let obs =
               Jsonx.Obj
                 [
                   ("name", Jsonx.String name);
                   ("variant", Jsonx.String (Variant.to_string variant));
                   ("scale", Jsonx.Int scale);
                   ( "verdict",
                     Jsonx.String (if s.Tester.buggy_executions > 0 then "buggy" else "clean")
                   );
                   ("distinct_races", Jsonx.Int (List.length s.Tester.distinct_races));
                   ("ops", Jsonx.Int (ops_of s));
                   ("steps", Jsonx.Int (steps_of s));
                   ("certified_ops", Jsonx.Int s.Tester.certified_ops);
                   ("retired_ops", Jsonx.Int s.Tester.retired_prefix_ops);
                   ("summary_md5", Jsonx.String (digest (Tester.summary_to_json s)));
                 ]
             in
             let check = check name in
             let fails =
               check (s.Tester.cert_rejected_executions = 0) "tier:cert-rejected"
                 "the certifier rejected the execution"
               @ check (s.Tester.certified_executions = 1) "tier:not-certified"
                   "the execution was not certified"
               @ check (s.Tester.step_limit_hits = 0 && s.Tester.deadlocks = 0)
                   "tier:aborted" "step limit or deadlock"
               @ check
                   (variant = Variant.Buggy || s.Tester.buggy_executions = 0)
                   "tier:false-race" "race reported on the race-free variant"
             in
             (obs, fails))
           inputs ss)
    in
    let failed, failures = tally fails in
    (Jsonx.List obs, failed, failures)
  in
  let pass () =
    let ss, wall = run_all ~certify:true () in
    let observables, failed, failures = result ss in
    {
      wall;
      execs = List.length ss;
      ops = List.fold_left (fun a s -> a + ops_of s) 0 ss;
      programs = List.length inputs;
      observables;
      failed;
      failures;
    }
  in
  let trace (last : pass) =
    let (ss, wall), speed = with_speed (run_all ~span:"dsl.exec" ~certify:true) in
    let traced_wall = wall *. speed in
    let observables, _, _ = result ss in
    let fails =
      if digest observables <> digest last.observables then
        [ ("trace:rerun-mismatch", "traced tier run differs from the untraced one") ]
      else []
    in
    let (_, off), off_speed =
      with_speed (run_all ~span:"tier.certify_off" ~certify:false)
    in
    let off_wall = off *. off_speed in
    let profile = Profile.create () and metrics = Metrics.create () in
    ignore (run_all ~span:"core.profiled" ~profile ~metrics ~certify:true ());
    let by_name = Span.aggregate () in
    let counts = summary_counts ss in
    let steps = int_of_float (List.assoc "dsl.steps" counts) in
    ( traced_wall,
      counts
      @ exec_metrics ~steps by_name
      @ core_metrics profile metrics
      @ [
          ("check.stream_overhead", traced_wall /. off_wall);
          ("check.finalize_s", phase_s profile "certify");
        ],
      fails )
  in
  { attempted = List.length inputs; pass; trace }

(* ------------------------------------------------------------------ *)
(* fuzz: the CLI-default differential campaign with coverage on *)

let fuzz ~seed ~div ~mutation =
  let cfg =
    {
      Fuzz.default_campaign_cfg with
      Fuzz.c_programs = 10_000 / div;
      c_seed = Int64.of_int seed;
      c_jobs = 1;
      c_mutation = mutation;
    }
  in
  let result (r : Fuzz.report) =
    let shapes =
      match r.Fuzz.r_coverage with Some c -> Cov.distinct_shapes c | None -> 0
    in
    let obs =
      Jsonx.Obj
        [
          ("programs", Jsonx.Int r.Fuzz.r_programs);
          ("certified", Jsonx.Int r.Fuzz.r_certified);
          ("cert_rejected", Jsonx.Int r.Fuzz.r_cert_rejected);
          ("crashes", Jsonx.Int r.Fuzz.r_crashes);
          ("generated_ops", Jsonx.Int r.Fuzz.r_gen_ops);
          ("lint_potential", Jsonx.Int r.Fuzz.r_lint_potential);
          ("lint_unsound", Jsonx.Int r.Fuzz.r_lint_unsound);
          ("shrink_steps", Jsonx.Int r.Fuzz.r_shrink_steps);
          ("distinct_shapes", Jsonx.Int shapes);
          ( "findings",
            Jsonx.List
              (List.map
                 (fun (f : Fuzz.finding) ->
                   Jsonx.Obj
                     [
                       ("index", Jsonx.Int f.Fuzz.f_index);
                       ("seed", Jsonx.String (hex64 f.Fuzz.f_seed));
                       ("key", Jsonx.String f.Fuzz.f_key);
                       ("exec_seed", Jsonx.String (hex64 f.Fuzz.f_exec_seed));
                       ("ops_before", Jsonx.Int f.Fuzz.f_ops_before);
                       ("ops_after", Jsonx.Int f.Fuzz.f_ops_after);
                     ])
                 r.Fuzz.r_findings) );
          ("report_md5", Jsonx.String (digest (Fuzz.report_to_json r)));
        ]
    in
    (* findings are deduplicated by key, so every failing program carries
       the key of one of them *)
    let failed = r.Fuzz.r_cert_rejected + r.Fuzz.r_crashes + r.Fuzz.r_lint_unsound in
    let failures =
      List.map
        (fun (f : Fuzz.finding) ->
          (f.Fuzz.f_key, Printf.sprintf "program %d" f.Fuzz.f_index))
        r.Fuzz.r_findings
    in
    (obs, failed, failures, r.Fuzz.r_gen_ops)
  in
  (* Fuzz.campaign at -j 1 is one shard over [0, programs) and the merge;
     timing it as 500-program shards plus the merge gives the same report
     and lets the speed kernel run between calls *)
  let chunk = 500 in
  let ranges =
    List.init ((cfg.Fuzz.c_programs + chunk - 1) / chunk) (fun k ->
        (k * chunk, min cfg.Fuzz.c_programs ((k + 1) * chunk)))
  in
  let pass () =
    let shards, walls =
      timed_map
        (fun (lo, hi) ->
          Fuzz.campaign_shard ~coverage:true ~stop:hi ~cfg ~start:lo ~stride:1 ())
        ranges
    in
    let r, merge_wall = timed (Fuzz.merge_shard_list cfg) shards in
    let observables, failed, failures, gen_ops = result r in
    {
      wall = sum walls +. merge_wall;
      execs = r.Fuzz.r_programs;
      ops = gen_ops;
      programs = r.Fuzz.r_programs;
      observables;
      failed;
      failures;
    }
  in
  let trace (last : pass) =
    let fprofile = Profile.create () and fmetrics = Metrics.create () in
    let (r, wall), speed =
      with_speed @@ fun () ->
      timed
        (fun () ->
          Span.with_ "fuzz.campaign" (fun () ->
              Fuzz.campaign ~profile:fprofile ~metrics:fmetrics ~coverage:true cfg))
        ()
    in
    let traced_wall = wall *. speed in
    let observables, _, _, _ = result r in
    let fails =
      if digest observables <> digest last.observables then
        [ ("trace:rerun-mismatch", "traced fuzz campaign differs from the untraced one") ]
      else []
    in
    (* the same programs, one public call per layer *)
    let base = Fuzz.engine_config ~mutation in
    let with_cov = { base with Engine.coverage = true } in
    let profile = Profile.create () and metrics = Metrics.create () in
    let steps = ref 0 and ops = ref 0 and certified = ref 0 and retired = ref 0 in
    let peak = ref 0 and pruned = ref 0 in
    for i = 0 to cfg.Fuzz.c_programs - 1 do
      let pseed = Rng.substream cfg.Fuzz.c_seed ~index:i in
      let p =
        Span.with_ "fuzz.generate" (fun () -> Fuzz.generate ~cfg:cfg.Fuzz.c_gen ~seed:pseed)
      in
      ignore (Span.with_ "lint.analyze" (fun () -> Lint.analyze p));
      let seed = Fuzz.exec_seed p ~attempt:0 in
      let run_one span config ~certify =
        ignore (Span.with_ span (fun () -> Fuzz.run_one ~config ~certify ~seed p))
      in
      run_one "dsl.exec" with_cov ~certify:true;
      run_one "fuzz.run_one.nocov" base ~certify:true;
      run_one "fuzz.run_one.nocert" base ~certify:false;
      match
        Span.with_ "core.profiled" (fun () ->
            Engine.run ~profile ~metrics
              { base with Engine.seed; certify = true }
              (Fuzz.to_closure p))
      with
      | o ->
        steps := !steps + o.Engine.steps;
        ops := !ops + o.Engine.atomic_ops + o.Engine.na_ops;
        certified := !certified + o.Engine.certified_ops;
        retired := !retired + o.Engine.retired_prefix_ops;
        peak := max !peak o.Engine.max_graph_size;
        pruned := !pruned + o.Engine.pruned_stores
      | exception _ -> ()
    done;
    let by_name = Span.aggregate () in
    let s name = self_s by_name name in
    let exec_s = s "dsl.exec" and nocov_s = s "fuzz.run_one.nocov" in
    let program_us p =
      match Hashtbl.find_opt by_name "dsl.exec" with
      | Some a -> Stats.percentile p a.Span.durs /. 1e3
      | None -> 0.0
    in
    let programs = float_of_int r.Fuzz.r_programs in
    ( traced_wall,
      [
        ("dsl.execs", programs);
        ("dsl.steps", float_of_int !steps);
        ("dsl.ops", float_of_int !ops);
        ("core.graph_peak_nodes", float_of_int !peak);
        ("check.certified_ops", float_of_int !certified);
        ("check.retired_ops", float_of_int !retired);
        ( "check.retired_ratio",
          if !certified > 0 then float_of_int !retired /. float_of_int !certified
          else 0.0 );
        ("check.rejected", float_of_int r.Fuzz.r_cert_rejected);
        ("check.fuzz_share", (nocov_s -. s "fuzz.run_one.nocert") /. nocov_s);
        ("check.finalize_s", phase_s profile "certify");
        ("cov.fingerprint_s", exec_s -. nocov_s);
        ( "cov.distinct_shapes",
          match r.Fuzz.r_coverage with
          | Some c -> float_of_int (Cov.distinct_shapes c)
          | None -> 0.0 );
        ("fuzz.generate_s", s "fuzz.generate");
        ( "fuzz.program_samples",
          float_of_int (Hashtbl.find by_name "dsl.exec").Span.count );
        ("fuzz.program_us_p50", program_us 50.0);
        ("fuzz.program_us_p99", program_us 99.0);
        ("fuzz.shrink_s", phase_s fprofile "fuzz_shrink");
        ("fuzz.shrink_steps", float_of_int r.Fuzz.r_shrink_steps);
        ("lint.analyze_s", s "lint.analyze");
        ("lint.potential_ratio", float_of_int r.Fuzz.r_lint_potential /. programs);
      ]
      @ exec_metrics ~steps:!steps by_name
      @ List.filter
          (fun (k, _) -> k <> "core.pruned_stores")
          (core_metrics profile metrics)
      @ [ ("core.pruned_stores", float_of_int !pruned) ],
      fails )
  in
  { attempted = cfg.Fuzz.c_programs; pass; trace }

(* ------------------------------------------------------------------ *)
(* fabric: the registry inputs through worker processes and the cache *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fabric_workers = 1

let run_c = function
  | Reg r ->
    Svc.Run_c
      {
        workload = r.name;
        buggy = true;
        scale = r.scale;
        config = r.config;
        iters = r.iters;
      }
  | Lit _ -> invalid_arg "run_c"

let open_cache dir =
  match Cache.open_dir dir with
  | Ok c -> c
  | Error msg -> failwith (Printf.sprintf "cache dir %s: %s" dir msg)

(* What a user pays on every fabric invocation before the first campaign:
   locating the worker binary, the once-per-process code salt (an MD5 of
   that binary, forced by one cache_key call) and the cache directory. *)
let fabric_setup ~work inputs =
  let exe =
    match Svc.locate_exe () with
    | Some e -> e
    | None -> failwith "c11test worker binary not found"
  in
  ignore
    (Svc.cache_key ~exe ~workers:fabric_workers ~jobs:1 ~worker:0
       (run_c (List.hd inputs)));
  let root = Filename.concat work (Printf.sprintf "fabric-%d" (Unix.getpid ())) in
  ignore (open_cache root);
  (exe, root)

let fabric ~seed ~div ~work =
  let inputs = registry_inputs ~seed ~div in
  let exe, root = fabric_setup ~work inputs in
  at_exit (fun () -> rm_rf root);
  (* the in-process reference the fabric must reproduce byte for byte *)
  let reference =
    lazy
      (let (results, walls), speed = with_speed (fun () -> timed_map run_input inputs) in
       (List.map fst results, sum walls *. speed))
  in
  let npass = ref 0 in
  let campaign_run ~cache input =
    match Svc.run_campaign ~exe ~cache ~workers:fabric_workers ~jobs:1 (run_c input) with
    | Ok (Svc.M_run s, st) -> (s, st)
    | Ok _ -> failwith "fabric: unexpected merged payload"
    | Error msg -> failwith ("fabric: " ^ msg)
  in
  (* one cold pass into a fresh cache, then the warm pass over it *)
  let cold_warm () =
    incr npass;
    let dir = Filename.concat root (string_of_int !npass) in
    let cold =
      List.map
        (fun input ->
          let cache = open_cache dir in
          let (s, st), wall =
            timed
              (fun () ->
                Span.with_ "svc.run_campaign" (fun () -> campaign_run ~cache input))
              ()
          in
          (s, st, wall))
        inputs
    in
    let warm =
      List.map
        (fun input ->
          let cache = open_cache dir in
          let t0 = now_ns () in
          let s, st = Span.with_ "cache.replay" (fun () -> campaign_run ~cache input) in
          (s, st, secs_since t0))
        inputs
    in
    rm_rf dir;
    (cold, warm)
  in
  let result (cold, warm) =
    let ref_ss, _ = Lazy.force reference in
    let render s = Jsonx.to_string (Tester.summary_to_json s) in
    let failed, fails =
      tally
        (List.map2
           (fun (input, r) ((c, cst, _), (w, wst, _)) ->
             let name = input_name input in
             let cstats = Option.get cst.Svc.st_cache in
             let wstats = Option.get wst.Svc.st_cache in
             let check = check name in
             check (render c = render r) "fabric:cold-mismatch"
               "cold merged summary differs from the in-process run"
             @ check (render w = render c) "fabric:warm-mismatch"
                 "warm summary differs from cold"
             @ check (wst.Svc.st_executions_run = 0) "fabric:warm-executed"
                 "warm pass ran executions"
             @ check
                 (wstats.Cache.hits = cstats.Cache.stores && wstats.Cache.misses = 0)
                 "fabric:warm-miss" "warm pass missed the cache"
             @ check
                 (cst.Svc.st_failed = [] && wst.Svc.st_failed = [])
                 "fabric:lost-shard" "a worker range was lost")
           (List.combine inputs ref_ss) (List.combine cold warm))
    in
    let observables =
      Jsonx.List
        (List.map2
           (fun input (s, _, _) ->
             Jsonx.Obj
               [
                 ("name", Jsonx.String (input_name input));
                 ("executions", Jsonx.Int s.Tester.executions);
                 ("ops", Jsonx.Int (ops_of s));
                 ("summary_md5", Jsonx.String (digest (Tester.summary_to_json s)));
               ])
           inputs cold)
    in
    (observables, failed, fails)
  in
  let pass () =
    let ((cold, _) as cw) = cold_warm () in
    let observables, failed, failures = result cw in
    let ss = List.map (fun (s, _, _) -> s) cold in
    {
      wall = sum (List.map (fun (_, _, w) -> w) cold);
      execs = List.fold_left (fun a s -> a + s.Tester.executions) 0 ss;
      ops = List.fold_left (fun a s -> a + ops_of s) 0 ss;
      programs = List.length inputs;
      observables;
      failed;
      failures;
    }
  in
  let trace (last : pass) =
    let ((cold, warm) as cw), speed = with_speed cold_warm in
    let observables, _, _ = result cw in
    let fails =
      if digest observables <> digest last.observables then
        [ ("trace:rerun-mismatch", "traced fabric pass differs from the untraced one") ]
      else []
    in
    let _, inproc_wall = Lazy.force reference in
    let cold_walls = List.map (fun (_, _, w) -> w *. speed) cold in
    let cold_wall = sum cold_walls in
    let sum_st f xs = List.fold_left (fun a (_, st, _) -> a + f st) 0 xs in
    let cache f xs = sum_st (fun st -> f (Option.get st.Svc.st_cache)) xs in
    let hits = cache (fun c -> c.Cache.hits) warm in
    let lookups = hits + cache (fun c -> c.Cache.misses) warm in
    ( cold_wall,
      summary_counts (List.map (fun (s, _, _) -> s) cold)
      @ [
          ("svc.campaign_ms_p50", median cold_walls *. 1e3);
          ("svc.overhead_s", cold_wall -. inproc_wall);
          ( "svc.spawned",
            float_of_int (sum_st (fun st -> st.Svc.st_spawned) (cold @ warm)) );
          ("cache.store_bytes", float_of_int (cache (fun c -> c.Cache.store_bytes) cold));
          ( "cache.hit_ratio",
            if lookups > 0 then float_of_int hits /. float_of_int lookups else 0.0 );
          ("cache.replay_ms", List.fold_left (fun a (_, _, w) -> a +. w) 0.0 warm *. 1e3);
        ],
      fails )
  in
  { attempted = List.length inputs; pass; trace }

(* ------------------------------------------------------------------ *)
(* Entry point *)

let usage () =
  prerr_endline
    "usage: driver.exe (setup|run|trace|check) (campaign|tier|fuzz|fabric) --seed N \
     [--seconds S] [--small] [--mutation M] [--spans FILE] [--work DIR]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, name, rest =
    match args with m :: w :: rest -> (m, w, rest) | _ -> usage ()
  in
  let rec opts seed seconds small mutation spans work = function
    | [] -> (seed, seconds, small, mutation, spans, work)
    | "--seed" :: v :: r -> opts (int_of_string v) seconds small mutation spans work r
    | "--seconds" :: v :: r -> opts seed (float_of_string v) small mutation spans work r
    | "--small" :: r -> opts seed seconds true mutation spans work r
    | "--mutation" :: v :: r -> (
      match Execution.mutation_of_string v with
      | Some m -> opts seed seconds small (Some m) spans work r
      | None -> usage ())
    | "--spans" :: v :: r -> opts seed seconds small mutation (Some v) work r
    | "--work" :: v :: r -> opts seed seconds small mutation spans v r
    | _ -> usage ()
  in
  let seed, seconds, small, mutation, spans, work =
    try opts 1 10.0 false None None "." rest with Failure _ -> usage ()
  in
  let div = if small then 20 else 1 in
  let seed64 = Int64.of_int seed in
  let make () =
    match name with
    | "campaign" -> campaign ~seed:seed64 ~div
    | "tier" -> tier ~seed:seed64 ~div ~mutation
    | "fuzz" -> fuzz ~seed ~div ~mutation
    | "fabric" -> fabric ~seed:seed64 ~div ~work
    | _ -> usage ()
  in
  match mode with
  | "setup" -> (
    (* what every invocation pays before its first timed call *)
    match name with
    | "fabric" ->
      let _, root = fabric_setup ~work (registry_inputs ~seed:seed64 ~div) in
      rm_rf root
    | _ -> ignore (make ()))
  | "run" | "trace" | "check" ->
    let w = make () in
    (* passes run until [budget] seconds are spent, at least [min_passes];
       [check] runs the gated first pass only *)
    let budget = if mode = "trace" then seconds /. 2.0 else seconds in
    let min_passes = if mode = "check" then 0 else 3 in
    Gc.full_major ();
    let first = w.pass () in
    (* the heap's high-water mark after one pass, as a user's process ends
       a campaign: it keeps growing over repeated passes, whose number
       depends on the machine's speed *)
    let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    let t0 = now_ns () in
    (* each pass with the CPU speed it ran at, relative to the reference *)
    let rec loop acc =
      if List.length acc >= min_passes && secs_since t0 >= budget then List.rev acc
      else begin
        Gc.full_major ();
        loop (with_speed w.pass :: acc)
      end
    in
    let speeds = if mode = "check" then [] else loop [] in
    let timed = List.map fst speeds in
    let last = List.fold_left (fun _ p -> p) first timed in
    (* every pass must reproduce the first pass's outputs *)
    let drift =
      List.filter_map
        (fun p ->
          if digest p.observables <> digest first.observables then
            Some ("determinism:pass-mismatch", "a repeated pass changed its outputs")
          else None)
        timed
    in
    (* the work of a pass is fixed by the seed (checked above): rates
       divide the first pass's counts by the median scaled pass time *)
    let scaled = median (List.map (fun (p, speed) -> p.wall *. speed) speeds) in
    let rate f = float_of_int (f first) /. scaled in
    let e2e =
      if timed = [] then []
      else
        [
          ("execs_per_s", rate (fun p -> p.execs));
          ("ops_per_s", rate (fun p -> p.ops));
          ("programs_per_s", rate (fun p -> p.programs));
          ( "peak_heap_mb",
            float_of_int (top_heap_words * (Sys.word_size / 8)) /. 1e6 );
        ]
    in
    let layer, trace_fails =
      if mode = "trace" then begin
        Gc.full_major ();
        Span.on := true;
        let traced_wall, m, f = w.trace last in
        Span.on := false;
        Option.iter
          (fun path -> Span.write path ~run_id:(Printf.sprintf "%s-%d" name seed))
          spans;
        (m @ [ ("trace.overhead", traced_wall /. scaled) ], f)
      end
      else ([], [])
    in
    let failures = first.failures @ drift @ trace_fails in
    let failed =
      min w.attempted
        (first.failed + (if drift = [] then 0 else 1) + if trace_fails = [] then 0 else 1)
    in
    let num (k, v) = (k, Jsonx.Float v) in
    print_endline
      (Jsonx.to_string
         (Jsonx.Obj
            [
              ("workload", Jsonx.String name);
              ("mode", Jsonx.String mode);
              ("seed", Jsonx.Int seed);
              ("passes", Jsonx.Int (List.length timed));
              ("pass_walls", Jsonx.List (List.map (fun p -> Jsonx.Float p.wall) timed));
              ("pass_speeds", Jsonx.List (List.map (fun (_, v) -> Jsonx.Float v) speeds));
              ("attempted", Jsonx.Int w.attempted);
              ("failed", Jsonx.Int failed);
              ( "failures",
                Jsonx.List
                  (List.map
                     (fun (k, n) ->
                       Jsonx.Obj [ ("key", Jsonx.String k); ("note", Jsonx.String n) ])
                     failures) );
              ("observables", first.observables);
              ("end_to_end", Jsonx.Obj (List.map num e2e));
              ("per_layer", Jsonx.Obj (List.map num layer));
            ]))
  | _ -> usage ()
