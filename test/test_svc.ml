(* Multi-process campaign fabric (lib/svc): parity with the in-process
   runners, content-addressed cache replay, crash re-claim and degraded
   summaries.

   These tests spawn real worker processes — the c11test binary built
   alongside the suite — so they exercise the spec hand-off, the
   c11svc-v1 wire protocol, Marshal round-trips and the coordinator's
   select loop end to end, not a mock. *)

let check = Alcotest.(check bool)

let exe =
  lazy
    (match Svc.locate_exe () with
    | Some e -> e
    | None -> Alcotest.fail "cannot locate c11test.exe next to the test binary")

let run_campaign ?cache ?kill ~workers ~jobs c =
  match
    Svc.run_campaign ~exe:(Lazy.force exe) ?cache ?kill ~workers ~jobs c
  with
  | Ok r -> r
  | Error msg -> Alcotest.failf "run_campaign: %s" msg

let summary_string s = Jsonx.to_pretty_string (Tester.summary_to_json s)

let fresh_dir () =
  let d = Temp_dirs.fresh "c11svc_test" in
  (match Cache.open_dir d with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "cannot create %s: %s" d msg);
  d

let open_cache dir =
  match Cache.open_dir dir with
  | Ok c -> c
  | Error msg -> Alcotest.failf "open_dir %s: %s" dir msg

(* Run [f] with stderr sent to a file: its result and what it printed
   there. *)
let with_stderr f =
  let file = Filename.temp_file "c11svc_stderr" ".txt" in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  let r =
    Fun.protect
      ~finally:(fun () ->
        flush stderr;
        Unix.dup2 saved Unix.stderr;
        Unix.close saved)
      f
  in
  let text = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  (r, text)

(* ---------- campaign fixtures (coverage on: the widest observables) ---- *)

let run_config =
  { (Tool.config ~seed:99L ~max_steps:150_000 Tool.C11tester) with
    Engine.coverage = true;
    certify = true;
  }

let ms_queue () =
  match Registry.find "ms-queue" with
  | Some w -> w
  | None -> Alcotest.fail "ms-queue missing"

let run_spec iters =
  let w = ms_queue () in
  Svc.Run_c
    {
      workload = w.Registry.name;
      buggy = true;
      scale = w.Registry.default_scale;
      config = run_config;
      iters;
    }

let run_baseline iters =
  let w = ms_queue () in
  Tester.run ~config:run_config ~iters
    (w.Registry.run ~variant:Variant.Buggy ~scale:w.Registry.default_scale)

let litmus_config =
  { (Tool.config ~seed:7L Tool.C11tester) with Engine.coverage = true }

let mp_relaxed () =
  match Litmus.find "mp_relaxed" with
  | Some t -> t
  | None -> Alcotest.fail "mp_relaxed missing"

let fuzz_cfg =
  {
    Fuzz.default_campaign_cfg with
    Fuzz.c_programs = 60;
    c_seed = 11L;
    c_jobs = 1;
  }

(* ---------- parity ----------------------------------------------------- *)

let test_run_parity () =
  let baseline = run_baseline 24 in
  List.iter
    (fun workers ->
      let merged, st = run_campaign ~workers ~jobs:1 (run_spec 24) in
      match merged with
      | Svc.M_run s ->
        Alcotest.(check string)
          (Printf.sprintf "summary workers=%d" workers)
          (summary_string baseline) (summary_string s);
        check
          (Printf.sprintf "race reports workers=%d" workers)
          true
          (baseline.Tester.distinct_races = s.Tester.distinct_races);
        check
          (Printf.sprintf "clean workers=%d" workers)
          true
          (st.Svc.st_failed = [] && st.Svc.st_spawned = st.Svc.st_workers)
      | _ -> Alcotest.fail "expected M_run")
    [ 1; 2; 4 ]

let test_run_parity_nested () =
  (* worker processes and in-worker domains compose: still identical *)
  let baseline = run_baseline 24 in
  let merged, _ = run_campaign ~workers:3 ~jobs:2 (run_spec 24) in
  match merged with
  | Svc.M_run s ->
    Alcotest.(check string) "summary workers=3 jobs=2"
      (summary_string baseline) (summary_string s)
  | _ -> Alcotest.fail "expected M_run"

let test_litmus_parity () =
  let t = mp_relaxed () in
  let base_summary, base_hist =
    Litmus.explore_summary ~jobs:1 ~config:litmus_config ~iters:300 t
  in
  List.iter
    (fun workers ->
      let merged, _ =
        run_campaign ~workers ~jobs:1
          (Svc.Litmus_c
             { name = t.Litmus.name; config = litmus_config; iters = 300 })
      in
      match merged with
      | Svc.M_litmus (s, hist) ->
        Alcotest.(check string)
          (Printf.sprintf "litmus summary workers=%d" workers)
          (summary_string base_summary) (summary_string s);
        check
          (Printf.sprintf "litmus histogram workers=%d" workers)
          true
          (Litmus.rank_hist hist = base_hist)
      | _ -> Alcotest.fail "expected M_litmus")
    [ 1; 2; 4 ]

let test_fuzz_parity () =
  let baseline = Fuzz.campaign ~coverage:true fuzz_cfg in
  let render r = Jsonx.to_pretty_string (Fuzz.report_to_json r) in
  List.iter
    (fun workers ->
      let merged, _ =
        run_campaign ~workers ~jobs:1
          (Svc.Fuzz_c { cfg = fuzz_cfg; coverage = true; range = None })
      in
      match merged with
      | Svc.M_fuzz r ->
        Alcotest.(check string)
          (Printf.sprintf "fuzz report workers=%d" workers)
          (render baseline) (render r)
      | _ -> Alcotest.fail "expected M_fuzz")
    [ 1; 2; 4 ]

let test_corpus_fuzz_parity () =
  (* corpus-guided campaign: the round loop fanning out to worker
     processes must reproduce it fanning out to domains byte for byte,
     admissions included *)
  let cfg =
    {
      fuzz_cfg with
      Fuzz.c_programs = 120;
      c_corpus = Some (Corpus.plan ~round:40 []);
    }
  in
  let baseline = Fuzz.campaign ~coverage:true cfg in
  (match baseline.Fuzz.r_corpus with
  | Some k -> check "baseline admitted entries" true (k.Fuzz.k_admitted <> [])
  | None -> Alcotest.fail "baseline has no corpus stats");
  let render r = Jsonx.to_pretty_string (Fuzz.report_to_json r) in
  List.iter
    (fun workers ->
      let merged, _ =
        run_campaign ~workers ~jobs:1
          (Svc.Fuzz_c { cfg; coverage = true; range = None })
      in
      match merged with
      | Svc.M_fuzz r ->
        Alcotest.(check string)
          (Printf.sprintf "corpus fuzz report workers=%d" workers)
          (render baseline) (render r)
      | _ -> Alcotest.fail "expected M_fuzz")
    [ 1; 2; 3 ]

(* In process, [Svc.run] drives the same shards through the same merge
   as the fabric, on domains whose private handles it absorbs: it must
   return and record what the library runners do. *)
let test_in_process_handles () =
  let w = ms_queue () in
  let body =
    w.Registry.run ~variant:Variant.Buggy ~scale:w.Registry.default_scale
  in
  let corpus_cfg =
    {
      fuzz_cfg with
      Fuzz.c_programs = 120;
      c_corpus = Some (Corpus.plan ~round:40 []);
    }
  in
  let run_svc ~jobs instance =
    let profile = Profile.create () and metrics = Metrics.create () in
    match Svc.run ~profile ~metrics ~jobs instance with
    | Ok (r, None) -> (r, profile, metrics)
    | Ok (_, Some _) -> Alcotest.fail "in-process run reported fabric stats"
    | Error msg -> Alcotest.failf "Svc.run: %s" msg
  in
  let same_counters what m m' =
    check (what ^ ": counters") true (Metrics.counters m = Metrics.counters m');
    check (what ^ ": gauges") true (Metrics.gauges m = Metrics.gauges m')
  in
  List.iter
    (fun jobs ->
      let what = Printf.sprintf "run jobs=%d" jobs in
      let s, _, m =
        run_svc ~jobs
          (Svc.run_instance w ~buggy:true ~scale:w.Registry.default_scale
             ~config:run_config ~iters:24)
      in
      let m' = Metrics.create () in
      let s', _ =
        Tester.run_collect ~metrics:m' ~jobs ~config:run_config ~iters:24 body
      in
      Alcotest.(check string) what (summary_string s') (summary_string s);
      check (what ^ ": engine.executions") true
        (Metrics.counter_value m "engine.executions" = 24);
      same_counters what m m';
      List.iter
        (fun (name, cfg) ->
          let what = Printf.sprintf "%s jobs=%d" name jobs in
          let r, p, m =
            run_svc ~jobs (Svc.fuzz_instance ~coverage:true cfg)
          in
          let m' = Metrics.create () in
          let r' =
            Fuzz.campaign ~metrics:m' ~coverage:true
              { cfg with Fuzz.c_jobs = jobs }
          in
          let render r = Jsonx.to_pretty_string (Fuzz.report_to_json r) in
          Alcotest.(check string) what (render r') (render r);
          check (what ^ ": fuzz_execute spans") true
            (Option.fold ~none:0
               ~some:(fun sp -> sp.Profile.count)
               (Profile.snapshot p "fuzz_execute")
            = cfg.Fuzz.c_programs);
          same_counters what m m')
        [
          ("fuzz", fuzz_cfg);
          ("corpus fuzz", corpus_cfg);
          ("empty corpus fuzz", { corpus_cfg with Fuzz.c_programs = 0 });
        ])
    [ 1; 3 ]

let test_sweep_parity () =
  let family =
    match Sweep.find "rwlock" with
    | Some f -> f
    | None -> Alcotest.fail "rwlock family missing"
  in
  let iters = 30 and seed = 13L in
  let baseline =
    Sweep.merge ~family ~iters ~seed
      [ Sweep.run_shard ~family ~iters ~seed ~start:0 ~stride:1 () ]
  in
  let render r = Jsonx.to_pretty_string (Sweep.result_to_json r) in
  List.iter
    (fun workers ->
      let merged, _ =
        run_campaign ~workers ~jobs:1
          (Svc.Sweep_c
             { sw_family = "rwlock"; sw_iters = iters; sw_seed = seed })
      in
      match merged with
      | Svc.M_sweep r ->
        Alcotest.(check string)
          (Printf.sprintf "sweep result workers=%d" workers)
          (render baseline) (render r)
      | _ -> Alcotest.fail "expected M_sweep")
    [ 1; 2; 4 ]

let test_workers_clamped () =
  (* more workers than executions: clamped, not empty-sharded *)
  let merged, st = run_campaign ~workers:16 ~jobs:1 (run_spec 5) in
  check "clamped to total" true (st.Svc.st_workers = 5);
  match merged with
  | Svc.M_run s -> check "all executions ran" true (s.Tester.executions = 5)
  | _ -> Alcotest.fail "expected M_run"

(* ---------- cache ------------------------------------------------------ *)

let test_cache_warm_replay () =
  let dir = fresh_dir () in
  let cold_cache = open_cache dir in
  let cold, cold_st =
    run_campaign ~cache:cold_cache ~workers:2 ~jobs:1 (run_spec 24)
  in
  let cst = Option.get cold_st.Svc.st_cache in
  check "cold run spawned workers" true (cold_st.Svc.st_spawned = 2);
  check "cold run stored both shards" true
    (cst.Cache.stores = 2 && cst.Cache.hits = 0);
  (* a fresh Cache.t against the same directory: only disk state carries *)
  let warm_cache = open_cache dir in
  let warm, warm_st =
    run_campaign ~cache:warm_cache ~workers:2 ~jobs:1 (run_spec 24)
  in
  let wst = Option.get warm_st.Svc.st_cache in
  check "warm run spawned nothing" true (warm_st.Svc.st_spawned = 0);
  check "warm run executed nothing" true (warm_st.Svc.st_executions_run = 0);
  check "warm run all hits" true (wst.Cache.hits = 2 && wst.Cache.misses = 0);
  match (cold, warm) with
  | Svc.M_run a, Svc.M_run b ->
    Alcotest.(check string) "warm summary byte-identical" (summary_string a)
      (summary_string b)
  | _ -> Alcotest.fail "expected M_run"

(* The first buggy execution a --workers campaign reports, cold and from a
   warm cache, is the -j 1 campaign's: the one --trace replays.  The
   buggy seqlock's first buggy execution at seed 1 is execution 3, which
   worker 0 of 2 does not run. *)
let test_first_buggy_fabric () =
  let w =
    match Registry.find "seqlock" with
    | Some w -> w
    | None -> Alcotest.fail "seqlock missing"
  in
  let config = Tool.config ~seed:1L ~max_steps:150_000 Tool.C11tester in
  let expected =
    (Tester.run ~config ~iters:24
       (w.Registry.run ~variant:Variant.Buggy ~scale:w.Registry.default_scale))
      .Tester.first_buggy
  in
  check "-j 1 first_buggy" true (expected = Some 3);
  let spec =
    Svc.Run_c
      {
        workload = w.Registry.name;
        buggy = true;
        scale = w.Registry.default_scale;
        config;
        iters = 24;
      }
  in
  let dir = fresh_dir () in
  List.iter
    (fun what ->
      match run_campaign ~cache:(open_cache dir) ~workers:2 ~jobs:1 spec with
      | Svc.M_run s, st ->
        check (what ^ " ran as expected") true
          ((st.Svc.st_executions_run = 0) = (what = "warm"));
        check (what ^ " first_buggy = -j 1") true (s.Tester.first_buggy = expected)
      | _ -> Alcotest.fail "expected M_run")
    [ "cold"; "warm" ]

let test_cache_corrupt_entry_is_miss () =
  let dir = fresh_dir () in
  let c = open_cache dir in
  let key = String.make 32 'a' in
  Cache.store c ~key [ 1; 2; 3 ];
  check "round trip" true (Cache.lookup c ~key = Some [ 1; 2; 3 ]);
  let path = Filename.concat (Filename.concat dir "aa") (String.make 30 'a' ^ ".shard") in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let write s = Out_channel.with_open_bin path (fun oc -> output_string oc s) in
  (* flip one byte of the body behind the cache's back: the small int 2
     becomes 5, which keeps the Marshal framing intact *)
  let entry = read () in
  let body = Marshal.to_string [ 1; 2; 3 ] [] in
  let at =
    String.length entry - String.length body + String.index body '\x42'
  in
  write (String.mapi (fun i ch -> if i = at then '\x45' else ch) entry);
  let lookup () = with_stderr (fun () -> (Cache.lookup c ~key : int list option)) in
  let dropped reason =
    Printf.sprintf "c11test: cache: dropping corrupt entry %s (%s)\n" path reason
  in
  let v, err = lookup () in
  check "flipped byte reads as miss" true (v = None);
  Alcotest.(check string) "flipped entry reported" (dropped "body digest mismatch") err;
  check "flipped entry removed" false (Sys.file_exists path);
  (* truncate a fresh entry after its header's first line *)
  Cache.store c ~key [ 1; 2; 3 ];
  write (List.hd (String.split_on_char '\n' (read ())) ^ "\n");
  let v, err = lookup () in
  check "truncated entry reads as miss" true (v = None);
  Alcotest.(check string) "truncated entry reported" (dropped "truncated") err;
  check "truncated entry removed" false (Sys.file_exists path);
  let st = Cache.stats c in
  check "stats counted" true (st.Cache.hits = 1 && st.Cache.misses = 2);
  (* a missing entry is a miss, and not worth a word *)
  let v, err = lookup () in
  check "missing entry reads as miss" true (v = None);
  Alcotest.(check string) "missing entry silent" "" err

(* A shard payload of another campaign kind (here: a sweep's cached
   shards stored under the run campaign's keys) is an error, not bytes
   misread as the wrong type. *)
let test_cache_wrong_kind_is_error () =
  let dir = fresh_dir () in
  let cache = open_cache dir in
  let sweep =
    Svc.Sweep_c { sw_family = "rwlock"; sw_iters = 2; sw_seed = 13L }
  in
  ignore (run_campaign ~cache ~workers:2 ~jobs:1 sweep);
  let key c w =
    Svc.cache_key ~exe:(Lazy.force exe) ~workers:2 ~jobs:1 ~worker:w c
  in
  List.iter
    (fun w ->
      match Cache.lookup cache ~key:(key sweep w) with
      | Some payload -> Cache.store cache ~key:(key (run_spec 24) w) payload
      | None -> Alcotest.fail "sweep shard not cached")
    [ 0; 1 ];
  match
    Svc.run_campaign ~exe:(Lazy.force exe) ~cache ~workers:2 ~jobs:1
      (run_spec 24)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a payload of another campaign kind"

(* The cache key of one spec of each kind, against a stand-in executable
   with fixed contents: a change to how keys are made, or to a campaign
   type, moves them. *)
let pin_config =
  {
    Engine.mode = Execution.Full_c11;
    sched = Schedule.Controlled_random { batch_stores = true };
    volatile_mode = Engine.Volatile_atomic Memorder.Seq_cst;
    prune = Pruner.Conservative { interval = 64 };
    max_steps = 150_000;
    seed = 99L;
    certify = true;
    mutation = None;
    coverage = true;
  }

let pin_gen =
  {
    Fuzz.g_threads = 3;
    g_ops = 8;
    g_atomic_locs = 3;
    g_na_locs = 2;
    g_mutexes = 2;
    g_profile = Fuzz.Mixed;
  }

let pinned_keys =
  [
    ( Svc.Run_c
        {
          workload = "ms-queue";
          buggy = true;
          scale = 3;
          config = pin_config;
          iters = 24;
        },
      "d06b5c3db8cf10597a65fcd06c8804e5" );
    ( Svc.Litmus_c { name = "mp_relaxed"; config = pin_config; iters = 300 },
      "ae34e75db7f35512bb348a04057f684f" );
    ( Svc.Fuzz_c
        {
          cfg =
            {
              Fuzz.c_programs = 120;
              c_seed = 11L;
              c_jobs = 1;
              c_gen = pin_gen;
              c_mutation = None;
              c_corpus = Some (Corpus.plan ~mutate_pct:60 ~round:40 []);
            };
          coverage = true;
          range = Some (40, 80);
        },
      "dc4ba91b1c25aed3044c0b5dbd41af47" );
    ( Svc.Sweep_c { sw_family = "rwlock"; sw_iters = 30; sw_seed = 13L },
      "bb235c3af8237d5f215cda586cb73a72" );
    ( Svc.Lint_c
        {
          lt_targets = [ "mp_relaxed"; "sb_sc" ];
          lt_programs = 5;
          lt_seed = 7L;
          lt_gen = pin_gen;
        },
      "302f23bbfb86da0839c239a972924295" );
  ]

let test_cache_key_pins () =
  let exe = Filename.temp_file "c11svc_stand_in" ".exe" in
  Out_channel.with_open_bin exe (fun oc ->
      output_string oc "c11svc cache-key stand-in executable\n");
  Fun.protect
    ~finally:(fun () -> Sys.remove exe)
    (fun () ->
      List.iteri
        (fun i (spec, expected) ->
          Alcotest.(check string)
            (Printf.sprintf "pinned key %d" i)
            expected
            (Svc.cache_key ~exe ~workers:2 ~jobs:1 ~worker:1 spec))
        pinned_keys)

(* Changing any one field of a campaign changes its key: two campaigns
   that differ anywhere must not share a cache entry. *)
let test_cache_key_sensitivity () =
  let e = Lazy.force exe in
  let key ?(workers = 2) ?(worker = 0) c =
    Svc.cache_key ~exe:e ~workers ~jobs:1 ~worker c
  in
  let base = run_spec 24 in
  check "key is stable" true (key base = key base);
  check "worker index in key" true (key base <> key ~worker:1 base);
  check "worker count in key" true (key base <> key ~workers:4 base);
  check "jobs in key" true
    (key base <> Svc.cache_key ~exe:e ~workers:2 ~jobs:2 ~worker:0 base);
  let configs =
    let c = pin_config in
    [
      { c with Engine.mode = Execution.Total_mo };
      { c with sched = Schedule.Controlled_random { batch_stores = false } };
      { c with volatile_mode = Engine.Volatile_nonatomic };
      { c with prune = Pruner.Conservative { interval = 65 } };
      { c with max_steps = 150_001 };
      { c with seed = 100L };
      { c with certify = false };
      { c with mutation = Some Execution.Drop_mo_edge };
      { c with coverage = false };
    ]
  in
  let gens =
    let g = pin_gen in
    [
      { g with Fuzz.g_threads = 4 };
      { g with g_ops = 9 };
      { g with g_atomic_locs = 4 };
      { g with g_na_locs = 3 };
      { g with g_mutexes = 3 };
      { g with g_profile = Fuzz.Sc_heavy };
    ]
  in
  let entry seed =
    {
      Corpus.en_digest = "d0";
      en_index = 3;
      en_seed = 5L;
      en_keys = [ "shape:d0" ];
      en_program = Fuzz.generate ~cfg:pin_gen ~seed;
    }
  in
  let run ?(workload = "ms-queue") ?(buggy = true) ?(scale = 3)
      ?(config = pin_config) ?(iters = 24) () =
    Svc.Run_c { workload; buggy; scale; config; iters }
  in
  let litmus ?(name = "mp_relaxed") ?(config = pin_config) ?(iters = 300) () =
    Svc.Litmus_c { name; config; iters }
  in
  let base_cfg =
    {
      Fuzz.c_programs = 120;
      c_seed = 11L;
      c_jobs = 1;
      c_gen = pin_gen;
      c_mutation = None;
      c_corpus = Some (Corpus.plan ~round:40 [ entry 5L ]);
    }
  in
  let fuzz ?(cfg = base_cfg) ?(coverage = true) ?(range = Some (40, 80)) () =
    Svc.Fuzz_c { cfg; coverage; range }
  in
  let sweep ?(family = "rwlock") ?(iters = 30) ?(seed = 13L) () =
    Svc.Sweep_c { sw_family = family; sw_iters = iters; sw_seed = seed }
  in
  let lint ?(targets = [ "mp_relaxed"; "sb_sc" ]) ?(programs = 5) ?(seed = 7L)
      ?(gen = pin_gen) () =
    Svc.Lint_c
      { lt_targets = targets; lt_programs = programs; lt_seed = seed; lt_gen = gen }
  in
  let plan ?(pct = 60) ?(round = 40) entries =
    Some (Corpus.plan ~mutate_pct:pct ~round entries)
  in
  let cases =
    [
      ( run (),
        [
          run ~workload:"seqlock" ();
          run ~buggy:false ();
          run ~scale:4 ();
          run ~iters:25 ();
        ]
        @ List.map (fun config -> run ~config ()) configs );
      ( litmus (),
        [ litmus ~name:"sb_sc" (); litmus ~iters:301 () ]
        @ List.map (fun config -> litmus ~config ()) configs );
      ( fuzz (),
        [
          fuzz ~coverage:false ();
          fuzz ~range:(Some (40, 81)) ();
          fuzz ~range:None ();
          fuzz ~cfg:{ base_cfg with Fuzz.c_programs = 121 } ();
          fuzz ~cfg:{ base_cfg with Fuzz.c_seed = 12L } ();
          fuzz ~cfg:{ base_cfg with Fuzz.c_jobs = 2 } ();
          fuzz
            ~cfg:
              { base_cfg with Fuzz.c_mutation = Some Execution.Drop_mo_edge }
            ();
          fuzz ~cfg:{ base_cfg with Fuzz.c_corpus = None } ();
          fuzz ~cfg:{ base_cfg with Fuzz.c_corpus = plan ~pct:61 [ entry 5L ] } ();
          fuzz ~cfg:{ base_cfg with Fuzz.c_corpus = plan ~round:41 [ entry 5L ] } ();
          (* same digest, index, seed and keys: only the program differs *)
          fuzz ~cfg:{ base_cfg with Fuzz.c_corpus = plan [ entry 6L ] } ();
        ]
        @ List.map (fun gen -> fuzz ~cfg:{ base_cfg with Fuzz.c_gen = gen } ()) gens
      );
      ( sweep (),
        [ sweep ~family:"seqlock" (); sweep ~iters:31 (); sweep ~seed:14L () ] );
      ( lint (),
        [
          lint ~targets:[ "mp_relaxed" ] ();
          lint ~programs:6 ();
          lint ~seed:8L ();
        ]
        @ List.map (fun gen -> lint ~gen ()) gens );
    ]
  in
  check "corpus entries' programs differ" true
    ((entry 5L).Corpus.en_program <> (entry 6L).Corpus.en_program);
  List.iteri
    (fun i (base, variants) ->
      List.iteri
        (fun j v ->
          check
            (Printf.sprintf "kind %d, variant %d changes the key" i j)
            true
            (key v <> key base))
        variants)
    cases;
  let all = List.concat_map (fun (b, vs) -> List.map key (b :: vs)) cases in
  check "every key distinct" true
    (List.length (List.sort_uniq compare all) = List.length all)

(* A key depends on a spec's value, not on which of its sub-values are
   physically shared: a copy without sharing gets the same key. *)
let test_cache_key_ignores_sharing () =
  let e = Lazy.force exe in
  let key c = Svc.cache_key ~exe:e ~workers:2 ~jobs:1 ~worker:0 c in
  let copy (c : Svc.campaign) : Svc.campaign =
    Marshal.from_string (Marshal.to_string c [ Marshal.No_sharing ]) 0
  in
  let target = "mp_relaxed" in
  let program = Fuzz.generate ~cfg:pin_gen ~seed:5L in
  let entry digest =
    {
      Corpus.en_digest = digest;
      en_index = 0;
      en_seed = 5L;
      en_keys = [];
      en_program = program;
    }
  in
  List.iter
    (fun (what, spec) ->
      let unshared = copy spec in
      check (what ^ ": the copy shares less") true
        (Marshal.to_string spec [] <> Marshal.to_string unshared []);
      Alcotest.(check string) (what ^ ": same key") (key spec) (key unshared))
    [
      ( "lint",
        Svc.Lint_c
          {
            lt_targets = [ target; target ];
            lt_programs = 2;
            lt_seed = 7L;
            lt_gen = pin_gen;
          } );
      ( "corpus fuzz",
        Svc.Fuzz_c
          {
            cfg =
              {
                fuzz_cfg with
                Fuzz.c_gen = pin_gen;
                c_corpus = Some (Corpus.plan [ entry "a"; entry "b" ]);
              };
            coverage = true;
            range = Some (0, 10);
          } );
    ]

(* ---------- crash re-claim and degraded summaries ---------------------- *)

let test_crash_reclaim_recovers () =
  let baseline = run_baseline 24 in
  let merged, st =
    run_campaign ~kill:(1, 1) ~workers:4 ~jobs:1 (run_spec 24)
  in
  check "extra spawn for the re-claim" true (st.Svc.st_spawned = 5);
  check "no range lost" true (st.Svc.st_failed = []);
  match merged with
  | Svc.M_run s ->
    Alcotest.(check string) "re-claimed campaign identical"
      (summary_string baseline) (summary_string s)
  | _ -> Alcotest.fail "expected M_run"

let test_crash_degraded_deterministic () =
  (* worker 1 dies on both attempts: its range is reported lost and the
     summary is the merge of the survivors — same bytes every time *)
  let run () = run_campaign ~kill:(1, 2) ~workers:4 ~jobs:1 (run_spec 24) in
  let merged_a, st_a = run () in
  let merged_b, st_b = run () in
  check "failed range named" true (st_a.Svc.st_failed = [ 1 ]);
  check "failure deterministic" true (st_b.Svc.st_failed = [ 1 ]);
  check "both attempts spawned" true (st_a.Svc.st_spawned = 5);
  match (merged_a, merged_b) with
  | Svc.M_run a, Svc.M_run b ->
    Alcotest.(check string) "degraded summary deterministic"
      (summary_string a) (summary_string b);
    check "survivors only" true (a.Tester.executions = 24 - 6)
    (* worker 1 of 4 over 24 indices owns 6 executions *)
  | _ -> Alcotest.fail "expected M_run"

(* ---------- worker-pipe digests ---------------------------------------- *)

(* Flip one byte of a base64 string in [line] that starts right after
   [after]: the character at a 4-aligned offset in the middle of it, which
   encodes the top six bits of exactly one byte. *)
let flip_awk =
  {|function flip(line, after,   p, n, i, c) {
  p = index(line, after) + length(after)
  n = 0
  while (substr(line, p + n, 1) ~ /[A-Za-z0-9+\/]/) n++
  i = p + 4 * int(n / 8)
  c = substr(line, i, 1)
  return substr(line, 1, i - 1) (c == "A" ? "B" : "A") substr(line, i + 1)
}
|}

(* A stand-in worker script around the real one, with its [awk] program
   filtering what the worker prints and a copy of its spec line in the
   file ["spec"]; run with a fresh temp directory as [dir] and removed
   afterwards. *)
let with_stand_in awk_prog f =
  let dir = Filename.temp_dir "c11svc_stand_in" "" in
  let file name = Filename.concat dir name in
  Out_channel.with_open_bin (file "filter.awk") (fun oc ->
      output_string oc (flip_awk ^ awk_prog));
  let script = file "worker.sh" in
  Out_channel.with_open_bin script (fun oc ->
      Printf.fprintf oc "#!/bin/sh\ntee %s | %s \"$@\" | awk -v dir=%s -f %s\n"
        (Filename.quote (file "spec"))
        (Filename.quote (Lazy.force exe))
        (Filename.quote dir)
        (Filename.quote (file "filter.awk")));
  Unix.chmod script 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (file n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f ~script ~file)

(* Worker 1's shard record gets one payload byte flipped; with [once],
   only its first attempt (a marker file records the flip). *)
let corrupt_shard ~once =
  Printf.sprintf
    {|/"kind":"shard","worker":1,/ && !(%s && system("test -e " dir "/flipped") == 0) {
  $0 = flip($0, "\"payload\":\"")
  system("touch " dir "/flipped")
}
{ print; fflush() }
|}
    (if once then "1" else "0")

let run_stand_in ?(workers = 4) ~script c =
  match Svc.run_campaign ~exe:script ~workers ~jobs:1 c with
  | Ok r -> r
  | Error msg -> Alcotest.failf "run_campaign: %s" msg

let test_corrupt_shard_reclaimed () =
  let baseline = run_baseline 24 in
  with_stand_in (corrupt_shard ~once:true) (fun ~script ~file ->
      let (merged, st), err =
        with_stderr (fun () -> run_stand_in ~script (run_spec 24))
      in
      check "the flip happened" true (Sys.file_exists (file "flipped"));
      Alcotest.(check string)
        "dropped record reported"
        "c11test: worker 1: dropping shard record (payload digest mismatch)\n"
        err;
      check "corrupt shard re-claimed" true (st.Svc.st_spawned = 5);
      check "no range lost" true (st.Svc.st_failed = []);
      match merged with
      | Svc.M_run s ->
        Alcotest.(check string) "re-claimed campaign identical"
          (summary_string baseline) (summary_string s)
      | _ -> Alcotest.fail "expected M_run")

let test_corrupt_shard_degraded () =
  (* a shard corrupted on both attempts is lost like a worker that died
     twice: same failed range, same degraded summary *)
  let crashed, st_crashed =
    run_campaign ~kill:(1, 2) ~workers:4 ~jobs:1 (run_spec 24)
  in
  with_stand_in (corrupt_shard ~once:false) (fun ~script ~file:_ ->
      let merged, st = run_stand_in ~script (run_spec 24) in
      check "failed range named" true (st.Svc.st_failed = [ 1 ]);
      check "both attempts spawned" true (st.Svc.st_spawned = 5);
      check "crash run agrees" true (st_crashed.Svc.st_failed = [ 1 ]);
      match (merged, crashed) with
      | Svc.M_run a, Svc.M_run b ->
        Alcotest.(check string) "degraded like a crash" (summary_string b)
          (summary_string a)
      | _ -> Alcotest.fail "expected M_run")

let test_corrupt_spec_refused () =
  (* capture a real spec line on its way to a worker, then hand a worker
     that line with one byte flipped: it must refuse it (exit 2) before
     saying hello *)
  with_stand_in "{ print; fflush() }\n" (fun ~script ~file ->
      ignore (run_stand_in ~workers:1 ~script (run_spec 4));
      let line = In_channel.with_open_bin (file "spec") In_channel.input_all in
      let run_worker name line =
        Out_channel.with_open_bin (file name) (fun oc -> output_string oc line);
        Sys.command
          (Printf.sprintf "%s worker < %s > %s 2>/dev/null"
             (Filename.quote (Lazy.force exe))
             (Filename.quote (file name))
             (Filename.quote (file (name ^ ".out"))))
      in
      check "intact spec runs" true (run_worker "intact" line = 0);
      let flipped = file "flip.awk" in
      Out_channel.with_open_bin flipped (fun oc ->
          output_string oc (flip_awk ^ "{ print flip($0, \" \") }\n"));
      let bad =
        Sys.command
          (Printf.sprintf "awk -f %s < %s > %s"
             (Filename.quote flipped)
             (Filename.quote (file "spec"))
             (Filename.quote (file "bad")))
      in
      let bad_line = In_channel.with_open_bin (file "bad") In_channel.input_all in
      check "flipped a spec byte" true (bad = 0 && bad_line <> line);
      check "corrupt spec refused" true (run_worker "corrupt" bad_line = 2);
      check "no hello for a corrupt spec" true
        (In_channel.with_open_bin (file "corrupt.out") In_channel.input_all = ""))

(* ---------- progress aggregation --------------------------------------- *)

let test_progress_aggregated () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "c11svc_progress_%d.ndjson" (Unix.getpid ()))
  in
  let oc = open_out path in
  let progress = Progress.create ~out:oc ~interval_ns:0 ~total:24 in
  let merged, _ =
    match
      Svc.run_campaign ~exe:(Lazy.force exe) ~progress ~workers:2 ~jobs:1
        (run_spec 24)
    with
    | Ok r -> r
    | Error msg -> Alcotest.failf "run_campaign: %s" msg
  in
  close_out oc;
  let lines = ref [] in
  let ic = open_in path in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let docs =
    List.rev_map
      (fun l ->
        match Jsonx.parse l with
        | Ok j -> j
        | Error e -> Alcotest.failf "bad progress line %s: %s" l e)
      !lines
  in
  let kind j = Option.bind (Jsonx.member "kind" j) Jsonx.to_str in
  let finals = List.filter (fun j -> kind j = Some "final") docs in
  check "exactly one final record" true (List.length finals = 1);
  let final = List.hd finals in
  let int_of k j = Option.bind (Jsonx.member k j) Jsonx.to_int in
  check "final covers every execution" true
    (int_of "done" final = Some 24);
  match merged with
  | Svc.M_run s ->
    check "final findings match merged summary" true
      (int_of "findings" final
      = Some
          (List.length s.Tester.distinct_races
          + List.length s.Tester.distinct_cert_violations))
  | _ -> Alcotest.fail "expected M_run"

(* The final progress record of a fuzz campaign is the same whether it ran
   in process, on cold workers (which send heartbeats) or from a warm
   cache (which sends none): its counts come from the merged shards.  The
   wall-clock and GC fields are stripped. *)
let final_record run =
  let path = Filename.temp_file "c11svc_final" ".ndjson" in
  Out_channel.with_open_bin path (fun oc ->
      run (Progress.create ~out:oc ~interval_ns:0 ~total:0));
  let lines = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let finals =
    String.split_on_char '\n' lines
    |> List.filter_map (fun l ->
           match Jsonx.parse l with
           | Ok (Jsonx.Obj fields)
             when List.assoc_opt "kind" fields = Some (Jsonx.String "final") ->
             Some
               (Jsonx.Obj
                  (List.filter
                     (fun (k, _) ->
                       not
                         (List.mem k [ "elapsed_s"; "exec_per_s" ]
                         || String.starts_with ~prefix:"gc_" k))
                     fields))
           | _ -> None)
  in
  match finals with
  | [ f ] -> Jsonx.to_string f
  | _ -> Alcotest.failf "expected one final record, got %d" (List.length finals)

let test_final_record_cold_warm () =
  List.iter
    (fun (label, cfg) ->
      let local =
        final_record (fun progress ->
            ignore (Fuzz.campaign ~coverage:true ~progress cfg))
      in
      check (label ^ ": final record carries certification counts") true
        (Option.is_some
           (Option.bind (Result.to_option (Jsonx.parse local)) (fun j ->
                Jsonx.member "certified_ops" j)));
      let dir = fresh_dir () in
      let fabric () =
        final_record (fun progress ->
            match
              Svc.run_campaign ~exe:(Lazy.force exe) ~cache:(open_cache dir)
                ~progress ~workers:2 ~jobs:1
                (Svc.Fuzz_c { cfg; coverage = true; range = None })
            with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "run_campaign: %s" msg)
      in
      let cold = fabric () in
      let warm = fabric () in
      Alcotest.(check string) (label ^ ": cold fabric = -j 1") local cold;
      Alcotest.(check string) (label ^ ": warm fabric = -j 1") local warm)
    [
      ("fuzz", fuzz_cfg);
      ( "corpus fuzz",
        { fuzz_cfg with Fuzz.c_corpus = Some (Corpus.plan ~round:20 []) } );
    ]

let suite =
  [
    Alcotest.test_case "run parity across workers" `Slow test_run_parity;
    Alcotest.test_case "run parity nested workers*jobs" `Slow
      test_run_parity_nested;
    Alcotest.test_case "litmus parity across workers" `Slow test_litmus_parity;
    Alcotest.test_case "fuzz parity across workers" `Slow test_fuzz_parity;
    Alcotest.test_case "corpus fuzz parity across workers" `Slow
      test_corpus_fuzz_parity;
    Alcotest.test_case "sweep parity across workers" `Slow test_sweep_parity;
    Alcotest.test_case "in-process handles" `Quick test_in_process_handles;
    Alcotest.test_case "workers clamped to total" `Quick test_workers_clamped;
    Alcotest.test_case "cache warm replay" `Slow test_cache_warm_replay;
    Alcotest.test_case "first_buggy across workers and cache" `Slow
      test_first_buggy_fabric;
    Alcotest.test_case "cache key sensitivity" `Quick
      test_cache_key_sensitivity;
    Alcotest.test_case "cache corrupt entry is miss" `Quick
      test_cache_corrupt_entry_is_miss;
    Alcotest.test_case "cache wrong-kind payload is an error" `Slow
      test_cache_wrong_kind_is_error;
    Alcotest.test_case "cache key pins" `Quick test_cache_key_pins;
    Alcotest.test_case "cache key ignores sharing" `Quick
      test_cache_key_ignores_sharing;
    Alcotest.test_case "crash re-claim recovers" `Slow
      test_crash_reclaim_recovers;
    Alcotest.test_case "crash degraded deterministic" `Slow
      test_crash_degraded_deterministic;
    Alcotest.test_case "corrupt shard re-claimed" `Slow
      test_corrupt_shard_reclaimed;
    Alcotest.test_case "corrupt shard degraded" `Slow test_corrupt_shard_degraded;
    Alcotest.test_case "corrupt spec refused" `Slow test_corrupt_spec_refused;
    Alcotest.test_case "progress aggregated across workers" `Slow
      test_progress_aggregated;
    Alcotest.test_case "final record: -j 1, cold and warm fabric" `Slow
      test_final_record_cold_warm;
  ]
