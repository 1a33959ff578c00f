(* C11fuzz: generator validity, grammar reach, the certifier-backed
   differential oracle, mutation testing of the engine, the shrinker's
   preservation/minimality contract and the parallel determinism
   contract.

   The mutation tests are the fuzzer's own test: three deliberately
   buggy engines (Execution.mutation) must each be caught by the oracle
   within a bounded program budget and shrunk to a small repro. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let gen_cfg_of_seed seed =
  (* vary every knob with the seed so 1k seeds cover many shapes *)
  let rng = Rng.create (Int64.of_int (0xC0FFEE + seed)) in
  {
    Fuzz.g_threads = 1 + Rng.int rng 4;
    g_ops = 1 + Rng.int rng 10;
    g_atomic_locs = 1 + Rng.int rng 4;
    g_na_locs = Rng.int rng 3;
    g_mutexes = Rng.int rng 3;
    g_profile = List.nth Progir.all_profiles (Rng.int rng 4);
  }

(* ---------- generator validity (satellite: 1k seeds) ------------------ *)

let prop_generated_valid =
  QCheck.Test.make ~name:"generated programs are well-formed" ~count:1000
    QCheck.small_nat (fun n ->
      let cfg = gen_cfg_of_seed n in
      let p = Fuzz.generate ~cfg ~seed:(Int64.of_int (n * 7919)) in
      match Progir.validate p with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "invalid program: %s" e)

let prop_generation_deterministic =
  QCheck.Test.make ~name:"same seed, same program" ~count:200 QCheck.small_nat
    (fun n ->
      let cfg = gen_cfg_of_seed n in
      let seed = Int64.of_int ((n * 31) + 5) in
      Fuzz.generate ~cfg ~seed = Fuzz.generate ~cfg ~seed)

(* Locks balance per path and joins match spawns by construction; check
   the executable side too: every generated program runs to completion
   under the engine without deadlock or crash. *)
let prop_generated_runnable =
  QCheck.Test.make ~name:"generated programs run cleanly" ~count:100
    QCheck.small_nat (fun n ->
      let cfg = gen_cfg_of_seed n in
      let p = Fuzz.generate ~cfg ~seed:(Int64.of_int ((n * 131) + 17)) in
      let config = Fuzz.engine_config ~mutation:None in
      match
        Fuzz.run_one ~config ~certify:true ~seed:(Fuzz.exec_seed p ~attempt:0) p
      with
      | Fuzz.Passed { certified } -> certified
      | Fuzz.Failed kind ->
        QCheck.Test.fail_reportf "finding on clean engine: %s"
          (Fuzz.finding_key kind))

(* ---------- grammar reach --------------------------------------------- *)

let count_ops pred ps =
  List.fold_left
    (fun acc (p : Progir.program) ->
      Array.fold_left
        (fun acc ops ->
          Array.fold_left (fun acc op -> if pred op then acc + 1 else acc) acc ops)
        acc p.Progir.p_threads)
    0 ps

let programs_for profile n =
  let cfg =
    { Fuzz.default_gen_cfg with Fuzz.g_profile = profile; g_mutexes = 2; g_na_locs = 2 }
  in
  List.init n (fun i -> Fuzz.generate ~cfg ~seed:(Int64.of_int ((i * 97) + 3)))

let test_grammar_reach () =
  let ps = programs_for Progir.Mixed 300 in
  let reached pred = count_ops pred ps > 0 in
  check_bool "loads" true (reached (function Progir.Load _ -> true | _ -> false));
  check_bool "stores" true (reached (function Progir.Store _ -> true | _ -> false));
  check_bool "rmws" true (reached (function Progir.Add _ -> true | _ -> false));
  check_bool "cas" true (reached (function Progir.Cas _ -> true | _ -> false));
  check_bool "exchange" true (reached (function Progir.Xchg _ -> true | _ -> false));
  check_bool "fences" true (reached (function Progir.Fence _ -> true | _ -> false));
  check_bool "na reads" true (reached (function Progir.Na_read _ -> true | _ -> false));
  check_bool "na writes" true (reached (function Progir.Na_write _ -> true | _ -> false));
  check_bool "locks" true (reached (function Progir.Lock _ -> true | _ -> false));
  check_bool "yields" true (reached (function Progir.Yield -> true | _ -> false));
  (* every memory order appears on some atomic op *)
  List.iter
    (fun mo ->
      check_bool
        (Printf.sprintf "order %s reached" (Memorder.to_string mo))
        true
        (reached (function
          | Progir.Load { mo = m; _ }
          | Progir.Store { mo = m; _ }
          | Progir.Add { mo = m; _ }
          | Progir.Cas { mo = m; _ }
          | Progir.Xchg { mo = m; _ }
          | Progir.Fence m ->
            m = mo
          | _ -> false)))
    Memorder.all;
  (* reuse accesses are exclusive to the mixed-atomicity profile *)
  check_int "no reuse ops outside mixed-atomicity" 0
    (count_ops (function Progir.Reuse_load _ | Progir.Reuse_store _ -> true | _ -> false) ps);
  let reuse = programs_for Progir.Mixed_atomicity 100 in
  check_bool "mixed-atomicity reaches reuse ops" true
    (count_ops (function Progir.Reuse_load _ | Progir.Reuse_store _ -> true | _ -> false)
       reuse
    > 0)

let test_sc_heavy_bias () =
  let sc_share ps =
    let mo_count pred = count_ops pred ps in
    let sc =
      mo_count (function
        | Progir.Load { mo; _ } | Progir.Store { mo; _ } | Progir.Add { mo; _ } ->
          Memorder.is_seq_cst mo
        | _ -> false)
    and all =
      mo_count (function
        | Progir.Load _ | Progir.Store _ | Progir.Add _ -> true
        | _ -> false)
    in
    float_of_int sc /. float_of_int (max 1 all)
  in
  let mixed = sc_share (programs_for Progir.Mixed 200) in
  let heavy = sc_share (programs_for Progir.Sc_heavy 200) in
  check_bool
    (Printf.sprintf "sc-heavy (%.2f) > mixed (%.2f)" heavy mixed)
    true (heavy > mixed +. 0.2)

(* ---------- clean campaign: the zero-rejection oracle ------------------ *)

let campaign_cfg ?(programs = 300) ?(jobs = 1) ?(profile = Progir.Mixed)
    ?(mutation = None) ~seed () =
  {
    Fuzz.default_campaign_cfg with
    Fuzz.c_programs = programs;
    c_seed = seed;
    c_jobs = jobs;
    c_gen = { Fuzz.default_gen_cfg with Fuzz.g_profile = profile };
    c_mutation = mutation;
  }

let test_clean_campaign () =
  let report = Fuzz.campaign (campaign_cfg ~seed:99L ()) in
  check_int "programs" 300 report.Fuzz.r_programs;
  check_int "certified all" 300 report.Fuzz.r_certified;
  check_int "no rejections" 0 report.Fuzz.r_cert_rejected;
  check_int "no crashes" 0 report.Fuzz.r_crashes;
  check_int "no findings" 0 (List.length report.Fuzz.r_findings)

(* ---------- mutation testing: the fuzzer finds seeded engine bugs ------ *)

let mutant_budget = 300

let expected_axiom = function
  | Execution.Skip_acquire_merge -> "hb-differential"
  | Execution.Drop_mo_edge -> "coherence"
  | Execution.Weak_release_store -> "hb-differential"
  (* certifies: only the lint differential sees the spurious races *)
  | Execution.Race_ignores_sync -> "lint-unsound"

let test_mutant mutation () =
  let report =
    Fuzz.campaign
      (campaign_cfg ~programs:mutant_budget ~seed:42L ~mutation:(Some mutation) ())
  in
  check_bool "mutant detected" true (report.Fuzz.r_findings <> []);
  let f = List.hd report.Fuzz.r_findings in
  check_bool
    (Printf.sprintf "key %s names %s" f.Fuzz.f_key (expected_axiom mutation))
    true
    (let re = expected_axiom mutation in
     let len = String.length re in
     let k = f.Fuzz.f_key in
     let rec contains i =
       i + len <= String.length k && (String.sub k i len = re || contains (i + 1))
     in
     contains 0);
  check_bool
    (Printf.sprintf "shrunk to %d ops (<= 12)" f.Fuzz.f_ops_after)
    true
    (f.Fuzz.f_ops_after <= 12);
  check_bool "repro still well-formed" true (Progir.validate f.Fuzz.f_repro = Ok ());
  (* the shrunk repro fails under the mutant with the same key... *)
  let mconfig = Fuzz.engine_config ~mutation:(Some mutation) in
  (match
     Fuzz.run_one ~config:mconfig ~certify:true ~seed:f.Fuzz.f_exec_seed
       f.Fuzz.f_repro
   with
  | Fuzz.Failed kind -> check_bool "repro key" true (Fuzz.finding_key kind = f.Fuzz.f_key)
  | Fuzz.Passed _ -> Alcotest.fail "shrunk repro passed under the mutant");
  (* ...and certifies on the correct engine: the finding is the mutant's *)
  let cconfig = Fuzz.engine_config ~mutation:None in
  match
    Fuzz.run_one ~config:cconfig ~certify:true ~seed:f.Fuzz.f_exec_seed
      f.Fuzz.f_repro
  with
  | Fuzz.Passed _ -> ()
  | Fuzz.Failed kind ->
    Alcotest.failf "repro fails on the correct engine: %s" (Fuzz.finding_key kind)

(* ---------- shrinking: preservation and local minimality --------------- *)

(* Satellite property: every intermediate the shrinker accepts still
   fails with the same key, and the final repro is locally minimal —
   removing any single op unit (or thread) makes the failure vanish. *)
let test_shrink_preserves_failure () =
  let mutation = Some Execution.Drop_mo_edge in
  let config = Fuzz.engine_config ~mutation in
  let cfg = { Fuzz.default_gen_cfg with Fuzz.g_profile = Progir.Mixed } in
  (* find a failing program directly *)
  let rec find i =
    if i > 200 then Alcotest.fail "no failing program in 200 tries"
    else begin
      let p = Fuzz.generate ~cfg ~seed:(Rng.substream 42L ~index:i) in
      match
        Fuzz.run_one ~config ~certify:true ~seed:(Fuzz.exec_seed p ~attempt:0) p
      with
      | Fuzz.Failed kind -> (p, Fuzz.finding_key kind)
      | Fuzz.Passed _ -> find (i + 1)
    end
  in
  let p, key = find 0 in
  let intermediates = ref [] in
  let repro, rseed, steps =
    Fuzz.shrink ~on_accept:(fun q -> intermediates := q :: !intermediates) ~config
      ~key p
  in
  check_int "every accepted reduction observed" steps (List.length !intermediates);
  List.iter
    (fun q ->
      check_bool "intermediate stays well-formed" true (Progir.validate q = Ok ());
      check_bool "intermediate still fails with the same key" true
        (Fuzz.reproduces ~config ~key q <> None))
    !intermediates;
  check_bool "final repro reproduces" true
    (match Fuzz.run_one ~config ~certify:true ~seed:rseed repro with
    | Fuzz.Failed kind -> Fuzz.finding_key kind = key
    | Fuzz.Passed _ -> false);
  (* local minimality at the deletion-unit granularity *)
  List.iter
    (fun candidate ->
      check_bool "removing any single unit kills the failure" true
        (Fuzz.reproduces ~config ~key candidate = None))
    (Fuzz.deletion_candidates repro)

let test_shrink_deterministic () =
  let mutation = Some Execution.Skip_acquire_merge in
  let report () =
    Fuzz.campaign (campaign_cfg ~programs:200 ~seed:42L ~mutation:(Some (Option.get mutation)) ())
  in
  check_bool "two runs, same findings" true (report () = report ())

(* ---------- parallel determinism --------------------------------------- *)

let test_jobs_parity () =
  let run jobs mutation =
    Fuzz.campaign (campaign_cfg ~programs:200 ~jobs ~seed:7L ~mutation ())
  in
  check_bool "clean campaign: j1 = j4" true (run 1 None = run 4 None);
  let m = Some Execution.Drop_mo_edge in
  let r1 = run 1 m and r4 = run 4 m in
  check_bool "mutant campaign: j1 = j4 (incl. findings)" true (r1 = r4);
  check_bool "mutant campaign found something" true (r1.Fuzz.r_findings <> [])

(* ---------- observability ---------------------------------------------- *)

let test_campaign_metrics () =
  let metrics = Metrics.create () in
  let profile = Profile.create () in
  let report =
    Fuzz.campaign ~metrics ~profile (campaign_cfg ~programs:100 ~seed:3L ())
  in
  check_int "programs counter" 100 (Metrics.counter_value metrics "fuzz.programs");
  check_int "certified counter" report.Fuzz.r_certified
    (Metrics.counter_value metrics "fuzz.certified");
  let rate = Profile.rate profile "fuzz_execute" in
  check_bool "programs/sec readout is live" true (rate > 0.0);
  check_bool "generate span recorded" true
    (Profile.snapshot profile "fuzz_generate" <> None)

(* ---------- repro rendering -------------------------------------------- *)

let test_pp_program_shape () =
  let cfg = { Fuzz.default_gen_cfg with Fuzz.g_mutexes = 1; g_na_locs = 1 } in
  let p = Fuzz.generate ~cfg ~seed:5L in
  let s = Fuzz.program_to_string p in
  let contains needle =
    let ln = String.length needle and ls = String.length s in
    let rec go i = i + ln <= ls && (String.sub s i ln = needle || go (i + 1)) in
    go 0
  in
  check_bool "defines repro" true (contains "let repro () =");
  check_bool "names the seed" true (contains "seed 0x");
  check_bool "allocates a0" true (contains "C11.Atomic.make ~name:\"a0\" 0");
  check_bool "spawns and joins" true
    (contains "C11.Thread.spawn" = contains "C11.Thread.join t1")

(* ---------- the lint verdict is supplied, not recomputed ------------- *)

(* Campaigns hand [run_one] the program's lint verdict instead of letting
   it re-lint on every racing execution.  Supplying the true verdict must
   change nothing; supplying [true] must turn exactly the executions that
   pass with a race into Lint_unsound findings — which also shows the
   supplied verdict is the one consulted. *)
let test_supplied_lint_verdict () =
  let forced = ref 0 in
  for n = 0 to 199 do
    let cfg = gen_cfg_of_seed n in
    let p = Fuzz.generate ~cfg ~seed:(Int64.of_int ((n * 977) + 5)) in
    let race_free = (Lint.analyze p).Lint.res_race_free in
    let config = Fuzz.engine_config ~mutation:None in
    List.iter
      (fun certify ->
        for attempt = 0 to 1 do
          let seed = Fuzz.exec_seed p ~attempt in
          let recomputed = Fuzz.run_one ~config ~certify ~seed p in
          let supplied = Fuzz.run_one ~race_free ~config ~certify ~seed p in
          check_bool "supplied verdict, same status" true (recomputed = supplied);
          let raced =
            match Engine.run { config with Engine.seed; certify } (Fuzz.to_closure p) with
            | o -> o.Engine.races <> []
            | exception _ -> false
          in
          match (recomputed, Fuzz.run_one ~race_free:true ~config ~certify ~seed p) with
          | Fuzz.Passed _, Fuzz.Failed (Fuzz.Lint_unsound _) when raced -> incr forced
          | Fuzz.Passed _, (Fuzz.Passed _ as s) when not raced ->
            check_bool "no race, no finding" true (s = recomputed)
          | Fuzz.Failed k, Fuzz.Failed k' ->
            check_bool "a failure stays the same failure" true (k = k')
          | _, s ->
            Alcotest.failf "program %d attempt %d: forced verdict gave %s" n
              attempt
              (match s with
              | Fuzz.Passed _ -> "passed"
              | Fuzz.Failed k -> Fuzz.finding_key k)
        done)
      [ true; false ]
  done;
  check_bool "forced verdicts produced Lint_unsound findings" true (!forced > 0)

(* ---------- clock widths -------------------------------------------- *)

(* Clocks passed among many threads once widened each other without
   bound: programs 0 and 1 of `fuzz --programs 2 --seed 1 --threads 15
   --ops 128' exhausted memory.  Every action clock must stay within the
   width the program's threads need; a sink stops the execution at the
   first clock past it, so a regression fails fast instead of exhausting
   memory. *)
exception Too_wide

let test_clock_widths_bounded () =
  let cfg = { Fuzz.default_gen_cfg with Fuzz.g_threads = 15; g_ops = 128 } in
  List.iter
    (fun i ->
      let p = Fuzz.generate ~cfg ~seed:(Rng.substream 1L ~index:i) in
      let bound = Clockvec.round_width (Array.length p.Progir.p_threads) in
      let widest = ref 0 in
      let check cv =
        widest := max !widest (Clockvec.width cv);
        if !widest > bound then raise Too_wide
      in
      let sink =
        {
          Execution.cs_action =
            (fun a ->
              check a.Action.hb_cv;
              Option.iter check a.Action.rf_cv);
          cs_edge = ignore;
          cs_release = (fun ~tid:_ ~seq:_ -> ());
          cs_release_drop = (fun ~seq:_ -> ());
        }
      in
      for attempt = 0 to 2 do
        let config =
          {
            (Fuzz.engine_config ~mutation:None) with
            Engine.seed = Fuzz.exec_seed p ~attempt;
            certify = true;
          }
        in
        (try
           ignore
             (Engine.run
                ~inspect:(fun e -> Execution.add_cert_sink e sink)
                config (Fuzz.to_closure p))
         with Too_wide -> ());
        if !widest > bound then
          Alcotest.failf "program %d, execution %d: a clock %d slots wide, past %d"
            i attempt !widest bound
      done)
    [ 0; 1 ]

let suite =
  [
    Alcotest.test_case "grammar reach per profile" `Quick test_grammar_reach;
    Alcotest.test_case "clock widths bounded by the threads" `Quick
      test_clock_widths_bounded;
    Alcotest.test_case "sc-heavy profile biases seq_cst" `Quick test_sc_heavy_bias;
    Alcotest.test_case "clean campaign: zero rejections" `Quick test_clean_campaign;
    Alcotest.test_case "mutant: skip-acquire-merge caught" `Quick
      (test_mutant Execution.Skip_acquire_merge);
    Alcotest.test_case "mutant: drop-mo-edge caught" `Quick
      (test_mutant Execution.Drop_mo_edge);
    Alcotest.test_case "mutant: weak-release-store caught" `Quick
      (test_mutant Execution.Weak_release_store);
    Alcotest.test_case "mutant: race-ignores-sync caught" `Quick
      (test_mutant Execution.Race_ignores_sync);
    Alcotest.test_case "shrinking preserves the violation" `Quick
      test_shrink_preserves_failure;
    Alcotest.test_case "shrinking is deterministic" `Quick test_shrink_deterministic;
    Alcotest.test_case "campaign parity across job counts" `Quick test_jobs_parity;
    Alcotest.test_case "campaign metrics and spans" `Quick test_campaign_metrics;
    Alcotest.test_case "repro prints as a DSL snippet" `Quick test_pp_program_shape;
    Alcotest.test_case "supplied lint verdict, same findings" `Quick
      test_supplied_lint_verdict;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_generated_valid; prop_generation_deterministic; prop_generated_runnable ]
