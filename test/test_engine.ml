(* The Explore engine: thread lifecycle, synchronisation primitives,
   deadlock detection, step limits, determinism and operation counters. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let config ?(seed = 1L) ?(max_steps = 100_000) () =
  { (Tool.config ~max_steps Tool.C11tester) with Engine.seed = seed }

let run ?seed ?max_steps f = Engine.run (config ?seed ?max_steps ()) f

let test_empty_program () =
  let o = run (fun () -> ()) in
  check "no bugs" false (Engine.buggy o);
  check "no deadlock" false o.Engine.deadlock;
  check_int "one thread" 1 o.Engine.threads_created

let test_spawn_join () =
  let o =
    run (fun () ->
        let r = ref 0 in
        let t = C11.Thread.spawn (fun () -> r := 7) in
        C11.Thread.join t;
        C11.assert_that (!r = 7) "join must order the child's writes")
  in
  check "no assertion failures" true (o.Engine.assertion_failures = []);
  check_int "two threads" 2 o.Engine.threads_created

let test_join_gives_hb () =
  (* the child's na write must not race with the parent's post-join read *)
  let o =
    run (fun () ->
        let x = C11.Nonatomic.make 0 in
        let t = C11.Thread.spawn (fun () -> C11.Nonatomic.write x 5) in
        C11.Thread.join t;
        ignore (C11.Nonatomic.read x))
  in
  check "no race through join" true (o.Engine.races = [])

let test_spawn_gives_hb () =
  let o =
    run (fun () ->
        let x = C11.Nonatomic.make 0 in
        C11.Nonatomic.write x 1;
        let t = C11.Thread.spawn (fun () -> ignore (C11.Nonatomic.read x)) in
        C11.Thread.join t)
  in
  check "no race through spawn" true (o.Engine.races = [])

let test_unjoined_race () =
  (* without join, parent read races with child write in some schedules *)
  let racy = ref 0 in
  for seed = 1 to 50 do
    let o =
      run ~seed:(Int64.of_int seed) (fun () ->
          let x = C11.Nonatomic.make 0 in
          let t = C11.Thread.spawn (fun () -> C11.Nonatomic.write x 5) in
          ignore (C11.Nonatomic.read x);
          C11.Thread.join t)
    in
    if o.Engine.races <> [] then incr racy
  done;
  check "race found in some executions" true (!racy > 0)

let test_mutex_mutual_exclusion () =
  for seed = 1 to 30 do
    let o =
      run ~seed:(Int64.of_int seed) (fun () ->
          let m = C11.Mutex.create () in
          let x = C11.Nonatomic.make 0 in
          let worker () =
            for _ = 1 to 3 do
              C11.Mutex.lock m;
              C11.Nonatomic.write x (C11.Nonatomic.read x + 1);
              C11.Mutex.unlock m
            done
          in
          let a = C11.Thread.spawn worker and b = C11.Thread.spawn worker in
          C11.Thread.join a;
          C11.Thread.join b;
          C11.Mutex.lock m;
          C11.assert_that (C11.Nonatomic.read x = 6) "lost update under mutex";
          C11.Mutex.unlock m)
    in
    if Engine.buggy o then
      Alcotest.failf "seed %d: mutex failed to exclude (%d races, %d asserts)"
        seed
        (List.length o.Engine.races)
        (List.length o.Engine.assertion_failures)
  done

let test_trylock () =
  let o =
    run (fun () ->
        let m = C11.Mutex.create () in
        C11.assert_that (C11.Mutex.try_lock m) "free mutex must be acquirable";
        let t =
          C11.Thread.spawn (fun () ->
              C11.assert_that
                (not (C11.Mutex.try_lock m))
                "held mutex must fail try_lock")
        in
        C11.Thread.join t;
        C11.Mutex.unlock m)
  in
  check "trylock behaves" true (o.Engine.assertion_failures = [])

let test_unlock_not_owner () =
  let o =
    run (fun () ->
        let m = C11.Mutex.create () in
        C11.Mutex.unlock m)
  in
  check "unlock without lock reported" true (o.Engine.assertion_failures <> [])

let test_deadlock_detection () =
  let deadlocks = ref 0 in
  for seed = 1 to 40 do
    let o =
      run ~seed:(Int64.of_int seed) (fun () ->
          let m1 = C11.Mutex.create () and m2 = C11.Mutex.create () in
          let a =
            C11.Thread.spawn (fun () ->
                C11.Mutex.lock m1;
                C11.Thread.yield ();
                C11.Mutex.lock m2;
                C11.Mutex.unlock m2;
                C11.Mutex.unlock m1)
          in
          let b =
            C11.Thread.spawn (fun () ->
                C11.Mutex.lock m2;
                C11.Thread.yield ();
                C11.Mutex.lock m1;
                C11.Mutex.unlock m1;
                C11.Mutex.unlock m2)
          in
          C11.Thread.join a;
          C11.Thread.join b)
    in
    if o.Engine.deadlock then incr deadlocks
  done;
  check "ABBA deadlock detected in some schedules" true (!deadlocks > 0)

let test_condvar_handoff () =
  for seed = 1 to 30 do
    let o =
      run ~seed:(Int64.of_int seed) (fun () ->
          let m = C11.Mutex.create () in
          let cv = C11.Condvar.create () in
          let ready = C11.Nonatomic.make 0 in
          let data = C11.Nonatomic.make 0 in
          let consumer =
            C11.Thread.spawn (fun () ->
                C11.Mutex.lock m;
                let rec wait () =
                  if C11.Nonatomic.read ready = 0 then begin
                    C11.Condvar.wait cv m;
                    wait ()
                  end
                in
                wait ();
                C11.assert_that (C11.Nonatomic.read data = 99) "data visible";
                C11.Mutex.unlock m)
          in
          let producer =
            C11.Thread.spawn (fun () ->
                C11.Mutex.lock m;
                C11.Nonatomic.write data 99;
                C11.Nonatomic.write ready 1;
                C11.Condvar.signal cv;
                C11.Mutex.unlock m)
          in
          C11.Thread.join consumer;
          C11.Thread.join producer)
    in
    if Engine.buggy o || o.Engine.deadlock then
      Alcotest.failf "seed %d: condvar handoff failed" seed
  done

let test_condvar_broadcast () =
  let o =
    run (fun () ->
        let m = C11.Mutex.create () in
        let cv = C11.Condvar.create () in
        let go = C11.Nonatomic.make 0 in
        let woken = C11.Nonatomic.make 0 in
        let waiter () =
          C11.Mutex.lock m;
          let rec wait () =
            if C11.Nonatomic.read go = 0 then begin
              C11.Condvar.wait cv m;
              wait ()
            end
          in
          wait ();
          C11.Nonatomic.write woken (C11.Nonatomic.read woken + 1);
          C11.Mutex.unlock m
        in
        let ws = List.init 3 (fun _ -> C11.Thread.spawn waiter) in
        C11.Mutex.lock m;
        C11.Nonatomic.write go 1;
        C11.Condvar.broadcast cv;
        C11.Mutex.unlock m;
        List.iter C11.Thread.join ws;
        C11.assert_that (C11.Nonatomic.read woken = 3) "all waiters woken")
  in
  check "broadcast wakes all" true (o.Engine.assertion_failures = [])

let test_step_limit () =
  let o =
    run ~max_steps:500 (fun () ->
        let x = C11.Atomic.make 0 in
        let rec spin () =
          if C11.Atomic.load ~mo:Memorder.Relaxed x = 0 then spin ()
        in
        spin ())
  in
  check "step limit hit" true o.Engine.step_limit_hit

let test_assertion_aborts () =
  let after = ref false in
  let o =
    run (fun () ->
        C11.assert_that false "deliberate";
        after := true)
  in
  check "assertion recorded" true (o.Engine.assertion_failures = [ "deliberate" ]);
  check "execution aborted" false !after

let test_uncaught_exception () =
  let o = run (fun () -> failwith "crash") in
  check "exception recorded" true
    (match o.Engine.uncaught_exceptions with [ _ ] -> true | _ -> false)

let test_determinism () =
  let results = ref [] in
  let program () =
    let x = C11.Atomic.make 0 in
    let t =
      C11.Thread.spawn (fun () -> C11.Atomic.store ~mo:Memorder.Relaxed x 1)
    in
    let v = C11.Atomic.load ~mo:Memorder.Relaxed x in
    C11.Thread.join t;
    results := v :: !results
  in
  let o1 = run ~seed:99L program in
  let snapshot = !results in
  let o2 = run ~seed:99L program in
  check "same observable result" true
    (List.hd !results = List.hd snapshot);
  check "same step count" true (o1.Engine.steps = o2.Engine.steps);
  check_int "same atomic op count" o1.Engine.atomic_ops o2.Engine.atomic_ops

let test_op_counters () =
  let o =
    run (fun () ->
        let x = C11.Atomic.make 0 in
        let y = C11.Nonatomic.make 0 in
        C11.Atomic.store ~mo:Memorder.Relaxed x 1;
        ignore (C11.Atomic.load ~mo:Memorder.Acquire x);
        C11.Nonatomic.write y 1;
        ignore (C11.Nonatomic.read y))
  in
  (* 2 atomic accesses plus the thread-finish synchronisation event;
     allocations write non-atomically (atomic_init), so na ops = 2 inits
     + 2 accesses *)
  check_int "atomic ops" 3 o.Engine.atomic_ops;
  check_int "na ops" 4 o.Engine.na_ops

let test_volatile_modes () =
  let prog () =
    let x = C11.Atomic.make 0 in
    let t = C11.Thread.spawn (fun () -> C11.Volatile.store x 1) in
    ignore (C11.Volatile.load x);
    C11.Thread.join t
  in
  (* c11tester: volatiles are atomics, no race, both volatile ops atomic *)
  let o = Engine.run (Tool.config Tool.C11tester) prog in
  check "no volatile race under c11tester" true (o.Engine.races = []);
  (* tsan11rec: volatiles are plain accesses and race in some schedules *)
  let racy = ref 0 in
  for seed = 1 to 40 do
    let cfg = { (Tool.config Tool.Tsan11rec) with Engine.seed = Int64.of_int seed } in
    let o = Engine.run cfg prog in
    if o.Engine.races <> [] then incr racy
  done;
  check "volatile races under tsan11rec" true (!racy > 0)

let test_trace_recording () =
  let obs = Obs.create ~ring_capacity:16 in
  ignore
    (Engine.run ~obs (config ()) (fun () ->
         let x = C11.Atomic.make 0 in
         C11.Atomic.store ~mo:Memorder.Release x 7;
         ignore (C11.Atomic.load ~mo:Memorder.Acquire x)));
  let events = Obs.ring_events obs in
  check "trace captured" true (List.length events >= 2);
  check "trace mentions the store" true
    (List.exists (fun e -> e.Obs.kind = Obs.Store && e.Obs.value = 7) events)

let test_trace_off_by_default () =
  let prog () = ignore (C11.Atomic.make 1) in
  ignore (run prog);
  let off = Obs.create ~ring_capacity:0 in
  ignore (Engine.run ~obs:off (config ()) prog);
  check "no trace unless requested" true
    (Obs.ring_events Obs.null = []
    && Obs.total Obs.null = 0
    && (not (Obs.enabled off))
    && Obs.ring_events off = [])

(* ---------- allocation guards ------------------------------------------ *)

(* Mean minor-heap words of one [Engine.run] of [prog] over seeds 1..n,
   configs built beforehand and one warm-up run first, so only the
   engine's own allocation is counted. *)
let words_per_run ?(n = 200) ?(certify = false) prog =
  let cfgs =
    Array.init (n + 1) (fun seed ->
        {
          (Tool.config Tool.C11tester) with
          Engine.seed = Int64.of_int seed;
          certify;
        })
  in
  ignore (Engine.run cfgs.(0) prog);
  let w0 = Gc.minor_words () in
  for seed = 1 to n do
    ignore (Engine.run cfgs.(seed) prog)
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let check_words name ~limit words =
  check
    (Printf.sprintf "%s: %.0f minor words per run, limit %d" name words limit)
    true
    (words < float_of_int limit)

(* Limits sit between the engine's value and the value before its
   per-operation path stopped allocating closures, inline contexts and
   an empty trace's formatter (434 and 1,683 words in the test build;
   207 and 1,220 after). *)
let test_alloc_empty_run () =
  check_words "empty program" ~limit:320 (words_per_run (fun () -> ()))

let test_alloc_mp_relaxed () =
  let t = Option.get (Litmus.find "mp_relaxed") in
  check_words "mp_relaxed" ~limit:1_450
    (words_per_run (fun () -> ignore (t.Litmus.run_once ())))

(* Certification on: the limit sits between the streaming certifier's
   value and its value while it hashed, built closures and bookkept
   retirement per action (1,478 and 2,366 words in the test build). *)
let test_alloc_mp_relaxed_certified () =
  let t = Option.get (Litmus.find "mp_relaxed") in
  check_words "mp_relaxed, certified" ~limit:1_900
    (words_per_run ~certify:true (fun () -> ignore (t.Litmus.run_once ())))

(* ---------- race-detector memory under many threads ------------------- *)

(* [threads] threads spawned and joined one after another, each creating
   [per_thread] fresh plain and atomic locations and writing and reading
   them: the race detector's reachable words at the end of the
   execution. *)
let race_words ~threads ~per_thread =
  let prog () =
    for _ = 1 to threads do
      let t =
        C11.Thread.spawn (fun () ->
            for _ = 1 to per_thread do
              let x = C11.Nonatomic.make 0 in
              C11.Nonatomic.write x 1;
              ignore (C11.Nonatomic.read x);
              let a = C11.Atomic.make 0 in
              C11.Atomic.store ~mo:Memorder.Relaxed a 1;
              ignore (C11.Atomic.load ~mo:Memorder.Relaxed a)
            done)
      in
      C11.Thread.join t
    done
  in
  let exec = ref None in
  let o =
    Engine.run
      ~inspect:(fun e -> exec := Some e)
      (Tool.config Tool.C11tester) prog
  in
  check "no race" true (o.Engine.races = []);
  Obj.reachable_words (Obj.repr (Option.get !exec).Execution.race)

(* The same 240 locations, each touched by one thread, cost the detector
   about the same whether one thread or sixty created them: shadows grow
   with the threads that accessed a location, not with the largest tid
   the execution has created (a tid-indexed shadow made the sixty-thread
   run about three times as large). *)
let test_race_words_many_threads () =
  let many = race_words ~threads:60 ~per_thread:2 in
  let one = race_words ~threads:1 ~per_thread:120 in
  check
    (Printf.sprintf "60 threads: %d words, 1 thread: %d words" many one)
    true
    (4 * many <= 5 * one)

let suite =
  [
    Alcotest.test_case "empty program" `Quick test_empty_program;
    Alcotest.test_case "spawn/join" `Quick test_spawn_join;
    Alcotest.test_case "join gives hb" `Quick test_join_gives_hb;
    Alcotest.test_case "spawn gives hb" `Quick test_spawn_gives_hb;
    Alcotest.test_case "unjoined child races" `Quick test_unjoined_race;
    Alcotest.test_case "mutex mutual exclusion" `Quick test_mutex_mutual_exclusion;
    Alcotest.test_case "trylock" `Quick test_trylock;
    Alcotest.test_case "unlock by non-owner" `Quick test_unlock_not_owner;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "condvar handoff" `Quick test_condvar_handoff;
    Alcotest.test_case "condvar broadcast" `Quick test_condvar_broadcast;
    Alcotest.test_case "step limit" `Quick test_step_limit;
    Alcotest.test_case "assertion aborts" `Quick test_assertion_aborts;
    Alcotest.test_case "uncaught exception" `Quick test_uncaught_exception;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "op counters" `Quick test_op_counters;
    Alcotest.test_case "volatile modes" `Quick test_volatile_modes;
    Alcotest.test_case "trace recording" `Quick test_trace_recording;
    Alcotest.test_case "trace off by default" `Quick test_trace_off_by_default;
    Alcotest.test_case "allocation: empty run" `Quick test_alloc_empty_run;
    Alcotest.test_case "allocation: mp_relaxed execution" `Quick
      test_alloc_mp_relaxed;
    Alcotest.test_case "allocation: certified mp_relaxed execution" `Quick
      test_alloc_mp_relaxed_certified;
    Alcotest.test_case "race shadows sized by accessing threads" `Quick
      test_race_words_many_threads;
  ]
