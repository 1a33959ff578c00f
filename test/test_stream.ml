(* Streaming incremental certification (Check.Stream).

   The streaming certifier consumes actions and sync edges as the engine
   produces them and retires hb-closed prefixes, so it never holds the
   whole trace — but its verdicts must be EQUIVALENT to the post-hoc
   certifier's on the same execution:

     Certified      -> bit-identical stats
     Rejected       -> same sorted set of violation keys (and hence the
                       same rejection key)
     Not_applicable -> same reason

   One run gives both verdicts: the engine certifies with the stream,
   and a recording sink on the same execution feeds the post-hoc pass
   (Check.certify), so both see the very same events; the only
   difference is when the relations are computed.
   The sweeps below cover the litmus catalog, the workload registry, the
   three seeded engine mutants (real rejections, not just clean runs),
   pruned executions, and QCheck-random fuzz programs.  A final parity
   test checks that campaign counters — including the new certified_ops /
   retired_prefix_ops — merge order-independently under -j N. *)

let check = Alcotest.(check bool)

let violation_keys vs =
  List.sort_uniq compare (List.map Check.violation_key vs)

let verdicts_equiv post stream =
  match (post, stream) with
  | Check.Certified a, Check.Certified b -> a = b
  | Check.Rejected a, Check.Rejected b ->
    violation_keys a = violation_keys b
    && Check.rejection_key a = Check.rejection_key b
  | Check.Not_applicable a, Check.Not_applicable b -> a = b
  | _ -> false

let pp_pair name seed post stream =
  Alcotest.failf "%s (seed %Ld): post-hoc %a but streaming %a" name seed
    Check.pp_verdict post Check.pp_verdict stream

(* Run [body] once and return the post-hoc reference's verdict and the
   streaming certifier's, on the same execution. *)
let both ?(prune = Pruner.No_prune) ?(mutation = None) ~seed body =
  let config =
    { Engine.default_config with certify = true; seed; prune; mutation }
  in
  let o, r = Recorder.run config body in
  (Recorder.certify r, Option.get o.Engine.certificate)

let assert_equiv name ~seed (post, stream) =
  if not (verdicts_equiv post stream) then pp_pair name seed post stream

(* ---------- litmus catalog ---------- *)

let test_litmus_catalog () =
  List.iter
    (fun (t : Litmus.t) ->
      for s = 1 to 8 do
        let seed = Int64.of_int s in
        let pair = both ~seed (fun () -> ignore (t.Litmus.run_once ())) in
        assert_equiv t.Litmus.name ~seed pair
      done)
    Litmus.catalog

(* ---------- workload registry, both variants ---------- *)

let test_workload_sweep () =
  (* 200 seeds spread over the registry: every workload, both variants,
     small scale (the per-execution verdict is what's compared; CI's
     certify job does the full-scale 200-seed sweep per target). *)
  List.iter
    (fun (w : Registry.t) ->
      let scale = max 2 (w.Registry.default_scale / 4) in
      List.iter
        (fun variant ->
          for s = 1 to 6 do
            let seed = Int64.of_int (s * 31) in
            let pair = both ~seed (w.Registry.run ~variant ~scale) in
            assert_equiv w.Registry.name ~seed pair
          done)
        [ Variant.Correct; Variant.Buggy ])
    Registry.all

(* ---------- seeded engine mutants: equivalence on real rejections ----- *)

(* Random fuzz programs under a mutated engine: the first [budget] program
   seeds are compared in both modes, and at least one must actually be
   rejected — otherwise the equivalence claim would be vacuous for this
   mutant. *)
let test_mutant mutation () =
  let rejections = ref 0 in
  let budget = 150 in
  for i = 0 to budget - 1 do
    let seed = Rng.substream 42L ~index:i in
    let prog = Fuzz.generate ~cfg:Fuzz.default_gen_cfg ~seed in
    let body = Fuzz.to_closure prog in
    let exec_seed = Fuzz.exec_seed prog ~attempt:0 in
    let pair = both ~mutation:(Some mutation) ~seed:exec_seed body in
    assert_equiv
      (Printf.sprintf "mutant %s program %d"
         (Execution.mutation_name mutation) i)
      ~seed:exec_seed pair;
    (match fst pair with Check.Rejected _ -> incr rejections | _ -> ())
  done;
  check
    (Printf.sprintf "mutant %s rejected at least once in %d programs"
       (Execution.mutation_name mutation) budget)
    true (!rejections > 0)

(* ---------- pruned executions ---------- *)

let test_pruned_equiv () =
  let w = Option.get (Registry.find "ms-queue") in
  List.iter
    (fun prune ->
      for s = 1 to 5 do
        let seed = Int64.of_int (s * 7) in
        let pair =
          both ~prune ~seed
            (w.Registry.run ~variant:Variant.Correct
               ~scale:w.Registry.default_scale)
        in
        assert_equiv "ms-queue pruned" ~seed pair
      done)
    [
      Pruner.Conservative { interval = 8 };
      Pruner.Aggressive { window = 16; interval = 8 };
    ]

(* ---------- QCheck: random programs ---------- *)

let prop_random_programs =
  QCheck.Test.make ~name:"streaming == post-hoc on random programs"
    ~count:60
    QCheck.(pair small_nat small_nat)
    (fun (pi, si) ->
      let prog =
        Fuzz.generate ~cfg:Fuzz.default_gen_cfg
          ~seed:(Rng.substream 7L ~index:pi)
      in
      let seed = Int64.add (Fuzz.exec_seed prog ~attempt:0) (Int64.of_int si) in
      let post, stream = both ~seed (Fuzz.to_closure prog) in
      verdicts_equiv post stream)

(* ---------- retirement and zero-cost-off counters ---------- *)

let test_counters () =
  (* A long produce/consume run: the streaming certifier must consume
     every atomic action and retire the overwhelming majority of them
     (the live window is bounded, the run is not). *)
  let w = Option.get (Registry.find "spsc-queue") in
  let body = w.Registry.run ~variant:Variant.Correct ~scale:400 in
  let config =
    {
      Engine.default_config with
      certify = true;
      seed = 3L;
      prune = Pruner.Aggressive { window = 4096; interval = 64 };
    }
  in
  let o = Engine.run config body in
  check "verdict present" true (o.Engine.certificate <> None);
  (* certified_ops counts actions the stream consumed; it tracks the
     engine's atomic-op count up to a handful of bookkeeping actions
     (thread bootstrap, final assertion reads) *)
  check "essentially every atomic op certified" true
    (o.Engine.certified_ops > 0
    && abs (o.Engine.atomic_ops - o.Engine.certified_ops) <= 64);
  check "most ops retired" true
    (float_of_int o.Engine.retired_prefix_ops
    >= 0.8 *. float_of_int o.Engine.certified_ops);
  (* certification off: the streaming counters must stay at zero *)
  let off = Engine.run { config with Engine.certify = false } body in
  check "off: no certified ops" true (off.Engine.certified_ops = 0);
  check "off: no retired ops" true (off.Engine.retired_prefix_ops = 0)

(* ---------- -j parity with certification always on ---------- *)

let test_parallel_parity () =
  let w = Option.get (Registry.find "mcs-lock") in
  let config =
    { Engine.default_config with certify = true; seed = 5L }
  in
  let body =
    w.Registry.run ~variant:Variant.Correct ~scale:w.Registry.default_scale
  in
  let s1 = Tester.run ~jobs:1 ~config ~iters:40 body in
  let s4 = Tester.run ~jobs:4 ~config ~iters:40 body in
  check "summaries identical across -j 1 / -j 4" true (s1 = s4);
  (* default-scale executions are far below the 4096-action sweep
     threshold, so no retirement here — test_counters covers that *)
  check "streaming counters populated" true (s1.Tester.certified_ops > 0);
  check "all executions certified" true
    (s1.Tester.certified_executions = 40)

(* ---------- a fresh stream knows nothing was fed ---------- *)

(* The stream's fed-action bitset must start zeroed: a store that was
   never fed is "not in the trace", whatever bytes the allocator's last
   user left behind.  Fill the minor heap with 0xFF bytes, let it be
   collected, and only then create each stream, so an uninitialised
   bitset would read the garbage. *)
let test_fresh_stream_unfed () =
  let rng = Rng.create 7L and race = Race.create () in
  let t = Execution.create ~mode:Execution.Full_c11 ~rng ~race () in
  let r = Recorder.create () in
  Recorder.attach r t;
  let t0 = Execution.new_thread t ~parent:None in
  let x = Execution.fresh_loc t ~atomic:true ~name:(Some "x") in
  Execution.atomic_store t ~tid:t0 ~loc:x ~mo:Memorder.Relaxed ~volatile:false
    1;
  ignore
    (Execution.atomic_load t ~tid:t0 ~loc:x ~mo:Memorder.Relaxed
       ~volatile:false);
  let load =
    List.find (fun (a : Action.t) -> a.kind = Action.Load) (Recorder.actions r)
  in
  for round = 1 to 20 do
    Gc.minor ();
    let junk = List.init 512 (fun _ -> Bytes.make 2000 '\xff') in
    ignore (Sys.opaque_identity junk);
    Gc.minor ();
    let s = Check.Stream.create ~exec:t ~counted:(fun _ -> true) in
    (Check.Stream.sink s).Execution.cs_action load;
    let reported =
      match Check.Stream.finalize s with
      | Check.Rejected vs ->
        List.exists
          (fun (v : Check.violation) ->
            v.axiom = Check.Rf_wf
            && v.detail
               = Printf.sprintf "read #%d reads-from #%d, not in the trace"
                   load.seq (Option.get load.rf).seq)
          vs
      | Check.Certified _ | Check.Not_applicable _ -> false
    in
    check
      (Printf.sprintf "round %d: unfed store reported as not in the trace"
         round)
      true reported
  done

(* ---------- certification allocates in proportion to the execution --- *)

(* A short certified execution must not pay for tables sized for long
   ones: arrays over 256 words skip the minor heap, so oversized initial
   tables show up as major-heap words on every execution. *)
let test_major_words_per_execution () =
  let t = Option.get (Litmus.find "mp_rel_acq") in
  let run seed =
    (Engine.run
       { Engine.default_config with certify = true; seed }
       (fun () -> ignore (t.Litmus.run_once ())))
      .Engine.certificate
  in
  ignore (run 0L);
  let n = 200 in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  for i = 1 to n do
    match run (Int64.of_int i) with
    | Some (Check.Certified _) -> ()
    | Some v -> Alcotest.failf "seed %d: %a" i Check.pp_verdict v
    | None -> Alcotest.failf "seed %d: no verdict" i
  done;
  Gc.minor ();
  let per_exec =
    ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int n
  in
  if per_exec >= 1000.0 then
    Alcotest.failf "%.0f major-heap words per certified execution (limit 1000)"
      per_exec

(* ---------- pinned violation output ---------- *)

(* The complete violation lists (axiom, actions, detail, key) of fixed
   rejected executions, from both certifiers.  Fuzz findings embed
   these lists, so detection order, cycle extraction and the per-family
   caps must stay exactly as they are, not merely produce the same
   sorted keys the equivalence tests compare. *)
let pinned_cycle =
  {|{"axiom":"coherence","actions":[19,19,14],"detail":"loc 0: hb|loc ∪ rf ∪ mo ∪ fr has a cycle through 2 actions","key":"coherence:loc 0: hb|loc ∪ rf ∪ mo ∪ fr has a cycle through 2 actions"}|}

let pinned_hb_diff a =
  Printf.sprintf
    {|{"axiom":"hb-differential","actions":[%d,18],"detail":"#%d -hb-> #18 is true under the certified (sb ∪ sw)⁺ closure but false under the engine's clock vectors","key":"hb-differential:# -hb-> # is true under the certified (sb ∪ sw)⁺ closure but false under the engine's clock vectors"}|}
    a a

let pinned_coww loc a b =
  Printf.sprintf
    {|{"axiom":"coherence","actions":[%d,%d],"detail":"loc %d: CoWW incomplete — write #%d happens before write #%d but is not mo-before it","key":"coherence:loc %d: CoWW incomplete — write # happens before write # but is not mo-before it"}|}
    a b loc a b loc

let pinned_theorem1 a b =
  Printf.sprintf
    {|{"axiom":"theorem1-differential","actions":[%d,%d],"detail":"loc 1: #%d reaches #%d is true by clock vectors but false by graph search","key":"theorem1-differential:loc 1: # reaches # is true by clock vectors but false by graph search"}|}
    a b a b

let pinned_drop_mo =
  [
    pinned_coww 1 2 6;
    pinned_coww 1 2 12;
    pinned_coww 1 12 14;
    pinned_coww 1 12 15;
    pinned_coww 1 14 15;
    pinned_theorem1 12 14;
    pinned_theorem1 12 15;
    pinned_theorem1 14 15;
    pinned_coww 2 3 16;
  ]

(* (case, mutation, program seed, exec seed, streaming list, post-hoc
   list).  The first is the default fuzz campaign's known finding
   (program 4684 of seed 1); the mutants' are the first program of
   test_mutant's sequence, which each of them rejects. *)
let pinned_cases =
  [
    ( "seed-1 coherence finding",
      None,
      0xe3471902d31f2cbL,
      0x6a9a6f2de8b37cc8L,
      [ pinned_cycle ],
      [ pinned_cycle ] );
    ( "skip-acquire-merge",
      Some Execution.Skip_acquire_merge,
      0xbdd732262feb6e95L,
      0x57e1faba65107204L,
      [ pinned_hb_diff 13; pinned_hb_diff 6 ],
      [ pinned_hb_diff 6; pinned_hb_diff 13 ] );
    ( "drop-mo-edge",
      Some Execution.Drop_mo_edge,
      0xbdd732262feb6e95L,
      0x57e1faba65107204L,
      pinned_drop_mo,
      pinned_drop_mo );
    ( "weak-release-store",
      Some Execution.Weak_release_store,
      0xbdd732262feb6e95L,
      0x57e1faba65107204L,
      [ pinned_hb_diff 13; pinned_hb_diff 6 ],
      [ pinned_hb_diff 6; pinned_hb_diff 13 ] );
  ]

let test_pinned_violations () =
  List.iter
    (fun (name, mutation, prog_seed, exec_seed, want_stream, want_post) ->
      let prog = Fuzz.generate ~cfg:Fuzz.default_gen_cfg ~seed:prog_seed in
      let config =
        { (Fuzz.engine_config ~mutation) with
          Engine.seed = exec_seed; certify = true }
      in
      let outcome, r = Recorder.run config (Fuzz.to_closure prog) in
      List.iter
        (fun (mode, verdict, want) ->
          let got =
            match verdict with
            | Check.Rejected vs ->
              List.map (fun v -> Jsonx.to_string (Check.violation_to_json v)) vs
            | v -> Alcotest.failf "%s, %s: %a" name mode Check.pp_verdict v
          in
          Alcotest.(check (list string)) (name ^ ", " ^ mode) want got)
        [
          ("streaming", Option.get outcome.Engine.certificate, want_stream);
          ("post-hoc", Recorder.certify r, want_post);
        ])
    pinned_cases

(* ---------- retirement under a seeded fault ---------- *)

(* A coherence pair that clock vectors cannot confirm must keep the
   window from retiring: otherwise a violation could slip into the
   retired prefix, where finalize never sees it.  Under [Drop_mo_edge]
   these mcs-lock runs hold such pairs from early on, so nothing retires
   and all 97 violations are reported; their fault-free twins retire
   most of the run.  (seed, certified_ops, retired_prefix_ops, MD5 of the
   verdict JSON), for each mutation. *)
let pinned_retirement =
  [
    ( Some Execution.Drop_mo_edge,
      [
        (1L, 7089, 0, "ea62cfa87a2e28c0057ec778a663b433");
        (2L, 7229, 0, "1b41d6a0ef37149169dd6d7fb61e2894");
        (3L, 7164, 0, "9a09062eafe9f6d6734cca5e4815c3b4");
      ] );
    ( None,
      [
        (1L, 7235, 2821, "8adb1042b8a65746a4a85cfb03a7319b");
        (2L, 7037, 2737, "5d996c6caa097ce79d278f4581f52272");
        (3L, 7138, 2802, "6de734a911367516222449a4da56657a");
      ] );
  ]

let test_pinned_retirement () =
  let w = Option.get (Registry.find "mcs-lock") in
  let body = w.Registry.run ~variant:Variant.Correct ~scale:150 in
  List.iter
    (fun (mutation, runs) ->
      let name =
        match mutation with
        | Some m -> Execution.mutation_name m
        | None -> "fault-free"
      in
      List.iter
        (fun (seed, certified, retired, md5) ->
          let o =
            Engine.run
              { Engine.default_config with certify = true; seed; mutation }
              body
          in
          let got_md5 =
            Digest.to_hex
              (Digest.string
                 (Jsonx.to_string
                    (Check.verdict_to_json (Option.get o.Engine.certificate))))
          in
          Alcotest.(check (list string))
            (Printf.sprintf "%s, seed %Ld" name seed)
            [ string_of_int certified; string_of_int retired; md5 ]
            [
              string_of_int o.Engine.certified_ops;
              string_of_int o.Engine.retired_prefix_ops;
              got_md5;
            ])
        runs)
    pinned_retirement

(* ---------- a view wider than one word ---------- *)

(* Two threads each make 40 relaxed stores and 40 relaxed loads on one
   atomic: with its initialising store, the location's view holds 161
   actions, three words per bit row.  Both certifiers read the same run;
   under [Drop_mo_edge] the decision must hand the location to the pair
   pass, which explains it. *)
let test_wide_view () =
  let body () =
    let x = C11.Atomic.make ~name:"x" 0 in
    let ops k () =
      for i = 1 to 40 do
        C11.Atomic.store ~mo:Memorder.Relaxed x ((k * 100) + i);
        ignore (C11.Atomic.load ~mo:Memorder.Relaxed x)
      done
    in
    let t = C11.Thread.spawn (ops 1) in
    ops 2 ();
    C11.Thread.join t
  in
  List.iter
    (fun mutation ->
      let name =
        match mutation with
        | Some m -> Execution.mutation_name m
        | None -> "fault-free"
      in
      let metrics = Metrics.create () in
      let r = Recorder.create () in
      let o =
        Engine.run ~metrics ~inspect:(Recorder.attach r)
          { Engine.default_config with certify = true; seed = 5L; mutation }
          body
      in
      let stream = Option.get o.Engine.certificate in
      let post = Recorder.certify r in
      if post <> stream then pp_pair name 5L post stream;
      let counter = Metrics.counter_value metrics in
      check (name ^ ": one location checked") true
        (counter "certify.locations" = 1);
      let explained = counter "certify.locations_explained" in
      match mutation with
      | None ->
        check "fault-free: certified, nothing explained" true
          (explained = 0
          && match stream with Check.Certified _ -> true | _ -> false)
      | Some _ ->
        check (name ^ ": rejected and explained") true
          (explained > 0
          && match stream with Check.Rejected _ -> true | _ -> false))
    [ None; Some Execution.Drop_mo_edge ]

let suite =
  [
    Alcotest.test_case "litmus catalog equivalence" `Quick
      test_litmus_catalog;
    Alcotest.test_case "workload sweep equivalence" `Quick
      test_workload_sweep;
    Alcotest.test_case "mutant equivalence: skip-acquire-merge" `Quick
      (test_mutant Execution.Skip_acquire_merge);
    Alcotest.test_case "mutant equivalence: drop-mo-edge" `Quick
      (test_mutant Execution.Drop_mo_edge);
    Alcotest.test_case "mutant equivalence: weak-release-store" `Quick
      (test_mutant Execution.Weak_release_store);
    Alcotest.test_case "pruned equivalence" `Quick test_pruned_equiv;
    QCheck_alcotest.to_alcotest prop_random_programs;
    Alcotest.test_case "stream counters and zero-cost off" `Quick
      test_counters;
    Alcotest.test_case "parallel parity with streaming on" `Quick
      test_parallel_parity;
    Alcotest.test_case "fresh stream: unfed store not in the trace" `Quick
      test_fresh_stream_unfed;
    Alcotest.test_case "major-heap words per certified execution" `Quick
      test_major_words_per_execution;
    Alcotest.test_case "pinned violation lists, both modes" `Quick
      test_pinned_violations;
    Alcotest.test_case "pinned retirement under drop-mo-edge" `Quick
      test_pinned_retirement;
    Alcotest.test_case "a view wider than one word, both certifiers" `Quick
      test_wide_view;
  ]
