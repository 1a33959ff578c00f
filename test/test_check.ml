(* The axiomatic certifier (lib/check).

   Positive direction: engine-produced executions — litmus programs,
   mutex/condvar synchronisation, pruned runs — must certify, and the
   campaign counters must agree across job counts.

   Negative direction (mutation self-tests): corrupt an execution — drop
   a synchronizes-with edge, flip or drop an mo edge, rewire a
   reads-from, break an rmw link — and both the streaming certifier the
   engine uses and the post-hoc reference must reject it with a
   structured counterexample naming the right axiom.  These mutations
   are exactly the silent-model-bug classes the certifier exists to
   catch; if one stops being rejected, the certifier has gone blind. *)

let check = Alcotest.(check bool)

(* ---------- direct Execution-API harness for mutations ---------- *)

(* An execution certified both ways at once: a recorder feeds the
   post-hoc reference ([Check.certify]) and a stream is the certifier the
   engine uses.  [wrap] sees each of the two sinks' events first, so a
   mutation can tamper with what both certifiers receive. *)
type harness = { t : Execution.t; r : Recorder.t; s : Check.Stream.t }

let mk_exec ?(wrap = Fun.id) () =
  let rng = Rng.create 7L in
  let race = Race.create () in
  let t = Execution.create ~mode:Execution.Full_c11 ~rng ~race () in
  let r = Recorder.create () in
  Recorder.attach ~wrap r t;
  let s = Check.Stream.create ~exec:t ~counted:(fun _ -> true) in
  Execution.add_cert_sink t (wrap (Check.Stream.sink s));
  { t; r; s }

(* Parent stores, spawned child relaxed-loads: the spawn edge is the ONLY
   thing ordering the two actions in certified hb (a relaxed read forms no
   synchronizes-with of its own), so dropping it must show up. *)
let build_mp ?wrap () =
  let h = mk_exec ?wrap () in
  let t = h.t in
  let t0 = Execution.new_thread t ~parent:None in
  let x = Execution.fresh_loc t ~atomic:true ~name:(Some "x") in
  Execution.atomic_store t ~tid:t0 ~loc:x ~mo:Memorder.Release ~volatile:false
    1;
  let t1 = Execution.new_thread t ~parent:(Some t0) in
  let v =
    Execution.atomic_load t ~tid:t1 ~loc:x ~mo:Memorder.Relaxed ~volatile:false
  in
  check "mp read the store" true (v = 1);
  h

(* Two same-thread stores to one location, for the mo-graph mutations. *)
let build_two_stores () =
  let h = mk_exec () in
  let t0 = Execution.new_thread h.t ~parent:None in
  let x = Execution.fresh_loc h.t ~atomic:true ~name:(Some "x") in
  List.iter
    (Execution.atomic_store h.t ~tid:t0 ~loc:x ~mo:Memorder.Relaxed
       ~volatile:false)
    [ 1; 2 ];
  h

let graph_node h (a : Action.t) =
  Option.get (Mograph.find_node h.t.Execution.graph a)

let axioms_of = function
  | Check.Rejected vs -> List.map (fun v -> v.Check.axiom) vs
  | Check.Certified _ | Check.Not_applicable _ -> []

let rejected_with verdict axiom =
  match verdict with
  | Check.Rejected vs ->
    List.exists
      (fun v -> v.Check.axiom = axiom && v.Check.detail <> "")
      vs
  | Check.Certified _ | Check.Not_applicable _ -> false

(* [pred] must hold of both certifiers' verdicts on the execution. *)
let both_reject what h pred =
  List.iter
    (fun (certifier, v) ->
      if not (pred v) then
        Alcotest.failf "%s, %s: %a" what certifier Check.pp_verdict v)
    [ ("post-hoc", Recorder.certify h.r); ("stream", Check.Stream.finalize h.s) ]

let test_positive_direct () =
  let h = build_mp () in
  match (Recorder.certify h.r, Check.Stream.finalize h.s) with
  | (Check.Certified s as post), stream ->
    check "two actions" true (s.Check.actions = 2);
    check "spawn edge recorded" true (s.Check.sync_edges = 1);
    check "graph checked" true s.Check.graph_checked;
    check "stream agrees" true (post = stream)
  | v, _ -> Alcotest.failf "expected Certified, got %a" Check.pp_verdict v

let test_not_applicable_off () =
  let rng = Rng.create 7L in
  let race = Race.create () in
  let t = Execution.create ~mode:Execution.Full_c11 ~rng ~race () in
  let t0 = Execution.new_thread t ~parent:None in
  let x = Execution.fresh_loc t ~atomic:true ~name:(Some "x") in
  Execution.atomic_store t ~tid:t0 ~loc:x ~mo:Memorder.Relaxed ~volatile:false
    1;
  match Check.certify t ~actions:[] ~sync_edges:[] with
  | Check.Not_applicable _ -> ()
  | v -> Alcotest.failf "expected Not_applicable, got %a" Check.pp_verdict v

(* Mutation: withhold the spawn synchronizes-with edge (the only edge
   into a thread start).  The engine's clock vectors still order store
   before load; the certified hb no longer does — the differential must
   catch the disagreement. *)
let test_mutation_drop_sw () =
  let withhold_spawn (k : Execution.cert_sink) =
    {
      k with
      Execution.cs_edge =
        (fun e -> if e.Execution.se_to_seq <> 0 then k.cs_edge e);
    }
  in
  let h = build_mp ~wrap:withhold_spawn () in
  both_reject "drop sw" h (fun v ->
      rejected_with v Check.Hb_differential
      &&
      match v with
      | Check.Rejected (first :: _) -> first.Check.actions <> []
      | _ -> false)

(* Mutation: rewire a load's reads-from to a store of a different value,
   before the certifiers see the load. *)
let test_mutation_rewire_rf () =
  let rewire (k : Execution.cert_sink) =
    let stores = ref [] in
    {
      k with
      Execution.cs_action =
        (fun (a : Action.t) ->
          (match a.kind with
          | Action.Store -> stores := a :: !stores
          | Action.Load ->
            a.rf <-
              List.find_opt (fun (st : Action.t) -> st.value <> a.value) !stores
          | Action.Rmw | Action.Na_store | Action.Fence -> ());
          k.cs_action a);
    }
  in
  let h = mk_exec ~wrap:rewire () in
  let t = h.t in
  let t0 = Execution.new_thread t ~parent:None in
  let x = Execution.fresh_loc t ~atomic:true ~name:(Some "x") in
  Execution.atomic_store t ~tid:t0 ~loc:x ~mo:Memorder.Release ~volatile:false
    1;
  Execution.atomic_store t ~tid:t0 ~loc:x ~mo:Memorder.Release ~volatile:false
    2;
  let t1 = Execution.new_thread t ~parent:(Some t0) in
  ignore
    (Execution.atomic_load t ~tid:t1 ~loc:x ~mo:Memorder.Acquire
       ~volatile:false);
  both_reject "rewire rf" h (fun v -> rejected_with v Check.Rf_wf)

(* Mutation: reverse an mo edge behind the engine's back (writing the
   node's edge array directly, so the clock vectors are NOT updated).
   Both the per-location coherence cycle and the Theorem-1 differential
   see the corruption. *)
let test_mutation_flip_mo () =
  let h = build_two_stores () in
  let s1, s2 =
    match Recorder.actions h.r with
    | [ s1; s2 ] -> (s1, s2)
    | _ -> Alcotest.fail "expected two stores"
  in
  let n1 = graph_node h s1 and n2 = graph_node h s2 in
  check "sanity: s1 -mo-> s2" true (Mograph.reaches h.t.Execution.graph s1 s2);
  n2.Mograph.edges <- [| n1 |];
  n2.Mograph.nedges <- 1;
  both_reject "flip mo" h (fun v -> rejected_with v Check.Coherence)

(* Mutation: drop an mo edge (same-thread writes must stay mo-ordered).
   A merely-missing edge creates no cycle, so this exercises the CoWW
   completeness obligation and the Theorem-1 differential instead. *)
let test_mutation_drop_mo () =
  let h = build_two_stores () in
  (graph_node h (List.hd (Recorder.actions h.r))).Mograph.nedges <- 0;
  both_reject "drop mo" h (fun v ->
      axioms_of v <> []
      && (rejected_with v Check.Coherence
         || rejected_with v Check.Theorem1_differential))

(* Mutation: sever the rmw link that pins an RMW immediately after the
   store it read, after both certifiers consumed the RMW: the stream
   must probe it again at finalize. *)
let test_mutation_break_rmw () =
  let h = mk_exec () in
  let t = h.t in
  let t0 = Execution.new_thread t ~parent:None in
  let x = Execution.fresh_loc t ~atomic:true ~name:(Some "x") in
  Execution.atomic_store t ~tid:t0 ~loc:x ~mo:Memorder.Relaxed ~volatile:false
    1;
  let read =
    Execution.atomic_rmw t ~tid:t0 ~loc:x ~mo:Memorder.Acq_rel ~volatile:false
      ~f:(fun v -> Execution.Rmw_write (v + 1))
  in
  check "rmw read the store" true (read = 1);
  (graph_node h (List.hd (Recorder.actions h.r))).Mograph.rmw <- None;
  both_reject "break rmw" h (fun v -> rejected_with v Check.Rmw_atomicity)

(* Mutation: malformed synchronisation edge (unknown thread). *)
let test_mutation_bad_edge () =
  let h = build_mp () in
  Execution.cert_sync_edge h.t ~from_tid:99 ~from_seq:1 ~to_tid:0 ~to_seq:2;
  both_reject "malformed edge" h (fun v -> rejected_with v Check.Sync_wf)

(* ---------- violation plumbing ---------- *)

let test_violation_key_strips_seqs () =
  let v1 =
    { Check.axiom = Check.Coherence; actions = [ 3; 7 ];
      detail = "loc 2: CoWW incomplete — write #3 happens before write #7" }
  in
  let v2 =
    { Check.axiom = Check.Coherence; actions = [ 10; 52 ];
      detail = "loc 2: CoWW incomplete — write #10 happens before write #52" }
  in
  let v3 = { v1 with detail = "loc 9: CoWW incomplete — write #3 happens before write #7" } in
  check "same shape, same key" true
    (Check.violation_key v1 = Check.violation_key v2);
  check "different loc, different key" true
    (Check.violation_key v1 <> Check.violation_key v3)

let test_verdict_json () =
  let v = Recorder.certify (build_mp ()).r in
  match Check.verdict_to_json v with
  | Jsonx.Obj fields ->
    check "verdict field" true
      (List.assoc_opt "verdict" fields = Some (Jsonx.String "certified"))
  | _ -> Alcotest.fail "expected object"

(* ---------- engine-driven positive campaigns ---------- *)

let certify_config seed =
  { Engine.default_config with certify = true; seed }

let test_certify_litmus_campaign () =
  let t = Option.get (Litmus.find "mp_fences") in
  let config = certify_config 11L in
  let summary, _ = Litmus.explore_summary ~config ~iters:60 t in
  check "all certified" true
    (summary.Tester.certified_executions = 60
    && summary.Tester.cert_rejected_executions = 0)

let test_certify_parallel_parity () =
  let t = Option.get (Litmus.find "release_sequence_rmw") in
  let config = certify_config 13L in
  let s1, h1 = Litmus.explore_summary ~jobs:1 ~config ~iters:80 t in
  let s4, h4 = Litmus.explore_summary ~jobs:4 ~config ~iters:80 t in
  check "summaries identical" true (s1 = s4);
  check "histograms identical" true (h1 = h4);
  check "all certified" true (s1.Tester.certified_executions = 80)

(* Mutex hand-off and join edges: contended critical sections certify. *)
let test_certify_mutex_program () =
  let config = certify_config 17L in
  let summary =
    Tester.run ~config ~iters:40 (fun () ->
        let m = C11.Mutex.create () in
        let counter = C11.Nonatomic.make 0 in
        let worker () =
          C11.Mutex.lock m;
          C11.Nonatomic.write counter (C11.Nonatomic.read counter + 1);
          C11.Mutex.unlock m
        in
        let ts = List.init 3 (fun _ -> C11.Thread.spawn worker) in
        List.iter C11.Thread.join ts;
        C11.assert_that
          (C11.Nonatomic.read counter = 3)
          "mutex counter lost an increment")
  in
  check "no bugs" true (summary.Tester.buggy_executions = 0);
  check "all certified" true (summary.Tester.certified_executions = 40)

(* Condvar wakeups synchronise through the mutex relock hand-off. *)
let test_certify_condvar_program () =
  let config = certify_config 19L in
  let summary =
    Tester.run ~config ~iters:40 (fun () ->
        let m = C11.Mutex.create () in
        let cv = C11.Condvar.create () in
        let ready = C11.Nonatomic.make 0 in
        let consumer =
          C11.Thread.spawn (fun () ->
              C11.Mutex.lock m;
              while C11.Nonatomic.read ready = 0 do
                C11.Condvar.wait cv m
              done;
              C11.Mutex.unlock m)
        in
        C11.Mutex.lock m;
        C11.Nonatomic.write ready 1;
        C11.Condvar.signal cv;
        C11.Mutex.unlock m;
        C11.Thread.join consumer)
  in
  check "no bugs" true (summary.Tester.buggy_executions = 0);
  check "all certified" true (summary.Tester.certified_executions = 40)

(* Pruned executions: the graph checks are skipped but everything else
   still runs — and still certifies. *)
let test_certify_pruned () =
  let config =
    {
      (certify_config 23L) with
      Engine.prune = Pruner.Aggressive { window = 8; interval = 8 };
    }
  in
  let summary =
    Tester.run ~config ~iters:20 (fun () ->
        let x = C11.Atomic.make ~name:"x" 0 in
        let w =
          C11.Thread.spawn (fun () ->
              for i = 1 to 40 do
                C11.Atomic.store ~mo:Memorder.Release x i
              done)
        in
        for _ = 1 to 10 do
          ignore (C11.Atomic.load ~mo:Memorder.Acquire x)
        done;
        C11.Thread.join w)
  in
  check "all certified" true
    (summary.Tester.certified_executions = 20
    && summary.Tester.cert_rejected_executions = 0)

(* The buggy versioned-read workload must be flagged by the race detector
   yet still certify (racy executions are still model-consistent). *)
let test_versioned_workload_flagged () =
  let w = Option.get (Registry.find "seqlock-versioned") in
  let config = certify_config 29L in
  let summary =
    Tester.run ~config ~iters:50
      (w.Registry.run ~variant:Variant.Buggy ~scale:w.Registry.default_scale)
  in
  check "races flagged" true (summary.Tester.race_executions > 0);
  check "still certifies" true (summary.Tester.cert_rejected_executions = 0);
  let correct =
    Tester.run ~config ~iters:50
      (w.Registry.run ~variant:Variant.Correct ~scale:w.Registry.default_scale)
  in
  check "correct variant clean" true (correct.Tester.buggy_executions = 0);
  check "correct variant certified" true
    (correct.Tester.certified_executions = 50)

(* ---------- the bit-row decision against the pair pass ---------- *)

(* One piece of damage to a finished run, so that a single family can
   fail on its own: one clock entry set to an arbitrary seq (certified hb
   can become any relation, cycles and backward pairs included), one read
   rewired to an arbitrary write, or one mo edge or rmw link dropped or
   an mo edge added behind the clock vectors' back.  Returns the clock
   perturbation for the first kind. *)
let damage rng kind ~actions ~graph =
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let writes = List.filter Action.is_write actions in
  let nodes = ref [] in
  Mograph.iter_nodes graph (fun n -> nodes := n :: !nodes);
  let nodes = List.rev !nodes in
  (match kind with
  | 1 -> (
    match List.filter Action.is_read actions with
    | [] -> ()
    | reads when writes <> [] -> (pick reads).rf <- Some (pick writes)
    | _ -> ())
  | 2 -> (
    match List.filter (fun n -> n.Mograph.nedges > 0) nodes with
    | [] -> ()
    | ns ->
      let n = pick ns in
      let k = Rng.int rng n.Mograph.nedges in
      n.Mograph.edges.(k) <- n.Mograph.edges.(n.Mograph.nedges - 1);
      n.Mograph.nedges <- n.Mograph.nedges - 1)
  | 3 -> (
    match List.filter (fun n -> n.Mograph.rmw <> None) nodes with
    | [] -> ()
    | ns -> (pick ns).Mograph.rmw <- None)
  | 4 when nodes <> [] ->
    let n = pick nodes and target = pick nodes in
    n.Mograph.edges <-
      Array.append (Array.sub n.Mograph.edges 0 n.Mograph.nedges) [| target |];
    n.Mograph.nedges <- n.Mograph.nedges + 1
  | _ -> ());
  fun (clks : int array array) ->
    let max_seq =
      List.fold_left (fun m (a : Action.t) -> max m a.seq) 0 actions
    in
    let with_clock = List.filter (fun i -> Array.length clks.(i) > 0) in
    match with_clock (List.init (Array.length clks) Fun.id) with
    | is when kind = 0 && is <> [] ->
      let i = pick is in
      let c = Array.copy clks.(i) in
      c.(Rng.int rng (Array.length c)) <- Rng.int rng (max_seq + 2);
      clks.(i) <- c
    | _ -> ()

(* Both per-location passes over one recorded run of a fuzz program,
   damaged first when [damaged] is given: (loc, decided clean, the pair
   pass's violations).  A mutant can leave an RMW no store to read, which
   ends the run with nothing to certify. *)
let location_verdicts ?(mutation = None) ?damaged prog ~seed =
  let config =
    { (Fuzz.engine_config ~mutation) with Engine.seed; certify = true }
  in
  match Recorder.run config (Fuzz.to_closure prog) with
  | _, r ->
    let exec = Recorder.exec r and actions = Recorder.actions r in
    let perturb =
      match damaged with
      | None -> ignore
      | Some (rng, kind) ->
        damage rng kind ~actions ~graph:exec.Execution.graph
    in
    Check.Internal.location_verdicts ~perturb exec ~actions
      ~sync_edges:(Recorder.sync_edges r)
  | exception Execution.Model_error _ -> []

let mutants = None :: List.map Option.some Execution.all_mutations

(* A location is decided clean exactly when the pair pass reports nothing
   for it: on random programs, on the fault-free engine and under each
   seeded mutant, undamaged and with each kind of damage, with small
   views and (one location, long bodies) views of several words. *)
let prop_decision_exact =
  let wide_cfg =
    { Fuzz.default_gen_cfg with Fuzz.g_ops = 48; g_atomic_locs = 1 }
  in
  QCheck.Test.make ~name:"bit-row decision exact on random programs"
    ~count:1000
    QCheck.(
      quad (int_bound 100_000)
        (int_bound (List.length mutants - 1))
        bool (int_bound 5))
    (fun (pi, m, wide, kind) ->
      let cfg = if wide then wide_cfg else Fuzz.default_gen_cfg in
      let prog = Fuzz.generate ~cfg ~seed:(Rng.substream 11L ~index:pi) in
      let damaged =
        if kind < 5 then Some (Rng.create (Int64.of_int (pi + 1)), kind)
        else None
      in
      List.for_all
        (fun (loc, clean, vs) ->
          clean = (vs = [])
          || QCheck.Test.fail_reportf "loc %d decided %s, pair pass found %d"
               loc
               (if clean then "clean" else "rejected")
               (List.length vs))
        (location_verdicts ~mutation:(List.nth mutants m) ?damaged prog
           ~seed:(Fuzz.exec_seed prog ~attempt:0)))

(* The decision rejects exactly the locations of two pinned rejections
   (test_stream's): the default fuzz campaign's coherence cycle on loc 0,
   and the CoWW and Theorem-1 violations a dropped mo edge causes on locs
   1 and 2. *)
let test_decision_pinned () =
  List.iter
    (fun (name, mutation, prog_seed, exec_seed, want) ->
      let prog = Fuzz.generate ~cfg:Fuzz.default_gen_cfg ~seed:prog_seed in
      let got =
        List.filter_map
          (fun (loc, clean, vs) ->
            if clean <> (vs = []) then
              Alcotest.failf "%s: loc %d decided clean %b with %d violations"
                name loc clean (List.length vs);
            if clean then None else Some loc)
          (location_verdicts ~mutation prog ~seed:exec_seed)
      in
      Alcotest.(check (list int)) name want got)
    [
      ("seed-1 coherence finding", None, 0xe3471902d31f2cbL,
       0x6a9a6f2de8b37cc8L, [ 0 ]);
      ("drop-mo-edge", Some Execution.Drop_mo_edge, 0xbdd732262feb6e95L,
       0x57e1faba65107204L, [ 1; 2 ]);
    ]

let suite =
  [
    Alcotest.test_case "certify: direct mp" `Quick test_positive_direct;
    Alcotest.test_case "certify off -> not applicable" `Quick
      test_not_applicable_off;
    Alcotest.test_case "mutation: drop sw edge" `Quick test_mutation_drop_sw;
    Alcotest.test_case "mutation: rewire rf" `Quick test_mutation_rewire_rf;
    Alcotest.test_case "mutation: flip mo edge" `Quick test_mutation_flip_mo;
    Alcotest.test_case "mutation: drop mo edge" `Quick test_mutation_drop_mo;
    Alcotest.test_case "mutation: break rmw link" `Quick
      test_mutation_break_rmw;
    Alcotest.test_case "mutation: malformed sync edge" `Quick
      test_mutation_bad_edge;
    Alcotest.test_case "violation key strips seqs" `Quick
      test_violation_key_strips_seqs;
    Alcotest.test_case "verdict json" `Quick test_verdict_json;
    Alcotest.test_case "litmus campaign certifies" `Quick
      test_certify_litmus_campaign;
    Alcotest.test_case "parallel certify parity" `Quick
      test_certify_parallel_parity;
    Alcotest.test_case "mutex program certifies" `Quick
      test_certify_mutex_program;
    Alcotest.test_case "condvar program certifies" `Quick
      test_certify_condvar_program;
    Alcotest.test_case "pruned run certifies" `Quick test_certify_pruned;
    Alcotest.test_case "versioned workload flagged" `Quick
      test_versioned_workload_flagged;
    QCheck_alcotest.to_alcotest prop_decision_exact;
    Alcotest.test_case "decision rejects the pinned locations" `Quick
      test_decision_pinned;
  ]
