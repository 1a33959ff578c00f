(* C11cov: canonicalisation invariance, merge determinism (j1 ≡ jN for
   tester and fuzz campaigns), NDJSON round-trip, progress final-record
   parity, and the zero-cost-when-off contract. *)

let check = Alcotest.(check bool)

(* ---------- canonical signatures ---------- *)

(* A small random "execution": events over a handful of thread and
   location ids, loads/rmws optionally reading from an earlier event, a
   few sync edges.  The property under test only needs well-formed input
   (rf indices in range), not a model-valid execution. *)

let kind_of_int = function
  | 0 -> Action.Load
  | 1 -> Action.Store
  | 2 -> Action.Rmw
  | 3 -> Action.Na_store
  | _ -> Action.Fence

let mo_of_int i = List.nth Memorder.all (i mod List.length Memorder.all)

let exec_gen =
  QCheck.Gen.(
    let* nev = int_range 0 12 in
    let* evs =
      list_repeat nev
        (let* tid = int_range 0 3 in
         let* k = int_range 0 4 in
         let kind = kind_of_int k in
         let* loc = int_range 0 3 in
         let loc = if kind = Action.Fence then -1 else loc in
         let* mo = int_range 0 5 in
         let* rf_raw = int_range 0 20 in
         return (tid, kind, loc, mo_of_int mo, rf_raw))
    in
    let evs =
      List.mapi
        (fun i (tid, kind, loc, mo, rf_raw) ->
          let rf =
            (* only reads read-from, and only from a strictly earlier
               event *)
            match kind with
            | Action.Load | Action.Rmw when i > 0 && rf_raw mod 3 = 0 ->
              Some (rf_raw mod i)
            | _ -> None
          in
          { Cov.ev_tid = tid; ev_kind = kind; ev_loc = loc; ev_mo = mo; ev_rf = rf })
        evs
    in
    let* nsync = int_range 0 3 in
    let* sync =
      list_repeat nsync
        (let* a = int_range 0 3 in
         let* b = int_range 0 3 in
         return (a, b))
    in
    return (Array.of_list evs, sync))

let exec_arb =
  QCheck.make
    ~print:(fun (evs, sync) ->
      Printf.sprintf "%d events, %d sync edges: %s" (Array.length evs)
        (List.length sync)
        (Cov.signature evs ~sync))
    exec_gen

(* Injective renamings: add a generated offset and flip parity, which is
   injective on ints; locations keep -1 (fences) fixed. *)
let rename_tid ~off ~flip t = (if flip then 1000 - t else t) + off
let rename_loc ~off ~flip l =
  if l < 0 then l else (if flip then 1000 - l else l) + off

let prop_signature_rename_invariant =
  QCheck.Test.make
    ~name:"canonical signature invariant under thread/location renaming"
    ~count:300
    QCheck.(
      pair exec_arb (pair (pair (int_bound 50) bool) (pair (int_bound 50) bool)))
    (fun ((evs, sync), ((toff, tflip), (loff, lflip))) ->
      let evs' =
        Array.map
          (fun e ->
            {
              e with
              Cov.ev_tid = rename_tid ~off:toff ~flip:tflip e.Cov.ev_tid;
              ev_loc = rename_loc ~off:loff ~flip:lflip e.Cov.ev_loc;
            })
          evs
      in
      let sync' =
        List.map
          (fun (a, b) ->
            (rename_tid ~off:toff ~flip:tflip a, rename_tid ~off:toff ~flip:tflip b))
          sync
      in
      Cov.signature evs ~sync = Cov.signature evs' ~sync:sync')

let test_signature_distinguishes () =
  (* sanity: the signature is not a constant — rf direction matters *)
  let ev tid kind loc rf =
    { Cov.ev_tid = tid; ev_kind = kind; ev_loc = loc; ev_mo = Memorder.Relaxed; ev_rf = rf }
  in
  let a =
    [| ev 0 Action.Store 0 None; ev 1 Action.Load 0 (Some 0) |]
  in
  let b = [| ev 0 Action.Store 0 None; ev 1 Action.Load 0 None |] in
  check "rf edge changes the signature" true
    (Cov.signature a ~sync:[] <> Cov.signature b ~sync:[]);
  check "edges are deduplicated and sorted" true
    (Cov.edges a ~sync:[] = List.sort_uniq String.compare (Cov.edges a ~sync:[]))

(* ---------- streamed fingerprint = recorded reference ---------- *)

(* The engine fingerprints from the certification sink ([Cov.Stream]);
   [Cov.shape_of_execution] recomputes the shape with the reference
   [Cov.edges] from the events a recording sink collected.  The reference
   comes from a certified run without coverage, the shape under test from
   a run of the configuration under test with coverage on: the two follow
   the same schedule, since neither certification nor coverage draws from
   the RNG, so this also checks that turning either on or off does not
   change the execution.  [None] when the execution raises. *)
let reference_shape config body =
  match Recorder.run { config with Engine.certify = true; coverage = false } body with
  | _, r -> Some (Recorder.shape r)
  | exception Execution.Model_error _ -> None

let streamed_shape config body =
  match Engine.run { config with Engine.coverage = true } body with
  | o -> o.Engine.shape
  | exception Execution.Model_error _ -> None

let pp_shape fmt (sg : Cov.shape) =
  Format.fprintf fmt "%s edges=%d events=%d mo=[%s]" sg.Cov.sg_digest
    sg.Cov.sg_edges sg.Cov.sg_events
    (String.concat ";"
       (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) sg.Cov.sg_mo))

(* [config] is the configuration under test, coverage aside; 1 when the
   shapes were compared, 0 when both runs raised *)
let agree ~what config body =
  let reference = reference_shape config body in
  let streamed = streamed_shape config body in
  match (reference, streamed) with
  | Some r, Some s ->
    if r <> s then
      Alcotest.failf "%s: streamed %a, recorded %a" what pp_shape s pp_shape r;
    1
  | None, None -> 0
  | Some _, None | None, Some _ ->
    Alcotest.failf "%s: one run raised, the other did not" what

let test_stream_fuzz_profiles () =
  List.iter
    (fun profile ->
      let cfg = { Fuzz.default_gen_cfg with Fuzz.g_profile = profile } in
      let n = ref 0 in
      for i = 0 to 149 do
        let p = Fuzz.generate ~cfg ~seed:(Int64.of_int ((i * 7919) + 3)) in
        let config =
          {
            (Fuzz.engine_config ~mutation:None) with
            Engine.seed = Fuzz.exec_seed p ~attempt:0;
            certify = true;
          }
        in
        n :=
          !n
          + agree
              ~what:(Printf.sprintf "%s program %d" (Fuzz.profile_name profile) i)
              config (Fuzz.to_closure p)
      done;
      check
        (Printf.sprintf "%s: every program compared" (Fuzz.profile_name profile))
        true (!n = 150))
    Fuzz.all_profiles

let test_stream_litmus () =
  let n = ref 0 in
  List.iter
    (fun tool ->
      List.iter
        (fun (t : Litmus.t) ->
          for seed = 1 to 12 do
            let config =
              { (Tool.config ~seed:(Int64.of_int seed) tool) with Engine.certify = true }
            in
            n :=
              !n
              + agree
                  ~what:(Printf.sprintf "%s under %s, seed %d" t.Litmus.name
                           (Tool.name tool) seed)
                  config
                  (fun () -> ignore (t.Litmus.run_once ()))
          done)
        Litmus.catalog)
    [ Tool.C11tester; Tool.Tsan11 ];
  check "every litmus execution compared" true
    (!n = 2 * 12 * List.length Litmus.catalog)

let test_stream_workloads () =
  let n = ref 0 in
  List.iter
    (fun (w : Registry.t) ->
      List.iter
        (fun variant ->
          for seed = 1 to 2 do
            let config =
              { (Tool.config ~seed:(Int64.of_int seed) Tool.C11tester) with
                Engine.certify = true }
            in
            n :=
              !n
              + agree
                  ~what:(Printf.sprintf "%s (%s), seed %d" w.Registry.name
                           (Variant.to_string variant) seed)
                  config
                  (w.Registry.run ~variant ~scale:w.Registry.default_scale)
          done)
        [ Variant.Correct; Variant.Buggy ])
    Registry.all;
  check "every workload execution compared" true
    (!n = 2 * 2 * List.length Registry.all)

(* Thread 1 performs no action, so it is named only from the sync edges,
   after every action: thread 2, whose store comes first, takes index 1
   and thread 1 index 2.  Naming it when its spawn edge arrives would
   swap them. *)
let test_stream_silent_thread () =
  let body () =
    let t1 = C11.Thread.spawn (fun () -> ()) in
    let x = C11.Atomic.make 0 in
    let t2 = C11.Thread.spawn (fun () -> C11.Atomic.store x 1) in
    C11.Thread.join t1;
    C11.Thread.join t2;
    ignore (C11.Atomic.load x)
  in
  for seed = 1 to 20 do
    let config =
      { Engine.default_config with Engine.seed = Int64.of_int seed; certify = true }
    in
    let _, r = Recorder.run config body in
    check "thread 1 appears only in sync edges" true
      (List.for_all (fun (a : Action.t) -> a.Action.tid <> 1) (Recorder.actions r)
      && List.exists
           (fun (e : Execution.sync_edge) -> e.Execution.se_to_tid = 1)
           (Recorder.sync_edges r));
    check "shapes agree" true
      (agree ~what:(Printf.sprintf "silent thread, seed %d" seed) config body = 1)
  done

let test_stream_certify_off () =
  let n = ref 0 in
  for i = 0 to 99 do
    let p =
      Fuzz.generate ~cfg:Fuzz.default_gen_cfg ~seed:(Int64.of_int ((i * 31) + 7))
    in
    let config =
      {
        (Fuzz.engine_config ~mutation:None) with
        Engine.seed = Fuzz.exec_seed p ~attempt:0;
        certify = false;
      }
    in
    n :=
      !n
      + agree ~what:(Printf.sprintf "certify off, program %d" i) config
          (Fuzz.to_closure p)
  done;
  List.iter
    (fun (t : Litmus.t) ->
      let config = { Engine.default_config with Engine.seed = 5L; certify = false } in
      n :=
        !n
        + agree ~what:(t.Litmus.name ^ ", certify off") config (fun () ->
              ignore (t.Litmus.run_once ())))
    Litmus.catalog;
  check "every execution compared" true (!n = 100 + List.length Litmus.catalog)

let test_stream_drop_mo_edge () =
  let n = ref 0 in
  for i = 0 to 149 do
    let p =
      Fuzz.generate ~cfg:Fuzz.default_gen_cfg ~seed:(Int64.of_int ((i * 131) + 1))
    in
    let config =
      {
        (Fuzz.engine_config ~mutation:(Some Execution.Drop_mo_edge)) with
        Engine.seed = Fuzz.exec_seed p ~attempt:0;
        certify = true;
      }
    in
    n :=
      !n
      + agree ~what:(Printf.sprintf "drop-mo-edge, program %d" i) config
          (Fuzz.to_closure p)
  done;
  check "drop-mo-edge executions compared" true (!n > 100)

(* Random well-formed event streams (the generator above), fed to the
   consumer directly with sync edges interleaved at random points: the
   shape must be the one the reference computes from the whole array. *)
let action_of_events evs =
  let acts = Array.make (Array.length evs) None in
  Array.mapi
    (fun i (e : Cov.ev) ->
      let a =
        {
          Action.seq = i + 1;
          tid = e.Cov.ev_tid;
          kind = e.Cov.ev_kind;
          loc = e.Cov.ev_loc;
          mo = e.Cov.ev_mo;
          value = 0;
          rf = Option.map (fun j -> Option.get acts.(j)) e.Cov.ev_rf;
          hb_cv = Clockvec.bottom ();
          rf_cv = None;
          rmw_claimed = false;
          volatile = false;
          mo_node = Action.No_graph_node;
        }
      in
      acts.(i) <- Some a;
      a)
    evs

let reference_of_events evs ~sync =
  let es = Cov.edges evs ~sync in
  (Cov.digest_hex (String.concat ";" es), List.length es)

let stream_of_events evs ~sync ~cut =
  let s = Cov.Stream.create () in
  let edge (a, b) =
    Cov.Stream.edge s
      { Execution.se_from_tid = a; se_from_seq = 0; se_to_tid = b; se_to_seq = 0 }
  in
  let acts = action_of_events evs in
  let k = if Array.length acts = 0 then 0 else cut mod (Array.length acts + 1) in
  Array.iteri
    (fun i a ->
      if i = k then List.iter edge sync;
      Cov.Stream.action s a)
    acts;
  if k >= Array.length acts then List.iter edge sync;
  let sg = Cov.Stream.shape s in
  (sg.Cov.sg_digest, sg.Cov.sg_edges)

let prop_stream_matches_reference =
  QCheck.Test.make ~name:"streamed shape equals the reference on event arrays"
    ~count:500
    QCheck.(pair exec_arb small_nat)
    (fun ((evs, sync), cut) ->
      stream_of_events evs ~sync ~cut = reference_of_events evs ~sync)

(* Past 2^14 thread indices an edge no longer fits its integer code and
   is kept as rendered text; the shape must not notice. *)
let test_stream_wide_indices () =
  let n = 17_000 in
  let evs =
    Array.init (2 * n) (fun i ->
        let t = i / 2 in
        if i mod 2 = 0 then
          { Cov.ev_tid = t; ev_kind = Action.Store; ev_loc = t mod 3;
            ev_mo = Memorder.Release; ev_rf = None }
        else
          { Cov.ev_tid = t; ev_kind = Action.Load; ev_loc = t mod 3;
            ev_mo = Memorder.Acquire; ev_rf = Some (max 0 (i - 3)) })
  in
  let sync = [ (n - 1, n + 5); (0, 1) ] in
  let (digest, edges) = stream_of_events evs ~sync ~cut:0 in
  let (rdigest, redges) = reference_of_events evs ~sync in
  check "edge count past the code width" true (edges = redges && edges > 2 * n);
  check "digest past the code width" true (digest = rdigest)

(* ---------- memory: nothing retained per action ---------- *)

(* A long streamed run (certifier and coverage both on, graph pruned):
   the live heap, sampled from inside the program, must not grow with
   the iterations.  Each half's minimum sample is compared, which
   discounts the certifier's window, swept every few thousand actions. *)
let test_stream_retains_nothing () =
  let n = 20_000 in
  let low = [| max_int; max_int |] in
  let body () =
    let x = C11.Atomic.make 0 in
    for i = 1 to 2 * n do
      C11.Atomic.store ~mo:Memorder.Release x i;
      ignore (C11.Atomic.load ~mo:Memorder.Acquire x);
      if i mod 1000 = 0 then begin
        Gc.full_major ();
        let half = if i <= n then 0 else 1 in
        low.(half) <- min low.(half) (Gc.stat ()).Gc.live_words
      end
    done
  in
  let config =
    {
      Engine.default_config with
      Engine.certify = true;
      coverage = true;
      prune = Pruner.Aggressive { window = 256; interval = 64 };
    }
  in
  let o = Engine.run config body in
  (match o.Engine.shape with
  | Some sg -> check "every action fingerprinted" true (sg.Cov.sg_events > 4 * n)
  | None -> Alcotest.fail "coverage on but no shape");
  (* the halves are [n] iterations, [2n] actions, apart *)
  let per_action = float_of_int (low.(1) - low.(0)) /. float_of_int (2 * n) in
  if per_action >= 1.0 then
    Alcotest.failf "%.1f live words retained per action (limit 1)" per_action

(* ---------- campaign parity: j1 ≡ jN ---------- *)

let find_workload name =
  match Registry.find name with
  | Some w -> w
  | None -> Alcotest.fail ("workload not in registry: " ^ name)

let run_with_jobs ~jobs =
  let w = find_workload "seqlock" in
  let config =
    {
      (Tool.config Tool.C11tester) with
      Engine.seed = 42L;
      coverage = true;
      certify = true;
    }
  in
  Tester.run ~jobs ~config ~iters:40
    (w.Registry.run ~variant:Variant.Buggy ~scale:w.Registry.default_scale)

let test_tester_coverage_parity () =
  let s1 = run_with_jobs ~jobs:1 in
  (match s1.Tester.coverage with
  | None -> Alcotest.fail "coverage on but summary.coverage = None"
  | Some c ->
    check "every execution fingerprinted" true (c.Cov.s_executions = 40);
    check "at least one shape" true (Cov.distinct_shapes c > 0));
  List.iter
    (fun jobs ->
      let sn = run_with_jobs ~jobs in
      check
        (Printf.sprintf "coverage summary identical j1 vs j%d" jobs)
        true
        (s1.Tester.coverage = sn.Tester.coverage))
    [ 2; 4 ]

let fuzz_cfg ~jobs =
  {
    Fuzz.default_campaign_cfg with
    Fuzz.c_programs = 60;
    c_seed = 11L;
    c_jobs = jobs;
  }

let test_fuzz_coverage_parity () =
  let r1 = Fuzz.campaign ~coverage:true (fuzz_cfg ~jobs:1) in
  (match r1.Fuzz.r_coverage with
  | None -> Alcotest.fail "coverage on but r_coverage = None"
  | Some c -> check "every program fingerprinted" true (c.Cov.s_executions = 60));
  List.iter
    (fun jobs ->
      let rn = Fuzz.campaign ~coverage:true (fuzz_cfg ~jobs) in
      check
        (Printf.sprintf "fuzz coverage identical j1 vs j%d" jobs)
        true
        (r1.Fuzz.r_coverage = rn.Fuzz.r_coverage))
    [ 2; 4 ]

(* ---------- NDJSON round-trip ---------- *)

let test_ndjson_roundtrip () =
  let r = Fuzz.campaign ~coverage:true (fuzz_cfg ~jobs:2) in
  match r.Fuzz.r_coverage with
  | None -> Alcotest.fail "no coverage"
  | Some c -> (
    let lines = Cov.summary_to_ndjson c in
    (* every line must survive a textual round-trip too *)
    let reparsed =
      List.map
        (fun j ->
          match Jsonx.parse (Jsonx.to_string j) with
          | Ok j' -> j'
          | Error e -> Alcotest.fail ("unparseable NDJSON line: " ^ e))
        lines
    in
    match Cov.summary_of_ndjson reparsed with
    | Error e -> Alcotest.fail ("round-trip failed: " ^ e)
    | Ok c' -> check "summary round-trips through c11cov-v1" true (c = c'))

let test_ndjson_rejects_malformed () =
  check "empty input rejected" true
    (Result.is_error (Cov.summary_of_ndjson []));
  check "wrong schema rejected" true
    (Result.is_error
       (Cov.summary_of_ndjson
          [ Jsonx.Obj [ ("schema", Jsonx.String "bogus-v1") ] ]));
  check "missing campaign record rejected" true
    (Result.is_error
       (Cov.summary_of_ndjson
          [
            Jsonx.Obj
              [
                ("schema", Jsonx.String "c11cov-v1");
                ("kind", Jsonx.String "shape");
                ("key", Jsonx.String "k");
                ("count", Jsonx.Int 1);
                ("first", Jsonx.Int 0);
              ];
          ]))

(* ---------- report: a malformed artifact is rejected whole ---------- *)

(* Run the c11test binary with stdout and stderr sent to files; its exit
   code. *)
let run_cli args ~out ~err =
  let exe =
    match Svc.locate_exe () with
    | Some e -> e
    | None -> Alcotest.fail "cannot locate c11test.exe next to the test binary"
  in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let o = fd out and e = fd err in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin o e in
  Unix.close o;
  Unix.close e;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED c -> c
  | _ -> Alcotest.fail "c11test did not exit normally"

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A campaign's coverage artifact with one bad c11lint-v1 record after
   it: nothing may be printed, and stderr names the file and line. *)
let test_report_rejects_whole () =
  let tmp name =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "c11report_%d_%s" (Unix.getpid ()) name)
  in
  let art = tmp "cov.ndjson" and out = tmp "out" and err = tmp "err" in
  let code =
    run_cli
      [ "fuzz"; "--programs"; "60"; "--seed"; "3"; "--coverage=" ^ art ]
      ~out ~err
  in
  check "fuzz campaign ran" true (code = 0 || code = 1);
  let lines =
    List.length (String.split_on_char '\n' (String.trim (read_file art)))
  in
  Out_channel.with_open_gen [ Open_append ] 0o644 art (fun oc ->
      output_string oc
        {|{"schema":"c11lint-v1","kind":"target","index":0,"target":"x","ops":"many"}|};
      output_char oc '\n');
  let code = run_cli [ "report"; art ] ~out ~err in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check string) "nothing rendered" "" (read_file out);
  Alcotest.(check string)
    "error names the file and line"
    (Printf.sprintf "report: %s: line %d: malformed target record\n" art
       (lines + 1))
    (read_file err);
  (* blank lines count: the error names the physical line *)
  let gap = tmp "gap.ndjson" in
  Out_channel.with_open_bin gap (fun oc -> output_string oc "\n\n{oops\n");
  let code = run_cli [ "report"; gap ] ~out ~err in
  Alcotest.(check int) "gap: exit code" 2 code;
  Alcotest.(check string) "gap: nothing rendered" "" (read_file out);
  check "gap: error names line 3" true
    (String.starts_with
       ~prefix:(Printf.sprintf "report: %s: line 3: " gap)
       (read_file err));
  (* an artifact with no record is an error, not an empty report *)
  List.iter
    (fun (name, body) ->
      let empty = tmp name in
      Out_channel.with_open_bin empty (fun oc -> output_string oc body);
      let code = run_cli [ "report"; empty ] ~out ~err in
      Alcotest.(check int) (name ^ ": exit code") 2 code;
      Alcotest.(check string) (name ^ ": nothing rendered") "" (read_file out);
      Alcotest.(check string)
        (name ^ ": error names the file")
        (Printf.sprintf "report: %s: no records\n" empty)
        (read_file err);
      Sys.remove empty)
    [ ("empty.ndjson", ""); ("blank.ndjson", "\n  \n\n") ];
  List.iter Sys.remove [ art; gap; out; err ]

(* ---------- progress stream ---------- *)

(* Heartbeat counts and all wall-clock fields are timing-dependent; the
   deterministic surface is the single `final' record with the wall
   fields stripped.  That is exactly what the parity below compares. *)
let wall_fields = [ "elapsed_s"; "exec_per_s"; "gc_top_heap_words"; "gc_heap_words" ]

let final_record_stripped path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let finals =
    List.filter_map
      (fun line ->
        match Jsonx.parse line with
        | Error e -> Alcotest.fail ("bad progress line: " ^ e)
        | Ok (Jsonx.Obj fields) ->
          if List.assoc_opt "kind" fields = Some (Jsonx.String "final") then
            Some
              (List.filter
                 (fun (k, _) -> not (List.mem k wall_fields))
                 fields)
          else None
        | Ok _ -> Alcotest.fail "progress line is not an object")
      (List.rev !lines)
  in
  match finals with
  | [ f ] -> f
  | l -> Alcotest.fail (Printf.sprintf "expected 1 final record, got %d" (List.length l))

let progress_campaign ~jobs path =
  let oc = open_out path in
  let progress = Progress.create ~out:oc ~interval_ns:1_000_000 ~total:60 in
  let r = Fuzz.campaign ~coverage:true ~progress (fuzz_cfg ~jobs) in
  close_out oc;
  r

let test_progress_final_parity () =
  let p1 = Filename.temp_file "c11prog" "j1.ndjson" in
  let p4 = Filename.temp_file "c11prog" "j4.ndjson" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove p1;
      Sys.remove p4)
    (fun () ->
      ignore (progress_campaign ~jobs:1 p1);
      ignore (progress_campaign ~jobs:4 p4);
      let f1 = final_record_stripped p1 and f4 = final_record_stripped p4 in
      check "final record identical j1 vs j4 (wall fields stripped)" true
        (f1 = f4);
      check "final record carries schema" true
        (List.assoc_opt "schema" f1 = Some (Jsonx.String "c11progress-v1"));
      check "done = total" true
        (List.assoc_opt "done" f1 = Some (Jsonx.Int 60));
      (* certification is always on in fuzz campaigns, so the streaming
         counters must appear — and, being plain sums, they are part of
         the j1 = j4 parity surface compared above *)
      check "final record carries certified_ops" true
        (match List.assoc_opt "certified_ops" f1 with
        | Some (Jsonx.Int n) -> n > 0
        | _ -> false);
      check "final record carries retired_prefix_ops" true
        (List.assoc_opt "retired_prefix_ops" f1 <> None))

let test_progress_null_is_noop () =
  check "null disabled" true (not (Progress.enabled Progress.null));
  Progress.tick Progress.null ~novel:true ~finding:true;
  Progress.finish Progress.null

(* ---------- zero-cost-when-off ---------- *)

let test_zero_cost_off () =
  let w = find_workload "seqlock" in
  let config = { (Tool.config Tool.C11tester) with Engine.seed = 42L } in
  check "coverage off by default" true (not config.Engine.coverage);
  let summary =
    Tester.run ~config ~iters:5
      (w.Registry.run ~variant:Variant.Buggy ~scale:w.Registry.default_scale)
  in
  check "summary.coverage = None when off" true
    (summary.Tester.coverage = None);
  let o = Engine.run config (fun () -> ()) in
  check "outcome.shape = None when off" true (o.Engine.shape = None);
  let r = Fuzz.campaign (fuzz_cfg ~jobs:1) in
  check "r_coverage = None when off" true (r.Fuzz.r_coverage = None)

let suite =
  [
    Alcotest.test_case "signature distinguishes" `Quick
      test_signature_distinguishes;
    Alcotest.test_case "tester coverage parity j1/j2/j4" `Slow
      test_tester_coverage_parity;
    Alcotest.test_case "fuzz coverage parity j1/j2/j4" `Slow
      test_fuzz_coverage_parity;
    Alcotest.test_case "c11cov-v1 NDJSON round-trip" `Quick
      test_ndjson_roundtrip;
    Alcotest.test_case "malformed c11cov-v1 rejected" `Quick
      test_ndjson_rejects_malformed;
    Alcotest.test_case "report rejects a malformed artifact whole" `Quick
      test_report_rejects_whole;
    Alcotest.test_case "progress final-record parity j1/j4" `Slow
      test_progress_final_parity;
    Alcotest.test_case "null progress is a no-op" `Quick
      test_progress_null_is_noop;
    Alcotest.test_case "zero-cost when off" `Quick test_zero_cost_off;
    Alcotest.test_case "streamed = recorded: fuzz profiles" `Quick
      test_stream_fuzz_profiles;
    Alcotest.test_case "streamed = recorded: litmus, two tools" `Quick
      test_stream_litmus;
    Alcotest.test_case "streamed = recorded: workloads" `Quick
      test_stream_workloads;
    Alcotest.test_case "streamed = recorded: silent thread" `Quick
      test_stream_silent_thread;
    Alcotest.test_case "streamed = recorded: certify off" `Quick
      test_stream_certify_off;
    Alcotest.test_case "streamed = recorded: drop-mo-edge" `Quick
      test_stream_drop_mo_edge;
    Alcotest.test_case "streamed shape past the code width" `Quick
      test_stream_wide_indices;
    Alcotest.test_case "streamed coverage retains nothing per action" `Quick
      test_stream_retains_nothing;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_signature_rename_invariant; prop_stream_matches_reference ]
