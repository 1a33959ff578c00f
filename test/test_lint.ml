(* C11lint: memory-order lattice laws, analyzer verdict and hygiene-rule
   units, static-model calibration (the whole litmus catalog clean, the
   seeded-bug workload models as documented), the c11lint-v1 round trip,
   parallel merge parity, and the headline QCheck soundness property —
   no statically race-free program ever races dynamically. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- memory-order lattice laws -------------------------------- *)

let orders = Memorder.all
let pairs = List.concat_map (fun a -> List.map (fun b -> (a, b)) orders) orders

let name mo = Memorder.to_string mo

let test_lattice_order () =
  List.iter
    (fun a -> check_bool (name a ^ " reflexive") true (Memorder.stronger_than a a))
    orders;
  List.iter
    (fun (a, b) ->
      if Memorder.stronger_than a b && Memorder.stronger_than b a then
        check_bool
          (Printf.sprintf "antisymmetry %s/%s" (name a) (name b))
          true (Memorder.equal a b))
    pairs;
  List.iter
    (fun (a, b) ->
      List.iter
        (fun c ->
          if Memorder.stronger_than a b && Memorder.stronger_than b c then
            check_bool
              (Printf.sprintf "transitivity %s/%s/%s" (name a) (name b) (name c))
              true (Memorder.stronger_than a c))
        orders)
    pairs

let test_lattice_bounds () =
  List.iter
    (fun (a, b) ->
      let j = Memorder.join a b and m = Memorder.meet a b in
      let lbl op = Printf.sprintf "%s %s %s" op (name a) (name b) in
      (* join is an upper bound, and the least one *)
      check_bool (lbl "join>=a") true (Memorder.stronger_than j a);
      check_bool (lbl "join>=b") true (Memorder.stronger_than j b);
      List.iter
        (fun u ->
          if Memorder.stronger_than u a && Memorder.stronger_than u b then
            check_bool (lbl "join least") true (Memorder.stronger_than u j))
        orders;
      (* meet is a lower bound, and the greatest one *)
      check_bool (lbl "meet<=a") true (Memorder.stronger_than a m);
      check_bool (lbl "meet<=b") true (Memorder.stronger_than b m);
      List.iter
        (fun l ->
          if Memorder.stronger_than a l && Memorder.stronger_than b l then
            check_bool (lbl "meet greatest") true (Memorder.stronger_than m l))
        orders)
    pairs;
  (* the landmark points of the diamond *)
  check_bool "join acq rel = acq_rel" true
    (Memorder.equal (Memorder.join Memorder.Acquire Memorder.Release)
       Memorder.Acq_rel);
  check_bool "meet acq rel = relaxed" true
    (Memorder.equal (Memorder.meet Memorder.Acquire Memorder.Release)
       Memorder.Relaxed);
  check_bool "acq vs rel incomparable" false
    (Memorder.stronger_than Memorder.Acquire Memorder.Release
    || Memorder.stronger_than Memorder.Release Memorder.Acquire)

(* The acquire/release/sc predicates are upward closed in the lattice:
   strengthening an order never loses a guarantee. *)
let test_lattice_predicates () =
  List.iter
    (fun (a, b) ->
      if Memorder.stronger_than a b then begin
        if Memorder.is_acquire b then
          check_bool "is_acquire monotone" true (Memorder.is_acquire a);
        if Memorder.is_release b then
          check_bool "is_release monotone" true (Memorder.is_release a);
        if Memorder.is_seq_cst b then
          check_bool "is_seq_cst monotone" true (Memorder.is_seq_cst a)
      end)
    pairs

(* ---------- analyzer units ------------------------------------------- *)

open Progir

let rlx = Memorder.Relaxed
let mk ?(profile = Mixed) ?(atomics = 0) ?(na = 0) ?(mutexes = 0) bodies =
  {
    p_seed = 0L;
    p_profile = profile;
    p_atomic_locs = atomics;
    p_na_locs = na;
    p_mutexes = mutexes;
    p_threads = Array.of_list (List.map Array.of_list bodies);
  }

let verdict_of r loc = List.assoc loc r.Lint.res_verdicts

let test_atomics_never_race () =
  let p =
    mk ~atomics:1
      [
        [];
        [ Store { loc = 0; mo = rlx; value = 1 } ];
        [ Load { loc = 0; mo = rlx } ];
      ]
  in
  let r = Lint.analyze p in
  check_bool "race-free" true r.Lint.res_race_free;
  check_bool "a0 race-free" true (verdict_of r "a0" = Lint.Race_free)

let test_unprotected_na_races () =
  let p =
    mk ~na:1
      [ []; [ Na_write { na = 0; value = 1 } ]; [ Na_read { na = 0 } ] ]
  in
  let r = Lint.analyze p in
  check_bool "racy" false r.Lint.res_race_free;
  match verdict_of r "n0" with
  | Lint.Potential_race { w_first; w_second } ->
    check_int "witness first thread" 1 w_first.Lint.ac_thread;
    check_int "witness second thread" 2 w_second.Lint.ac_thread;
    check_bool "first is the write" true w_first.Lint.ac_write
  | _ -> Alcotest.fail "expected Potential_race on n0"

let test_mutex_protects () =
  let section body = (Lock { m = 0 } :: body) @ [ Unlock { m = 0 } ] in
  let p =
    mk ~na:1 ~mutexes:1
      [
        [];
        section [ Na_write { na = 0; value = 1 } ];
        section [ Na_read { na = 0 } ];
      ]
  in
  let r = Lint.analyze p in
  check_bool "race-free" true r.Lint.res_race_free;
  match verdict_of r "n0" with
  | Lint.Protected [ 0 ] -> ()
  | _ -> Alcotest.fail "expected Protected {m0} on n0"

let test_same_thread_is_race_free () =
  let p =
    mk ~na:1
      [ []; [ Na_write { na = 0; value = 1 }; Na_read { na = 0 } ]; [ Yield ] ]
  in
  let r = Lint.analyze p in
  check_bool "race-free" true r.Lint.res_race_free

let hits_of rule r =
  List.filter (fun h -> h.Lint.h_rule = rule) r.Lint.res_hits

let test_overstrong_order_hit () =
  (* a0 is touched by one thread only: its seq_cst store is overstrong *)
  let p =
    mk ~atomics:1
      [ []; [ Store { loc = 0; mo = Memorder.Seq_cst; value = 1 } ]; [ Yield ] ]
  in
  let r = Lint.analyze p in
  check_bool "overstrong hit" true (hits_of "overstrong-order" r <> []);
  check_bool "still race-free" true r.Lint.res_race_free

let test_redundant_fence_hit () =
  let p =
    mk ~atomics:1
      [
        [];
        [ Fence Memorder.Seq_cst; Fence Memorder.Seq_cst ];
        [ Load { loc = 0; mo = rlx } ];
        [ Store { loc = 0; mo = rlx; value = 1 } ];
      ]
  in
  let r = Lint.analyze p in
  check_bool "redundant-fence hit" true (hits_of "redundant-fence" r <> [])

let test_relaxed_publication_hit () =
  (* mp with non-atomic data and a fully relaxed flag: the racy NA write
     is published with neither release nor acquire *)
  let racy =
    mk ~atomics:1 ~na:1
      [
        [];
        [ Na_write { na = 0; value = 1 }; Store { loc = 0; mo = rlx; value = 1 } ];
        [ Load { loc = 0; mo = rlx }; Na_read { na = 0 } ];
      ]
  in
  check_bool "relaxed pub hit" true
    (hits_of "relaxed-publication" (Lint.analyze racy) <> []);
  (* the rel/acq version of the same channel is strong: no hit *)
  let strong =
    mk ~atomics:1 ~na:1
      [
        [];
        [
          Na_write { na = 0; value = 1 };
          Store { loc = 0; mo = Memorder.Release; value = 1 };
        ];
        [ Load { loc = 0; mo = Memorder.Acquire }; Na_read { na = 0 } ];
      ]
  in
  check_bool "rel/acq channel clean" true
    (hits_of "relaxed-publication" (Lint.analyze strong) = [])

(* ---------- static-model calibration --------------------------------- *)

let test_lmodel_covers_catalog () =
  Alcotest.(check (list string))
    "lmodel names = litmus catalog"
    (List.map (fun t -> t.Litmus.name) Litmus.catalog)
    (List.map fst Lmodel.all)

let test_litmus_catalog_clean () =
  List.iter
    (fun (nm, p) ->
      (match Progir.validate p with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invalid model: %s" nm e);
      let r = Lint.analyze ~label:nm p in
      check_bool (nm ^ " clean") true (Lint.clean r))
    Lmodel.all

let test_workload_models () =
  let get nm =
    match Wmodel.find nm with
    | Some p -> Lint.analyze ~label:nm p
    | None -> Alcotest.failf "missing workload model %s" nm
  in
  let correct = get "seqlock-versioned-correct" in
  check_bool "fence-correct seqlock clean" true (Lint.clean correct);
  let buggy = get "seqlock-versioned-buggy" in
  check_bool "buggy seqlock racy" false buggy.Lint.res_race_free;
  check_bool "buggy seqlock missing fence" true
    (hits_of "seqlock-missing-fence" buggy <> []);
  check_bool "buggy seqlock relaxed pub" true
    (hits_of "relaxed-publication" buggy <> []);
  let rw_ok = get "rwlock-correct" in
  check_bool "rwlock-correct conservative Potential_race" false
    rw_ok.Lint.res_race_free;
  check_bool "rwlock-correct no hygiene hits" true (rw_ok.Lint.res_hits = []);
  let rw_bug = get "rwlock-buggy" in
  check_bool "rwlock-buggy racy" false rw_bug.Lint.res_race_free;
  check_bool "rwlock-buggy relaxed pub" true
    (hits_of "relaxed-publication" rw_bug <> [])

(* ---------- c11lint-v1 round trip ------------------------------------ *)

let sample_results () =
  List.mapi
    (fun i (nm, p) -> (i, Lint.analyze ~label:nm p))
    (Lmodel.all @ Wmodel.all)

let test_ndjson_roundtrip () =
  let results = sample_results () in
  match Lint.campaign_of_ndjson (Lint.campaign_to_ndjson results) with
  | Error e -> Alcotest.failf "round trip failed: %s" e
  | Ok back -> check_bool "round trip identity" true (back = results)

let test_ndjson_rejects_malformed () =
  let results = sample_results () in
  (match
     Lint.campaign_of_ndjson
       (List.tl (Lint.campaign_to_ndjson results) @ [ Jsonx.Obj [] ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a record with no schema");
  match
    Lint.campaign_of_ndjson
      (match Lint.campaign_to_ndjson results with
      | header :: _ :: rest -> header :: rest
      | l -> l)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a target count mismatch"

(* ---------- parallel merge parity ------------------------------------ *)

let test_parallel_parity () =
  let targets = List.map fst Lmodel.all @ List.map fst Wmodel.all in
  let total = List.length targets + 60 in
  (* the in-process runner `c11test lint -j N' uses: the lint instance's
     shard runner fanned out over N domains, then its merge *)
  let run jobs =
    match
      Svc.run ~jobs
        (Svc.lint_instance ~targets ~programs:60 ~seed:7L
           ~gen:Fuzz.default_gen_cfg)
    with
    | Ok (results, _) -> results
    | Error msg -> Alcotest.fail msg
  in
  let j1 = run 1 in
  check_int "all items analyzed" total (List.length j1);
  List.iter
    (fun jobs ->
      let s1 =
        String.concat "\n"
          (List.map Jsonx.to_string (Lint.campaign_to_ndjson j1))
      in
      let sn =
        String.concat "\n"
          (List.map Jsonx.to_string (Lint.campaign_to_ndjson (run jobs)))
      in
      check_bool (Printf.sprintf "-j %d byte-identical" jobs) true (s1 = sn))
    [ 2; 4 ]

(* The precomputed location names are the strings [Printf] would format,
   inside the table and past it: race reports, lint verdicts, corpus
   files and fuzz report digests all carry them. *)
let test_location_names () =
  for i = 0 to 40 do
    Alcotest.(check string) "atomic name" (Printf.sprintf "a%d" i) (Progir.atomic_name i);
    Alcotest.(check string) "na name" (Printf.sprintf "n%d" i) (Progir.na_name i)
  done;
  List.iter
    (fun i ->
      Alcotest.(check string) "atomic name past the table" (Printf.sprintf "a%d" i)
        (Progir.atomic_name i);
      Alcotest.(check string) "na name past the table" (Printf.sprintf "n%d" i)
        (Progir.na_name i))
    [ 63; 64; 65; 1000 ]

(* A target named twice is analyzed twice and reported twice, in the
   order given, at every -j. *)
let test_repeated_target () =
  let targets = [ "mp_relaxed"; "mp_relaxed"; "sb_sc" ] in
  List.iter
    (fun jobs ->
      match
        Svc.run ~jobs
          (Svc.lint_instance ~targets ~programs:0 ~seed:7L
             ~gen:Fuzz.default_gen_cfg)
      with
      | Ok (results, _) ->
        check_bool
          (Printf.sprintf "-j %d: three results in index order" jobs)
          true
          (List.map (fun (i, r) -> (i, r.Lint.res_target)) results
          = [ (0, "mp_relaxed"); (1, "mp_relaxed"); (2, "sb_sc") ])
      | Error msg -> Alcotest.fail msg)
    [ 1; 2 ]

(* ---------- the soundness property (the differential headline) ------- *)

(* >= 1k programs across all four profiles: a statically race-free
   program must pass an 8-seed dynamic sweep with zero engine-reported
   races.  Fuzz.run_one itself enforces the contract — a dynamic race on
   a statically race-free program surfaces as a Lint_unsound finding —
   so asserting Passed checks both directions at once. *)
let prop_lint_sound =
  QCheck.Test.make ~name:"statically race-free programs never race" ~count:1000
    QCheck.(int_range 0 1_000_000) (fun n ->
      let rng = Rng.create (Int64.of_int (0x11A7 + n)) in
      let cfg =
        {
          Fuzz.g_threads = 1 + Rng.int rng 4;
          g_ops = 1 + Rng.int rng 8;
          g_atomic_locs = 1 + Rng.int rng 4;
          g_na_locs = Rng.int rng 3;
          g_mutexes = Rng.int rng 3;
          g_profile = List.nth Fuzz.all_profiles (n mod 4);
        }
      in
      let p = Fuzz.generate ~cfg ~seed:(Int64.of_int ((n * 733) + 11)) in
      (not (Lint.statically_race_free p))
      ||
      let config = Fuzz.engine_config ~mutation:None in
      let rec sweep attempt =
        if attempt >= 8 then true
        else
          match
            Fuzz.run_one ~config ~certify:false
              ~seed:(Fuzz.exec_seed p ~attempt) p
          with
          | Fuzz.Passed _ -> sweep (attempt + 1)
          | Fuzz.Failed kind ->
            QCheck.Test.fail_reportf
              "statically race-free program failed dynamically (attempt %d): %s"
              attempt (Fuzz.finding_key kind)
      in
      sweep 0)

(* The differential wrapper in Fuzz.run_one flags the inverse direction:
   feed it a program lint proves race-free together with a mutated
   engine known to fabricate races, and the Lint_unsound finding kind
   must come back (exercised end-to-end by the mutation tests; here we
   check the kind's key plumbing). *)
let test_lint_unsound_kind () =
  let key r = Fuzz.finding_key (Fuzz.Lint_unsound { race = r }) in
  check_bool "key prefix" true
    (String.sub (key "na-load:3 vs na-store:7") 0 12 = "lint-unsound");
  (* dedup key is site-shaped, not index-shaped: differing digits fold *)
  check_bool "key strips digits" true
    (key "na-load:3 vs na-store:7" = key "na-load:14 vs na-store:9")

let suite =
  [
    ("lattice order laws", `Quick, test_lattice_order);
    ("lattice join/meet bounds", `Quick, test_lattice_bounds);
    ("lattice predicates monotone", `Quick, test_lattice_predicates);
    ("atomic/atomic never races", `Quick, test_atomics_never_race);
    ("unprotected NA pair races", `Quick, test_unprotected_na_races);
    ("common mutex protects", `Quick, test_mutex_protects);
    ("same-thread conflicts race-free", `Quick, test_same_thread_is_race_free);
    ("overstrong-order rule", `Quick, test_overstrong_order_hit);
    ("redundant-fence rule", `Quick, test_redundant_fence_hit);
    ("relaxed-publication rule", `Quick, test_relaxed_publication_hit);
    ("lmodel covers the litmus catalog", `Quick, test_lmodel_covers_catalog);
    ("litmus catalog lints clean", `Quick, test_litmus_catalog_clean);
    ("workload models calibrated", `Quick, test_workload_models);
    ("c11lint-v1 round trip", `Quick, test_ndjson_roundtrip);
    ("c11lint-v1 rejects malformed", `Quick, test_ndjson_rejects_malformed);
    ("merge parity across jobs", `Quick, test_parallel_parity);
    ("repeated target analyzed twice", `Quick, test_repeated_target);
    ("location names match Printf", `Quick, test_location_names);
    ("lint-unsound finding kind", `Quick, test_lint_unsound_kind);
    QCheck_alcotest.to_alcotest prop_lint_sound;
  ]
