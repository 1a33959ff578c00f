(* Coverage-guided corpus fuzzing (lib/corpus + lib/fuzz):
   validity-preserving mutation, on-disk entry storage with the
   corrupt-entry contract, round-barrier admission determinism, sharding
   parity and the coverage-gain experiment the corpus exists for. *)

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let gen_cfg =
  { Fuzz.default_gen_cfg with Fuzz.g_threads = 2; g_ops = 4 }

let program_string p = Jsonx.to_string (Progir.program_to_json p)

let fresh_dir () = Temp_dirs.fresh "c11corpus_test"

let open_corpus dir =
  match Corpus.open_dir dir with
  | Ok c -> c
  | Error msg -> Alcotest.failf "Corpus.open_dir %s: %s" dir msg

let entry_of ?(digest = "d0") ?(index = 0) ?(seed = 3L) p =
  {
    Corpus.en_digest = digest;
    en_index = index;
    en_seed = seed;
    en_keys = [ "shape:" ^ digest ];
    en_program = p;
  }

(* ---------- mutation --------------------------------------------------- *)

let prop_mutate_valid =
  QCheck.Test.make ~name:"mutation preserves program validity" ~count:500
    QCheck.small_nat (fun n ->
      let p = Fuzz.generate ~cfg:gen_cfg ~seed:(Int64.of_int ((n * 131) + 7)) in
      let rng = Rng.create (Int64.of_int ((n * 31) + 1)) in
      let q = Corpus.mutate ~rng p in
      match Progir.validate q with
      | Ok () -> true
      | Error e ->
        QCheck.Test.fail_reportf "invalid mutant of seed %d: %s" n e)

let prop_mutate_deterministic =
  QCheck.Test.make ~name:"same rng stream, same mutant" ~count:200
    QCheck.small_nat (fun n ->
      let p = Fuzz.generate ~cfg:gen_cfg ~seed:(Int64.of_int ((n * 17) + 5)) in
      let mutate () =
        Corpus.mutate ~rng:(Rng.create (Int64.of_int (n + 911))) p
      in
      program_string (mutate ()) = program_string (mutate ()))

(* Mutants run cleanly end to end: mutate -> run -> classify is a pure
   function of (entry program, rng stream, exec seed), and a mutant of a
   clean-engine program is never a finding. *)
let test_mutate_run_deterministic () =
  let config = Fuzz.engine_config ~mutation:None in
  for n = 0 to 19 do
    let p = Fuzz.generate ~cfg:gen_cfg ~seed:(Int64.of_int ((n * 211) + 21)) in
    let q = Corpus.mutate ~rng:(Rng.create (Int64.of_int (n + 5))) p in
    let run () =
      Fuzz.run_one ~config ~certify:true ~seed:(Fuzz.exec_seed q ~attempt:0) q
    in
    (match run () with
    | Fuzz.Passed _ -> ()
    | Fuzz.Failed k ->
      Alcotest.failf "mutant %d is a finding: %s" n (Fuzz.finding_key k));
    check_bool
      (Printf.sprintf "mutant %d outcome deterministic" n)
      true
      (run () = run ())
  done

(* ---------- storage ---------------------------------------------------- *)

let test_store_load_roundtrip () =
  let dir = fresh_dir () in
  let c = open_corpus dir in
  check_int "empty corpus" 0 (List.length (Corpus.load c));
  let mk i =
    entry_of
      ~digest:(Printf.sprintf "%02d-digest" i)
      ~index:i
      ~seed:(Int64.of_int (i * 37))
      (Fuzz.generate ~cfg:gen_cfg ~seed:(Int64.of_int i))
  in
  let entries = List.init 5 mk in
  List.iter (fun e -> check_bool "stored" true (Corpus.store c e)) entries;
  check_bool "duplicate digest refused" false (Corpus.store c (mk 2));
  let back = Corpus.load c in
  check_int "all back" 5 (List.length back);
  (* ascending digest order, fields and programs intact *)
  List.iter2
    (fun e b ->
      check_str "digest" e.Corpus.en_digest b.Corpus.en_digest;
      check_int "index" e.Corpus.en_index b.Corpus.en_index;
      check_bool "seed" true (e.Corpus.en_seed = b.Corpus.en_seed);
      check_bool "keys" true (e.Corpus.en_keys = b.Corpus.en_keys);
      check_str "program" (program_string e.Corpus.en_program)
        (program_string b.Corpus.en_program))
    entries back

let test_corrupt_entry_skipped_deleted () =
  let dir = fresh_dir () in
  let c = open_corpus dir in
  check_bool "good entry stored" true
    (Corpus.store c
       (entry_of ~digest:"aaaa" (Fuzz.generate ~cfg:gen_cfg ~seed:1L)));
  let write name body =
    let oc = open_out (Filename.concat dir name) in
    output_string oc body;
    close_out oc
  in
  write "bbbb.json" "{ not json";
  write "cccc.json" "{\"schema\":\"wrong-v0\"}";
  (* filename stem must equal the digest field *)
  let stray =
    Jsonx.to_string
      (Corpus.entry_to_json
         (entry_of ~digest:"eeee" (Fuzz.generate ~cfg:gen_cfg ~seed:2L)))
  in
  write "dddd.json" stray;
  let back = Corpus.load c in
  check_int "only the good entry survives" 1 (List.length back);
  check_str "good digest" "aaaa" (List.hd back).Corpus.en_digest;
  List.iter
    (fun n ->
      check_bool (n ^ " deleted") false
        (Sys.file_exists (Filename.concat dir n)))
    [ "bbbb.json"; "cccc.json"; "dddd.json" ]

(* Every count a program carries is bounded at decode: a corpus entry
   naming 99,999,999 plain locations would exhaust memory when run, so it
   is refused, and the corpus skips it like any other corrupt entry. *)
let test_counts_bounded () =
  let p = Fuzz.generate ~cfg:gen_cfg ~seed:5L in
  let with_field key v = function
    | Jsonx.Obj fields ->
      Jsonx.Obj (List.map (fun (k, x) -> if k = key then (k, v) else (k, x)) fields)
    | _ -> Alcotest.fail "expected a JSON object"
  in
  let decodes j = Result.is_ok (Progir.program_of_json j) in
  let pj = Progir.program_to_json p in
  check_bool "the program decodes" true (decodes pj);
  List.iter
    (fun (key, bound) ->
      check_bool (key ^ " at its bound decodes") true
        (decodes (with_field key (Jsonx.Int bound) pj));
      check_bool (key ^ " past its bound refused") false
        (decodes (with_field key (Jsonx.Int (bound + 1)) pj));
      check_bool (key ^ " of 99999999 refused") false
        (decodes (with_field key (Jsonx.Int 99999999) pj)))
    [
      ("atomic_locs", Progir.max_atomic_locs);
      ("na_locs", Progir.max_na_locs);
      ("mutexes", Progir.max_mutexes);
    ];
  let shaped threads ops =
    Progir.program_to_json
      {
        p with
        Progir.p_threads = Array.init threads (fun _ -> Array.make ops Progir.Yield);
      }
  in
  check_bool "threads and ops at their bounds decode" true
    (decodes (shaped Progir.max_threads Progir.max_ops));
  check_bool "threads past the bound refused" false
    (decodes (shaped (Progir.max_threads + 1) 1));
  check_bool "ops past the bound refused" false
    (decodes (shaped 1 (Progir.max_ops + 1)));
  let dir = fresh_dir () in
  let c = open_corpus dir in
  let e = entry_of ~digest:"ffff" p in
  check_bool "entry stored" true (Corpus.store c e);
  let oc = open_out (Filename.concat dir "ffff.json") in
  output_string oc
    (Jsonx.to_string
       (with_field "program"
          (with_field "na_locs" (Jsonx.Int 99999999) pj)
          (Corpus.entry_to_json e)));
  close_out oc;
  check_int "the entry past the bound is skipped" 0
    (List.length (Corpus.load c));
  check_bool "and deleted" false
    (Sys.file_exists (Filename.concat dir "ffff.json"))

(* The largest generator sizes [fuzz] and [lint] accept still produce
   programs inside Progir's bounds, trailing unlocks included, so a
   corpus that stores one loads it back.  Each search stops at the first
   seed that reaches the edge: a body longer than [--ops], or main plus
   [--threads] spawned bodies. *)
let test_largest_gen_sizes_roundtrip () =
  let rec first cfg reaches seed =
    if seed > 50_000 then Alcotest.fail "no generated program reaches the edge"
    else begin
      let p = Fuzz.generate ~cfg ~seed:(Int64.of_int seed) in
      (match Progir.validate p with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "seed %d: %s" seed msg);
      if reaches p then p else first cfg reaches (seed + 1)
    end
  in
  let longest_body p =
    Array.fold_left (fun m b -> max m (Array.length b)) 0 p.Progir.p_threads
  in
  let long =
    first
      { Fuzz.default_gen_cfg with Fuzz.g_ops = Fuzz.max_gen_ops }
      (fun p -> longest_body p > Fuzz.max_gen_ops)
      0
  in
  let wide =
    first
      {
        Fuzz.default_gen_cfg with
        Fuzz.g_threads = Fuzz.max_gen_threads;
        g_ops = 1;
      }
      (fun p -> Array.length p.Progir.p_threads = Fuzz.max_gen_threads + 1)
      0
  in
  let dir = fresh_dir () in
  let c = open_corpus dir in
  check_bool "long entry stored" true
    (Corpus.store c (entry_of ~digest:"eeee" long));
  check_bool "wide entry stored" true
    (Corpus.store c (entry_of ~digest:"ffff" wide));
  check_int "both load back" 2 (List.length (Corpus.load c))

let test_open_dir_rejects () =
  let file = Filename.temp_file "c11corpus" ".notadir" in
  (match Corpus.open_dir file with
  | Ok _ -> Alcotest.fail "open_dir on a plain file must fail"
  | Error _ -> ());
  Sys.remove file

(* ---------- corpus-guided campaigns ------------------------------------ *)

let campaign_cfg ?(programs = 600) ?(seed = 11L) ?(jobs = 1) ?corpus () =
  {
    Fuzz.default_campaign_cfg with
    Fuzz.c_programs = programs;
    c_seed = seed;
    c_jobs = jobs;
    c_gen = gen_cfg;
    c_corpus = corpus;
  }

let report_string r = Jsonx.to_pretty_string (Fuzz.report_to_json r)

let test_campaign_jobs_parity () =
  let plan = Corpus.plan ~round:100 [] in
  let run jobs =
    Fuzz.campaign ~coverage:true
      (campaign_cfg ~jobs ~corpus:plan ())
  in
  let r1 = run 1 in
  check_bool "corpus stats present" true (r1.Fuzz.r_corpus <> None);
  (match r1.Fuzz.r_corpus with
  | Some k ->
    check_bool "admissions happened" true (k.Fuzz.k_admitted <> []);
    check_bool "mutations happened" true (k.Fuzz.k_mutated > 0)
  | None -> ());
  List.iter
    (fun jobs ->
      check_str
        (Printf.sprintf "-j1 == -j%d (corpus campaign)" jobs)
        (report_string r1)
        (report_string (run jobs)))
    [ 2; 4 ]

(* Admissions replay identically from a seeded snapshot: campaign 1's
   admitted entries, fed back as campaign 2's snapshot, change the
   program stream deterministically (same -jN parity) and are not
   re-admitted (their keys are already known). *)
let test_seeded_snapshot_determinism () =
  let cold =
    Fuzz.campaign ~coverage:true
      (campaign_cfg ~corpus:(Corpus.plan ~round:100 []) ())
  in
  let admitted =
    match cold.Fuzz.r_corpus with
    | Some k -> k.Fuzz.k_admitted
    | None -> Alcotest.fail "no corpus stats"
  in
  check_bool "cold admissions" true (admitted <> []);
  let warm_cfg =
    campaign_cfg ~corpus:(Corpus.plan ~round:100 admitted) ()
  in
  let w1 = Fuzz.campaign ~coverage:true warm_cfg in
  let w4 =
    Fuzz.campaign ~coverage:true { warm_cfg with Fuzz.c_jobs = 4 }
  in
  check_str "warm -j1 == -j4" (report_string w1) (report_string w4);
  match w1.Fuzz.r_corpus with
  | None -> Alcotest.fail "no corpus stats"
  | Some k ->
    check_int "snapshot size" (List.length admitted) k.Fuzz.k_seeded;
    let cold_digests =
      List.map (fun e -> e.Corpus.en_digest) admitted
    in
    List.iter
      (fun e ->
        check_bool "seeded digests never re-admitted" false
          (List.mem e.Corpus.en_digest cold_digests))
      k.Fuzz.k_admitted

(* The experiment the corpus exists for: in a saturating generator
   regime (tiny programs, so blind generation keeps re-hitting known
   shapes), corpus-guided mutation reaches strictly more distinct
   execution shapes than blind generation at equal program count.
   Deterministic: both campaigns are pure functions of the fixed seed.
   Mirrored as a bench experiment in bench/ (see ROADMAP). *)
let test_corpus_beats_blind () =
  let tiny = { Fuzz.default_gen_cfg with Fuzz.g_threads = 2; g_ops = 2 } in
  let base =
    {
      Fuzz.default_campaign_cfg with
      Fuzz.c_programs = 2000;
      c_seed = 1L;
      c_gen = tiny;
    }
  in
  let shapes cfg =
    match (Fuzz.campaign ~coverage:true cfg).Fuzz.r_coverage with
    | Some c -> Cov.distinct_shapes c
    | None -> Alcotest.fail "coverage missing"
  in
  let blind = shapes base in
  let guided =
    shapes { base with Fuzz.c_corpus = Some (Corpus.plan []) }
  in
  check_bool
    (Printf.sprintf "corpus-guided %d > blind %d distinct shapes" guided
       blind)
    true (guided > blind)

let suite =
  [
    Alcotest.test_case "mutate/run deterministic, never a finding" `Quick
      test_mutate_run_deterministic;
    Alcotest.test_case "store/load round-trip" `Quick
      test_store_load_roundtrip;
    Alcotest.test_case "corrupt entries skipped and deleted" `Quick
      test_corrupt_entry_skipped_deleted;
    Alcotest.test_case "counts past the bounds refused at decode" `Quick
      test_counts_bounded;
    Alcotest.test_case "largest generator sizes stored and loaded" `Quick
      test_largest_gen_sizes_roundtrip;
    Alcotest.test_case "open_dir rejects non-directory" `Quick
      test_open_dir_rejects;
    Alcotest.test_case "campaign -j parity" `Quick test_campaign_jobs_parity;
    Alcotest.test_case "seeded snapshot determinism" `Quick
      test_seeded_snapshot_determinism;
    Alcotest.test_case "corpus-guided beats blind coverage" `Slow
      test_corpus_beats_blind;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_mutate_valid; prop_mutate_deterministic ]
