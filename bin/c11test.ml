(* c11test — command-line front end.

   Subcommands:
     run    — repeatedly test a workload under a tool and report races,
              assertion failures and detection rates
     litmus — explore a litmus test's outcome histogram
     fuzz   — generate random programs and differential-test the engine
              against the axiomatic certifier, shrinking any finding;
              with --corpus DIR, coverage-guided corpus fuzzing
     sweep  — run a memory-order sweep family (seqlock, rwlock, dekker,
              ring-buffer) over its full memory-order matrix and render
              the verdict matrix
     lint   — statically analyze litmus/workload models and generated
              programs (C11lint), no engine executions
     report — render coverage/progress/findings/lint/sweep/corpus NDJSON
              artifacts as a human-readable campaign summary
     list   — list available workloads, litmus tests and sweep families

   Exit codes (asserted by test/test_exit_codes):
     0 — ran cleanly, nothing found
     1 — bugs found: data races, assertion failures, certification
         rejections (`--certify`), forbidden litmus outcomes, fuzz
         findings, non-clean lint results or cert-rejected sweep cells
         (racy/torn sweep cells are expected matrix content, not bugs)
     2 — usage errors (unknown workload/litmus test/lint target/pruning
         policy/fuzz profile/mutant/sweep family, non-positive --jobs or
         --workers, an unwritable output path (--json, --coverage,
         --progress, --findings, --ndjson, --trace-out), --cache or
         --corpus directory, missing, empty or malformed `report' input,
         and any command line cmdliner cannot parse)

   There is also a hidden `worker' mode (spawned by the coordinator when
   `--workers'/`--cache' engage the multi-process fabric, never typed by
   hand): it reads one base64 spec line from stdin and speaks the
   c11svc-v1 NDJSON protocol on stdout — see lib/svc. *)

open Cmdliner

let tool_conv =
  let parse s =
    match Tool.of_string s with
    | Some t -> Ok t
    | None -> Error (`Msg (Printf.sprintf "unknown tool %S" s))
  in
  Arg.conv (parse, fun fmt t -> Format.pp_print_string fmt (Tool.name t))

let tool_arg =
  let doc = "Tool to test under: c11tester, tsan11rec or tsan11." in
  Arg.(value & opt tool_conv Tool.C11tester & info [ "t"; "tool" ] ~doc)

let iters_arg =
  let doc = "Number of executions." in
  Arg.(value & opt int 100 & info [ "n"; "iters" ] ~doc)

let seed_arg =
  let doc = "Base random seed (executions derive their own from it)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~doc)

let jobs_arg =
  let doc =
    "Shard executions across $(docv) OCaml domains $(i,inside one \
     process) (shared heap, one runtime).  For separate worker \
     $(i,processes) see $(b,--workers); the two compose, giving \
     workers*jobs-way parallelism.  Deterministic: the merged summary, \
     histogram and race reports are bit-identical for every value of \
     $(docv).  Must be positive."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let workers_arg =
  let doc =
    "Run the campaign on $(docv) worker $(i,processes) (fork/exec of this \
     binary), each taking a leapfrog shard of the execution indices and \
     streaming its results back to the coordinator, which merges them \
     with the same lowest-index-wins algebra as $(b,--jobs) — the \
     summary, histogram, coverage and findings are byte-identical to a \
     single-process run for every $(docv).  Composes with $(b,--jobs) \
     ($(docv) processes times N domains each).  Must be positive."
  in
  Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc)

let cache_arg =
  let doc =
    "Consult and populate a content-addressed result cache in $(docv) \
     (bare flag: \\$XDG_CACHE_HOME/c11test or ~/.cache/c11test).  Shards \
     are keyed by workload/program identity, base seed, full engine \
     configuration and a code-version salt, so a warm re-run of an \
     identical campaign replays every shard from disk and performs zero \
     engine executions.  Implies the multi-process fabric (as if \
     $(b,--workers 1) unless given)."
  in
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "cache" ] ~docv:"DIR" ~doc)

(* --jobs, --workers and --cache, shared by every campaign command, are
   validated in command bodies, not by an Arg.conv: cmdliner reports conv
   failures with its own CLI-error exit code, and the contract here is
   that every usage error exits 2.  An unwritable cache directory is such
   an error, discovered before any campaign work starts, like an
   unwritable --coverage path.  [k] gets the opened cache. *)
let with_campaign_opts ~jobs ~workers ~cache_spec k =
  if jobs <= 0 then begin
    Printf.eprintf
      "--jobs must be positive (got %d); pick 1 for a sequential run\n" jobs;
    2
  end
  else
    match (workers, cache_spec) with
    | Some w, _ when w <= 0 ->
      Printf.eprintf
        "--workers must be positive (got %d); pick 1 for a single worker \
         process\n"
        w;
      2
    | _, None -> k None
    | _, Some spec -> (
      let dir = if spec = "" then Cache.default_dir () else spec in
      match Cache.open_dir dir with
      | Ok c -> k (Some c)
      | Error msg ->
        Printf.eprintf "cannot use cache directory %s: %s\n" dir msg;
        2)

(* Same contract as --cache: an unusable corpus directory is a
   usage error (exit 2) discovered before any campaign work starts. *)
let with_corpus corpus_spec k =
  match corpus_spec with
  | None -> k None
  | Some dir -> (
    match Corpus.open_dir dir with
    | Ok c -> k (Some c)
    | Error msg ->
      Printf.eprintf "cannot use corpus directory %s: %s\n" dir msg;
      2)

(* Where a campaign runs, for its header line: the fabric engages iff
   --workers or --cache was given.  [sep] " on" gives " on 2 workers on 4
   domains", "," gives ", 2 workers, 4 domains". *)
let placement ~sep ~workers ~cache_spec ~jobs =
  (if workers <> None || cache_spec <> None then
     Printf.sprintf "%s %d workers" sep (Option.value ~default:1 workers)
   else "")
  ^ if jobs > 1 then Printf.sprintf "%s %d domains" sep jobs else ""

(* Every campaign command runs its surface's instance through here: in
   process on [jobs] domains, or on the fabric when --workers or --cache
   was given.  [k] gets the merged result and the fabric's statistics. *)
let campaign ?profile ?metrics ~progress ~jobs ~workers ?cache instance k =
  match Svc.run ?profile ?metrics ~progress ?cache ?workers ~jobs instance with
  | Error msg ->
    Printf.eprintf "campaign fabric: %s\n" msg;
    2
  | Ok (result, svc_stats) ->
    (match svc_stats with
    | Some st when st.Svc.st_failed <> [] ->
      Printf.eprintf
        "warning: %d worker shard range(s) lost after re-claim (worker \
         indices: %s); the summary covers the surviving shards only\n"
        (List.length st.Svc.st_failed)
        (String.concat ", " (List.map string_of_int st.Svc.st_failed))
    | _ -> ());
    k result svc_stats

let scale_arg =
  let doc =
    "Workload scale override (operations per thread), or the word \
     $(b,tier) for the workload's paper-scale tier: one execution in the \
     1M-10M-op range with streaming certification always on and \
     aggressive pruning (unless --prune says otherwise).  Only workloads \
     with a registered tier scale accept $(b,tier); see `c11test list'."
  in
  Arg.(value & opt (some string) None & info [ "scale" ] ~docv:"N|tier" ~doc)

let buggy_arg =
  let doc = "Run the seeded-bug variant (default) or the correct one." in
  Arg.(value & opt bool true & info [ "buggy" ] ~doc)

let prune_arg =
  let doc =
    "Execution-graph pruning: none, conservative or aggressive (Section 7.1)."
  in
  Arg.(value & opt string "none" & info [ "prune" ] ~doc)

let verbose_arg =
  let doc = "Print each distinct race report." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let trace_arg =
  let doc =
    "Replay the campaign's first buggy execution and print its last N \
     events."
  in
  Arg.(value & opt int 0 & info [ "trace" ] ~docv:"N" ~doc)

let json_arg =
  let doc =
    "Write a JSON report (summary, metric counters/histograms and per-phase \
     profile with percentiles) to $(docv); `-' means stdout (and suppresses \
     the human-readable report)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Replay the campaign's first buggy execution and write its full event \
     trace as NDJSON (one JSON event per line) to $(docv); `-' means \
     stdout."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Time the engine's hot phases and print a profile table; with \
     certification on, also how many locations the certifier checked and \
     how many its pair-by-pair pass explained."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let certify_arg =
  let doc =
    "Run the axiomatic certifier over every execution: reconstruct the \
     declarative relations (sb, rf, mo, sw, hb, fr) from the recorded \
     trace, independently of the engine's clock vectors, and check the \
     C11-fragment axioms.  A rejected execution counts as buggy and makes \
     the command exit 1."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let coverage_arg =
  let doc =
    "Fingerprint every execution into a canonical shape signature \
     (deduplicated rf/mo/sw edge patterns with threads and locations \
     renamed to first-appearance order) and write the merged coverage \
     tables as c11cov-v1 NDJSON to $(docv); `-' or the bare flag means \
     stdout (use the glued `--coverage=FILE' form to name a file).  Also \
     adds novel-shape counters to the $(b,--json) report.  Coverage is \
     bit-identical for every $(b,--jobs) value."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "coverage" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Stream live campaign heartbeats (c11progress-v1 NDJSON: executions \
     done, exec/s, shard-novel coverage count, findings so far, GC \
     high-water words) to $(docv); `-' or the bare flag means stdout (use \
     the glued `--progress=FILE' form to name a file).  The stream ends \
     with one `final' record carrying the exact merged counts."
  in
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "progress" ] ~docv:"FILE" ~doc)

let output_ndjson oc docs =
  List.iter
    (fun j ->
      output_string oc (Jsonx.to_string j);
      output_char oc '\n')
    docs

(* A command's --json report.  The fabric's fields are present only when
   it ran, so single-process reports (and their goldens) are unchanged. *)
let write_report oc fields svc_stats =
  let fabric =
    match svc_stats with
    | None -> []
    | Some (st : Svc.stats) ->
      [
        ("workers", Jsonx.Int st.Svc.st_workers);
        ("svc", Svc.stats_to_json st);
      ]
  in
  output_string oc (Jsonx.to_pretty_string (Jsonx.Obj (fields @ fabric)));
  output_char oc '\n'

(* The files a command writes: --json, its own NDJSON artifact (fuzz
   --findings, sweep/lint --ndjson, run --trace-out), --coverage, and the
   --progress stream. *)
type sinks = {
  json : out_channel option;
  ndjson : out_channel option;
  coverage : out_channel option;
  progress : Progress.t;
}

(* [with_sinks ?json ?ndjson ?coverage ?progress ~total k] opens every
   named output (`-' is stdout) before the campaign starts, so an
   unwritable path is a usage error (exit 2) found before any work, not a
   failure after minutes of it.  [total] sizes the progress stream's
   `total' field. *)
let with_sinks ?json ?ndjson ?coverage ?progress ~total k =
  let opened = ref [] in
  let close_all () =
    List.iter close_out !opened;
    flush stdout
  in
  let open_opt = function
    | None -> Ok None
    | Some "-" -> Ok (Some stdout)
    | Some path -> (
      match open_out path with
      | oc ->
        opened := oc :: !opened;
        Ok (Some oc)
      | exception Sys_error msg ->
        Printf.eprintf "cannot write %s: %s\n" path msg;
        Error ())
  in
  let opened_sinks =
    let ( let* ) = Result.bind in
    let* json = open_opt json in
    let* ndjson = open_opt ndjson in
    let* coverage = open_opt coverage in
    let* progress = open_opt progress in
    let progress =
      match progress with
      | None -> Progress.null
      | Some oc -> Progress.create ~out:oc ~interval_ns:250_000_000 ~total
    in
    Ok { json; ndjson; coverage; progress }
  in
  match opened_sinks with
  | Error () ->
    close_all ();
    2
  | Ok sinks -> Fun.protect ~finally:close_all (fun () -> k sinks)

let emit_coverage sinks = function
  | None -> ()
  | Some summary ->
    Option.iter
      (fun oc ->
        output_ndjson oc (Cov.summary_to_ndjson summary);
        flush oc)
      sinks.coverage

let prune_of_string = function
  | "none" -> Ok Pruner.No_prune
  | "conservative" -> Ok (Pruner.Conservative { interval = 64 })
  | "aggressive" -> Ok (Pruner.Aggressive { window = 4096; interval = 64 })
  | s -> Error (Printf.sprintf "unknown pruning policy %S" s)

let run_cmd =
  let workload_arg =
    let doc = "Workload name (see `c11test list')." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)
  in
  let run workload tool iters seed jobs scale buggy prune verbose trace_last
      json trace_out profile_flag certify coverage progress workers cache_spec
      =
    match Registry.find workload with
    | None ->
      Printf.eprintf "unknown workload %S; try `c11test list'\n" workload;
      2
    | Some w -> (
      let scale_spec =
        match scale with
        | None -> Ok (w.Registry.default_scale, false)
        | Some "tier" -> (
          match w.Registry.scale_tier with
          | Some s -> Ok (s, true)
          | None ->
            Error
              (Printf.sprintf
                 "workload %S has no paper-scale tier; see `c11test list'"
                 w.Registry.name))
        | Some s -> (
          match int_of_string_opt s with
          | Some n -> Ok (n, false)
          | None ->
            Error
              (Printf.sprintf "--scale expects an integer or `tier', got %S" s))
      in
      match (prune_of_string prune, scale_spec) with
      | Error e, _ | _, Error e ->
        prerr_endline e;
        2
      | Ok prune, Ok (scale, tier) ->
        with_campaign_opts ~jobs ~workers ~cache_spec @@ fun cache ->
        (* the tier contract: streaming certification always on, graph
           pruning on (the engine is quadratic without it), and a step
           budget that fits a 10M-op execution *)
        let iters = if tier then 1 else iters in
        let prune =
          if tier && prune = Pruner.No_prune then
            Pruner.Aggressive { window = 4096; interval = 64 }
          else prune
        in
        let certify = certify || tier in
        with_sinks ?json ?ndjson:trace_out ?coverage ?progress ~total:iters
        @@ fun sinks ->
        let config =
          {
            (Tool.config ~prune
               ?max_steps:(if tier then Some 30_000_000 else None)
               tool)
            with
            Engine.seed = Int64.of_int seed;
            certify;
            coverage = coverage <> None;
          }
        in
        let variant = if buggy then Variant.Buggy else Variant.Correct in
        let body = w.Registry.run ~variant ~scale in
        (* any NDJSON stream aimed at `-' owns stdout: the human-readable
           report would corrupt it, so it is suppressed *)
        let quiet =
          json = Some "-" || trace_out = Some "-" || coverage = Some "-"
          || progress = Some "-"
        in
        let metrics =
          if json <> None || profile_flag then Metrics.create ()
          else Metrics.null
        in
        let profile =
          if profile_flag || json <> None then Profile.create ()
          else Profile.null
        in
        if not quiet then
          Printf.printf
            "%s (%s variant) under %s, %d executions, scale %d%s\n"
            w.Registry.name (Variant.to_string variant) (Tool.name tool) iters
            scale
            (placement ~sep:"," ~workers ~cache_spec ~jobs);
        campaign ~profile ~metrics ~progress:sinks.progress ~jobs ~workers
          ?cache
          (Svc.run_instance w ~buggy ~scale ~config ~iters)
        @@ fun summary svc_stats ->
        emit_coverage sinks summary.Tester.coverage;
        if not quiet then
          Format.printf "%a@." Tester.pp_summary summary;
        if verbose && not quiet then
          List.iter
            (fun r -> Format.printf "  %a@." Race.pp_report r)
            summary.Tester.distinct_races;
        if trace_last > 0 || trace_out <> None then begin
          match summary.Tester.first_buggy with
          | None ->
            if not quiet then
              Printf.printf "no buggy execution among the %d executions\n"
                summary.Tester.executions
          | Some index ->
            let obs = Obs.create ~ring_capacity:(max 65536 trace_last) in
            ignore (Tester.replay ~obs ~config ~index body);
            Option.iter (fun oc -> Obs.write_ndjson oc obs) sinks.ndjson;
            if trace_last > 0 && not quiet then begin
              let events = Obs.ring_events obs in
              let skip = max 0 (List.length events - trace_last) in
              Printf.printf "trace of buggy execution %d (last %d events):\n"
                index trace_last;
              List.iteri
                (fun i e ->
                  if i >= skip then Format.printf "  %a@." Obs.pp_event e)
                events
            end
        end;
        if profile_flag && not quiet then begin
          Format.printf "@.%a@." Profile.pp_table profile;
          (* counted in process only: worker processes return no metrics *)
          if certify && workers = None && cache = None then
            Format.printf
              "certify: %d locations checked, %d explained by the pair pass@."
              (Metrics.counter_value metrics "certify.locations")
              (Metrics.counter_value metrics "certify.locations_explained")
        end;
        (match sinks.json with
        | None -> ()
        | Some oc ->
          let gc = Gc.quick_stat () in
          write_report oc
            [
              ("schema", Jsonx.String "c11obs-run-v1");
              ("workload", Jsonx.String w.Registry.name);
              ("variant", Jsonx.String (Variant.to_string variant));
              ("tool", Jsonx.String (Tool.name tool));
              ("iters", Jsonx.Int iters);
              ("seed", Jsonx.Int seed);
              ("jobs", Jsonx.Int jobs);
              ("scale", Jsonx.Int scale);
              ("scale_tier", Jsonx.Bool tier);
              ("gc_top_heap_words", Jsonx.Int gc.Gc.top_heap_words);
              ("summary", Tester.summary_to_json summary);
              ("metrics", Metrics.to_json metrics);
              ("profile", Profile.to_json profile);
            ]
            svc_stats);
        if summary.Tester.buggy_executions > 0 then 1 else 0)
  in
  let term =
    Term.(
      const run $ workload_arg $ tool_arg $ iters_arg $ seed_arg $ jobs_arg
      $ scale_arg $ buggy_arg $ prune_arg $ verbose_arg $ trace_arg $ json_arg
      $ trace_out_arg $ profile_arg $ certify_arg $ coverage_arg
      $ progress_arg $ workers_arg $ cache_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Test a workload repeatedly and report bugs") term

let litmus_cmd =
  let name_arg =
    let doc = "Litmus test name (see `c11test list')." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LITMUS" ~doc)
  in
  let run name tool iters seed jobs certify coverage progress workers
      cache_spec =
    match Litmus.find name with
    | None ->
      Printf.eprintf "unknown litmus test %S; try `c11test list'\n" name;
      2
    | Some t ->
      with_campaign_opts ~jobs ~workers ~cache_spec @@ fun cache ->
      with_sinks ?coverage ?progress ~total:iters @@ fun sinks ->
      let config =
        {
          (Tool.config tool) with
          Engine.seed = Int64.of_int seed;
          certify;
          coverage = coverage <> None;
        }
      in
      let quiet = coverage = Some "-" || progress = Some "-" in
      if not quiet then
        Printf.printf "%s under %s, %d executions%s\n%s\n\n" t.Litmus.name
          (Tool.name tool) iters
          (placement ~sep:" on" ~workers ~cache_spec ~jobs)
          t.Litmus.description;
      campaign ~progress:sinks.progress ~jobs ~workers ?cache
        (Svc.litmus_instance t ~config ~iters)
      @@ fun (summary, hist) _ ->
      let hist = Litmus.rank_hist hist in
      emit_coverage sinks summary.Tester.coverage;
      if not quiet then begin
        List.iter
          (fun (o, n) ->
            Format.printf "%6d  %a%s%s@." n (Litmus.pp_outcome t) o
              (if t.Litmus.weak o then "   <- weak outcome" else "")
              (if t.Litmus.allowed o then "" else "   ** FORBIDDEN **"))
          hist;
        if certify then begin
          Format.printf "certified: %d, rejected: %d@."
            summary.Tester.certified_executions
            summary.Tester.cert_rejected_executions;
          List.iter
            (fun v -> Format.printf "  %a@." Check.pp_violation v)
            summary.Tester.distinct_cert_violations
        end
      end;
      let forbidden =
        List.exists (fun (o, _) -> not (t.Litmus.allowed o)) hist
      in
      if forbidden || summary.Tester.buggy_executions > 0 then 1 else 0
  in
  let term =
    Term.(
      const run $ name_arg $ tool_arg $ iters_arg $ seed_arg $ jobs_arg
      $ certify_arg $ coverage_arg $ progress_arg $ workers_arg $ cache_arg)
  in
  Cmd.v
    (Cmd.info "litmus" ~doc:"Explore the outcome histogram of a litmus test")
    term

(* [fuzz]'s and [lint]'s generator flags: a generated program must stay
   inside Progir's bounds, trailing unlocks included.  Prints what is
   wrong. *)
let bad_gen_size ~programs ~ops ~threads =
  if programs < 0 || ops < 1 || threads < 1 then begin
    Printf.eprintf "--programs must be >= 0, --ops and --threads >= 1\n";
    true
  end
  else if ops > Fuzz.max_gen_ops || threads > Fuzz.max_gen_threads then begin
    Printf.eprintf "--ops must be <= %d and --threads <= %d\n" Fuzz.max_gen_ops
      Fuzz.max_gen_threads;
    true
  end
  else false

let fuzz_cmd =
  let programs_arg =
    let doc = "Number of random programs to generate and test." in
    Arg.(value & opt int 500 & info [ "programs" ] ~docv:"N" ~doc)
  in
  let ops_arg =
    let doc = "Maximum operations per generated thread body." in
    Arg.(value & opt int 8 & info [ "ops" ] ~docv:"N" ~doc)
  in
  let threads_arg =
    let doc = "Maximum spawned threads per generated program." in
    Arg.(value & opt int 3 & info [ "threads" ] ~docv:"N" ~doc)
  in
  let fuzz_profile_arg =
    let doc =
      "Generation profile: mixed, sc-heavy, rmw-chain or mixed-atomicity."
    in
    Arg.(value & opt string "mixed" & info [ "profile" ] ~docv:"PROFILE" ~doc)
  in
  let findings_arg =
    let doc =
      "Write findings as NDJSON (one JSON object per line, shrunk repro \
       included) to $(docv); `-' means stdout."
    in
    Arg.(value & opt (some string) None & info [ "findings" ] ~docv:"FILE" ~doc)
  in
  let mutant_arg =
    let doc =
      "Test-only: install a seeded engine fault (skip-acquire-merge, \
       drop-mo-edge, weak-release-store or race-ignores-sync) to prove the \
       oracle catches it.  The first three break the memory model and the \
       certifier rejects them; race-ignores-sync only makes the race \
       detector ignore synchronisation, which the differential against \
       the static linter reports as lint-unsound findings."
    in
    Arg.(value & opt (some string) None & info [ "mutant" ] ~docv:"MUTANT" ~doc)
  in
  let corpus_arg =
    let doc =
      "Coverage-guided corpus fuzzing: load the persistent corpus in \
       $(docv) (created if missing; an unusable path is a usage error), \
       mutate its entries for a deterministic share of the campaign's \
       programs, admit every program that hits a coverage-novel shape, \
       race site or certifier-violation key, and store the admissions \
       back as c11corpus-v1 JSON files keyed by shape digest (atomic \
       temp + rename; corrupt entries are skipped and deleted, never a \
       crash).  Admission runs at fixed round barriers, so the corpus \
       and report are byte-identical for every --jobs/--workers \
       value.  Implies --coverage-style shape fingerprinting internally."
    in
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let mutate_pct_arg =
    let doc =
      "With --corpus: percent of programs mutated from corpus entries \
       (the rest are fresh); must be in [0, 100]."
    in
    Arg.(
      value
      & opt int Corpus.default_mutate_pct
      & info [ "mutate-pct" ] ~docv:"PCT" ~doc)
  in
  let round_arg =
    let doc =
      "With --corpus: programs per admission round (the barrier at which \
       shard-novel candidates are absorbed into the corpus); must be \
       positive."
    in
    Arg.(
      value & opt int Corpus.default_round & info [ "round" ] ~docv:"N" ~doc)
  in
  let run programs ops threads profile_name seed jobs findings
      json mutant_name coverage progress workers cache_spec corpus_spec
      mutate_pct round =
    match Progir.profile_of_string profile_name with
    | None ->
      Printf.eprintf
        "unknown fuzz profile %S; try mixed, sc-heavy, rmw-chain or \
         mixed-atomicity\n"
        profile_name;
      2
    | Some profile -> (
      let mutation =
        match mutant_name with
        | None -> Ok None
        | Some s -> (
          match Execution.mutation_of_string s with
          | Some m -> Ok (Some m)
          | None -> Error s)
      in
      match mutation with
      | Error s ->
        Printf.eprintf
          "unknown mutant %S; try skip-acquire-merge, drop-mo-edge, \
           weak-release-store or race-ignores-sync\n"
          s;
        2
      | Ok mutation ->
        with_campaign_opts ~jobs ~workers ~cache_spec @@ fun cache ->
        with_corpus corpus_spec @@ fun corpus ->
        if bad_gen_size ~programs ~ops ~threads then 2
        else if mutate_pct < 0 || mutate_pct > 100 || round < 1 then begin
          Printf.eprintf
            "--mutate-pct must be in [0, 100] and --round positive\n";
          2
        end
        else begin
          with_sinks ?json ?ndjson:findings ?coverage ?progress ~total:programs
          @@ fun sinks ->
          let corpus_plan =
            Option.map
              (fun c ->
                Corpus.plan ~mutate_pct ~round (Corpus.load c))
              corpus
          in
          let cfg =
            {
              Fuzz.c_programs = programs;
              c_seed = Int64.of_int seed;
              c_jobs = jobs;
              c_gen =
                {
                  Fuzz.default_gen_cfg with
                  Fuzz.g_threads = threads;
                  g_ops = ops;
                  g_profile = profile;
                };
              c_mutation = mutation;
              c_corpus = corpus_plan;
            }
          in
          let quiet =
            json = Some "-" || findings = Some "-" || coverage = Some "-"
            || progress = Some "-"
          in
          let metrics = if json <> None then Metrics.create () else Metrics.null in
          let profiler = Profile.create () in
          if not quiet then
            Printf.printf
              "fuzzing %d programs (profile %s, <=%d threads, <=%d ops%s%s%s)%s\n"
              programs (Progir.profile_name profile) threads ops
              ", certifying all"
              (match mutation with
              | None -> ""
              | Some m -> ", mutant " ^ Execution.mutation_name m)
              (match corpus_plan with
              | None -> ""
              | Some pl ->
                Printf.sprintf ", corpus %d entries"
                  (List.length pl.Corpus.pl_entries))
              (placement ~sep:" on" ~workers ~cache_spec ~jobs);
          campaign ~profile:profiler ~metrics ~progress:sinks.progress ~jobs
            ~workers ?cache
            (Svc.fuzz_instance ~coverage:(coverage <> None) cfg)
          @@ fun report svc_stats ->
          emit_coverage sinks report.Fuzz.r_coverage;
          (* persist the campaign's admissions; store is first-wins, so a
             digest already on disk (from a prior campaign) is skipped *)
          (match (corpus, report.Fuzz.r_corpus) with
          | Some c, Some cs ->
            let stored =
              List.fold_left
                (fun n e -> if Corpus.store c e then n + 1 else n)
                0 cs.Fuzz.k_admitted
            in
            if not quiet then
              Printf.printf "corpus: %d new entr%s stored under %s\n" stored
                (if stored = 1 then "y" else "ies")
                (Corpus.dir c)
          | _ -> ());
          if not quiet then begin
            Format.printf "%a@." Fuzz.pp_report report;
            let rate = Profile.rate profiler "fuzz_execute" in
            if not (Float.is_nan rate) then
              Printf.printf "throughput: %.0f programs/sec (execution phase)\n"
                rate
          end;
          Option.iter
            (fun oc ->
              output_ndjson oc
                (List.map Fuzz.finding_to_json report.Fuzz.r_findings))
            sinks.ndjson;
          (match sinks.json with
          | None -> ()
          | Some oc ->
            write_report oc
              [
                ("schema", Jsonx.String "c11fuzz-v1");
                ("programs", Jsonx.Int programs);
                ("seed", Jsonx.Int seed);
                ("jobs", Jsonx.Int jobs);
                ("gen_profile", Jsonx.String (Progir.profile_name profile));
                ( "mutant",
                  match mutation with
                  | None -> Jsonx.Null
                  | Some m -> Jsonx.String (Execution.mutation_name m) );
                ("report", Fuzz.report_to_json report);
                ("metrics", Metrics.to_json metrics);
                ("profile", Profile.to_json profiler);
              ]
              svc_stats);
          if report.Fuzz.r_findings <> [] then 1 else 0
        end)
  in
  let term =
    Term.(
      const run $ programs_arg $ ops_arg $ threads_arg $ fuzz_profile_arg
      $ seed_arg $ jobs_arg $ findings_arg $ json_arg
      $ mutant_arg $ coverage_arg $ progress_arg $ workers_arg $ cache_arg
      $ corpus_arg $ mutate_pct_arg $ round_arg)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential-test the engine against the axiomatic certifier on \
          random programs")
    term

(* ------------------------------------------------------------------ *)
(* `c11test sweep' — run a memory-order sweep family: every cell of a
   parameterised litmus pattern's memory-order matrix through engine +
   certifier + lint, rendered as a verdict matrix. *)

let sweep_cmd =
  let family_arg =
    let doc =
      "Sweep family to run: seqlock, rwlock, dekker or ring-buffer (see \
       `c11test list')."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FAMILY" ~doc)
  in
  let iters_arg =
    let doc = "Executions per matrix cell." in
    Arg.(value & opt int 50 & info [ "n"; "iters" ] ~docv:"N" ~doc)
  in
  let ndjson_arg =
    let doc =
      "Write the c11sweep-v1 artifact (one campaign record plus one \
       record per cell) to $(docv); `-' means stdout (and suppresses the \
       rendered matrix).  `c11test report' renders it back."
    in
    Arg.(value & opt (some string) None & info [ "ndjson" ] ~docv:"FILE" ~doc)
  in
  let run family_name iters seed jobs json ndjson progress workers cache_spec
      =
    match Sweep.find family_name with
    | None ->
      Printf.eprintf "unknown sweep family %S; try `c11test list'\n"
        family_name;
      2
    | Some family ->
      with_campaign_opts ~jobs ~workers ~cache_spec @@ fun cache ->
      if iters < 1 then begin
        Printf.eprintf "--iters must be positive (got %d)\n" iters;
        2
      end
      else begin
        let total = Sweep.total ~family ~iters in
        with_sinks ?json ?ndjson ?progress ~total @@ fun sinks ->
        let quiet =
          json = Some "-" || ndjson = Some "-" || progress = Some "-"
        in
        let seed64 = Int64.of_int seed in
        if not quiet then
          Printf.printf "sweeping %s: %d cells x %d executions%s\n"
            family.Sweep.fa_name
            (List.length family.Sweep.fa_cells)
            iters
            (placement ~sep:" on" ~workers ~cache_spec ~jobs);
        campaign ~progress:sinks.progress ~jobs ~workers ?cache
          (Svc.sweep_instance family ~iters ~seed:seed64)
        @@ fun result svc_stats ->
        if not quiet then
          Format.printf "%a@." Sweep.pp_matrix result;
        Option.iter
          (fun oc -> output_ndjson oc (Sweep.result_to_ndjson result))
          sinks.ndjson;
        (match sinks.json with
        | None -> ()
        | Some oc ->
          write_report oc
            [
              ("schema", Jsonx.String "c11sweep-campaign-v1");
              ("family", Jsonx.String family.Sweep.fa_name);
              ("iters", Jsonx.Int iters);
              ("seed", Jsonx.Int seed);
              ("jobs", Jsonx.Int jobs);
              ("result", Sweep.result_to_json result);
            ]
            svc_stats);
        Sweep.exit_code result
      end
  in
  let term =
    Term.(
      const run $ family_arg $ iters_arg $ seed_arg $ jobs_arg $ json_arg
      $ ndjson_arg $ progress_arg $ workers_arg $ cache_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a memory-order sweep family: every cell of a parameterised \
          litmus pattern's memory-order matrix through engine, certifier \
          and lint, rendered as a verdict matrix")
    term

(* ------------------------------------------------------------------ *)
(* `c11test lint' — run the static analyzer over named litmus/workload
   models and/or generated fuzz programs, no engine executions at all. *)

let lint_cmd =
  let targets_arg =
    let doc =
      "Named target(s) to lint: litmus-catalog or workload-model names \
       (see `c11test list').  Default: the whole static model catalog."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"TARGET" ~doc)
  in
  let programs_arg =
    let doc =
      "Additionally lint $(docv) generated fuzz programs (same generator \
       and per-index seed derivation as `c11test fuzz')."
    in
    Arg.(value & opt int 0 & info [ "programs" ] ~docv:"N" ~doc)
  in
  let ops_arg =
    let doc = "Maximum operations per generated thread body." in
    Arg.(value & opt int 8 & info [ "ops" ] ~docv:"N" ~doc)
  in
  let threads_arg =
    let doc = "Maximum spawned threads per generated program." in
    Arg.(value & opt int 3 & info [ "threads" ] ~docv:"N" ~doc)
  in
  let lint_profile_arg =
    let doc =
      "Generation profile for $(b,--programs): mixed, sc-heavy, rmw-chain \
       or mixed-atomicity."
    in
    Arg.(value & opt string "mixed" & info [ "profile" ] ~docv:"PROFILE" ~doc)
  in
  let ndjson_arg =
    let doc =
      "Write the full analysis as c11lint-v1 NDJSON (one campaign header, \
       one record per target, index order) to $(docv); `-' means stdout \
       (and suppresses the human-readable report).  Byte-identical for \
       every $(b,--jobs) and $(b,--workers) value."
    in
    Arg.(value & opt (some string) None & info [ "ndjson" ] ~docv:"FILE" ~doc)
  in
  let run targets programs ops threads profile_name seed jobs verbose json
      ndjson progress workers cache_spec =
    match Progir.profile_of_string profile_name with
    | None ->
      Printf.eprintf
        "unknown fuzz profile %S; try mixed, sc-heavy, rmw-chain or \
         mixed-atomicity\n"
        profile_name;
      2
    | Some profile -> (
      match List.find_opt (fun t -> Svc.lint_resolve t = None) targets with
      | Some t ->
        Printf.eprintf "unknown lint target %S; try `c11test list'\n" t;
        2
      | None ->
        if bad_gen_size ~programs ~ops ~threads then 2
        else begin
          with_campaign_opts ~jobs ~workers ~cache_spec @@ fun cache ->
          let targets =
            if targets <> [] then targets
            else List.map fst Lmodel.all @ List.map fst Wmodel.all
          in
          let total = List.length targets + programs in
          with_sinks ?json ?ndjson ?progress ~total @@ fun sinks ->
          let gen =
            {
              Fuzz.default_gen_cfg with
              Fuzz.g_threads = threads;
              g_ops = ops;
              g_profile = profile;
            }
          in
          let seed64 = Int64.of_int seed in
          let quiet =
            json = Some "-" || ndjson = Some "-" || progress = Some "-"
          in
          if not quiet then
            Printf.printf
              "linting %d named target(s) and %d generated program(s)%s\n"
              (List.length targets) programs
              (placement ~sep:" on" ~workers ~cache_spec ~jobs);
          campaign ~progress:sinks.progress ~jobs ~workers ?cache
            (Svc.lint_instance ~targets ~programs ~seed:seed64 ~gen)
          @@ fun results svc_stats ->
          Option.iter
            (fun oc -> output_ndjson oc (Lint.campaign_to_ndjson results))
            sinks.ndjson;
          let unclean = List.filter (fun (_, r) -> not (Lint.clean r)) results in
          let racy =
            List.filter (fun (_, r) -> not r.Lint.res_race_free) results
          in
          let rule_counts =
            List.map
              (fun rule ->
                ( rule,
                  List.fold_left
                    (fun acc (_, r) ->
                      acc
                      + List.length
                          (List.filter
                             (fun h -> h.Lint.h_rule = rule)
                             r.Lint.res_hits))
                    0 results ))
              Lint.rule_names
          in
          if not quiet then begin
            List.iter
              (fun (_, r) ->
                if verbose then Format.printf "%a@." Lint.pp_result r
                else if not (Lint.clean r) then
                  Printf.printf "  %-28s %s%s\n"
                    (if r.Lint.res_target = "" then "<program>"
                     else r.Lint.res_target)
                    (if r.Lint.res_race_free then "race-free"
                     else "race-potential")
                    (match List.length r.Lint.res_hits with
                    | 0 -> ""
                    | n -> Printf.sprintf ", %d lint hit(s)" n))
              results;
            Printf.printf
              "%d target(s): %d clean, %d race-potential, %d with lint hits\n"
              (List.length results)
              (List.length results - List.length unclean)
              (List.length racy)
              (List.length
                 (List.filter (fun (_, r) -> r.Lint.res_hits <> []) results));
            List.iter
              (fun (rule, n) ->
                if n > 0 then Printf.printf "  %-24s %d\n" rule n)
              rule_counts
          end;
          (match sinks.json with
          | None -> ()
          | Some oc ->
            write_report oc
              [
                ("schema", Jsonx.String "c11lint-report-v1");
                ("targets", Jsonx.Int (List.length results));
                ("programs", Jsonx.Int programs);
                ("seed", Jsonx.Int seed);
                ("jobs", Jsonx.Int jobs);
                ("gen_profile", Jsonx.String (Progir.profile_name profile));
                ("clean", Jsonx.Int (List.length results - List.length unclean));
                ("race_potential", Jsonx.Int (List.length racy));
                ( "rule_hits",
                  Jsonx.Obj
                    (List.map (fun (r, n) -> (r, Jsonx.Int n)) rule_counts)
                );
                ( "results",
                  Jsonx.List
                    (List.map
                       (fun (i, r) -> Lint.result_to_json ~index:i r)
                       results) );
              ]
              svc_stats);
          if unclean <> [] then 1 else 0
        end)
  in
  let term =
    Term.(
      const run $ targets_arg $ programs_arg $ ops_arg $ threads_arg
      $ lint_profile_arg $ seed_arg $ jobs_arg $ verbose_arg $ json_arg
      $ ndjson_arg $ progress_arg $ workers_arg $ cache_arg)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze litmus/workload models and generated programs \
          for races and order hygiene")
    term

(* ------------------------------------------------------------------ *)
(* `c11test report' — read the NDJSON artifacts a campaign wrote
   (coverage, progress heartbeats, findings) back into one table. *)

let report_cmd =
  let files_arg =
    let doc =
      "NDJSON artifact(s) to render: c11cov-v1 coverage, c11progress-v1 \
       heartbeats, c11fuzz-finding-v1 findings, c11lint-v1 static \
       analyses, c11sweep-v1 memory-order sweep matrices and \
       c11corpus-v1 corpus entries, in any mix and order; `-' means \
       stdin.  Missing files, files with no record and malformed lines \
       are usage errors (exit 2)."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc)
  in
  (* the non-blank lines with their physical line numbers, so an error
     names the line an editor shows *)
  let read_lines path =
    let read_channel ic =
      let lines = ref [] and n = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr n;
           if String.trim line <> "" then lines := (!n, line) :: !lines
         done
       with End_of_file -> ());
      List.rev !lines
    in
    if path = "-" then Ok (read_channel stdin)
    else
      match open_in path with
      | ic ->
        Ok
          (Fun.protect
             ~finally:(fun () -> close_in ic)
             (fun () -> read_channel ic))
      | exception Sys_error msg -> Error msg
  in
  let schema_of = Jsonx.req "record" Jsonx.string "schema" in
  let pp_int_row label n = Printf.printf "  %-22s %d\n" label n in
  let schemas =
    [
      "c11cov-v1";
      "c11progress-v1";
      "c11fuzz-finding-v1";
      "c11lint-v1";
      "c11sweep-v1";
      "c11corpus-v1";
    ]
  in
  (* Decode a section of located records at once; on failure, name the
     record that first makes a prefix of the section fail with the same
     message (the decoders read records in order and stop at the first
     bad one), or the last record for a whole-section complaint. *)
  let decode f (docs : (string * int * Jsonx.t) list) =
    let jsons = List.map (fun (_, _, j) -> j) docs in
    match f jsons with
    | Ok v -> Ok v
    | Error msg ->
      let fails p =
        match f (List.filteri (fun i _ -> i < p) jsons) with
        | Error m -> m = msg
        | Ok _ -> false
      in
      let lo = ref 1 and hi = ref (List.length docs) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if fails mid then hi := mid else lo := mid + 1
      done;
      let path, line, _ = List.nth docs (!hi - 1) in
      Error (path, line, msg)
  in
  let run files =
    (* parse every line of every file first: a malformed artifact is
       rejected whole (exit 2) rather than half-rendered *)
    let rec load acc = function
      | [] -> Ok (List.rev acc)
      | path :: rest -> (
        match read_lines path with
        | Error msg -> Error (path, 0, msg)
        | Ok [] -> Error (path, 0, "no records")
        | Ok lines -> (
          let rec parse_all acc' = function
            | [] -> Ok acc'
            | (n, line) :: more -> (
              match Jsonx.parse line with
              | Error e -> Error (path, n, e)
              | Ok j -> (
                match schema_of j with
                | Error e -> Error (path, n, e)
                | Ok schema -> parse_all ((schema, (path, n, j)) :: acc') more))
          in
          (* parse_all's result is file-reversed, so plain concatenation
             keeps acc as the reverse of all files seen so far and the
             final List.rev restores file-and-line order *)
          match parse_all [] lines with
          | Error e -> Error e
          | Ok docs -> load (docs @ acc) rest))
    in
    let of_schema docs s =
      List.filter_map (fun (sch, d) -> if sch = s then Some d else None) docs
    in
    (* memory-order sweep matrices — pooled lines may hold several
       campaigns (e.g. `report *.ndjson`); split on the campaign records
       so each renders its own matrix.  A group that does not start with
       a campaign record (truncated artifact) still fails
       result_of_ndjson and exits 2. *)
    let sweep_campaigns docs =
      let is_campaign (_, _, j) =
        Jsonx.member "record" j = Some (Jsonx.String "campaign")
      in
      List.fold_left
        (fun groups d ->
          match groups with
          | group :: rest when not (is_campaign d) -> (d :: group) :: rest
          | _ -> [ d ] :: groups)
        [] docs
      |> List.rev_map List.rev
    in
    let ( let* ) = Result.bind in
    (* formats read a record at a time: an error names the record's line *)
    let each f =
      Jsonx.map_result (fun (path, line, j) ->
          Result.map_error (fun msg -> (path, line, msg)) (f j))
    in
    (* every section decoded before anything is printed *)
    let decoded =
      let* docs = load [] files in
      let* () =
        match List.find_opt (fun (sch, _) -> not (List.mem sch schemas)) docs with
        | Some (sch, (path, line, _)) ->
          Error (path, line, Printf.sprintf "unknown schema %S" sch)
        | None -> Ok ()
      in
      let section = of_schema docs in
      let* cov =
        match section "c11cov-v1" with
        | [] -> Ok None
        | ds -> Result.map Option.some (decode Cov.summary_of_ndjson ds)
      in
      let* lint =
        match section "c11lint-v1" with
        | [] -> Ok None
        | ds -> Result.map Option.some (decode Lint.campaign_of_ndjson ds)
      in
      let* sweeps =
        Jsonx.map_result (decode Sweep.result_of_ndjson)
          (sweep_campaigns (section "c11sweep-v1"))
      in
      let* corpus = each Corpus.entry_of_json (section "c11corpus-v1") in
      let* progress = each Progress.record_of_json (section "c11progress-v1") in
      let* findings =
        each Fuzz.finding_record_of_json (section "c11fuzz-finding-v1")
      in
      Ok (cov, progress, findings, lint, sweeps, corpus)
    in
    match decoded with
    | Error (path, 0, msg) ->
      (* the file itself could not be read, or holds no record *)
      Printf.eprintf "report: %s: %s\n" path msg;
      2
    | Error (path, line, msg) ->
      Printf.eprintf "report: %s: line %d: %s\n" path line msg;
      2
    | Ok (cov, progress, findings, lint, sweeps, corpus) -> (
        (* coverage *)
        (match cov with
        | None -> ()
        | Some c ->
            print_endline "coverage (c11cov-v1):";
            pp_int_row "executions" c.Cov.s_executions;
            pp_int_row "trace events" c.Cov.s_events;
            pp_int_row "distinct shapes" (Cov.distinct_shapes c);
            pp_int_row "distinct race sites" (List.length c.Cov.s_races);
            pp_int_row "distinct violations" (List.length c.Cov.s_violations);
            if c.Cov.s_mo <> [] then begin
              print_string "  memory orders:        ";
              List.iter
                (fun (k, n) -> Printf.printf "%s=%d " k n)
                c.Cov.s_mo;
              print_newline ()
            end;
            let top = List.filteri (fun i _ -> i < 5) c.Cov.s_shapes in
            if top <> [] then begin
              print_endline "  top shapes (key, count, first seen):";
              List.iter
                (fun e ->
                  Printf.printf "    %s  %6d  @%d\n" e.Cov.e_key e.Cov.e_count
                    e.Cov.e_first)
                top
            end);
        (* progress *)
        (match progress with
        | [] -> ()
        | records ->
          let high_water =
            List.fold_left
              (fun acc r -> max acc r.Progress.gc_top_heap_words)
              0 records
          in
          print_endline "progress (c11progress-v1):";
          pp_int_row "heartbeats" (List.length records);
          (match List.find_opt (fun r -> r.Progress.final) records with
          | None -> print_endline "  (no final record)"
          | Some r ->
            pp_int_row "executions done" r.Progress.done_;
            pp_int_row "novel shapes" r.Progress.novel;
            pp_int_row "findings" r.Progress.findings;
            Printf.printf "  %-22s %.0f\n" "exec/s" r.Progress.exec_per_s);
          pp_int_row "gc high-water words" high_water);
        (* findings *)
        (match findings with
        | [] -> ()
        | records ->
          Printf.printf "findings (c11fuzz-finding-v1): %d\n"
            (List.length records);
          List.iter
            (fun f ->
              Printf.printf "  program %d  %s  (%d -> %d ops)\n" f.Fuzz.fr_index
                f.Fuzz.fr_key f.Fuzz.fr_ops_before f.Fuzz.fr_ops_after)
            records);
        (* static analysis *)
        (match lint with
        | None -> ()
        | Some results ->
            print_endline "static analysis (c11lint-v1):";
            pp_int_row "targets" (List.length results);
            let count p = List.length (List.filter p results) in
            pp_int_row "clean" (count (fun (_, r) -> Lint.clean r));
            pp_int_row "race-potential"
              (count (fun (_, r) -> not r.Lint.res_race_free));
            let verdicts =
              List.concat_map (fun (_, r) -> r.Lint.res_verdicts) results
            in
            let vcount p = List.length (List.filter (fun (_, v) -> p v) verdicts) in
            Printf.printf
              "  verdicts:             race_free=%d protected=%d \
               potential_race=%d\n"
              (vcount (function Lint.Race_free -> true | _ -> false))
              (vcount (function Lint.Protected _ -> true | _ -> false))
              (vcount (function Lint.Potential_race _ -> true | _ -> false));
            List.iter
              (fun rule ->
                let n =
                  List.fold_left
                    (fun acc (_, r) ->
                      acc
                      + List.length
                          (List.filter
                             (fun h -> h.Lint.h_rule = rule)
                             r.Lint.res_hits))
                    0 results
                in
                if n > 0 then Printf.printf "  lint %-19s %d\n" rule n)
              Lint.rule_names);
        List.iter
          (fun r ->
              print_endline "sweep (c11sweep-v1):";
              Printf.printf "  %-22s %s\n" "family" r.Sweep.rs_family;
              pp_int_row "cells" (List.length r.Sweep.rs_cells);
              pp_int_row "iters per cell" r.Sweep.rs_iters;
              let count v =
                List.length
                  (List.filter
                     (fun c -> c.Sweep.cr_verdict = v)
                     r.Sweep.rs_cells)
              in
              Printf.printf
                "  verdicts:             clean=%d torn=%d racy=%d \
                 cert-rejected=%d\n"
                (count Sweep.V_clean) (count Sweep.V_torn)
                (count Sweep.V_racy)
                (count Sweep.V_cert_rejected);
              Format.printf "%a@." Sweep.pp_matrix r)
          sweeps;
        (* corpus entries *)
        (match corpus with
        | [] -> ()
        | entries ->
            print_endline "corpus (c11corpus-v1):";
            pp_int_row "entries" (List.length entries);
            let keys = List.concat_map (fun e -> e.Corpus.en_keys) entries in
            let with_prefix p =
              List.length
                (List.filter (fun k -> String.length k >= String.length p
                                       && String.sub k 0 (String.length p) = p)
                   keys)
            in
            Printf.printf
              "  novel keys:           shape=%d race=%d violation=%d\n"
              (with_prefix "shape:") (with_prefix "race:")
              (with_prefix "violation:");
            let ops =
              List.fold_left
                (fun acc e ->
                  acc
                  + Array.fold_left
                      (fun a t -> a + Array.length t)
                      0 e.Corpus.en_program.Progir.p_threads)
                0 entries
            in
            pp_int_row "total program ops" ops);
        0)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render coverage / progress / findings NDJSON artifacts as a \
          campaign summary")
    Term.(const run $ files_arg)

let list_cmd =
  let run () =
    print_endline "Workloads:";
    List.iter
      (fun (w : Registry.t) ->
        Printf.printf "  %-18s %s\n" w.Registry.name w.Registry.description)
      Registry.all;
    print_endline "\nLitmus tests:";
    List.iter
      (fun (t : Litmus.t) ->
        Printf.printf "  %-24s %s\n" t.Litmus.name t.Litmus.description)
      Litmus.catalog;
    print_endline "\nSweep families (c11test sweep):";
    List.iter
      (fun (f : Sweep.family) ->
        Printf.printf "  %-24s %s (%d cells: %s x %s)\n" f.Sweep.fa_name
          f.Sweep.fa_desc
          (List.length f.Sweep.fa_cells)
          f.Sweep.fa_row f.Sweep.fa_col)
      Sweep.families;
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List workloads, litmus tests and sweep families")
    Term.(const run $ const ())

let () =
  (* Hidden worker mode, intercepted before cmdliner: spawned only by the
     coordinator, its stdin/stdout carry the c11svc-v1 protocol and must
     not be touched by CLI parsing or help output. *)
  if Array.length Sys.argv >= 2 && Sys.argv.(1) = "worker" then
    exit
      (match input_line stdin with
      | line -> Svc.worker_main line
      | exception End_of_file ->
        prerr_endline "c11test worker: no spec on stdin";
        2);
  let doc = "C11Tester reproduction: a race detector for C/C++ atomics" in
  let info = Cmd.info "c11test" ~version:"1.0.0" ~doc in
  (* cmdliner's own exit codes put a malformed command line at 124; the
     contract here is 2 for every usage error *)
  exit
    (match
       Cmd.eval_value
         (Cmd.group info
            [
              run_cmd; litmus_cmd; fuzz_cmd; sweep_cmd; lint_cmd; report_cmd;
              list_cmd;
            ])
     with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
