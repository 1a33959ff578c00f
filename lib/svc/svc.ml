(* C11svc — the campaign runner: one instance per surface, run in process
   or on the multi-process fabric.  See svc.mli for the protocol overview.
   Design constraints, in order:

   1. Determinism: the merged observables of a --workers N campaign are
      byte-identical to -j 1.  A surface's instance has one shard runner
      and one merge; domains, worker processes and cache replays all feed
      the same closure-free shard values (exact under [Marshal]) to that
      merge, which folds them with the {!Par.Merge} algebra.
   2. No partial-result ambiguity: a worker's results count only after
      its [shard] record arrived intact — its payload's MD5 checked
      before a byte of it is unmarshalled; a worker that dies earlier
      contributes nothing, its range is re-claimed once, and a second
      death is recorded as a failed range ({!Par.Merge.check_ranges}
      order) in an otherwise deterministic degraded merge.
   3. Replayability: a shard is a pure function of (campaign spec,
      shard coordinates, code version), so the same bytes the wire
      carries are what the content-addressed cache stores. *)

type campaign =
  | Run_c of {
      workload : string;
      buggy : bool;
      scale : int;
      config : Engine.config;
      iters : int;
    }
  | Litmus_c of { name : string; config : Engine.config; iters : int }
  | Fuzz_c of {
      cfg : Fuzz.campaign_cfg;
      coverage : bool;
      range : (int * int) option;
          (* [Some (lo, hi)]: probe global program indices [lo, hi) only —
             how a corpus campaign's fabric run scopes one admission round.
             [None] is the whole campaign. *)
    }
  | Sweep_c of { sw_family : string; sw_iters : int; sw_seed : int64 }
  | Lint_c of {
      lt_targets : string list;
      lt_programs : int;
      lt_seed : int64;
      lt_gen : Fuzz.gen_cfg;
    }

type merged =
  | M_run of Tester.summary
  | M_litmus of Tester.summary * (Litmus.outcome * int) list
  | M_fuzz of Fuzz.report
  | M_sweep of Sweep.result
  | M_lint of (int * Lint.result) list

type stats = {
  st_workers : int;
  st_spawned : int;
  st_failed : int list;
  st_executions_run : int;
  st_cache : Cache.stats option;
}

let stats_to_json s =
  Jsonx.Obj
    ([
       ("workers", Jsonx.Int s.st_workers);
       ("spawned", Jsonx.Int s.st_spawned);
       ( "failed_ranges",
         Jsonx.List (List.map (fun w -> Jsonx.Int w) s.st_failed) );
       ("executions_run", Jsonx.Int s.st_executions_run);
     ]
    @
    match s.st_cache with
    | None -> []
    | Some c -> [ ("cache", Cache.stats_to_json c) ])

(* ------------------------------------------------------------------ *)
(* Base64 (standard alphabet, padded): the line-oriented wire protocol
   and the spec hand-off need binary-safe single-line payloads, and no
   third-party codec is available in the build environment. *)

let b64_chars =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let b64_encode s =
  let n = String.length s in
  let out = Buffer.create ((n + 2) / 3 * 4) in
  let byte i = Char.code s.[i] in
  let emit v = Buffer.add_char out b64_chars.[v land 63] in
  let i = ref 0 in
  while !i + 2 < n do
    let v = (byte !i lsl 16) lor (byte (!i + 1) lsl 8) lor byte (!i + 2) in
    emit (v lsr 18);
    emit (v lsr 12);
    emit (v lsr 6);
    emit v;
    i := !i + 3
  done;
  (match n - !i with
  | 1 ->
    let v = byte !i lsl 16 in
    emit (v lsr 18);
    emit (v lsr 12);
    Buffer.add_string out "=="
  | 2 ->
    let v = (byte !i lsl 16) lor (byte (!i + 1) lsl 8) in
    emit (v lsr 18);
    emit (v lsr 12);
    emit (v lsr 6);
    Buffer.add_char out '='
  | _ -> ());
  Buffer.contents out

let b64_value = lazy (
  let t = Array.make 256 (-1) in
  String.iteri (fun i c -> t.(Char.code c) <- i) b64_chars;
  t)

let b64_decode s =
  let t = Lazy.force b64_value in
  let out = Buffer.create (String.length s * 3 / 4) in
  let acc = ref 0 and bits = ref 0 in
  String.iter
    (fun c ->
      if c <> '=' && c <> '\n' && c <> '\r' then begin
        let v = t.(Char.code c) in
        if v < 0 then failwith "b64_decode: invalid character";
        acc := (!acc lsl 6) lor v;
        bits := !bits + 6;
        if !bits >= 8 then begin
          bits := !bits - 8;
          Buffer.add_char out (Char.chr ((!acc lsr !bits) land 0xff))
        end
      end)
    s;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Code-version salt: the digest of the worker binary itself.  A rebuilt
   engine gets a fresh cache namespace, which both keeps results honest
   and makes the Marshal round-trip safe. *)
let exe_digests : (string, string) Hashtbl.t = Hashtbl.create 4

let exe_digest exe =
  match Hashtbl.find_opt exe_digests exe with
  | Some d -> d
  | None ->
    let d = Digest.to_hex (Digest.file exe) in
    Hashtbl.add exe_digests exe d;
    d

(* ------------------------------------------------------------------ *)
(* Wire records. *)

let schema = "c11svc-v1"

(* A worker ships back [(kind, shards)]: the coordinator checks the kind
   before it reads the shards, so a payload of another campaign kind
   (possible only through a cache entry written for other data) is an
   error, not misread bytes. *)
type 'p payload = string * 'p list

(* The full job description a worker receives on stdin. *)
type spec = {
  sp_campaign : campaign;
  sp_worker : int;
  sp_workers : int;
  sp_jobs : int;
  sp_progress : bool;
  sp_attempt : int;
  sp_kill : (int * int) option;
}

(* Marshalled bytes cross the pipe as base64 with their MD5, and are
   unmarshalled only if the digest matches: [Marshal.from_string] trusts
   its input, so a corrupted payload could otherwise decode into wrong
   values, or crash the reader. *)
let md5_hex bytes = Digest.to_hex (Digest.string bytes)

let checked_bytes ~md5 b64 =
  match b64_decode b64 with
  | bytes when md5_hex bytes = md5 -> Some bytes
  | _ | (exception Failure _) -> None

(* The spec line: [<md5 hex> <base64>]. *)
let encode_spec (s : spec) =
  let bytes = Marshal.to_string s [] in
  md5_hex bytes ^ " " ^ b64_encode bytes

let decode_spec line : (spec, string) result =
  match String.split_on_char ' ' (String.trim line) with
  | [ md5; b64 ] -> (
    match checked_bytes ~md5 b64 with
    | None -> Error "spec digest mismatch"
    | Some bytes -> (
      match (Marshal.from_string bytes 0 : spec) with
      | s -> Ok s
      | exception e -> Error (Printexc.to_string e)))
  | _ -> Error "spec line is not <md5> <base64>"

let emit_json oc j =
  output_string oc (Jsonx.to_string j);
  output_char oc '\n';
  flush oc

let emit_record ~worker kind fields =
  emit_json stdout
    (Jsonx.Obj
       ([
          ("schema", Jsonx.String schema);
          ("kind", Jsonx.String kind);
          ("worker", Jsonx.Int worker);
        ]
       @ fields))

(* ------------------------------------------------------------------ *)
(* Lint campaigns: one work item per named target (resolved against the
   static litmus/workload model catalogs), then one per generated
   program, each on its own {!Rng.substream} of the campaign seed — the
   same per-index derivation as a fuzz campaign, so index [i] analyzes
   the same program no matter which worker or domain lands on it. *)

let lint_resolve name =
  match Lmodel.find name with Some p -> Some p | None -> Wmodel.find name

let lint_item ~targets ~gen ~seed i =
  let nt = Array.length targets in
  if i < nt then
    let name = targets.(i) in
    match lint_resolve name with
    | Some p -> Lint.analyze ~label:name p
    | None -> invalid_arg (Printf.sprintf "unknown lint target %S" name)
  else
    let k = i - nt in
    let p = Fuzz.generate ~cfg:gen ~seed:(Rng.substream seed ~index:k) in
    Lint.analyze ~label:(Printf.sprintf "gen:%d" k) p

let lint_shard ~progress ~targets ~gen ~seed ~total ~start ~stride =
  let rec go i acc =
    if i >= total then List.rev acc
    else begin
      let r = lint_item ~targets ~gen ~seed i in
      Progress.tick progress ~novel:false ~finding:(not r.Lint.res_race_free);
      go (i + stride) ((i, r) :: acc)
    end
  in
  go start []

(* ------------------------------------------------------------------ *)
(* Surface instances.

   Each surface (run, litmus, fuzz, sweep, lint) is defined once, as an
   instance: the fan-out it runs ([part]: the closure-free spec a worker
   is handed, which is also its cache identity, index-space size and
   shard runner)
   and the drive that merges the shards of its fan-outs into the
   surface's result together with the campaign's exact final progress
   counts.  A drive is handed either the domain fan-out ([domains], in
   process) or the process fan-out ([fan_out], on the fabric), so both
   ways of running a campaign share one drive-and-merge path; [instance]
   is the only place that tells the campaign kinds apart. *)

(* The [final] progress record's counts, and a worker's latest heartbeat. *)
type counts = {
  done_ : int;
  novel : int;
  findings : int;
  certified : int;
  retired : int;
}

let no_counts =
  { done_ = 0; novel = 0; findings = 0; certified = 0; retired = 0 }

let add_counts a b =
  {
    done_ = a.done_ + b.done_;
    novel = a.novel + b.novel;
    findings = a.findings + b.findings;
    certified = a.certified + b.certified;
    retired = a.retired + b.retired;
  }

let observe progress c =
  Progress.observe progress ~done_:c.done_ ~novel:c.novel ~findings:c.findings
    ~certified_ops:c.certified ~retired_prefix_ops:c.retired

(* A driven campaign's result.  Heartbeats lag the merge; the final
   record carries the exact merged counts, so it is identical however
   the campaign ran. *)
let finished progress (r, c) =
  if Progress.enabled progress then begin
    observe progress c;
    Progress.finish ~novel:c.novel ~findings:c.findings progress
  end;
  r

let count p l = List.length (List.filter p l)
let shapes = function None -> 0 | Some c -> Cov.distinct_shapes c

type 'p part = {
  spec : campaign;
  kind : string;
  total : int;
  shard :
    profile:Profile.t ->
    metrics:Metrics.t ->
    progress:Progress.t ->
    start:int ->
    stride:int ->
    'p;
      (* a domain's share; fabric workers pass the null handles *)
}

type 'r instance =
  | Instance : {
      part : 'p part;
      drive :
        ('p part -> ('p list, string) result) -> ('r * counts, string) result;
          (* the whole campaign, given a fan-out that runs one part *)
    }
      -> 'r instance

let part ~spec ~kind ~total shard = { spec; kind; total; shard }

(* The domain fan-out, in process and inside a worker: domain [d] of
   [jobs] takes the sub-progression [start + d*stride] by [jobs*stride],
   so worker [w] of [W] nests its domains under the process leapfrog. *)
let domains ?(start = 0) ?(stride = 1) ?profile ?metrics ~progress ~jobs part
    =
  Par.domains ?profile ?metrics ~jobs ~total:part.total
    (fun ~worker ~jobs ~profile ~metrics ->
      part.shard ~profile ~metrics ~progress
        ~start:(start + (worker * stride))
        ~stride:(jobs * stride))

(* By default a campaign is one fan-out over its part. *)
let make ?drive part merge =
  let drive =
    Option.value drive ~default:(fun fan -> Result.map merge (fan part))
  in
  Instance { part; drive }

let map f (Instance i) =
  Instance
    {
      part = i.part;
      drive = (fun fan -> Result.map (fun (r, c) -> (f r, c)) (i.drive fan));
    }

let tester_instance ~spec ~kind ~config ~iters body project =
  make
    (part ~spec ~kind ~total:iters
       (fun ~profile ~metrics ~progress ~start ~stride ->
         Tester.run_shard ~profile ~metrics ~progress ~config ~total:iters
           ~start ~stride body))
    (fun shards ->
      let ((s, _) as r) = Tester.merge_shard_list shards in
      ( project r,
        {
          done_ = s.Tester.executions;
          novel = shapes s.Tester.coverage;
          findings =
            List.length s.Tester.distinct_races
            + List.length s.Tester.distinct_cert_violations;
          certified = s.Tester.certified_ops;
          retired = s.Tester.retired_prefix_ops;
        } ))

let run_instance (w : Registry.t) ~buggy ~scale ~config ~iters =
  let variant = if buggy then Variant.Buggy else Variant.Correct in
  tester_instance ~kind:"run" ~config ~iters
    ~spec:(Run_c { workload = w.Registry.name; buggy; scale; config; iters })
    (w.Registry.run ~variant ~scale)
    fst

let litmus_instance (t : Litmus.t) ~config ~iters =
  tester_instance ~kind:"litmus" ~config ~iters
    ~spec:(Litmus_c { name = t.Litmus.name; config; iters })
    t.Litmus.run_once Fun.id

let fuzz_part ~coverage ~range cfg =
  let lo, hi =
    match range with Some r -> r | None -> (0, cfg.Fuzz.c_programs)
  in
  part ~spec:(Fuzz_c { cfg; coverage; range }) ~kind:"fuzz" ~total:(hi - lo)
    (fun ~profile ~metrics ~progress ~start ~stride ->
      Fuzz.campaign_shard ~coverage ~progress ~profile ~metrics ~stop:hi ~cfg
        ~start:(lo + start) ~stride ())

let with_fuzz_counts (r : Fuzz.report) =
  ( r,
    {
      done_ = r.Fuzz.r_programs;
      novel = shapes r.Fuzz.r_coverage;
      findings = List.length r.Fuzz.r_findings;
      certified = r.Fuzz.r_certified_ops;
      retired = r.Fuzz.r_retired_prefix_ops;
    } )

let fuzz_ranged ~coverage ~range cfg =
  let part = fuzz_part ~coverage ~range cfg in
  let merge shards = with_fuzz_counts (Fuzz.merge_shard_list cfg shards) in
  if range <> None then make part merge
  else
    (* A corpus campaign fans out once per admission round, each round a
       ranged campaign of its own (corpus novelty forces coverage on).  A
       zero-program one has no rounds, so it makes the plain campaign's
       one empty fan-out instead, which still reports worker and cache
       statistics. *)
    let drive fan =
      if cfg.Fuzz.c_corpus = None || cfg.Fuzz.c_programs = 0 then
        Result.map merge (fan part)
      else
        Fuzz.run_rounds cfg ~wave:(fun ~cfg ~lo ~hi ->
            fan (fuzz_part ~coverage:true ~range:(Some (lo, hi)) cfg))
        |> Result.map with_fuzz_counts
    in
    make part merge ~drive

let fuzz_instance ~coverage cfg = fuzz_ranged ~coverage ~range:None cfg

let sweep_instance (family : Sweep.family) ~iters ~seed =
  let sw_family = family.Sweep.fa_name in
  make
    (part ~kind:"sweep"
       ~spec:(Sweep_c { sw_family; sw_iters = iters; sw_seed = seed })
       ~total:(Sweep.total ~family ~iters)
       (fun ~profile:_ ~metrics:_ ~progress ~start ~stride ->
         Sweep.run_shard ~progress ~family ~iters ~seed ~start ~stride ()))
    (fun shards ->
      let r = Sweep.merge ~family ~iters ~seed shards in
      let cells = r.Sweep.rs_cells in
      ( r,
        {
          no_counts with
          done_ =
            List.fold_left
              (fun a c -> a + c.Sweep.cr_stats.Sweep.st_execs)
              0 cells;
          findings =
            count (fun c -> c.Sweep.cr_verdict = Sweep.V_cert_rejected) cells;
        } ))

let lint_instance ~targets ~programs ~seed ~gen =
  let tarr = Array.of_list targets in
  let total = Array.length tarr + programs in
  let spec =
    Lint_c
      {
        lt_targets = targets;
        lt_programs = programs;
        lt_seed = seed;
        lt_gen = gen;
      }
  in
  make
    (part ~spec ~kind:"lint" ~total
       (fun ~profile:_ ~metrics:_ ~progress ~start ~stride ->
         lint_shard ~progress ~targets:tarr ~gen ~seed ~total ~start ~stride))
    (fun shards ->
      (* every index is analyzed exactly once, in one shard, so the merge
         is the shards' results in ascending index order; a target named
         twice is analyzed, and reported, twice *)
      let results =
        List.sort (fun (i, _) (j, _) -> Int.compare i j) (List.concat shards)
      in
      ( results,
        {
          no_counts with
          done_ = List.length results;
          findings = count (fun (_, r) -> not r.Lint.res_race_free) results;
        } ))

let instance campaign =
  let find what lookup name =
    match lookup name with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "unknown %s %S" what name)
  in
  match campaign with
  | Run_c { workload; buggy; scale; config; iters } ->
    Result.map
      (fun w ->
        map (fun s -> M_run s) (run_instance w ~buggy ~scale ~config ~iters))
      (find "workload" Registry.find workload)
  | Litmus_c { name; config; iters } ->
    Result.map
      (fun t ->
        map
          (fun (s, hist) -> M_litmus (s, hist))
          (litmus_instance t ~config ~iters))
      (find "litmus test" Litmus.find name)
  | Fuzz_c { cfg; coverage; range } ->
    Ok (map (fun r -> M_fuzz r) (fuzz_ranged ~coverage ~range cfg))
  | Sweep_c { sw_family; sw_iters; sw_seed } ->
    Result.map
      (fun family ->
        map (fun r -> M_sweep r)
          (sweep_instance family ~iters:sw_iters ~seed:sw_seed))
      (find "sweep family" Sweep.find sw_family)
  | Lint_c { lt_targets; lt_programs; lt_seed; lt_gen } -> (
    match List.find_opt (fun t -> lint_resolve t = None) lt_targets with
    | Some t -> Error (Printf.sprintf "unknown lint target %S" t)
    | None ->
      Ok
        (map (fun r -> M_lint r)
           (lint_instance ~targets:lt_targets ~programs:lt_programs
              ~seed:lt_seed ~gen:lt_gen)))

(* The key covers the very spec a worker is handed, so no campaign field
   can be left out of it, and the spec fixes the size of the index space.
   [No_sharing] makes the bytes depend on the spec's value alone, not on
   which of its sub-values happen to be physically shared. *)
let cache_key ~exe ~workers ~jobs ~worker c =
  let key =
    ("c11svc-cache-key-v2", exe_digest exe, c, (worker, workers, jobs))
  in
  Digest.to_hex (Digest.string (Marshal.to_string key [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* Worker side. *)

let worker_main line =
  match decode_spec line with
  | Error msg ->
    Printf.eprintf "c11test worker: malformed spec: %s\n" msg;
    2
  | Ok spec -> (
    let w = spec.sp_worker and ws = spec.sp_workers in
    emit_record ~worker:w "hello" [ ("pid", Jsonx.Int (Unix.getpid ())) ];
    (* Test-only fault injection: die uncleanly after claiming the shard
       and before producing any result, like a crashed or killed worker. *)
    (match spec.sp_kill with
    | Some (victim, attempts) when victim = w && spec.sp_attempt <= attempts
      ->
      exit 70
    | _ -> ());
    match instance spec.sp_campaign with
    | Error msg ->
      Printf.eprintf "c11test worker: %s\n" msg;
      2
    | Ok (Instance i) ->
      let progress =
        if spec.sp_progress then
          Progress.create ~out:stdout ~interval_ns:250_000_000
            ~total:(Par.shard_size ~jobs:ws ~total:i.part.total ~worker:w)
        else Progress.null
      in
      let shards =
        domains ~progress ~start:w ~stride:ws ~jobs:spec.sp_jobs i.part
      in
      (* parting [final] heartbeat: the worker's exact cumulative counts,
         so the live aggregate catches up even on a fast shard *)
      Progress.finish progress;
      let payload : _ payload = (i.part.kind, shards) in
      let bytes = Marshal.to_string payload [] in
      emit_record ~worker:w "shard"
        [
          ("payload", Jsonx.String (b64_encode bytes));
          ("md5", Jsonx.String (md5_hex bytes));
        ];
      emit_record ~worker:w "done" [];
      0)

(* ------------------------------------------------------------------ *)
(* Coordinator side. *)

let locate_exe () =
  let self = Sys.executable_name in
  let base = Filename.basename self in
  if base = "c11test.exe" || base = "c11test" then Some self
  else
    let dir = Filename.dirname self in
    List.find_opt Sys.file_exists
      [
        Filename.concat dir "c11test.exe";
        Filename.concat (Filename.dirname dir) "bin/c11test.exe";
        "../bin/c11test.exe";
        "bin/c11test.exe";
        "_build/default/bin/c11test.exe";
      ]

type 'p wstate = {
  w_index : int;
  mutable w_pid : int;
  mutable w_fd : Unix.file_descr option;
  w_buf : Buffer.t;
  mutable w_payload : 'p payload option;
  mutable w_attempt : int;
  mutable w_counts : counts;  (* latest cumulative heartbeat *)
}

let spawn ~exe spec =
  let out_r, out_w = Unix.pipe () in
  let in_r, in_w = Unix.pipe () in
  Unix.set_close_on_exec out_r;
  Unix.set_close_on_exec in_w;
  let pid =
    Unix.create_process exe [| exe; "worker" |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  (* Ship the spec.  EPIPE here means the child is already dead (e.g. a
     bad binary); the read loop will see EOF and handle it as a crash. *)
  let line = encode_spec spec ^ "\n" in
  (try
     let n = String.length line in
     let written = ref 0 in
     while !written < n do
       written :=
         !written + Unix.write_substring in_w line !written (n - !written)
     done
   with Unix.Unix_error _ -> ());
  (try Unix.close in_w with Unix.Unix_error _ -> ());
  (pid, out_r)

let int_of j k = Option.value ~default:0 (Option.bind (Jsonx.member k j) Jsonx.to_int)

(* One protocol line from worker [st].  Stray non-JSON output is ignored
   (stderr is the diagnostics channel; stdout discipline is on us). *)
let handle_line st ~on_counts line =
  match Jsonx.parse line with
  | Error _ -> ()
  | Ok j -> (
    match Option.bind (Jsonx.member "schema" j) Jsonx.to_str with
    | Some s when s = schema -> (
      match Option.bind (Jsonx.member "kind" j) Jsonx.to_str with
      | Some "shard" -> (
        let field k = Option.bind (Jsonx.member k j) Jsonx.to_str in
        (* a missing, mismatched or undecodable payload is no payload: the
           worker's range is treated as a crash at EOF *)
        let drop reason =
          Printf.eprintf "c11test: worker %d: dropping shard record (%s)\n%!"
            st.w_index reason
        in
        match (field "payload", field "md5") with
        | Some b64, Some md5 -> (
          match checked_bytes ~md5 b64 with
          | None -> drop "payload digest mismatch"
          | Some bytes -> (
            match Marshal.from_string bytes 0 with
            | p -> st.w_payload <- Some p
            | exception e -> drop (Printexc.to_string e)))
        | _ -> drop "no payload or md5")
      | _ -> () (* hello / done: informational ack *))
    | Some "c11progress-v1" ->
      st.w_counts <-
        {
          done_ = int_of j "done";
          novel = int_of j "novel";
          findings = int_of j "findings";
          certified = int_of j "certified_ops";
          retired = int_of j "retired_prefix_ops";
        };
      on_counts ()
    | _ -> ())

let drain_lines st ~on_counts =
  let s = Buffer.contents st.w_buf in
  match String.rindex_opt s '\n' with
  | None -> ()
  | Some last ->
    Buffer.clear st.w_buf;
    Buffer.add_string st.w_buf
      (String.sub s (last + 1) (String.length s - last - 1));
    String.split_on_char '\n' (String.sub s 0 last)
    |> List.iter (fun line ->
           if String.trim line <> "" then handle_line st ~on_counts line)

(* One fan-out of [part] over worker processes: replay shards from the
   cache, spawn workers for the rest, pump the protocol, persist fresh
   shards, audit ranges.  [base] holds the heartbeat counts of the run's
   earlier fan-outs, so the live progress stream keeps counting across a
   corpus campaign's rounds. *)
let fan_out ~exe ?cache ~progress ?kill ~base ~workers ~jobs part =
  let n = part.total in
  let workers = max 1 (min workers (max 1 n)) in
  let jobs = max 1 jobs in
  let key w = cache_key ~exe ~workers ~jobs ~worker:w part.spec in
  let spawned = ref 0 in
  (* cache replay first: a hit shard spawns no process at all *)
  let cached =
    Array.init workers (fun w ->
        Option.bind cache (fun c -> Cache.lookup c ~key:(key w)))
  in
  let states =
    Array.init workers (fun w ->
        {
          w_index = w;
          w_pid = -1;
          w_fd = None;
          w_buf = Buffer.create 256;
          w_payload = cached.(w);
          w_attempt = 0;
          w_counts = no_counts;
        })
  in
  let launch st =
    st.w_attempt <- st.w_attempt + 1;
    Buffer.clear st.w_buf;
    incr spawned;
    let pid, fd =
      spawn ~exe
        {
          sp_campaign = part.spec;
          sp_worker = st.w_index;
          sp_workers = workers;
          sp_jobs = jobs;
          sp_progress = Progress.enabled progress;
          sp_attempt = st.w_attempt;
          sp_kill = kill;
        }
    in
    st.w_pid <- pid;
    st.w_fd <- Some fd
  in
  Array.iter (fun st -> if st.w_payload = None then launch st) states;
  (* aggregate the workers' cumulative heartbeat counts into the
     campaign's single progress stream *)
  let heartbeat_sum () =
    Array.fold_left (fun acc st -> add_counts acc st.w_counts) no_counts states
  in
  let on_counts () =
    if Progress.enabled progress then
      observe progress (add_counts !base (heartbeat_sum ()))
  in
  let chunk = Bytes.create 65536 in
  let on_exit st =
    (match st.w_fd with
    | Some fd -> Unix.close fd
    | None -> ());
    st.w_fd <- None;
    (try ignore (Unix.waitpid [] st.w_pid) with Unix.Unix_error _ -> ());
    (* crashed shard range: re-claim once, then leave it lost *)
    if st.w_payload = None && st.w_attempt < 2 then launch st
  in
  let rec drive () =
    let live =
      Array.to_list states
      |> List.filter_map (fun st -> Option.map (fun fd -> (fd, st)) st.w_fd)
    in
    if live <> [] then begin
      (match Unix.select (List.map fst live) [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
        List.iter
          (fun (fd, st) ->
            if List.mem fd ready then
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 ->
                drain_lines st ~on_counts;
                on_exit st
              | nread ->
                Buffer.add_subbytes st.w_buf chunk 0 nread;
                drain_lines st ~on_counts
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
          live);
      drive ()
    end
  in
  drive ();
  base := add_counts !base (heartbeat_sum ());
  let present =
    Array.to_list states
    |> List.filter_map (fun st ->
           Option.map (fun p -> (st.w_index, p)) st.w_payload)
  in
  if List.exists (fun (_, (kind, _)) -> kind <> part.kind) present then
    Error "shard payload does not match the campaign kind"
  else if present = [] && n > 0 then
    Error
      (Printf.sprintf
         "no worker produced a shard (%d spawned); is %s a c11test binary?"
         !spawned exe)
  else begin
    (* persist fresh shards (cache hits are already on disk) *)
    Option.iter
      (fun c ->
        List.iter
          (fun (w, p) -> if cached.(w) = None then Cache.store c ~key:(key w) p)
          present)
      cache;
    let fresh_execs =
      List.fold_left
        (fun acc (w, _) ->
          if cached.(w) = None then
            acc + Par.shard_size ~jobs:workers ~total:n ~worker:w
          else acc)
        0 present
    in
    Ok
      ( List.concat_map (fun (_, (_, shards)) -> shards) present,
        {
          st_workers = workers;
          st_spawned = !spawned;
          st_failed =
            (Par.Merge.check_ranges ~workers ~total:n (List.map fst present))
              .Par.Merge.missing;
          st_executions_run = fresh_execs;
          st_cache = Option.map Cache.stats cache;
        } )
  end

(* Run an instance's campaign on worker processes: every fan-out its
   [drive] asks for goes through [fan_out], and the statistics of all of
   them add up into one. *)
let run_fabric ?exe ?cache ~progress ?kill ~workers ~jobs (Instance i) =
  match match exe with Some e -> Some e | None -> locate_exe () with
  | None -> Error "cannot locate the c11test worker binary"
  | Some exe when not (Sys.file_exists exe) ->
    Error (Printf.sprintf "worker binary %s does not exist" exe)
  | Some exe ->
    (* a worker that died before reading its spec must not kill us with
       SIGPIPE mid-write *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    Fun.protect
      ~finally:(fun () -> Option.iter (Sys.set_signal Sys.sigpipe) old_sigpipe)
      (fun () ->
        let base = ref no_counts in
        let stats =
          ref
            {
              st_workers = 1;
              st_spawned = 0;
              st_failed = [];
              st_executions_run = 0;
              st_cache = None;
            }
        in
        let fan part =
          fan_out ~exe ?cache ~progress ?kill ~base ~workers ~jobs part
          |> Result.map (fun (shards, st) ->
                 let s = !stats in
                 stats :=
                   {
                     st_workers = max s.st_workers st.st_workers;
                     st_spawned = s.st_spawned + st.st_spawned;
                     st_failed =
                       List.sort_uniq compare (s.st_failed @ st.st_failed);
                     st_executions_run =
                       s.st_executions_run + st.st_executions_run;
                     st_cache = st.st_cache;
                   };
                 shards)
        in
        i.drive fan |> Result.map (fun rc -> (finished progress rc, !stats)))

(* In process, every fan-out goes to domains. *)
let run ?profile ?metrics ?(progress = Progress.null) ?cache ?workers ~jobs
    (Instance i as inst) =
  if workers = None && cache = None then
    i.drive (fun part -> Ok (domains ?profile ?metrics ~progress ~jobs part))
    |> Result.map (fun rc -> (finished progress rc, None))
  else
    run_fabric ?cache ~progress ~workers:(Option.value workers ~default:1)
      ~jobs inst
    |> Result.map (fun (r, st) -> (r, Some st))

let run_campaign ?exe ?cache ?(progress = Progress.null) ?kill ~workers ~jobs
    campaign =
  Result.bind (instance campaign)
    (run_fabric ?exe ?cache ~progress ?kill ~workers ~jobs)
