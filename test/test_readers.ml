(* Every reader of the artifacts a campaign writes, against mutated
   bytes: `report''s six formats (c11cov-v1, c11progress-v1,
   c11fuzz-finding-v1, c11lint-v1, c11sweep-v1, c11corpus-v1) and Obs
   trace events.  Whatever the bytes, a reader returns Ok or Error and
   never raises; and each accepts what its writer emits. *)

(* A reader over the parsed records of one artifact: the whole-artifact
   formats decode all records at once, the others one at a time. *)
let whole f docs = Result.map ignore (f docs)
let each f docs = Result.map ignore (Jsonx.map_result f docs)

let readers =
  [
    ("c11cov-v1", whole Cov.summary_of_ndjson);
    ("c11progress-v1", each Progress.record_of_json);
    ("c11fuzz-finding-v1", each Fuzz.finding_record_of_json);
    ("c11lint-v1", whole Lint.campaign_of_ndjson);
    ("c11sweep-v1", whole Sweep.result_of_ndjson);
    ("c11corpus-v1", each Corpus.entry_of_json);
    ("obs event", each Obs.event_of_json);
  ]

(* An artifact's text as `report' reads it: non-blank lines, each one
   JSON document, then the format's reader. *)
let read_text read text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  Result.bind (Jsonx.map_result Jsonx.parse lines) read

(* ---------- valid artifacts, from the writers ---------- *)

let text_of docs = String.concat "" (List.map (fun j -> Jsonx.to_string j ^ "\n") docs)

let programs n seed =
  List.init n (fun i ->
      Fuzz.generate ~cfg:Fuzz.default_gen_cfg ~seed:(Rng.substream seed ~index:i))

let campaign ?mutation ~programs ~seed () =
  Fuzz.campaign ~coverage:true
    {
      Fuzz.default_campaign_cfg with
      Fuzz.c_programs = programs;
      c_seed = seed;
      c_mutation = mutation;
    }

let progress_text ~certified =
  let path = Filename.temp_file "c11progress" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          (* interval 0: every tick emits a heartbeat *)
          let p = Progress.create ~out:oc ~interval_ns:0 ~total:5 in
          for i = 1 to 5 do
            if certified then Progress.account_certified p ~certified:(10 * i) ~retired:i;
            Progress.tick p ~novel:(i mod 2 = 0) ~finding:(i = 3)
          done;
          Progress.finish p);
      In_channel.with_open_text path In_channel.input_all)

let fixtures =
  lazy
    (let findings =
       campaign ~mutation:Execution.Drop_mo_edge ~programs:60 ~seed:42L ()
     in
     let sweep =
       let family = Option.get (Sweep.find "dekker") in
       Sweep.merge ~family ~iters:3 ~seed:3L
         [ Sweep.run_shard ~family ~iters:3 ~seed:3L ~start:0 ~stride:1 () ]
     in
     let obs = Obs.create ~ring_capacity:512 in
     let p = List.hd (programs 1 11L) in
     ignore
       (Engine.run ~obs
          { (Fuzz.engine_config ~mutation:None) with Engine.seed = 5L }
          (Fuzz.to_closure p));
     [
       ( "c11cov-v1",
         text_of
           (Cov.summary_to_ndjson
              (Option.get (campaign ~programs:20 ~seed:3L ()).Fuzz.r_coverage)) );
       ("c11progress-v1", progress_text ~certified:true ^ progress_text ~certified:false);
       ( "c11fuzz-finding-v1",
         text_of (List.map Fuzz.finding_to_json findings.Fuzz.r_findings) );
       ( "c11lint-v1",
         text_of
           (Lint.campaign_to_ndjson
              (List.mapi (fun i p -> (i, Lint.analyze p)) (programs 12 5L))) );
       ("c11sweep-v1", text_of (Sweep.result_to_ndjson sweep));
       ( "c11corpus-v1",
         text_of
           (List.mapi
              (fun i p ->
                Corpus.entry_to_json
                  {
                    Corpus.en_digest = Printf.sprintf "d%d" i;
                    en_index = i;
                    en_seed = p.Progir.p_seed;
                    en_keys = [ "shape:abc"; "race:x" ];
                    en_program = p;
                  })
              (programs 4 9L)) );
       ("obs event", text_of (List.map Obs.event_to_json (Obs.ring_events obs)));
     ])

let test_fixtures_decode () =
  List.iter
    (fun (name, read) ->
      let text = List.assoc name (Lazy.force fixtures) in
      Alcotest.(check bool) (name ^ " fixture has records") true (String.length text > 0);
      match read_text read text with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: the writer's own artifact: %s" name e)
    readers

(* ---------- byte mutations ---------- *)

type mutation =
  | Truncate of int  (** keep the first n bytes *)
  | Flip of int * int  (** flip a bit of a byte *)
  | Dup_line of int
  | Del_line of int
  | Swap_lines of int * int
  | Number of int * string  (** replace the n-th number *)

let show = function
  | Truncate n -> Printf.sprintf "truncate %d" n
  | Flip (i, b) -> Printf.sprintf "flip byte %d bit %d" i b
  | Dup_line i -> Printf.sprintf "duplicate line %d" i
  | Del_line i -> Printf.sprintf "delete line %d" i
  | Swap_lines (i, j) -> Printf.sprintf "swap lines %d %d" i j
  | Number (i, s) -> Printf.sprintf "number %d := %s" i s

let mutation_gen =
  let open QCheck.Gen in
  let pos = int_bound 1_000_000 in
  oneof
    [
      map (fun n -> Truncate n) pos;
      map2 (fun i b -> Flip (i, b)) pos (int_bound 7);
      map (fun i -> Dup_line i) pos;
      map (fun i -> Del_line i) pos;
      map2 (fun i j -> Swap_lines (i, j)) pos pos;
      map2
        (fun i s -> Number (i, s))
        pos
        (oneofl [ "-1"; "0"; "1e308"; "12345678901234567890" ]);
    ]

(* the maximal runs [-?[0-9][0-9.eE+-]*]: numbers, and digits in strings *)
let number_spans text =
  let n = String.length text in
  let is_digit c = c >= '0' && c <= '9' in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_digit text.[i] || (text.[i] = '-' && i + 1 < n && is_digit text.[i + 1])
    then begin
      let j = ref (i + 1) in
      while
        !j < n
        && match text.[!j] with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
      do
        incr j
      done;
      go !j ((i, !j - i) :: acc)
    end
    else go (i + 1) acc
  in
  go 0 []

let mutate text m =
  let len = String.length text in
  let lines () = Array.of_list (String.split_on_char '\n' text) in
  let unlines a = String.concat "\n" (Array.to_list a) in
  match m with
  | _ when len = 0 -> text
  | Truncate n -> String.sub text 0 (n mod len)
  | Flip (i, b) ->
    let s = Bytes.of_string text in
    let i = i mod len in
    Bytes.set s i (Char.chr (Char.code text.[i] lxor (1 lsl b)));
    Bytes.to_string s
  | Dup_line i ->
    let a = lines () in
    let i = i mod Array.length a in
    unlines (Array.concat [ Array.sub a 0 (i + 1); Array.sub a i (Array.length a - i) ])
  | Del_line i ->
    let a = lines () in
    let i = i mod Array.length a in
    unlines (Array.append (Array.sub a 0 i) (Array.sub a (i + 1) (Array.length a - i - 1)))
  | Swap_lines (i, j) ->
    let a = lines () in
    let i = i mod Array.length a and j = j mod Array.length a in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t;
    unlines a
  | Number (i, s) -> (
    match number_spans text with
    | [] -> text
    | spans ->
      let start, l = List.nth spans (i mod List.length spans) in
      String.sub text 0 start ^ s ^ String.sub text (start + l) (len - start - l))

let prop_mutated_never_raise =
  QCheck.Test.make ~name:"every reader returns Ok or Error on mutated bytes"
    ~count:1500
    QCheck.(
      make
        ~print:(fun (f, ms) ->
          Printf.sprintf "%s: %s" (fst (List.nth readers f))
            (String.concat ", " (List.map show ms)))
        Gen.(pair (int_bound (List.length readers - 1)) (list_size (int_range 1 3) mutation_gen)))
    (fun (f, ms) ->
      let name, read = List.nth readers f in
      let text = List.fold_left mutate (List.assoc name (Lazy.force fixtures)) ms in
      match read_text read text with
      | Ok () | Error _ -> true
      | exception e ->
        QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string e))

(* ---------- writer -> reader ---------- *)

(* through the bytes, as a file carries them *)
let reparse j = Result.get_ok (Jsonx.parse (Jsonx.to_string j))

let prop_roundtrip =
  QCheck.Test.make ~name:"each reader accepts what its writer emits" ~count:60
    QCheck.small_nat (fun n ->
      let seed = Int64.of_int (n + 1) in
      let cfg =
        {
          Fuzz.default_gen_cfg with
          Fuzz.g_threads = 1 + (n mod 5);
          g_ops = 1 + (n mod 13);
          g_profile = List.nth Progir.all_profiles (n mod 4);
        }
      in
      let p = Fuzz.generate ~cfg ~seed in
      let entry =
        {
          Corpus.en_digest = Printf.sprintf "%08x" n;
          en_index = n;
          en_seed = seed;
          en_keys = [ "shape:" ^ string_of_int n ];
          en_program = p;
        }
      in
      let finding =
        {
          Fuzz.f_index = n;
          f_seed = seed;
          f_key = "key " ^ string_of_int n;
          f_kind =
            List.nth
              [
                Fuzz.Cert_rejected [];
                Fuzz.Engine_crash "boom";
                Fuzz.Deadlock;
                Fuzz.Lint_unsound { race = "r" };
              ]
              (n mod 4);
          f_repro = p;
          f_exec_seed = Int64.neg seed;
          f_shrink_steps = n / 2;
          f_ops_before = Progir.op_count p + n;
          f_ops_after = Progir.op_count p;
        }
      in
      let event =
        {
          Obs.step = n;
          tid = n mod 7;
          kind = List.nth [ Obs.Load; Obs.Store; Obs.Rmw; Obs.Fence; Obs.Sync ] (n mod 5);
          loc = (n mod 3) - 1;
          mo = "acquire";
          value = n * 31;
          detail = "rf=\"" ^ string_of_int n ^ "\"";
        }
      in
      let lint = [ (n, Lint.analyze p) ] in
      let progress =
        List.map
          (fun line -> Progress.record_of_json (Result.get_ok (Jsonx.parse line)))
          (String.split_on_char '\n' (progress_text ~certified:(n mod 2 = 0))
          |> List.filter (( <> ) ""))
      in
      let ok name = function
        | Ok true -> true
        | Ok false -> QCheck.Test.fail_reportf "%s: read back differently" name
        | Error e -> QCheck.Test.fail_reportf "%s: %s" name e
      in
      let map = Result.map in
      ok "program" (map (( = ) p) (Progir.program_of_json (reparse (Progir.program_to_json p))))
      && ok "corpus entry"
           (map (( = ) entry) (Corpus.entry_of_json (reparse (Corpus.entry_to_json entry))))
      && ok "finding"
           (map
              (fun r ->
                r.Fuzz.fr_index = n && r.Fuzz.fr_seed = seed
                && r.Fuzz.fr_key = finding.Fuzz.f_key
                && r.Fuzz.fr_exec_seed = finding.Fuzz.f_exec_seed
                && r.Fuzz.fr_ops_before = finding.Fuzz.f_ops_before
                && r.Fuzz.fr_ops_after = finding.Fuzz.f_ops_after
                && r.Fuzz.fr_shrink_steps = finding.Fuzz.f_shrink_steps
                && r.Fuzz.fr_repro = Fuzz.program_to_string p)
              (Fuzz.finding_record_of_json (reparse (Fuzz.finding_to_json finding))))
      && ok "event" (map (( = ) event) (Obs.event_of_json (reparse (Obs.event_to_json event))))
      && ok "lint"
           (map (( = ) lint)
              (Lint.campaign_of_ndjson (List.map reparse (Lint.campaign_to_ndjson lint))))
      && ok "progress"
           (map
              (fun rs ->
                let final = List.nth rs (List.length rs - 1) in
                final.Progress.final && final.Progress.done_ = 5
                && final.Progress.total = 5 && final.Progress.findings = 1
                && final.Progress.certified_ops = (if n mod 2 = 0 then 150 else 0))
              (Jsonx.map_result Fun.id progress)))

let suite =
  [ Alcotest.test_case "the writers' artifacts decode" `Quick test_fixtures_decode ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_mutated_never_raise; prop_roundtrip ]
