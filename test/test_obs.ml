(* C11obs: ring buffering, (ND)JSON round-trips, metrics and profile
   readouts, and the no-perturbation guarantee (attaching
   observers must not change what the engine computes). *)

let check = Alcotest.(check bool)

let ev ?(kind = Obs.Load) ?(mo = "relaxed") ?(detail = "") n =
  { Obs.step = n; tid = n mod 3; kind; loc = n; mo; value = n * 10; detail }

(* --- ring buffer --- *)

let test_ring_wraparound () =
  let t = Obs.create ~ring_capacity:4 in
  for i = 1 to 10 do
    Obs.emit t (ev i)
  done;
  check "total counts every emit" true (Obs.total t = 10);
  let steps = List.map (fun e -> e.Obs.step) (Obs.ring_events t) in
  check "ring keeps last cap events in order" true (steps = [ 7; 8; 9; 10 ]);
  Obs.clear t;
  check "clear empties ring" true (Obs.ring_events t = []);
  check "clear resets total" true (Obs.total t = 0);
  Obs.emit t (ev 1);
  check "usable after clear" true
    (List.map (fun e -> e.Obs.step) (Obs.ring_events t) = [ 1 ])

let test_ring_partial () =
  let t = Obs.create ~ring_capacity:8 in
  for i = 1 to 3 do
    Obs.emit t (ev i)
  done;
  check "partial ring, oldest first" true
    (List.map (fun e -> e.Obs.step) (Obs.ring_events t) = [ 1; 2; 3 ])

let test_null_tracer () =
  check "null tracer is disabled" true (not (Obs.enabled Obs.null));
  check "a ringless tracer is disabled" true
    (not (Obs.enabled (Obs.create ~ring_capacity:0)));
  Obs.emit Obs.null (ev 1);
  check "null tracer keeps nothing" true
    (Obs.ring_events Obs.null = [] && Obs.total Obs.null = 0)

(* --- (ND)JSON round-trips --- *)

let all_kinds =
  [
    Obs.Load; Store; Rmw; Fence; Na_read; Na_write; Sync; Race_check; Prune;
    Sched_pick;
  ]

let test_event_json_roundtrip () =
  List.iteri
    (fun i kind ->
      let e = ev ~kind ~mo:"acquire" ~detail:"rf=42 \"quoted\"\n" i in
      let s = Jsonx.to_string (Obs.event_to_json e) in
      match Jsonx.parse s with
      | Error msg -> Alcotest.failf "parse error on %s: %s" s msg
      | Ok j -> (
        match Obs.event_of_json j with
        | Error msg -> Alcotest.failf "event_of_json failed on %s: %s" s msg
        | Ok e' -> check "event survives JSON round-trip" true (e = e')))
    all_kinds

let test_ndjson_roundtrip () =
  let t = Obs.create ~ring_capacity:16 in
  List.iteri (fun i kind -> Obs.emit t (ev ~kind i)) all_kinds;
  let path = Filename.temp_file "c11obs" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Obs.write_ndjson oc t;
      close_out oc;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let parsed =
        List.rev_map
          (fun line ->
            match Jsonx.parse line with
            | Ok j -> Obs.event_of_json j
            | Error msg -> Alcotest.failf "bad NDJSON line %s: %s" line msg)
          !lines
      in
      check "one line per event" true (List.length parsed = List.length all_kinds);
      check "NDJSON lines decode to the original events" true
        (List.map Result.get_ok parsed = Obs.ring_events t))

(* --- metrics --- *)

let test_metrics () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.incr m ~by:4 "a";
  Metrics.incr m "b";
  Metrics.set_gauge m "g" 2.5;
  Metrics.max_gauge m "peak" 3.0;
  Metrics.max_gauge m "peak" 1.0;
  for i = 1 to 100 do
    Metrics.observe m "h" (float_of_int i)
  done;
  check "counter accumulates" true (Metrics.counter_value m "a" = 5);
  check "counters sorted by name" true
    (Metrics.counters m = [ ("a", 5); ("b", 1) ]);
  check "gauge" true (Metrics.gauge_value m "g" = Some 2.5);
  check "max gauge keeps max" true (Metrics.gauge_value m "peak" = Some 3.0);
  (match Metrics.histo_snapshot m "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some s ->
    check "histo count" true (s.Metrics.count = 100);
    check "histo min/max" true (s.Metrics.min = 1.0 && s.Metrics.max = 100.0);
    check "histo p50 near median" true (abs_float (s.Metrics.p50 -. 50.5) < 1.0));
  check "null metrics is no-op" true
    (Metrics.incr Metrics.null "x";
     Metrics.counter_value Metrics.null "x" = 0)

(* Absorbing per-worker registries in worker order must keep a peak a
   peak: the larger gauge wins whichever worker holds it. *)
let test_metrics_absorb () =
  let worker peak n =
    let m = Metrics.create () in
    Metrics.max_gauge m "peak" peak;
    Metrics.incr m ~by:n "c";
    Metrics.observe m "h" peak;
    m
  in
  let into = Metrics.create () in
  List.iter
    (fun w -> Metrics.absorb ~into w)
    [ worker 27.0 1; worker 22.0 2; Metrics.create () ];
  check "counters add" true (Metrics.counter_value into "c" = 3);
  check "gauges merge by maximum" true
    (Metrics.gauge_value into "peak" = Some 27.0);
  (match Metrics.histo_snapshot into "h" with
  | Some s ->
    check "histograms merge exactly" true
      (s.Metrics.count = 2 && s.Metrics.min = 22.0 && s.Metrics.max = 27.0)
  | None -> Alcotest.fail "histogram missing");
  Metrics.absorb ~into:Metrics.null (worker 1.0 1);
  check "absorbing into null is a no-op" true
    (Metrics.counters Metrics.null = [] && Metrics.gauges Metrics.null = [])

let mem k j =
  match Jsonx.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing JSON member %S" k

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.incr m ~by:7 "ops";
  Metrics.observe m "lat" 1.0;
  Metrics.observe m "lat" 3.0;
  let s = Jsonx.to_string (Metrics.to_json m) in
  match Jsonx.parse s with
  | Error msg -> Alcotest.failf "metrics JSON unparsable: %s" msg
  | Ok j ->
    check "counter in JSON" true
      (Jsonx.req "counters" Jsonx.int "ops" (mem "counters" j) = Ok 7);
    let lat = mem "lat" (mem "histograms" j) in
    check "histogram count in JSON" true
      (Jsonx.req "lat" Jsonx.int "count" lat = Ok 2)

(* --- profile --- *)

let test_profile () =
  let p = Profile.create () in
  for _ = 1 to 5 do
    let t0 = Profile.start p in
    Profile.stop p "phase" t0
  done;
  ignore (Profile.time p "timed" (fun () -> 42));
  (match Profile.snapshot p "phase" with
  | None -> Alcotest.fail "span missing"
  | Some s ->
    check "span count" true (s.Profile.count = 5);
    check "span total non-negative" true (s.Profile.total_ns >= 0));
  check "time records too" true
    (match Profile.snapshot p "timed" with
    | Some s -> s.Profile.count = 1
    | None -> false);
  check "null profile records nothing" true
    (let t0 = Profile.start Profile.null in
     Profile.stop Profile.null "x" t0;
     Profile.snapshots Profile.null = [])

(* --- determinism: observers must not perturb the engine --- *)

let test_tracing_does_not_perturb () =
  let config = { Engine.default_config with Engine.seed = 20260806L } in
  List.iter
    (fun (t : Litmus.t) ->
      let plain = ref [] in
      let observed = ref [] in
      let base =
        Engine.run config (fun () -> plain := t.Litmus.run_once ())
      in
      let obs = Obs.create ~ring_capacity:1024 in
      let profile = Profile.create () in
      let metrics = Metrics.create () in
      let traced =
        Engine.run ~obs ~profile ~metrics config (fun () ->
            observed := t.Litmus.run_once ())
      in
      check
        (Printf.sprintf "%s: outcome unchanged under observation"
           t.Litmus.name)
        true (base = traced);
      check
        (Printf.sprintf "%s: litmus result unchanged under observation"
           t.Litmus.name)
        true (!plain = !observed);
      check
        (Printf.sprintf "%s: events were recorded" t.Litmus.name)
        true
        (Obs.total obs > 0))
    Litmus.catalog

(* --- Jsonx string hardening: control characters and strict \u --- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_jsonx_control_chars () =
  (* unit cases: tab and newline use their short escapes, other control
     characters (U+0000–U+001F) the \u%04x form; all round-trip *)
  List.iter
    (fun (s, fragment) ->
      let emitted = Jsonx.to_string (Jsonx.String s) in
      check
        (Printf.sprintf "emits %s" (String.escaped fragment))
        true
        (contains emitted fragment);
      check
        (Printf.sprintf "%s round-trips" (String.escaped s))
        true
        (Jsonx.parse emitted = Ok (Jsonx.String s)))
    [
      ("tab\tsep", "\\t");
      ("line\nbreak", "\\n");
      ("cr\rend", "\\r");
      ("bell\007x", "\\u0007");
      ("nul\000end", "\\u0000");
      ("esc\027[0m", "\\u001b");
    ]

let test_jsonx_strict_unicode_escape () =
  check "\\u0041 parses as A" true
    (Jsonx.parse "\"\\u0041\"" = Ok (Jsonx.String "A"));
  check "uppercase hex accepted" true
    (Jsonx.parse "\"\\u000A\"" = Ok (Jsonx.String "\n"));
  (* int_of_string would have accepted these *)
  check "underscore in \\u rejected" true
    (Result.is_error (Jsonx.parse "\"\\u001_\""));
  check "0x-prefixed \\u rejected" true
    (Result.is_error (Jsonx.parse "\"\\u0x41\""));
  check "non-hex \\u rejected" true
    (Result.is_error (Jsonx.parse "\"\\u00zz\""))

let prop_jsonx_string_roundtrip =
  QCheck.Test.make ~name:"Jsonx string round-trip (all byte values)"
    ~count:500 QCheck.string (fun s ->
      Jsonx.parse (Jsonx.to_string (Jsonx.String s)) = Ok (Jsonx.String s))

let suite =
  [
    Alcotest.test_case "ring wrap-around" `Quick test_ring_wraparound;
    Alcotest.test_case "ring partial fill" `Quick test_ring_partial;
    Alcotest.test_case "null tracer" `Quick test_null_tracer;
    Alcotest.test_case "event JSON round-trip" `Quick test_event_json_roundtrip;
    Alcotest.test_case "NDJSON round-trip" `Quick test_ndjson_roundtrip;
    Alcotest.test_case "metrics" `Quick test_metrics;
    Alcotest.test_case "metrics JSON" `Quick test_metrics_json;
    Alcotest.test_case "metrics absorb" `Quick test_metrics_absorb;
    Alcotest.test_case "profile spans" `Quick test_profile;
    Alcotest.test_case "tracing does not perturb" `Quick
      test_tracing_does_not_perturb;
    Alcotest.test_case "Jsonx control-char escapes" `Quick
      test_jsonx_control_chars;
    Alcotest.test_case "Jsonx strict \\u escapes" `Quick
      test_jsonx_strict_unicode_escape;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_jsonx_string_roundtrip ]
