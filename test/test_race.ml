(* The FastTrack-style race detector, exercised directly (without the
   engine) by feeding it accesses with hand-built happens-before clocks. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let cv slots =
  let v = Clockvec.bottom () in
  List.iteri (fun i s -> Clockvec.set v i s) slots;
  v

let access t ?(cls = Race.Na_access) ~loc ~tid ~seq ~hb ~w () =
  Race.on_access t ~loc ~tid ~seq ~hb ~is_write:w ~cls

let test_unordered_write_write () =
  let t = Race.create () in
  access t ~loc:0 ~tid:0 ~seq:1 ~hb:(cv [ 1 ]) ~w:true ();
  (* thread 1 writes without having seen thread 0's write *)
  access t ~loc:0 ~tid:1 ~seq:2 ~hb:(cv [ 0; 2 ]) ~w:true ();
  check_int "one race" 1 (Race.race_count t)

let test_ordered_write_write () =
  let t = Race.create () in
  access t ~loc:0 ~tid:0 ~seq:1 ~hb:(cv [ 1 ]) ~w:true ();
  (* thread 1's clock covers thread 0's write: ordered, no race *)
  access t ~loc:0 ~tid:1 ~seq:2 ~hb:(cv [ 1; 2 ]) ~w:true ();
  check_int "no race" 0 (Race.race_count t)

let test_read_write_race () =
  let t = Race.create () in
  access t ~loc:0 ~tid:0 ~seq:1 ~hb:(cv [ 1 ]) ~w:false ();
  access t ~loc:0 ~tid:1 ~seq:2 ~hb:(cv [ 0; 2 ]) ~w:true ();
  check_int "read-write races" 1 (Race.race_count t)

let test_read_read_no_race () =
  let t = Race.create () in
  access t ~loc:0 ~tid:0 ~seq:1 ~hb:(cv [ 1 ]) ~w:false ();
  access t ~loc:0 ~tid:1 ~seq:2 ~hb:(cv [ 0; 2 ]) ~w:false ();
  check_int "reads never race" 0 (Race.race_count t)

let test_atomic_atomic_no_race () =
  let t = Race.create () in
  access t ~cls:Race.Atomic_access ~loc:0 ~tid:0 ~seq:1 ~hb:(cv [ 1 ]) ~w:true ();
  access t ~cls:Race.Atomic_access ~loc:0 ~tid:1 ~seq:2 ~hb:(cv [ 0; 2 ]) ~w:true ();
  check_int "atomics don't race with atomics" 0 (Race.race_count t)

let test_atomic_na_mixed () =
  let t = Race.create () in
  access t ~loc:0 ~tid:0 ~seq:1 ~hb:(cv [ 1 ]) ~w:true ();
  (* unordered atomic write to a location last written non-atomically *)
  access t ~cls:Race.Atomic_access ~loc:0 ~tid:1 ~seq:2 ~hb:(cv [ 0; 2 ]) ~w:true ();
  check_int "atomic vs na races" 1 (Race.race_count t);
  (* and an atomic read against the na write also races *)
  access t ~cls:Race.Atomic_access ~loc:0 ~tid:2 ~seq:3 ~hb:(cv [ 0; 0; 3 ]) ~w:false ();
  check_int "atomic read vs na write" 2 (Race.race_count t)

let test_na_read_vs_atomic_write () =
  let t = Race.create () in
  access t ~cls:Race.Atomic_access ~loc:0 ~tid:0 ~seq:1 ~hb:(cv [ 1 ]) ~w:true ();
  access t ~loc:0 ~tid:1 ~seq:2 ~hb:(cv [ 0; 2 ]) ~w:false ();
  check_int "na read vs atomic write races" 1 (Race.race_count t)

let test_different_locations () =
  let t = Race.create () in
  access t ~loc:0 ~tid:0 ~seq:1 ~hb:(cv [ 1 ]) ~w:true ();
  access t ~loc:1 ~tid:1 ~seq:2 ~hb:(cv [ 0; 2 ]) ~w:true ();
  check_int "different locations never race" 0 (Race.race_count t)

let test_same_thread_never_races () =
  let t = Race.create () in
  access t ~loc:0 ~tid:0 ~seq:1 ~hb:(cv [ 1 ]) ~w:true ();
  access t ~loc:0 ~tid:0 ~seq:2 ~hb:(cv [ 2 ]) ~w:true ();
  check_int "sequenced-before orders same-thread" 0 (Race.race_count t)

let test_report_contents () =
  let t = Race.create () in
  Race.name_location t ~loc:0 "shared_counter";
  access t ~loc:0 ~tid:0 ~seq:5 ~hb:(cv [ 5 ]) ~w:true ();
  access t ~loc:0 ~tid:1 ~seq:9 ~hb:(cv [ 0; 9 ]) ~w:false ();
  match Race.races t with
  | [ r ] ->
    check "location name" true (r.Race.loc_name = "shared_counter");
    check "first is the write" true (r.Race.first_is_write && r.Race.first_tid = 0);
    check "second is the read" true ((not r.Race.second_is_write) && r.Race.second_tid = 1);
    check "dedup key stable" true (Race.dedup_key r = Race.dedup_key r)
  | _ -> Alcotest.fail "expected exactly one race"

let test_clear () =
  let t = Race.create () in
  access t ~loc:0 ~tid:0 ~seq:1 ~hb:(cv [ 1 ]) ~w:true ();
  access t ~loc:0 ~tid:1 ~seq:2 ~hb:(cv [ 0; 2 ]) ~w:true ();
  Race.clear t;
  check_int "cleared" 0 (Race.race_count t);
  check "no reports" true (Race.races t = [])

(* ---------- thread-sparse shadows against a dense reference ---------- *)

(* The detector as it was before shadows became thread-sparse: per
   location and access class, a vector indexed by tid holding each
   thread's latest access seq (0 = none), scanned in tid order.  It has no
   epoch shortcut: that shortcut only skips scans that would find nothing,
   so it cannot change the reports. *)
module Dense = struct
  let width = 64

  type t = {
    shadows : (int, int array array) Hashtbl.t;
        (* loc -> [| na_w; at_w; na_r; at_r |] *)
    mutable found : Race.report list;
  }

  let create () = { shadows = Hashtbl.create 8; found = [] }

  let shadow t loc =
    match Hashtbl.find_opt t.shadows loc with
    | Some s -> s
    | None ->
      let s = Array.init 4 (fun _ -> Array.make width 0) in
      Hashtbl.replace t.shadows loc s;
      s

  let scan t v ~prior_is_write ~prior_class ~loc ~tid ~seq ~hb ~is_write ~cls =
    for u = 0 to width - 1 do
      let s = v.(u) in
      if u <> tid && s > 0 && s > Clockvec.get hb u then
        t.found <-
          {
            Race.loc;
            loc_name = Printf.sprintf "loc%d" loc;
            first_tid = u;
            first_seq = s;
            first_is_write = prior_is_write;
            first_class = prior_class;
            second_tid = tid;
            second_seq = seq;
            second_is_write = is_write;
            second_class = cls;
          }
          :: t.found
    done

  let on_access t ~loc ~tid ~seq ~hb ~is_write ~cls =
    let sh = shadow t loc in
    let na_w = sh.(0) and at_w = sh.(1) and na_r = sh.(2) and at_r = sh.(3) in
    let scan v pw pc = scan t v ~prior_is_write:pw ~prior_class:pc ~loc ~tid ~seq ~hb ~is_write ~cls in
    let na = Race.Na_access and at = Race.Atomic_access in
    match (cls, is_write) with
    | Race.Na_access, true ->
      scan na_w true na;
      scan at_w true at;
      scan na_r false na;
      scan at_r false at;
      na_w.(tid) <- seq
    | Race.Na_access, false ->
      scan na_w true na;
      scan at_w true at;
      na_r.(tid) <- seq
    | Race.Atomic_access, true ->
      scan na_w true na;
      scan na_r false na;
      at_w.(tid) <- seq
    | Race.Atomic_access, false ->
      scan na_w true na;
      at_r.(tid) <- seq

  let races t = List.rev t.found
end

(* A random history over up to 64 threads and three locations: accesses
   in all four classes, and synchronisation steps in which one thread
   acquires another's clock.  Clocks only grow and seqs ascend, as in the
   engine. *)
type step = Access of int * int * bool * bool | Sync of int * int

let gen_history =
  QCheck.Gen.(
    let* nthreads = int_range 1 64 in
    let tid = int_range 0 (nthreads - 1) in
    list_size (int_range 1 300)
      (frequency
         [
           ( 5,
             map
               (fun (t, loc, atomic, w) -> Access (t, loc, atomic, w))
               (quad tid (int_range 0 2) bool bool) );
           (1, map (fun (a, b) -> Sync (a, b)) (pair tid tid));
         ]))

let prop_sparse_matches_dense =
  QCheck.Test.make ~name:"thread-sparse shadows report as a dense detector"
    ~count:300
    (QCheck.make
       ~print:(fun h -> Printf.sprintf "%d steps" (List.length h))
       gen_history)
    (fun history ->
      let sparse = Race.create () and dense = Dense.create () in
      let clocks = Array.init 64 (fun _ -> Clockvec.bottom ()) in
      List.iteri
        (fun i step ->
          let seq = i + 1 in
          match step with
          | Sync (from, into) ->
            if from <> into then ignore (Clockvec.merge clocks.(into) clocks.(from))
          | Access (tid, loc, atomic, is_write) ->
            Clockvec.set clocks.(tid) tid seq;
            let hb = Clockvec.copy clocks.(tid) in
            let cls = if atomic then Race.Atomic_access else Race.Na_access in
            Race.on_access sparse ~loc ~tid ~seq ~hb ~is_write ~cls;
            Dense.on_access dense ~loc ~tid ~seq ~hb ~is_write ~cls)
        history;
      Race.races sparse = Dense.races dense)

(* ---------- report keys against their Printf reference ---------- *)

(* The format [Race.dedup_key] and the unnamed-location fallback used
   before they were assembled by concatenation; the bytes must not move,
   since campaign reports and cached shards are keyed by them. *)
let printf_key r =
  let cls = function Race.Na_access -> "na" | Race.Atomic_access -> "atomic" in
  let rw b = if b then "write" else "read" in
  Printf.sprintf "%s|%s%s|%s%s" r.Race.loc_name (cls r.Race.first_class)
    (rw r.Race.first_is_write) (cls r.Race.second_class) (rw r.Race.second_is_write)

let gen_report =
  QCheck.Gen.(
    let cls = oneofl [ Race.Na_access; Race.Atomic_access ] in
    (* names with format directives, the key's separator and bytes past
       ASCII, next to plain ones *)
    let name =
      oneof
        [
          oneofl [ ""; "x"; "%d"; "%s|%%"; "a|b"; "\xc3\xa9t\xc3\xa9"; "\xff\x00|" ];
          string_size
            ~gen:(oneofl [ 'a'; '%'; '|'; 's'; '\xe2'; '\x82'; '\xac' ])
            (int_range 0 12);
          map (Printf.sprintf "loc%d") (int_range (-3) 100_000);
        ]
    in
    map
      (fun ((loc_name, c1, w1), (c2, w2)) ->
        {
          Race.loc = 0;
          loc_name;
          first_tid = 0;
          first_seq = 1;
          first_is_write = w1;
          first_class = c1;
          second_tid = 1;
          second_seq = 2;
          second_is_write = w2;
          second_class = c2;
        })
      (pair (triple name cls bool) (pair cls bool)))

let prop_dedup_key_printf =
  QCheck.Test.make ~name:"dedup_key matches its Printf reference" ~count:500
    (QCheck.make ~print:(fun r -> String.escaped (printf_key r)) gen_report)
    (fun r -> Race.dedup_key r = printf_key r)

(* Every class and read/write combination of both sides, over names with
   the separator, a directive and non-ASCII bytes. *)
let test_dedup_key_combinations () =
  let classes = [ Race.Na_access; Race.Atomic_access ] and bools = [ false; true ] in
  List.iter
    (fun loc_name ->
      List.iter
        (fun c1 ->
          List.iter
            (fun w1 ->
              List.iter
                (fun c2 ->
                  List.iter
                    (fun w2 ->
                      let r =
                        {
                          Race.loc = 3;
                          loc_name;
                          first_tid = 0;
                          first_seq = 1;
                          first_is_write = w1;
                          first_class = c1;
                          second_tid = 1;
                          second_seq = 2;
                          second_is_write = w2;
                          second_class = c2;
                        }
                      in
                      Alcotest.(check string) "key" (printf_key r) (Race.dedup_key r))
                    bools)
                classes)
            bools)
        classes)
    [ "flag"; "a|b"; "100%"; "%s%d"; "caf\xc3\xa9" ]

(* A location without a name reports as [loc<n>], as [Printf "loc%d"]. *)
let test_unnamed_location_name () =
  List.iter
    (fun loc ->
      let t = Race.create () in
      access t ~loc ~tid:0 ~seq:1 ~hb:(cv [ 1 ]) ~w:true ();
      access t ~loc ~tid:1 ~seq:2 ~hb:(cv [ 0; 2 ]) ~w:true ();
      match Race.races t with
      | [ r ] ->
        Alcotest.(check string) "fallback name" (Printf.sprintf "loc%d" loc)
          r.Race.loc_name
      | _ -> Alcotest.fail "expected exactly one race")
    [ 0; 1; 9; 10; 15; 16; 17; 99; 1000 ]

let suite =
  [
    Alcotest.test_case "unordered writes race" `Quick test_unordered_write_write;
    Alcotest.test_case "ordered writes don't race" `Quick test_ordered_write_write;
    Alcotest.test_case "read-write race" `Quick test_read_write_race;
    Alcotest.test_case "read-read no race" `Quick test_read_read_no_race;
    Alcotest.test_case "atomic-atomic no race" `Quick test_atomic_atomic_no_race;
    Alcotest.test_case "atomic vs na mixed" `Quick test_atomic_na_mixed;
    Alcotest.test_case "na read vs atomic write" `Quick test_na_read_vs_atomic_write;
    Alcotest.test_case "different locations" `Quick test_different_locations;
    Alcotest.test_case "same thread" `Quick test_same_thread_never_races;
    Alcotest.test_case "report contents" `Quick test_report_contents;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "dedup_key class combinations" `Quick
      test_dedup_key_combinations;
    Alcotest.test_case "unnamed location name" `Quick test_unnamed_location_name;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_sparse_matches_dense; prop_dedup_key_printf ]
