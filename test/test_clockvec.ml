(* Clock vectors: unit tests plus property-based lattice laws. *)

let check = Alcotest.(check bool)

let test_bottom () =
  let cv = Clockvec.bottom () in
  check "empty slot is 0" true (Clockvec.get cv 5 = 0);
  check "bottom leq bottom" true (Clockvec.leq cv (Clockvec.bottom ()))

let test_of_slot () =
  let cv = Clockvec.of_slot ~tid:3 ~seq:17 in
  check "slot set" true (Clockvec.get cv 3 = 17);
  check "other slots 0" true (Clockvec.get cv 0 = 0 && Clockvec.get cv 9 = 0)

let test_set_get () =
  let cv = Clockvec.bottom () in
  Clockvec.set cv 7 42;
  check "set then get" true (Clockvec.get cv 7 = 42);
  Clockvec.set cv 7 10;
  check "set overwrites" true (Clockvec.get cv 7 = 10)

let test_merge () =
  let a = Clockvec.of_slot ~tid:0 ~seq:5 in
  let b = Clockvec.of_slot ~tid:1 ~seq:9 in
  let changed = Clockvec.merge a b in
  check "merge changed" true changed;
  check "merge keeps max 0" true (Clockvec.get a 0 = 5);
  check "merge takes slot 1" true (Clockvec.get a 1 = 9);
  check "idempotent merge" false (Clockvec.merge a b)

let test_leq () =
  let a = Clockvec.of_slot ~tid:0 ~seq:3 in
  let b = Clockvec.of_slot ~tid:0 ~seq:5 in
  check "3 <= 5" true (Clockvec.leq a b);
  check "5 <= 3 fails" false (Clockvec.leq b a);
  Clockvec.set a 1 1;
  check "incomparable" false (Clockvec.leq a b || Clockvec.leq b a)

let test_leq_length_mismatch () =
  let a = Clockvec.bottom () in
  Clockvec.set a 10 0;
  (* trailing zero slots must not affect comparisons *)
  check "padded zeros leq bottom" true (Clockvec.leq a (Clockvec.bottom ()));
  check "bottom leq padded" true (Clockvec.leq (Clockvec.bottom ()) a);
  check "equal modulo padding" true (Clockvec.equal a (Clockvec.bottom ()))

let test_intersect () =
  let a = Clockvec.bottom () and b = Clockvec.bottom () in
  Clockvec.set a 0 5;
  Clockvec.set a 1 2;
  Clockvec.set b 0 3;
  Clockvec.set b 1 7;
  let i = Clockvec.intersect a b in
  check "min slot 0" true (Clockvec.get i 0 = 3);
  check "min slot 1" true (Clockvec.get i 1 = 2);
  check "intersect leq both" true (Clockvec.leq i a && Clockvec.leq i b)

let test_covers () =
  let cv = Clockvec.of_slot ~tid:2 ~seq:10 in
  check "covers earlier" true (Clockvec.covers cv ~tid:2 ~seq:10);
  check "covers smaller" true (Clockvec.covers cv ~tid:2 ~seq:4);
  check "not covers later" false (Clockvec.covers cv ~tid:2 ~seq:11);
  check "not covers other tid" false (Clockvec.covers cv ~tid:0 ~seq:1)

let test_copy_independent () =
  let a = Clockvec.of_slot ~tid:0 ~seq:1 in
  let b = Clockvec.copy a in
  Clockvec.set b 0 99;
  check "copy is independent" true (Clockvec.get a 0 = 1)

(* ------------------------------------------------------------------ *)
(* qcheck properties *)

let gen_cv =
  QCheck.Gen.(
    map
      (fun slots ->
        let cv = Clockvec.bottom () in
        List.iteri (fun i v -> if v > 0 then Clockvec.set cv i v) slots;
        cv)
      (list_size (int_range 0 6) (int_range 0 20)))

let arb_cv = QCheck.make ~print:(Fmt.to_to_string Clockvec.pp) gen_cv

let prop_union_upper_bound =
  QCheck.Test.make ~name:"union is an upper bound" ~count:300
    (QCheck.pair arb_cv arb_cv) (fun (a, b) ->
      let u = Clockvec.union a b in
      Clockvec.leq a u && Clockvec.leq b u)

let prop_union_least =
  QCheck.Test.make ~name:"union is the least upper bound" ~count:300
    (QCheck.triple arb_cv arb_cv arb_cv) (fun (a, b, c) ->
      QCheck.assume (Clockvec.leq a c && Clockvec.leq b c);
      Clockvec.leq (Clockvec.union a b) c)

let prop_intersect_lower_bound =
  QCheck.Test.make ~name:"intersection is a lower bound" ~count:300
    (QCheck.pair arb_cv arb_cv) (fun (a, b) ->
      let i = Clockvec.intersect a b in
      Clockvec.leq i a && Clockvec.leq i b)

let prop_leq_partial_order =
  QCheck.Test.make ~name:"leq is reflexive and transitive" ~count:300
    (QCheck.triple arb_cv arb_cv arb_cv) (fun (a, b, c) ->
      Clockvec.leq a a
      && if Clockvec.leq a b && Clockvec.leq b c then Clockvec.leq a c else true)

let prop_merge_equals_union =
  QCheck.Test.make ~name:"merge reaches the union" ~count:300
    (QCheck.pair arb_cv arb_cv) (fun (a, b) ->
      let u = Clockvec.union a b in
      let a' = Clockvec.copy a in
      ignore (Clockvec.merge a' b);
      Clockvec.equal a' u)

let prop_merge_reports_change =
  QCheck.Test.make ~name:"merge returns true iff dst grows" ~count:300
    (QCheck.pair arb_cv arb_cv) (fun (a, b) ->
      let a' = Clockvec.copy a in
      let changed = Clockvec.merge a' b in
      changed = not (Clockvec.leq b a))

(* ---------- clocks of every width against an int-array model ---------- *)

(* Only 4-slot clocks are copied inline; the empty clock, the 8-slot
   literal, the generic copy, [of_slot] past tid 3 and every growth take
   the out-of-line paths, so the widths here run past 32. *)
let max_width = 40

let mget m i = if i < Array.length m then m.(i) else 0

(* Slot by slot against the model, past the widest clock. *)
let agrees cv m =
  let ok = ref true in
  for i = 0 to max_width + 8 do
    if Clockvec.get cv i <> mget m i then ok := false
  done;
  !ok

(* A clock of [Array.length m] slots: by [set] over every slot, or by
   [of_slot] for the last slot and [set] for the others. *)
let build (by_slot, m) =
  let n = Array.length m in
  let cv =
    if by_slot && n > 0 then Clockvec.of_slot ~tid:(n - 1) ~seq:m.(n - 1)
    else Clockvec.bottom ()
  in
  Array.iteri
    (fun i v -> if not (by_slot && i = n - 1) then Clockvec.set cv i v)
    m;
  cv

let arb_model =
  QCheck.make
    ~print:(fun (by_slot, m) ->
      Printf.sprintf "%s [%s]"
        (if by_slot then "of_slot" else "set")
        (String.concat "; " (Array.to_list (Array.map string_of_int m))))
    QCheck.Gen.(
      pair bool
        (map Array.of_list
           (list_size (int_range 0 max_width)
              (frequency [ (2, return 0); (3, int_range 1 30) ]))))

let test_of_slot_every_tid () =
  for tid = 0 to max_width do
    let cv = Clockvec.of_slot ~tid ~seq:(tid + 7) in
    let m = Array.make (tid + 1) 0 in
    m.(tid) <- tid + 7;
    check (Printf.sprintf "of_slot ~tid:%d" tid) true (agrees cv m)
  done

let prop_get_set_copy =
  QCheck.Test.make ~name:"get/set/copy agree with the model at any width"
    ~count:300
    (QCheck.triple arb_model (QCheck.int_range 0 max_width) (QCheck.int_range 1 50))
    (fun (spec, j, v) ->
      let m = snd spec in
      let cv = build spec in
      let c = Clockvec.copy cv in
      Clockvec.set c j v;
      let m' =
        Array.init (max (Array.length m) (j + 1)) (fun i -> if i = j then v else mget m i)
      in
      agrees cv m && agrees c m')

let prop_merge_leq_union =
  QCheck.Test.make ~name:"merge/leq/union agree with the model at any width"
    ~count:300
    (QCheck.pair arb_model arb_model)
    (fun (sa, sb) ->
      let ma = snd sa and mb = snd sb in
      let a = build sa and b = build sb in
      let w = max (Array.length ma) (Array.length mb) in
      let mmax = Array.init w (fun i -> max (mget ma i) (mget mb i)) in
      let model_leq = List.for_all (fun i -> mget ma i <= mget mb i) (List.init w Fun.id) in
      let model_grows = List.exists (fun i -> mget mb i > mget ma i) (List.init w Fun.id) in
      let u = Clockvec.union a b in
      let a' = Clockvec.copy a in
      let changed = Clockvec.merge a' b in
      Clockvec.leq a b = model_leq
      && agrees u mmax && agrees a' mmax && changed = model_grows
      && agrees a ma && agrees b mb)

let suite =
  [
    Alcotest.test_case "bottom" `Quick test_bottom;
    Alcotest.test_case "of_slot" `Quick test_of_slot;
    Alcotest.test_case "set/get" `Quick test_set_get;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "leq" `Quick test_leq;
    Alcotest.test_case "leq length mismatch" `Quick test_leq_length_mismatch;
    Alcotest.test_case "intersect" `Quick test_intersect;
    Alcotest.test_case "covers" `Quick test_covers;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    Alcotest.test_case "of_slot at every tid to 40" `Quick test_of_slot_every_tid;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_union_upper_bound;
        prop_union_least;
        prop_intersect_lower_bound;
        prop_leq_partial_order;
        prop_merge_equals_union;
        prop_merge_reports_change;
        prop_get_set_copy;
        prop_merge_leq_union;
      ]
