(* Deterministic RNG: determinism, bounds and distribution sanity. *)

let check = Alcotest.(check bool)

let test_determinism () =
  let a = Rng.create 42L and b = Rng.create 42L in
  let xs = List.init 100 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 100 (fun _ -> Rng.next_int64 b) in
  check "same seed, same stream" true (xs = ys)

let test_seeds_differ () =
  let a = Rng.create 1L and b = Rng.create 2L in
  let xs = List.init 20 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 20 (fun _ -> Rng.next_int64 b) in
  check "different seeds diverge" false (xs = ys)

let test_split_independent () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.next_int64 a) in
  let ys = List.init 20 (fun _ -> Rng.next_int64 b) in
  check "split stream differs" false (xs = ys)

let test_int_bounds () =
  let r = Rng.create 3L in
  check "all in bounds" true
    (List.for_all
       (fun _ ->
         let v = Rng.int r 7 in
         v >= 0 && v < 7)
       (List.init 1000 Fun.id))

let test_int_coverage () =
  let r = Rng.create 5L in
  let seen = Array.make 4 false in
  for _ = 1 to 200 do
    seen.(Rng.int r 4) <- true
  done;
  check "all residues reached" true (Array.for_all Fun.id seen)

let test_int_invalid () =
  let r = Rng.create 1L in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_shuffle_is_permutation () =
  let r = Rng.create 11L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle_in_place r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check "permutation" true (sorted = Array.init 50 Fun.id)

let test_geometric () =
  let r = Rng.create 13L in
  let samples = List.init 2000 (fun _ -> Rng.geometric r 10) in
  check "all >= 1" true (List.for_all (fun x -> x >= 1) samples);
  let mean =
    float_of_int (List.fold_left ( + ) 0 samples) /. 2000.0
  in
  check "mean near 10" true (mean > 6.0 && mean < 14.0)

let test_float_range () =
  let r = Rng.create 17L in
  check "floats in [0,1)" true
    (List.for_all
       (fun _ ->
         let f = Rng.float r in
         f >= 0.0 && f < 1.0)
       (List.init 1000 Fun.id))

(* Substreams: [substream base ~index:i] must be exactly the i-th draw of
   the sequential [next_int64] stream from the same base — this identity is
   what lets the parallel campaign runner deal execution seeds to any
   worker in any pattern without changing what any one execution does. *)

let test_substream_equals_stream () =
  let r = Rng.create 42L in
  let seq = List.init 200 (fun _ -> Rng.next_int64 r) in
  let sub = List.init 200 (fun i -> Rng.substream 42L ~index:i) in
  check "substream = sequential stream" true (seq = sub)

let test_substream_negative () =
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Rng.substream: index must be non-negative") (fun () ->
      ignore (Rng.substream 1L ~index:(-1)))

(* Leapfrog partition: worker w of j handling indices w, w+j, w+2j, ...
   covers every global index exactly once, and the seed at each index is
   the same for every worker count. *)
let test_substream_leapfrog () =
  let total = 97 in
  let base = 20260806L in
  let reference = Array.init total (fun i -> Rng.substream base ~index:i) in
  List.iter
    (fun jobs ->
      let seen = Array.make total 0 in
      for worker = 0 to jobs - 1 do
        let i = ref worker in
        while !i < total do
          seen.(!i) <- seen.(!i) + 1;
          let s = Rng.substream base ~index:!i in
          if s <> reference.(!i) then
            Alcotest.failf "jobs=%d index %d: seed differs" jobs !i;
          i := !i + jobs
        done
      done;
      if not (Array.for_all (fun n -> n = 1) seen) then
        Alcotest.failf "jobs=%d: partition not exact" jobs)
    [ 1; 2; 3; 4; 7 ]

(* No collisions within a base (mix64 is a bijection, so distinct indices
   give distinct seeds) and no overlap between the windows of nearby bases
   (the gamma stride is astronomically far from +/-1). *)
let test_substream_collisions () =
  let module S = Set.Make (Int64) in
  let n = 10_000 in
  let within = List.init n (fun i -> Rng.substream 7L ~index:i) in
  check "distinct within base" true
    (S.cardinal (S.of_list within) = n);
  let other = List.init n (fun i -> Rng.substream 8L ~index:i) in
  check "no overlap across adjacent bases" true
    (S.is_empty (S.inter (S.of_list within) (S.of_list other)))

let prop_bool_balanced =
  QCheck.Test.make ~name:"bool is roughly balanced" ~count:20
    QCheck.(int_range 1 10000)
    (fun seed ->
      let r = Rng.create (Int64.of_int seed) in
      let trues = ref 0 in
      for _ = 1 to 400 do
        if Rng.bool r then incr trues
      done;
      !trues > 120 && !trues < 280)

(* The stream itself, pinned: the first three draws for three seeds are
   reference splitmix64 (Steele, Lea and Flood's constants), and the
   derived draws below were taken from the boxed-int64 implementation, so
   any rewrite of the state must reproduce them bit for bit. *)
let test_pinned_stream () =
  let first3 seed =
    let r = Rng.create seed in
    let a = Rng.next_int64 r in
    let b = Rng.next_int64 r in
    let c = Rng.next_int64 r in
    [ a; b; c ]
  in
  let pin seed expected =
    Alcotest.(check (list int64))
      (Printf.sprintf "seed %Ld" seed) expected (first3 seed)
  in
  pin 0L [ 0xE220A8397B1DCDAFL; 0x6E789E6AA1B965F4L; 0x06C45D188009454FL ];
  pin 1L [ 0x910A2DEC89025CC1L; 0xBEEB8DA1658EEC67L; 0xF893A2EEFB32555EL ];
  pin 42L [ 0xBDD732262FEB6E95L; 0x28EFE333B266F103L; 0x47526757130F9F52L ]

let test_pinned_derived () =
  let r = Rng.create 7L in
  Alcotest.(check (list int))
    "int draws, seed 7" [ 1; 0; 6; 50; 445089910; 1 ]
    (List.map (Rng.int r) [ 2; 3; 10; 1000; 1 lsl 30; 5 ]);
  List.iter
    (fun (base, index, expected) ->
      Alcotest.(check int64)
        (Printf.sprintf "substream %Ld %d" base index)
        expected
        (Rng.substream base ~index))
    [
      (1L, 0, 0x910A2DEC89025CC1L);
      (1L, 1, 0xBEEB8DA1658EEC67L);
      (1L, 1000, 0x7760003B54A685AEL);
      (42L, 7, 0xCCF635EE9E9E2FA4L);
      (-3L, 5, 0x082CFE8866FAC366L);
    ];
  let r = Rng.create 99L in
  let b1 = Rng.bool r in
  let b2 = Rng.bool r in
  let f = Rng.float r in
  let s = Rng.split r in
  Alcotest.(check (list bool)) "bool draws, seed 99" [ true; false ] [ b1; b2 ];
  Alcotest.(check (float 0.)) "float draw, seed 99" 0x1.ab65a069e083ap-1 f;
  Alcotest.(check int64) "split stream" 0xDD66C19A845E4B90L (Rng.next_int64 s)

(* The draws the engine makes per scheduling decision and candidate
   shuffle box nothing. *)
let test_int_allocates_nothing () =
  let r = Rng.create 5L in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    acc := !acc + Rng.int r (1 + (i land 7))
  done;
  let words = Gc.minor_words () -. before in
  check "draws ran" true (!acc >= 0);
  if words > 100. then
    Alcotest.failf "1000 Rng.int draws allocated %.0f minor words" words

let suite =
  [
    Alcotest.test_case "pinned splitmix64 stream" `Quick test_pinned_stream;
    Alcotest.test_case "pinned derived draws" `Quick test_pinned_derived;
    Alcotest.test_case "int draws allocate nothing" `Quick
      test_int_allocates_nothing;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "split independence" `Quick test_split_independent;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int coverage" `Quick test_int_coverage;
    Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "geometric" `Quick test_geometric;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "substream = stream" `Quick test_substream_equals_stream;
    Alcotest.test_case "substream negative index" `Quick test_substream_negative;
    Alcotest.test_case "substream leapfrog partition" `Quick
      test_substream_leapfrog;
    Alcotest.test_case "substream collisions" `Quick test_substream_collisions;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_bool_balanced ]
