(* Seqarr, the seq-sorted growable array behind every (location, thread)
   cell and the certifier's sweep cells, against a list model.  Runs are
   long enough to cross its first capacity (4, an array literal) and two
   doublings (8 and 16, through [Array.make]), with clears and filters
   interleaved, so entries are found and compacted on each side of every
   transition. *)

let action seq : Action.t =
  {
    Action.seq;
    tid = 0;
    kind = Action.Store;
    loc = 0;
    mo = Memorder.Relaxed;
    value = seq;
    rf = None;
    hb_cv = Clockvec.bottom ();
    rf_cv = None;
    rmw_claimed = false;
    volatile = false;
    mo_node = Action.No_graph_node;
  }

type op =
  | Push of int  (** the gap to the previous seq, at least 1 *)
  | Clear
  | Filter of int * int  (** keep the entries with [seq mod m <> r] *)

let pp_op = function
  | Push g -> Printf.sprintf "push+%d" g
  | Clear -> "clear"
  | Filter (m, r) -> Printf.sprintf "filter(mod %d <> %d)" m r

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 17 90)
      (frequency
         [
           (12, map (fun g -> Push g) (int_range 1 3));
           (1, return Clear);
           ( 1,
             let* m = int_range 2 4 in
             map (fun r -> Filter (m, r)) (int_range 0 (m - 1)) );
         ]))

(* Every query of [c] against [model], the entries oldest first. *)
let agrees c model =
  let default = action (-1) in
  let arr = Array.of_list model in
  let n = Array.length arr in
  let max_seq = if n = 0 then 0 else arr.(n - 1).Action.seq in
  let newest_le bound =
    let i = ref (-1) in
    Array.iteri (fun j (a : Action.t) -> if a.seq <= bound then i := j) arr;
    !i
  in
  let queries_agree = ref true in
  for bound = -1 to max_seq + 1 do
    let i = newest_le bound in
    if Seqarr.newest_le c bound <> i then queries_agree := false;
    let want = if i < 0 then default else arr.(i) in
    if Seqarr.newest_le_or c bound ~default != want then queries_agree := false
  done;
  Seqarr.length c = n
  && Seqarr.is_empty c = (n = 0)
  && List.length (Seqarr.to_list c) = n
  && List.for_all2 ( == ) (Seqarr.to_list c) model
  && List.for_all (fun i -> Seqarr.get c i == arr.(i)) (List.init n Fun.id)
  && (n = 0 || Seqarr.last c == arr.(n - 1))
  && !queries_agree

let prop_matches_list_model =
  QCheck.Test.make ~name:"seqarr agrees with a list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_op ops))
       gen_ops)
    (fun ops ->
      let c = Seqarr.create () in
      let model = ref [] and seq = ref 0 and ok = ref (agrees c []) in
      List.iter
        (fun op ->
          (match op with
          | Push gap ->
            seq := !seq + gap;
            let a = action !seq in
            Seqarr.push c a;
            model := !model @ [ a ]
          | Clear ->
            Seqarr.clear c;
            model := []
          | Filter (m, r) ->
            let keep (a : Action.t) = a.seq mod m <> r in
            let kept = List.filter keep !model in
            let dropped = Seqarr.filter_in_place c keep in
            if dropped <> List.length !model - List.length kept then ok := false;
            model := kept);
          if not (agrees c !model) then ok := false)
        ops;
      !ok)

(* A fixed run that crosses every transition without a clear: 40 pushes
   grow the array 0 -> 4 -> 8 -> 16 -> 32 -> 64. *)
let test_long_run () =
  let c = Seqarr.create () in
  let model = ref [] in
  for seq = 1 to 40 do
    let a = action (2 * seq) in
    Seqarr.push c a;
    model := !model @ [ a ];
    if not (agrees c !model) then Alcotest.failf "disagrees after %d pushes" seq
  done

let suite =
  [ Alcotest.test_case "40 pushes through four doublings" `Quick test_long_run ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_matches_list_model ]
