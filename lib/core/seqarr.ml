type t = { mutable arr : Action.t array; mutable n : int }

(* Placeholder for unused and cleared slots; never read. *)
let filler : Action.t =
  {
    Action.seq = 0;
    tid = -1;
    kind = Action.Fence;
    loc = -1;
    mo = Memorder.Relaxed;
    value = 0;
    rf = None;
    hb_cv = Clockvec.bottom ();
    rf_cv = None;
    rmw_claimed = false;
    volatile = false;
    mo_node = Action.No_graph_node;
  }

let create () = { arr = [||]; n = 0 }
let[@inline] length c = c.n
let[@inline] is_empty c = c.n = 0
let[@inline] get c i = c.arr.(i)
let[@inline] last c = c.arr.(c.n - 1)

(* The first capacity is an array literal (an inline allocation, where
   [Array.make] and [Array.blit] are runtime calls); only a doubling
   calls them, out of line. *)
let[@inline never] double c =
  let n = c.n in
  let arr = Array.make (2 * n) filler in
  Array.blit c.arr 0 arr 0 n;
  c.arr <- arr

let[@inline] push c (a : Action.t) =
  let n = c.n in
  if n = Array.length c.arr then
    if n = 0 then c.arr <- [| filler; filler; filler; filler |] else double c;
  Array.unsafe_set c.arr n a;
  c.n <- n + 1

(* The binary search of [newest_le], out of line: the bound falls
   strictly inside the array, so the answer is in [0 .. n-2]. *)
let[@inline never] search_le arr n bound =
  let lo = ref 0 and hi = ref (n - 2) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) lsr 1 in
    if (Array.unsafe_get arr mid).Action.seq <= bound then lo := mid
    else hi := mid - 1
  done;
  !lo

(* Index of the newest entry with [seq <= bound], or -1: a binary search,
   since entries ascend by seq, after a look at the newest entry, which
   is the answer whenever the bound covers the whole cell (the common
   case: a thread's own cell, or one it has synchronised with), and at
   the oldest. *)
let[@inline] newest_le c bound =
  let arr = c.arr in
  let n = c.n in
  if n = 0 then -1
  else if (Array.unsafe_get arr (n - 1)).Action.seq <= bound then n - 1
  else if (Array.unsafe_get arr 0).Action.seq > bound then -1
  else search_le arr n bound

let[@inline] newest_le_or c bound ~default =
  let i = newest_le c bound in
  if i < 0 then default else Array.unsafe_get c.arr i

let clear c =
  if c.n > 0 then begin
    Array.fill c.arr 0 c.n filler;
    c.n <- 0
  end

let filter_in_place c keep =
  let arr = c.arr in
  let j = ref 0 in
  for i = 0 to c.n - 1 do
    let a = Array.unsafe_get arr i in
    if keep a then begin
      if !j < i then Array.unsafe_set arr !j a;
      incr j
    end
  done;
  let dropped = c.n - !j in
  if dropped > 0 then begin
    Array.fill arr !j dropped filler;
    c.n <- !j
  end;
  dropped

let to_list c =
  let rec go i acc = if i < 0 then acc else go (i - 1) (c.arr.(i) :: acc) in
  go (c.n - 1) []
