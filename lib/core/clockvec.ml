type t = { mutable data : int array }

let bottom () = { data = [||] }

(* Clocks are short (one slot per thread) and are created and copied on
   every action, so the common widths are built as array literals: an
   inline minor-heap allocation, where [Array.make] and [Array.copy] are
   runtime calls ([caml_make_vect], [caml_array_sub]).

   Every function a visible operation calls is split in two: an
   [[@inline]] fast path, small enough to copy into each caller (the
   compiler inlines across modules only bodies it is told to, or tiny
   ones), and an [[@inline never]] cold path for growth and the rare
   widths (DESIGN.md, "Hot and cold paths"). *)
let[@inline] zeros4 () = [| 0; 0; 0; 0 |]

(* The cold half of [ensure]: grow to at least [n] slots, doubling, never
   below 4. *)
let[@inline never] grow t n =
  let len = Array.length t.data in
  if len = 0 && n <= 4 then t.data <- zeros4 ()
  else begin
    let data = Array.make (max n (max 4 (2 * len))) 0 in
    Array.blit t.data 0 data 0 len;
    t.data <- data
  end

let[@inline] ensure t n = if n > Array.length t.data then grow t n

let[@inline never] of_slot_wide ~tid ~seq =
  let data = Array.make (tid + 1) 0 in
  Array.unsafe_set data tid seq;
  { data }

let[@inline] of_slot ~tid ~seq =
  if tid < 4 then begin
    let data = zeros4 () in
    Array.unsafe_set data tid seq;
    { data }
  end
  else of_slot_wide ~tid ~seq

(* Copies of every width but 4: the empty clock, the 8-slot literal and
   the generic copy. *)
let[@inline never] copy_other d =
  match Array.length d with
  | 0 -> { data = [||] }
  | 8 ->
    {
      data =
        [|
          Array.unsafe_get d 0;
          Array.unsafe_get d 1;
          Array.unsafe_get d 2;
          Array.unsafe_get d 3;
          Array.unsafe_get d 4;
          Array.unsafe_get d 5;
          Array.unsafe_get d 6;
          Array.unsafe_get d 7;
        |];
    }
  | _ -> { data = Array.copy d }

let[@inline] copy t =
  let d = t.data in
  if Array.length d = 4 then
    {
      data =
        [|
          Array.unsafe_get d 0;
          Array.unsafe_get d 1;
          Array.unsafe_get d 2;
          Array.unsafe_get d 3;
        |];
    }
  else copy_other d

let[@inline] get t i = if i < Array.length t.data then t.data.(i) else 0

let[@inline] set t i v =
  ensure t (i + 1);
  t.data.(i) <- v

(* [merge]/[leq] sit on every transition rule (thread-clock joins, mo-graph
   propagation, shadow-cell coverage), and the vectors are short — one slot
   per thread.  Both get a physical-equality fast path, an empty fast path,
   and a single bounds check per loop iteration instead of one per slot. *)
let[@inline] merge dst src =
  if dst == src then false
  else begin
    let sd = src.data in
    let n = Array.length sd in
    if n = 0 then false
    else begin
      ensure dst n;
      let dd = dst.data in
      let changed = ref false in
      for i = 0 to n - 1 do
        let s = Array.unsafe_get sd i in
        if s > Array.unsafe_get dd i then begin
          Array.unsafe_set dd i s;
          changed := true
        end
      done;
      !changed
    end
  end

let union a b =
  let t = copy a in
  ignore (merge t b);
  t

let[@inline] leq a b =
  a == b
  ||
  let da = a.data and db = b.data in
  let na = Array.length da and nb = Array.length db in
  (* a loop, not a local recursive function: that would be a closure
     over [da]/[db], allocated on every call *)
  let n = if na <= nb then na else nb in
  let i = ref 0 in
  while !i < n && Array.unsafe_get da !i <= Array.unsafe_get db !i do
    incr i
  done;
  (* slots of [a] past [b]'s width compare against 0 *)
  if !i = n then
    while !i < na && Array.unsafe_get da !i <= 0 do
      incr i
    done;
  !i >= na

let equal a b = leq a b && leq b a

let intersect a b =
  let n = min (Array.length a.data) (Array.length b.data) in
  let data = Array.init n (fun i -> min a.data.(i) b.data.(i)) in
  { data }

let[@inline] covers t ~tid ~seq = get t tid >= seq

let[@inline] width t = Array.length t.data

let[@inline] raw t = t.data

let pp fmt t =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       Format.pp_print_int)
    (Array.to_list t.data)
