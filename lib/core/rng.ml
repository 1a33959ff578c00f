(* The splitmix64 state, unboxed: eight bytes read and written through
   the native 64-bit accessors, so a draw that the caller narrows to an
   int ([int], [bool]) allocates nothing (a [mutable] int64 field would
   box a fresh int64 at every draw). *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix64 s

let next_int64 t = next t

let split t =
  let s = next_int64 t in
  create (mix64 s)

(* Splitmix64's stream is a pure function of the index: the i-th draw of
   [create base] is [mix64 (base + (i+1) * gamma)].  Computing it directly
   lets a campaign hand execution [index] its seed without replaying the
   stream — any worker of a sharded campaign derives the same seed for the
   same execution index, which is what makes parallel campaigns merge
   bit-identically with sequential ones. *)
let substream base ~index =
  if index < 0 then invalid_arg "Rng.substream: index must be non-negative";
  mix64 (Int64.add base (Int64.mul golden_gamma (Int64.of_int (index + 1))))

let[@inline never] bad_bound () = invalid_arg "Rng.int: bound must be positive"

let[@inline] int t bound =
  if bound <= 0 then bad_bound ();
  let r = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  r mod bound

let bool t = Int64.logand (next t) 1L = 1L

let float t =
  let r = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int r /. float_of_int (1 lsl 53)

let shuffle_in_place t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let geometric t mean =
  if mean <= 1 then 1
  else begin
    let p = 1.0 /. float_of_int mean in
    let u = float t in
    let u = if u <= 0.0 then epsilon_float else u in
    let n = int_of_float (ceil (log u /. log (1.0 -. p))) in
    max 1 n
  end
