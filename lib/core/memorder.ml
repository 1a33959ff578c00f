type t =
  | Relaxed
  | Consume
  | Acquire
  | Release
  | Acq_rel
  | Seq_cst

let equal (a : t) (b : t) = a = b

let to_string = function
  | Relaxed -> "relaxed"
  | Consume -> "consume"
  | Acquire -> "acquire"
  | Release -> "release"
  | Acq_rel -> "acq_rel"
  | Seq_cst -> "seq_cst"

let of_string = function
  | "relaxed" -> Some Relaxed
  | "consume" -> Some Consume
  | "acquire" -> Some Acquire
  | "release" -> Some Release
  | "acq_rel" -> Some Acq_rel
  | "seq_cst" -> Some Seq_cst
  | _ -> None

let pp fmt t = Format.pp_print_string fmt (to_string t)

let[@inline] is_acquire = function
  | Acquire | Consume | Acq_rel | Seq_cst -> true
  | Relaxed | Release -> false

let[@inline] is_release = function
  | Release | Acq_rel | Seq_cst -> true
  | Relaxed | Consume | Acquire -> false

let[@inline] is_seq_cst = function
  | Seq_cst -> true
  | Relaxed | Consume | Acquire | Release | Acq_rel -> false

(* weak-to-strong linear extension of the strength order: join/meet scan
   it directionally, so the first bound found is the least/greatest *)
let all = [ Relaxed; Consume; Acquire; Release; Acq_rel; Seq_cst ]

(* The strength lattice, encoded componentwise: acquire side
   (0 = none, 1 = consume, 2 = acquire), release side (0/1) and the
   seq_cst flag.  [Acquire] and [Release] are incomparable; [Consume]
   sits strictly between [Relaxed] and [Acquire]. *)
let strength = function
  | Relaxed -> (0, 0, 0)
  | Consume -> (1, 0, 0)
  | Acquire -> (2, 0, 0)
  | Release -> (0, 1, 0)
  | Acq_rel -> (2, 1, 0)
  | Seq_cst -> (2, 1, 1)

let stronger_than a b =
  let xa, xr, xs = strength a and ya, yr, ys = strength b in
  xa >= ya && xr >= yr && xs >= ys

let join a b =
  List.find (fun x -> stronger_than x a && stronger_than x b) all

let meet a b =
  List.find
    (fun x -> stronger_than a x && stronger_than b x)
    (List.rev all)
