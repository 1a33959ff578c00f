type kind =
  | Load
  | Store
  | Rmw
  | Fence
  | Na_read
  | Na_write
  | Sync
  | Race_check
  | Prune
  | Sched_pick

type event = {
  step : int;
  tid : int;
  kind : kind;
  loc : int;
  mo : string;
  value : int;
  detail : string;
}

let dummy_event =
  { step = 0; tid = -1; kind = Sync; loc = -1; mo = ""; value = 0; detail = "" }

type t = {
  cap : int;  (** ring capacity; 0 = no ring *)
  buf : event array;  (** ring storage; length = max cap 1 *)
  mutable len : int;  (** events currently held, <= cap *)
  mutable next : int;  (** next write index *)
  mutable total : int;  (** events emitted since the last [clear] *)
}

let create ~ring_capacity =
  let cap = max 0 ring_capacity in
  {
    cap;
    buf = Array.make (max cap 1) dummy_event;
    len = 0;
    next = 0;
    total = 0;
  }

let null = create ~ring_capacity:0
let enabled t = t.cap > 0

let emit t e =
  if t.cap > 0 then begin
    t.buf.(t.next) <- e;
    t.next <- (t.next + 1) mod t.cap;
    if t.len < t.cap then t.len <- t.len + 1;
    t.total <- t.total + 1
  end

let total t = t.total

let ring_events t =
  let start = if t.len < t.cap then 0 else t.next in
  List.init t.len (fun i -> t.buf.((start + i) mod t.cap))

let clear t =
  t.len <- 0;
  t.next <- 0;
  t.total <- 0

(* ------------------------------------------------------------------ *)
(* Event pretty-printing and (ND)JSON codec *)

let kind_to_string = function
  | Load -> "load"
  | Store -> "store"
  | Rmw -> "rmw"
  | Fence -> "fence"
  | Na_read -> "na_read"
  | Na_write -> "na_write"
  | Sync -> "sync"
  | Race_check -> "race_check"
  | Prune -> "prune"
  | Sched_pick -> "sched_pick"

let kind_of_string = function
  | "load" -> Some Load
  | "store" -> Some Store
  | "rmw" -> Some Rmw
  | "fence" -> Some Fence
  | "na_read" -> Some Na_read
  | "na_write" -> Some Na_write
  | "sync" -> Some Sync
  | "race_check" -> Some Race_check
  | "prune" -> Some Prune
  | "sched_pick" -> Some Sched_pick
  | _ -> None

let pp_event fmt e =
  Format.fprintf fmt "#%d t%d %s" e.step e.tid (kind_to_string e.kind);
  if e.loc >= 0 then Format.fprintf fmt " loc=%d" e.loc;
  if e.mo <> "" then Format.fprintf fmt " %s" e.mo;
  (match e.kind with
  | Load | Store | Rmw | Na_read | Na_write -> Format.fprintf fmt " v=%d" e.value
  | Sched_pick -> Format.fprintf fmt " enabled=%d" e.value
  | Fence | Sync | Race_check | Prune -> ());
  if e.detail <> "" then Format.fprintf fmt " (%s)" e.detail

let event_to_json e =
  Jsonx.Obj
    [
      ("step", Jsonx.Int e.step);
      ("tid", Jsonx.Int e.tid);
      ("kind", Jsonx.String (kind_to_string e.kind));
      ("loc", Jsonx.Int e.loc);
      ("mo", Jsonx.String e.mo);
      ("value", Jsonx.Int e.value);
      ("detail", Jsonx.String e.detail);
    ]

let event_of_json j =
  let ( let* ) = Result.bind in
  let field ty k = Jsonx.req "event" ty k j in
  let* step = field Jsonx.int "step" in
  let* tid = field Jsonx.int "tid" in
  let* kind = field (Jsonx.enum "kind" kind_of_string) "kind" in
  let* loc = field Jsonx.int "loc" in
  let* mo = field Jsonx.string "mo" in
  let* value = field Jsonx.int "value" in
  let* detail = field Jsonx.string "detail" in
  Ok { step; tid; kind; loc; mo; value; detail }

(* ------------------------------------------------------------------ *)
(* NDJSON export *)

let write_ndjson oc t =
  List.iter
    (fun e ->
      Jsonx.to_channel oc (event_to_json e);
      output_char oc '\n')
    (ring_events t);
  flush oc
