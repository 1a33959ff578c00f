type access_class = Na_access | Atomic_access

type report = {
  loc : int;
  loc_name : string;
  first_tid : int;
  first_seq : int;
  first_is_write : bool;
  first_class : access_class;
  second_tid : int;
  second_seq : int;
  second_is_write : bool;
  second_class : access_class;
}

(* Shadow cell: each of the four access classes keeps, for every thread
   that accessed the location in that class, the sequence number of its
   most recent such access.  Per-thread "last access" suffices because
   same-thread accesses are ordered by sequenced-before.  A class is a
   thread-sparse slot: one int per thread that accessed the location in
   that class, packing its tid above its seq ([entry]), ascending by tid
   in [v.(0 .. n-1)].  Its size follows the threads that touched the
   location, not the largest tid the execution has created.  A class
   nobody accessed has an empty array, so checking it is free.

   Each slot carries a FastTrack-style epoch witness [cov_tid]: the
   thread whose happens-before clock was last verified to cover every
   other thread's entry.  A thread's clock only grows, and the witness is
   invalidated whenever a different thread writes an entry, so a re-check
   by the witness thread is guaranteed conflict-free and skips the
   scan entirely — the same-epoch shortcut that makes the common run of
   same-thread accesses O(1) per access. *)
type slot = { mutable v : int array; mutable n : int; mutable cov_tid : int }

(* A slot entry: [tid] above [seq_bits] bits of seq.  Seqs count an
   execution's events and stay far below 2^40 (the engine's step limit
   is in the millions); entries order as their tids. *)
let seq_bits = 40
let seq_mask = (1 lsl seq_bits) - 1
let[@inline] entry ~tid ~seq = (tid lsl seq_bits) lor seq
let[@inline] entry_tid x = x lsr seq_bits

type shadow = { na_w : slot; at_w : slot; na_r : slot; at_r : slot }

type t = {
  (* locations are dense small ints (Execution.fresh_loc counts from 0),
     so the shadow store and the names are direct-indexed arrays — the
     per-access lookup is a bounds check and a load, not a hash probe *)
  mutable shadows : shadow array;
  mutable names : string option array;
  obs : Obs.t;
  metrics : Metrics.t;
  metrics_on : bool;
  mutable found : report list;
  mutable count : int;
}

(* Placeholder for a location never accessed; compared physically, never
   checked or written. *)
let no_shadow =
  let s = { v = [||]; n = 0; cov_tid = -1 } in
  { na_w = s; at_w = s; na_r = s; at_r = s }

let create ?(obs = Obs.null) ?(metrics = Metrics.null) () =
  {
    shadows = [||];
    names = [||];
    obs;
    metrics;
    metrics_on = Metrics.enabled metrics;
    found = [];
    count = 0;
  }

(* The loc-indexed arrays take their first capacity as a 16-slot literal
   (a growth below loc 16 can only be the first): an inline allocation
   where [Array.make] and [Array.blit] are runtime calls.  [None] goes
   through [Sys.opaque_identity], since a literal of more than four
   constants compiles to a [caml_obj_dup] call. *)
let name_location t ~loc name =
  let len = Array.length t.names in
  if loc >= len then
    t.names <-
      (if loc < 16 then
         let n = Sys.opaque_identity None in
         [| n; n; n; n; n; n; n; n; n; n; n; n; n; n; n; n |]
       else begin
         let arr = Array.make (max (loc + 1) (max 16 (2 * len))) None in
         Array.blit t.names 0 arr 0 len;
         arr
       end);
  t.names.(loc) <- Some name

let loc_name t loc =
  match if loc >= 0 && loc < Array.length t.names then t.names.(loc) else None with
  | Some n -> n
  | None -> "loc" ^ string_of_int loc

let[@inline never] new_shadow t loc =
  let s =
    {
      na_w = { v = [||]; n = 0; cov_tid = -1 };
      at_w = { v = [||]; n = 0; cov_tid = -1 };
      na_r = { v = [||]; n = 0; cov_tid = -1 };
      at_r = { v = [||]; n = 0; cov_tid = -1 };
    }
  in
  let len = Array.length t.shadows in
  if loc >= len then
    t.shadows <-
      (if loc < 16 then
         [| no_shadow; no_shadow; no_shadow; no_shadow;
            no_shadow; no_shadow; no_shadow; no_shadow;
            no_shadow; no_shadow; no_shadow; no_shadow;
            no_shadow; no_shadow; no_shadow; no_shadow |]
       else begin
         let arr = Array.make (max (loc + 1) (max 16 (2 * len))) no_shadow in
         Array.blit t.shadows 0 arr 0 len;
         arr
       end);
  t.shadows.(loc) <- s;
  s

let[@inline] shadow t loc =
  if loc < Array.length t.shadows then
    let s = Array.unsafe_get t.shadows loc in
    if s == no_shadow then new_shadow t loc else s
  else new_shadow t loc

(* A conflict: the access at [seq] by [tid] is unordered with [u]'s
   prior access at [s].  Out of line, like the growth below: it builds
   the report and formats the trace event, and a clean run of an
   execution never reaches it. *)
let[@inline never] report t ~prior_is_write ~prior_class ~loc ~u ~s ~tid ~seq
    ~is_write ~cls =
  let r =
    {
      loc;
      loc_name = loc_name t loc;
      first_tid = u;
      first_seq = s;
      first_is_write = prior_is_write;
      first_class = prior_class;
      second_tid = tid;
      second_seq = seq;
      second_is_write = is_write;
      second_class = cls;
    }
  in
  t.found <- r :: t.found;
  t.count <- t.count + 1;
  Metrics.incr t.metrics "race.reports";
  if Obs.enabled t.obs then
    Obs.emit t.obs
      {
        Obs.step = seq;
        tid;
        kind = Obs.Race_check;
        loc;
        mo = "";
        value = 0;
        detail = Printf.sprintf "%s: t%d #%d vs t%d #%d" r.loc_name u s tid seq;
      }

(* Check the access against one prior slot.  It runs up to four times per
   access, each copy specialised to its slot by inlining.  On an epoch
   miss it scans the slot for entries unordered with [hb], reporting
   each, ascending by tid, and installs the coverage witness on a clean
   scan.  The scan reads the raw slot: the common miss (entry covered by
   [hb]) is two loads and two compares per entry. *)
let[@inline] check t slot ~prior_is_write ~prior_class ~loc ~tid ~seq ~hb
    ~is_write ~cls =
  if slot.cov_tid = tid then begin
    (* Same-epoch fast path: this thread's clock already covered every
       other entry and nothing foreign was written since. *)
    if t.metrics_on then Metrics.incr t.metrics "race.epoch_hits"
  end
  else begin
    let clean = ref true in
    let hd = Clockvec.raw hb in
    let nh = Array.length hd in
    let v = slot.v in
    for i = 0 to slot.n - 1 do
      let x = Array.unsafe_get v i in
      let u = entry_tid x in
      if u <> tid then begin
        let s = x land seq_mask in
        if s > (if u < nh then Array.unsafe_get hd u else 0) then begin
          clean := false;
          report t ~prior_is_write ~prior_class ~loc ~u ~s ~tid ~seq ~is_write
            ~cls
        end
      end
    done;
    if !clean then slot.cov_tid <- tid
  end

(* Insert [tid]'s first entry at index [i], doubling the array when
   full.  A slot is never emptied, so [n = 0] is a class's first entry:
   a one-slot literal, with no runtime call.  Later entries open their
   slot by a loop, not a blit, which is a call even when it moves
   nothing. *)
let[@inline never] insert slot i ~tid ~seq =
  let n = slot.n in
  if n = 0 then slot.v <- [| entry ~tid ~seq |]
  else begin
    if n = Array.length slot.v then begin
      let a = Array.make (2 * n) 0 in
      Array.blit slot.v 0 a 0 n;
      slot.v <- a
    end;
    let v = slot.v in
    for j = n downto i + 1 do
      Array.unsafe_set v j (Array.unsafe_get v (j - 1))
    done;
    Array.unsafe_set v i (entry ~tid ~seq)
  end;
  slot.n <- n + 1

(* Record [tid]'s access at [seq], inserting its entry on the class's
   first access by [tid].  Entries order as their tids, so [tid]'s entry,
   if any, is the first one at or above [entry ~tid ~seq:0]. *)
let[@inline] record slot ~tid ~seq =
  let v = slot.v and n = slot.n in
  let i = Bytid.search v n (entry ~tid ~seq:0) in
  if i < n && entry_tid (Array.unsafe_get v i) = tid then
    Array.unsafe_set v i (entry ~tid ~seq)
  else insert slot i ~tid ~seq;
  if slot.cov_tid <> tid then slot.cov_tid <- -1

let on_access t ~loc ~tid ~seq ~hb ~is_write ~cls =
  let s = shadow t loc in
  match (cls, is_write) with
  | Na_access, true ->
    (* A non-atomic write conflicts with every other access. *)
    check t s.na_w ~prior_is_write:true ~prior_class:Na_access ~loc ~tid ~seq
      ~hb ~is_write ~cls;
    check t s.at_w ~prior_is_write:true ~prior_class:Atomic_access ~loc ~tid
      ~seq ~hb ~is_write ~cls;
    check t s.na_r ~prior_is_write:false ~prior_class:Na_access ~loc ~tid ~seq
      ~hb ~is_write ~cls;
    check t s.at_r ~prior_is_write:false ~prior_class:Atomic_access ~loc ~tid
      ~seq ~hb ~is_write ~cls;
    record s.na_w ~tid ~seq
  | Na_access, false ->
    check t s.na_w ~prior_is_write:true ~prior_class:Na_access ~loc ~tid ~seq
      ~hb ~is_write ~cls;
    check t s.at_w ~prior_is_write:true ~prior_class:Atomic_access ~loc ~tid
      ~seq ~hb ~is_write ~cls;
    record s.na_r ~tid ~seq
  | Atomic_access, true ->
    check t s.na_w ~prior_is_write:true ~prior_class:Na_access ~loc ~tid ~seq
      ~hb ~is_write ~cls;
    check t s.na_r ~prior_is_write:false ~prior_class:Na_access ~loc ~tid ~seq
      ~hb ~is_write ~cls;
    record s.at_w ~tid ~seq
  | Atomic_access, false ->
    check t s.na_w ~prior_is_write:true ~prior_class:Na_access ~loc ~tid ~seq
      ~hb ~is_write ~cls;
    record s.at_r ~tid ~seq

let races t = List.rev t.found
let race_count t = t.count

let clear t =
  t.shadows <- [||];
  t.found <- [];
  t.count <- 0

let class_to_string = function Na_access -> "na" | Atomic_access -> "atomic"
let rw b = if b then "write" else "read"

let pp_report fmt r =
  Format.fprintf fmt "data race on %s: %s %s by t%d (#%d) vs %s %s by t%d (#%d)"
    r.loc_name (class_to_string r.first_class) (rw r.first_is_write)
    r.first_tid r.first_seq
    (class_to_string r.second_class)
    (rw r.second_is_write) r.second_tid r.second_seq

(* The bytes of [Printf.sprintf "%s|%s%s|%s%s"] over the same pieces,
   without interpreting a format: a campaign keys every report it
   merges. *)
let dedup_key r =
  String.concat ""
    [
      r.loc_name;
      "|";
      class_to_string r.first_class;
      rw r.first_is_write;
      "|";
      class_to_string r.second_class;
      rw r.second_is_write;
    ]

let report_to_json r =
  Jsonx.Obj
    [
      ("loc", Jsonx.Int r.loc);
      ("loc_name", Jsonx.String r.loc_name);
      ("first_tid", Jsonx.Int r.first_tid);
      ("first_seq", Jsonx.Int r.first_seq);
      ("first_is_write", Jsonx.Bool r.first_is_write);
      ("first_class", Jsonx.String (class_to_string r.first_class));
      ("second_tid", Jsonx.Int r.second_tid);
      ("second_seq", Jsonx.Int r.second_seq);
      ("second_is_write", Jsonx.Bool r.second_is_write);
      ("second_class", Jsonx.String (class_to_string r.second_class));
    ]
