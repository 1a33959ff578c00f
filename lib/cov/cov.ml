(* C11cov — see cov.mli for the contract.

   Everything here is deterministic and wall-clock-free: a signature is a
   pure function of the event array, an accumulator of the observations
   fed to it, and the merge of its shards (first-occurrence indices make
   the sharded order reconstructible). *)

type ev = {
  ev_tid : int;
  ev_kind : Action.kind;
  ev_loc : int;
  ev_mo : Memorder.t;
  ev_rf : int option;
}

(* ------------------------------------------------------------------ *)
(* Canonicalisation.

   Threads and locations are renamed to their first-appearance index in
   the event array (then, for threads, the sync-edge list).  A pure
   relabeling changes neither event order nor edge structure, so the
   canonical indices — and therefore the signature — are invariant; this
   is the property test/test_cov.ml checks. *)

type renaming = { table : (int, int) Hashtbl.t; mutable next : int }

let renaming () = { table = Hashtbl.create 16; next = 0 }

let canon r x =
  match Hashtbl.find_opt r.table x with
  | Some c -> c
  | None ->
    let c = r.next in
    r.next <- c + 1;
    Hashtbl.replace r.table x c;
    c

let mo_tag = Memorder.to_string

let is_write_kind = function
  | Action.Store | Action.Rmw | Action.Na_store -> true
  | Action.Load | Action.Fence -> false

let edges evs ~sync =
  let tids = renaming () and locs = renaming () in
  Array.iter
    (fun e ->
      ignore (canon tids e.ev_tid);
      if e.ev_loc >= 0 then ignore (canon locs e.ev_loc))
    evs;
  List.iter
    (fun (a, b) ->
      ignore (canon tids a);
      ignore (canon tids b))
    sync;
  let out = ref [] in
  let add s = out := s :: !out in
  (* rf (and its release/acquire subset, the rf-induced sw edges) *)
  Array.iter
    (fun e ->
      match e.ev_rf with
      | None -> ()
      | Some j ->
        let w = evs.(j) in
        let ct_w = canon tids w.ev_tid and ct_r = canon tids e.ev_tid in
        let cl = canon locs e.ev_loc in
        add
          (Printf.sprintf "rf:t%d>t%d@l%d:%s>%s" ct_w ct_r cl (mo_tag w.ev_mo)
             (mo_tag e.ev_mo));
        if Memorder.is_release w.ev_mo && Memorder.is_acquire e.ev_mo then
          add (Printf.sprintf "sw:t%d>t%d@l%d" ct_w ct_r cl))
    evs;
  (* mo: per-location adjacent write pairs in commit (event) order *)
  let last_writer = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      if e.ev_loc >= 0 && is_write_kind e.ev_kind then begin
        let cl = canon locs e.ev_loc in
        let ct = canon tids e.ev_tid in
        (match Hashtbl.find_opt last_writer cl with
        | Some prev -> add (Printf.sprintf "mo:t%d>t%d@l%d" prev ct cl)
        | None -> ());
        Hashtbl.replace last_writer cl ct
      end)
    evs;
  (* recorded synchronisation edges (spawn / join / mutex hand-off) *)
  List.iter
    (fun (a, b) ->
      add (Printf.sprintf "st:t%d>t%d" (canon tids a) (canon tids b)))
    sync;
  List.sort_uniq String.compare !out

let signature evs ~sync = String.concat ";" (edges evs ~sync)
let digest_hex s = Digest.to_hex (Digest.string s)

type shape = {
  sg_digest : string;
  sg_edges : int;
  sg_events : int;
  sg_mo : (string * int) list;
}

let shape_of_execution ~actions ~sync_edges =
  let trace = Array.of_list actions in
  let idx_of_seq = Hashtbl.create (Array.length trace) in
  Array.iteri
    (fun i (a : Action.t) -> Hashtbl.replace idx_of_seq a.Action.seq i)
    trace;
  let evs =
    Array.map
      (fun (a : Action.t) ->
        {
          ev_tid = a.Action.tid;
          ev_kind = a.Action.kind;
          ev_loc = a.Action.loc;
          ev_mo = a.Action.mo;
          ev_rf =
            (match a.Action.rf with
            | None -> None
            | Some w -> Hashtbl.find_opt idx_of_seq w.Action.seq);
        })
      trace
  in
  let sync =
    List.map
      (fun (se : Execution.sync_edge) ->
        (se.Execution.se_from_tid, se.Execution.se_to_tid))
      sync_edges
  in
  let es = edges evs ~sync in
  let mo = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      match e.ev_kind with
      | Action.Load | Action.Store | Action.Rmw | Action.Fence ->
        let k = mo_tag e.ev_mo in
        Hashtbl.replace mo k (1 + Option.value ~default:0 (Hashtbl.find_opt mo k))
      | Action.Na_store -> ())
    evs;
  {
    sg_digest = digest_hex (String.concat ";" es);
    sg_edges = List.length es;
    sg_events = Array.length evs;
    sg_mo =
      Hashtbl.fold (fun k v l -> (k, v) :: l) mo []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

(* ------------------------------------------------------------------ *)
(* Streaming fingerprint.

   The same signature as [shape_of_execution], computed from the
   certification sink instead of a retained trace.  The engine feeds
   every action once, in sequence-number order, so renaming on first
   appearance gives each thread and location the index the first pass
   of [edges] gives it.  A read's store was fed before the
   read, so its thread is already named.  Sync-edge threads are named
   after the last action, as in [edges].  Edges are kept as packed
   integer codes and rendered once each at the end; memory is
   O(threads + locations + distinct edges), not O(trace). *)

(* Open-addressing set of non-negative ints: linear probing, -1 marks an
   empty slot, doubled at half load.  Starts at 32 slots, which a short
   execution rarely outgrows. *)
type iset = { mutable slots : int array; mutable card : int }

let iset_create () = { slots = Array.make 32 (-1); card = 0 }

let[@inline] iset_slot code mask =
  let h = code * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 31)) land mask

let rec iset_probe slots mask code i =
  let v = Array.unsafe_get slots i in
  if v = code then false
  else if v < 0 then begin
    Array.unsafe_set slots i code;
    true
  end
  else iset_probe slots mask code ((i + 1) land mask)

(* [true] when [code] was not yet in the set *)
let iset_add s code =
  let mask = Array.length s.slots - 1 in
  let fresh = iset_probe s.slots mask code (iset_slot code mask) in
  if fresh then begin
    s.card <- s.card + 1;
    if 2 * s.card > mask then begin
      let old = s.slots in
      let slots = Array.make (2 * Array.length old) (-1) in
      let mask = Array.length slots - 1 in
      Array.iter
        (fun v -> if v >= 0 then ignore (iset_probe slots mask v (iset_slot v mask)))
        old;
      s.slots <- slots
    end
  end;
  fresh

let iset_iter f s = Array.iter (fun v -> if v >= 0 then f v) s.slots

(* Edge code layout, high to low: kind (2 bits), writer order (3), reader
   order (3), source thread (14), target thread (14), location (26) — 62
   bits, every code non-negative.  The orders are set only for rf.  An
   edge whose indices do not fit is rendered at once instead. *)
let k_rf = 0
let k_sw = 1
let k_mo = 2
let k_st = 3  (* never packed: sync edges are rendered from thread pairs *)
let tid_bits = 14
let loc_bits = 26
let tid_limit = 1 lsl tid_bits
let loc_limit = 1 lsl loc_bits

let mo_index = function
  | Memorder.Relaxed -> 0
  | Memorder.Consume -> 1
  | Memorder.Acquire -> 2
  | Memorder.Release -> 3
  | Memorder.Acq_rel -> 4
  | Memorder.Seq_cst -> 5

let mo_names =
  Array.map mo_tag Memorder.[| Relaxed; Consume; Acquire; Release; Acq_rel; Seq_cst |]

let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* The text [edges] gives the same edge. *)
let render_edge buf ~kind ~a ~b ~l ~mo_w ~mo_r =
  Buffer.clear buf;
  Buffer.add_string buf
    (if kind = k_rf then "rf:t"
     else if kind = k_sw then "sw:t"
     else if kind = k_mo then "mo:t"
     else "st:t");
  add_nat buf a;
  Buffer.add_string buf ">t";
  add_nat buf b;
  if kind <> k_st then begin
    Buffer.add_string buf "@l";
    add_nat buf l
  end;
  if kind = k_rf then begin
    Buffer.add_char buf ':';
    Buffer.add_string buf mo_names.(mo_w);
    Buffer.add_char buf '>';
    Buffer.add_string buf mo_names.(mo_r)
  end;
  Buffer.contents buf

let render_code buf code =
  render_edge buf ~kind:(code lsr 60)
    ~mo_w:((code lsr 57) land 7)
    ~mo_r:((code lsr 54) land 7)
    ~a:((code lsr (tid_bits + loc_bits)) land (tid_limit - 1))
    ~b:((code lsr loc_bits) land (tid_limit - 1))
    ~l:(code land (loc_limit - 1))

module Sset = Hashtbl.Make (String)

(* [arr] grown (with -1 fill) so that index [i] is in range *)
let covering arr i =
  let len = Array.length arr in
  if i < len then arr
  else begin
    let arr' = Array.make (max (i + 1) (2 * len)) (-1) in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

(* Raw id -> first-appearance index, direct-indexed (thread and location
   ids are dense small ints), -1 when not yet named. *)
type names = { mutable ids : int array; mutable count : int }

let names () = { ids = Array.make 8 (-1); count = 0 }

let name n raw =
  n.ids <- covering n.ids raw;
  let c = Array.unsafe_get n.ids raw in
  if c >= 0 then c
  else begin
    let c = n.count in
    n.count <- c + 1;
    Array.unsafe_set n.ids raw c;
    c
  end

module Stream = struct
  type t = {
    tids : names;
    locs : names;
    mutable last_writer : int array;
        (* canonical location -> canonical thread of its newest write *)
    codes : iset;
    mutable wide : unit Sset.t option;  (* rendered edges that overflow a code *)
    sync_seen : iset;  (* raw (from, to) thread pairs *)
    mutable sync_rev : int list;  (* the same pairs, newest first *)
    mutable events : int;
    mo_counts : int array;
    buf : Buffer.t;
  }

  let create () =
    {
      tids = names ();
      locs = names ();
      last_writer = Array.make 8 (-1);
      codes = iset_create ();
      wide = None;
      sync_seen = iset_create ();
      sync_rev = [];
      events = 0;
      mo_counts = Array.make 6 0;
      buf = Buffer.create 32;
    }

  let add_edge s ~kind ~a ~b ~l ~mo_w ~mo_r =
    if a < tid_limit && b < tid_limit && l < loc_limit then begin
      let orders = (((kind lsl 3) lor mo_w) lsl 3) lor mo_r in
      let tids = (((orders lsl tid_bits) lor a) lsl tid_bits) lor b in
      ignore (iset_add s.codes ((tids lsl loc_bits) lor l))
    end
    else begin
      let set =
        match s.wide with
        | Some set -> set
        | None ->
          let set = Sset.create 8 in
          s.wide <- Some set;
          set
      in
      Sset.replace set (render_edge s.buf ~kind ~a ~b ~l ~mo_w ~mo_r) ()
    end

  let action s (a : Action.t) =
    s.events <- s.events + 1;
    let ct = name s.tids a.Action.tid in
    (match a.Action.kind with
    | Action.Na_store -> ()
    | Action.Load | Action.Store | Action.Rmw | Action.Fence ->
      let i = mo_index a.Action.mo in
      s.mo_counts.(i) <- s.mo_counts.(i) + 1);
    if a.Action.loc >= 0 then begin
      let cl = name s.locs a.Action.loc in
      (match a.Action.rf with
      | None -> ()
      | Some w ->
        let cw = name s.tids w.Action.tid in
        add_edge s ~kind:k_rf ~a:cw ~b:ct ~l:cl ~mo_w:(mo_index w.Action.mo)
          ~mo_r:(mo_index a.Action.mo);
        if Memorder.is_release w.Action.mo && Memorder.is_acquire a.Action.mo
        then add_edge s ~kind:k_sw ~a:cw ~b:ct ~l:cl ~mo_w:0 ~mo_r:0);
      if is_write_kind a.Action.kind then begin
        s.last_writer <- covering s.last_writer cl;
        let prev = s.last_writer.(cl) in
        if prev >= 0 then add_edge s ~kind:k_mo ~a:prev ~b:ct ~l:cl ~mo_w:0 ~mo_r:0;
        s.last_writer.(cl) <- ct
      end
    end

  let edge s (e : Execution.sync_edge) =
    let code = (e.Execution.se_from_tid lsl 31) lor e.Execution.se_to_tid in
    if iset_add s.sync_seen code then s.sync_rev <- code :: s.sync_rev

  let sink s =
    {
      Execution.cs_action = action s;
      cs_edge = edge s;
      cs_release = (fun ~tid:_ ~seq:_ -> ());
      cs_release_drop = (fun ~seq:_ -> ());
    }

  let shape s =
    let out = ref [] in
    iset_iter (fun code -> out := render_code s.buf code :: !out) s.codes;
    Option.iter (Sset.iter (fun e () -> out := e :: !out)) s.wide;
    (* sync-edge threads are named after every action, in edge order *)
    List.iter
      (fun code ->
        let a = name s.tids (code lsr 31) in
        let b = name s.tids (code land ((1 lsl 31) - 1)) in
        out := render_edge s.buf ~kind:k_st ~a ~b ~l:0 ~mo_w:0 ~mo_r:0 :: !out)
      (List.rev s.sync_rev);
    let es = List.sort String.compare !out in
    let mo = ref [] in
    Array.iteri
      (fun i n -> if n > 0 then mo := (mo_names.(i), n) :: !mo)
      s.mo_counts;
    {
      sg_digest = digest_hex (String.concat ";" es);
      sg_edges = List.length es;
      sg_events = s.events;
      sg_mo = List.sort (fun (a, _) (b, _) -> String.compare a b) !mo;
    }
end

(* ------------------------------------------------------------------ *)
(* Accumulation *)

type acc = {
  mutable a_execs : int;
  mutable a_events : int;
  a_shapes : (string, int * int) Hashtbl.t;  (* key -> count, first index *)
  a_races : (string, int * int) Hashtbl.t;
  a_violations : (string, int * int) Hashtbl.t;
  a_lint : (string, int * int) Hashtbl.t;
  a_mo : (string, int) Hashtbl.t;
}

let create () =
  {
    a_execs = 0;
    a_events = 0;
    a_shapes = Hashtbl.create 32;
    a_races = Hashtbl.create 8;
    a_violations = Hashtbl.create 8;
    a_lint = Hashtbl.create 8;
    a_mo = Hashtbl.create 8;
  }

let observe_key table ~index key =
  match Hashtbl.find_opt table key with
  | Some (count, first) ->
    Hashtbl.replace table key (count + 1, min first index);
    false
  | None ->
    Hashtbl.replace table key (1, index);
    true

let observe acc ~index shape =
  acc.a_execs <- acc.a_execs + 1;
  acc.a_events <- acc.a_events + shape.sg_events;
  List.iter
    (fun (k, n) ->
      Hashtbl.replace acc.a_mo k
        (n + Option.value ~default:0 (Hashtbl.find_opt acc.a_mo k)))
    shape.sg_mo;
  observe_key acc.a_shapes ~index shape.sg_digest

let observe_race acc ~index key = observe_key acc.a_races ~index key
let observe_violation acc ~index key = observe_key acc.a_violations ~index key
let observe_lint acc ~index key = observe_key acc.a_lint ~index key

type shard = {
  d_execs : int;
  d_events : int;
  d_shapes : (string * int * int) list;
  d_races : (string * int * int) list;
  d_violations : (string * int * int) list;
  d_lint : (string * int * int) list;
  d_mo : (string * int) list;
}

let table_entries t =
  Hashtbl.fold (fun k (count, first) l -> (k, count, first) :: l) t []

let shard acc =
  {
    d_execs = acc.a_execs;
    d_events = acc.a_events;
    d_shapes = table_entries acc.a_shapes;
    d_races = table_entries acc.a_races;
    d_violations = table_entries acc.a_violations;
    d_lint = table_entries acc.a_lint;
    d_mo = Hashtbl.fold (fun k v l -> (k, v) :: l) acc.a_mo [];
  }

type entry = { e_key : string; e_count : int; e_first : int }

type summary = {
  s_executions : int;
  s_events : int;
  s_shapes : entry list;
  s_races : entry list;
  s_violations : entry list;
  s_lint_rules : entry list;
  s_mo : (string * int) list;
}

let merge_table proj shards =
  Par.Merge.histogram_indexed (List.map proj shards)
  |> List.map (fun (k, count, first) ->
         { e_key = k; e_count = count; e_first = first })

let merge shards =
  let mo = Hashtbl.create 8 in
  List.iter
    (fun s ->
      List.iter
        (fun (k, n) ->
          Hashtbl.replace mo k (n + Option.value ~default:0 (Hashtbl.find_opt mo k)))
        s.d_mo)
    shards;
  {
    s_executions = List.fold_left (fun acc s -> acc + s.d_execs) 0 shards;
    s_events = List.fold_left (fun acc s -> acc + s.d_events) 0 shards;
    s_shapes = merge_table (fun s -> s.d_shapes) shards;
    s_races = merge_table (fun s -> s.d_races) shards;
    s_violations = merge_table (fun s -> s.d_violations) shards;
    s_lint_rules = merge_table (fun s -> s.d_lint) shards;
    s_mo =
      Hashtbl.fold (fun k v l -> (k, v) :: l) mo []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let distinct_shapes s = List.length s.s_shapes

(* The novelty-query surface corpus admission is built on: every key a
   campaign discovered, under the same prefixes the fuzz loop uses when
   it nominates a program for the corpus.  Lint rule hits are excluded
   deliberately — they are properties of the generated program, not of an
   explored execution shape, so they must not admit corpus entries. *)
let summary_keys s =
  List.map (fun e -> "shape:" ^ e.e_key) s.s_shapes
  @ List.map (fun e -> "race:" ^ e.e_key) s.s_races
  @ List.map (fun e -> "violation:" ^ e.e_key) s.s_violations
  |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Serialisation *)

let entries_to_json entries =
  Jsonx.List
    (List.map
       (fun e ->
         Jsonx.Obj
           [
             ("key", Jsonx.String e.e_key);
             ("count", Jsonx.Int e.e_count);
             ("first", Jsonx.Int e.e_first);
           ])
       entries)

let summary_to_json s =
  Jsonx.Obj
    [
      ("executions", Jsonx.Int s.s_executions);
      ("events", Jsonx.Int s.s_events);
      ("distinct_shapes", Jsonx.Int (List.length s.s_shapes));
      ("distinct_race_sites", Jsonx.Int (List.length s.s_races));
      ("distinct_violations", Jsonx.Int (List.length s.s_violations));
      ("distinct_lint_rules", Jsonx.Int (List.length s.s_lint_rules));
      ("shapes", entries_to_json s.s_shapes);
      ("race_sites", entries_to_json s.s_races);
      ("violations", entries_to_json s.s_violations);
      ("lint_rules", entries_to_json s.s_lint_rules);
      ( "mo_histogram",
        Jsonx.Obj (List.map (fun (k, n) -> (k, Jsonx.Int n)) s.s_mo) );
    ]

let schema = "c11cov-v1"

let record kind fields =
  Jsonx.Obj
    (("schema", Jsonx.String schema) :: ("kind", Jsonx.String kind) :: fields)

let entry_records kind entries =
  List.map
    (fun e ->
      record kind
        [
          ("key", Jsonx.String e.e_key);
          ("count", Jsonx.Int e.e_count);
          ("first", Jsonx.Int e.e_first);
        ])
    entries

let summary_to_ndjson s =
  record "campaign"
    [
      ("executions", Jsonx.Int s.s_executions);
      ("events", Jsonx.Int s.s_events);
      ("distinct_shapes", Jsonx.Int (List.length s.s_shapes));
      ("distinct_race_sites", Jsonx.Int (List.length s.s_races));
      ("distinct_violations", Jsonx.Int (List.length s.s_violations));
    ]
  :: entry_records "shape" s.s_shapes
  @ entry_records "race_site" s.s_races
  @ entry_records "violation" s.s_violations
  @ entry_records "lint_rule" s.s_lint_rules
  @ List.map
      (fun (k, n) ->
        record "mo" [ ("order", Jsonx.String k); ("count", Jsonx.Int n) ])
      s.s_mo

let summary_of_ndjson docs =
  let ( let* ) = Result.bind in
  let field ty k j = Jsonx.req schema ty k j in
  let entry_of j =
    let* e_key = field Jsonx.string "key" j in
    let* e_count = field Jsonx.int "count" j in
    let* e_first = field Jsonx.int "first" j in
    Ok { e_key; e_count; e_first }
  in
  let rec go docs campaign shapes races violations lint mo =
    match docs with
    | [] -> (
      match campaign with
      | None -> Error "no c11cov-v1 campaign record"
      | Some (executions, events) ->
        let order l = List.sort (fun a b -> compare a.e_first b.e_first) l in
        Ok
          {
            s_executions = executions;
            s_events = events;
            s_shapes = order (List.rev shapes);
            s_races = order (List.rev races);
            s_violations = order (List.rev violations);
            s_lint_rules = order (List.rev lint);
            s_mo = List.sort (fun (a, _) (b, _) -> String.compare a b) mo;
          })
    | j :: rest -> (
      let* () = field (Jsonx.literal schema) "schema" j in
      let* kind = field Jsonx.string "kind" j in
      match kind with
      | "campaign" ->
        if campaign <> None then Error "duplicate campaign record"
        else
          let* executions = field Jsonx.int "executions" j in
          let* events = field Jsonx.int "events" j in
          go rest (Some (executions, events)) shapes races violations lint mo
      | "shape" ->
        let* e = entry_of j in
        go rest campaign (e :: shapes) races violations lint mo
      | "race_site" ->
        let* e = entry_of j in
        go rest campaign shapes (e :: races) violations lint mo
      | "violation" ->
        let* e = entry_of j in
        go rest campaign shapes races (e :: violations) lint mo
      | "lint_rule" ->
        let* e = entry_of j in
        go rest campaign shapes races violations (e :: lint) mo
      | "mo" ->
        let* order = field Jsonx.string "order" j in
        let* count = field Jsonx.int "count" j in
        go rest campaign shapes races violations lint ((order, count) :: mo)
      | k -> Error (Printf.sprintf "unknown record kind %S" k))
  in
  go docs None [] [] [] [] []

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>coverage: %d distinct shapes over %d executions (%d trace events)@ \
     race sites: %d, violation keys: %d@]"
    (List.length s.s_shapes) s.s_executions s.s_events (List.length s.s_races)
    (List.length s.s_violations);
  if s.s_lint_rules <> [] then begin
    Format.fprintf fmt "@ lint rules:";
    List.iter (fun e -> Format.fprintf fmt " %s=%d" e.e_key e.e_count) s.s_lint_rules
  end;
  if s.s_mo <> [] then begin
    Format.fprintf fmt "@ memory orders:";
    List.iter (fun (k, n) -> Format.fprintf fmt " %s=%d" k n) s.s_mo
  end
