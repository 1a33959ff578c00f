(* Axiomatic certification of recorded executions: an independent
   reconstruction of the declarative C11 fragment, cross-checked against
   both the trace itself and the engine's derived structures.  See
   check.mli for the axiom inventory and the scope notes. *)

type axiom =
  | Hb_irreflexivity
  | Hb_differential
  | Rf_wf
  | Coherence
  | Rmw_atomicity
  | Sc_order
  | Theorem1_differential
  | Sync_wf

type violation = { axiom : axiom; actions : int list; detail : string }

type stats = {
  actions : int;
  reads : int;
  writes : int;
  sc_actions : int;
  sync_edges : int;
  hb_pairs : int;
  locations : int;
  graph_checked : bool;
}

type verdict =
  | Certified of stats
  | Rejected of violation list
  | Not_applicable of string

let axiom_name = function
  | Hb_irreflexivity -> "hb-irreflexivity"
  | Hb_differential -> "hb-differential"
  | Rf_wf -> "rf-wf"
  | Coherence -> "coherence"
  | Rmw_atomicity -> "rmw-atomicity"
  | Sc_order -> "sc-order"
  | Theorem1_differential -> "theorem1-differential"
  | Sync_wf -> "sync-wf"

(* Violation details embed sequence numbers as ["#<digits>"]; the dedup
   key strips those digit runs so the same model bug found under
   different seeds collapses to one key, while location names and the
   shape of the explanation survive. *)
let violation_key v =
  let b = Buffer.create 64 in
  Buffer.add_string b (axiom_name v.axiom);
  Buffer.add_char b ':';
  let s = v.detail in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    Buffer.add_char b c;
    incr i;
    if c = '#' then
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done
  done;
  Buffer.contents b

(* One seed-stable key for a whole rejection: the distinct violation keys,
   sorted and joined.  Two executions rejected for the same set of model
   bugs — under different seeds, programs or job counts — collapse to the
   same key; the fuzzer uses this as its finding identity. *)
(* The dominant key, not a join of all of them: one engine bug usually
   trips several axioms at once (a dropped mo edge fails CoWW and the
   Theorem 1 differential, on however many locations the program has),
   and keying on the combination would count every subset as a distinct
   finding. *)
let rejection_key vs =
  match List.sort compare (List.map violation_key vs) with
  | [] -> "none"
  | k :: _ -> k

let pp_violation fmt v =
  Format.fprintf fmt "[%s] %s (actions:%a)" (axiom_name v.axiom) v.detail
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
       (fun fmt s -> Format.fprintf fmt " #%d" s))
    v.actions

let pp_verdict fmt = function
  | Certified s ->
    Format.fprintf fmt
      "certified: %d actions (%d reads, %d writes, %d sc), %d sync edges, \
       %d locations, %d hb pairs%s"
      s.actions s.reads s.writes s.sc_actions s.sync_edges s.locations
      s.hb_pairs
      (if s.graph_checked then "" else " [mo-graph checks skipped: pruned]")
  | Rejected vs ->
    Format.fprintf fmt "@[<v>REJECTED (%d violations):@ %a@]" (List.length vs)
      (Format.pp_print_list pp_violation)
      vs
  | Not_applicable why -> Format.fprintf fmt "not applicable: %s" why

let violation_to_json v =
  Jsonx.Obj
    [
      ("axiom", Jsonx.String (axiom_name v.axiom));
      ("actions", Jsonx.List (List.map (fun s -> Jsonx.Int s) v.actions));
      ("detail", Jsonx.String v.detail);
      ("key", Jsonx.String (violation_key v));
    ]

let verdict_to_json = function
  | Certified s ->
    Jsonx.Obj
      [
        ("verdict", Jsonx.String "certified");
        ("actions", Jsonx.Int s.actions);
        ("reads", Jsonx.Int s.reads);
        ("writes", Jsonx.Int s.writes);
        ("sc_actions", Jsonx.Int s.sc_actions);
        ("sync_edges", Jsonx.Int s.sync_edges);
        ("hb_pairs", Jsonx.Int s.hb_pairs);
        ("locations", Jsonx.Int s.locations);
        ("graph_checked", Jsonx.Bool s.graph_checked);
      ]
  | Rejected vs ->
    Jsonx.Obj
      [
        ("verdict", Jsonx.String "rejected");
        ("violations", Jsonx.List (List.map violation_to_json vs));
      ]
  | Not_applicable why ->
    Jsonx.Obj
      [
        ("verdict", Jsonx.String "not-applicable");
        ("reason", Jsonx.String why);
      ]

(* ------------------------------------------------------------------ *)
(* Certified happens-before.

   hb = (sb ∪ sw)⁺ is computed with plain integer timelines, never with
   the engine's Clockvec: each thread carries an int array clock (slot u =
   newest event of thread u known to happen before "here"), grown by
   replaying the trace and the recorded synchronisation edges in global
   sequence order.  Delayed fence synchronisation mirrors the memory
   model: a non-acquire read banks the release sequence it observed in a
   pending buffer that only an acquire fence publishes into the thread
   clock.  The certified clock of every action is snapshotted so hb
   queries are O(1) afterwards. *)

type cert = {
  nthreads : int;
  trace : Action.t array;  (** global sequence order *)
  by_seq : (int, Action.t) Hashtbl.t;
  edges : Execution.sync_edge array;
  acv : (int, int array) Hashtbl.t;  (** action seq -> certified clock *)
  heads : (int, Action.t list) Hashtbl.t;
      (** store seq -> release-sequence heads (C++20) *)
  last_rel_fence : (int, Action.t) Hashtbl.t;
      (** store seq -> the release fence feeding its thread's F^rel *)
  mutable violations : violation list;  (** newest first *)
}

let add_violation c axiom actions detail =
  c.violations <- { axiom; actions; detail } :: c.violations

(* Per-violation-family cap: a single systematic model bug would otherwise
   flood the report with one violation per pair. *)
let cap = 8

(* Release-sequence heads of a store, mirroring the reads-from clock
   construction of Figure 9 exactly but in terms of events:
   - a release store heads its own sequence;
   - a relaxed store's sequence is headed by its thread's last release
     fence, if any (F^rel);
   - an RMW extends the sequence of the store it read (C++20: only RMWs
     continue a release sequence) and may add its own head;
   - a non-atomic store never heads or continues a sequence. *)
let rec heads_of c (s : Action.t) =
  match Hashtbl.find_opt c.heads s.seq with
  | Some hs -> hs
  | None ->
    let own =
      if Memorder.is_release s.mo then [ s ]
      else
        match Hashtbl.find_opt c.last_rel_fence s.seq with
        | Some f -> [ f ]
        | None -> []
    in
    let hs =
      match s.kind with
      | Action.Rmw -> (
        match s.rf with
        | Some prev when prev.seq < s.seq -> own @ heads_of c prev
        | Some _ | None -> own)
      | Action.Store -> own
      | Action.Na_store | Action.Load | Action.Fence -> []
    in
    Hashtbl.replace c.heads s.seq hs;
    hs

(* Events of the forward pass, ordered by (seq, rank): a sync edge
   snapshots its source thread's clock when the global order passes its
   release event and merges it into the target when it passes its acquire
   event.  Thread-start edges (to_seq = 0) apply immediately after their
   own snapshot — the child has no events before that point. *)
type ev =
  | Apply of int  (** edge index, at to_seq, rank 0 *)
  | Act of Action.t  (** rank 1 *)
  | Snap of int  (** edge index, at from_seq, rank 2 *)
  | Apply_start of int  (** edge index, at from_seq, rank 3 *)

let ev_pos edges = function
  | Apply i -> ((edges.(i) : Execution.sync_edge).se_to_seq, 0)
  | Act a -> (a.Action.seq, 1)
  | Snap i -> (edges.(i).Execution.se_from_seq, 2)
  | Apply_start i -> (edges.(i).Execution.se_from_seq, 3)

let merge_into dst src =
  let n = Array.length src in
  for i = 0 to n - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let build_hb c =
  let nt = c.nthreads in
  let clocks = Array.init nt (fun _ -> Array.make nt 0) in
  let pending = Array.init nt (fun _ -> Array.make nt 0) in
  let snaps = Array.make (Array.length c.edges) [||] in
  let events =
    Array.append
      (Array.map (fun a -> Act a) c.trace)
      (Array.concat
         (Array.to_list
            (Array.mapi
               (fun i (e : Execution.sync_edge) ->
                 if e.se_to_seq = 0 then [| Snap i; Apply_start i |]
                 else [| Snap i; Apply i |])
               c.edges)))
  in
  Array.sort (fun a b -> compare (ev_pos c.edges a) (ev_pos c.edges b)) events;
  let in_range tid = tid >= 0 && tid < nt in
  Array.iter
    (fun ev ->
      match ev with
      | Snap i ->
        let e = c.edges.(i) in
        if in_range e.se_from_tid then begin
          let s = Array.copy clocks.(e.se_from_tid) in
          if e.se_from_seq > s.(e.se_from_tid) then
            s.(e.se_from_tid) <- e.se_from_seq;
          snaps.(i) <- s
        end
      | Apply i | Apply_start i ->
        let e = c.edges.(i) in
        if in_range e.se_to_tid && Array.length snaps.(i) > 0 then begin
          merge_into clocks.(e.se_to_tid) snaps.(i);
          if e.se_to_seq > clocks.(e.se_to_tid).(e.se_to_tid) then
            clocks.(e.se_to_tid).(e.se_to_tid) <- e.se_to_seq
        end
      | Act a ->
        let tid = a.Action.tid in
        if in_range tid then begin
          let cl = clocks.(tid) in
          cl.(tid) <- a.seq;
          (match a.kind with
          | Action.Load | Action.Rmw -> (
            match a.rf with
            | Some s when s.seq < a.seq ->
              let dst = if Memorder.is_acquire a.mo then cl else pending.(tid) in
              List.iter
                (fun (h : Action.t) ->
                  match Hashtbl.find_opt c.acv h.seq with
                  | Some hc -> merge_into dst hc
                  | None -> ())
                (heads_of c s)
            | Some _ | None -> ())
          | Action.Fence ->
            if Memorder.is_acquire a.mo then merge_into cl pending.(tid)
          | Action.Store | Action.Na_store -> ());
          Hashtbl.replace c.acv a.seq (Array.copy cl)
        end)
    events

(* Strict certified happens-before between two trace actions, mirroring
   {!Action.happens_before}'s contract (an action does not happen before
   itself). *)
let cert_hb c (a : Action.t) (b : Action.t) =
  a.seq <> b.seq
  &&
  match Hashtbl.find_opt c.acv b.seq with
  | Some bc -> a.tid < Array.length bc && bc.(a.tid) >= a.seq
  | None -> false

(* ------------------------------------------------------------------ *)
(* Axiom checks *)

let check_sync_wf c =
  let count = ref 0 in
  Array.iter
    (fun (e : Execution.sync_edge) ->
      if !count < cap then
        if
          e.se_from_tid < 0
          || e.se_from_tid >= c.nthreads
          || e.se_to_tid < 0
          || e.se_to_tid >= c.nthreads
          || e.se_from_seq <= 0
          || (e.se_to_seq <> 0 && e.se_to_seq <= e.se_from_seq)
        then begin
          incr count;
          add_violation c Sync_wf []
            (Printf.sprintf
               "malformed sync edge t%d@#%d -> t%d@#%d (tids in [0,%d), \
                release must precede acquire)"
               e.se_from_tid e.se_from_seq e.se_to_tid e.se_to_seq c.nthreads)
        end)
    c.edges

let check_hb_irreflexive c =
  let count = ref 0 in
  Array.iter
    (fun (a : Action.t) ->
      if !count < cap then
        match Hashtbl.find_opt c.acv a.seq with
        | Some ac ->
          (* the action's own slot is its own seq by construction; a
             foreign slot at or above this action's seq means an edge ran
             backwards in time *)
          Array.iteri
            (fun u v ->
              if u <> a.tid && v >= a.seq && !count < cap then begin
                incr count;
                add_violation c Hb_irreflexivity [ a.seq ]
                  (Printf.sprintf
                     "action #%d's certified clock covers t%d@#%d, which \
                      does not precede it"
                     a.seq u v)
              end)
            ac
        | None ->
          incr count;
          add_violation c Hb_irreflexivity [ a.seq ]
            (Printf.sprintf "action #%d has no certified clock" a.seq))
    c.trace

let check_hb_differential c =
  let n = Array.length c.trace in
  let count = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && !count < cap then begin
        let a = c.trace.(i) and b = c.trace.(j) in
        let certified = cert_hb c a b in
        let operational = Action.happens_before a b in
        if certified <> operational then begin
          incr count;
          add_violation c Hb_differential [ a.seq; b.seq ]
            (Printf.sprintf
               "#%d -hb-> #%d is %b under the certified (sb ∪ sw)⁺ closure \
                but %b under the engine's clock vectors"
               a.seq b.seq certified operational)
        end
      end
    done
  done;
  n * (n - 1)

let check_rf_wf c =
  let count = ref 0 in
  Array.iter
    (fun (r : Action.t) ->
      if Action.is_read r && !count < cap then
        match r.rf with
        | None ->
          incr count;
          add_violation c Rf_wf [ r.seq ]
            (Printf.sprintf "read #%d of loc %d has no reads-from store"
               r.seq r.loc)
        | Some s ->
          let fail msg =
            incr count;
            add_violation c Rf_wf [ r.seq; s.seq ] msg
          in
          if not (Hashtbl.mem c.by_seq s.seq) then
            fail
              (Printf.sprintf "read #%d reads-from #%d, not in the trace"
                 r.seq s.seq)
          else if not (Action.is_write s) then
            fail
              (Printf.sprintf "read #%d reads-from #%d, which is not a write"
                 r.seq s.seq)
          else if s.loc <> r.loc then
            fail
              (Printf.sprintf
                 "read #%d of loc %d reads-from #%d of loc %d" r.seq r.loc
                 s.seq s.loc)
          else if s.seq >= r.seq then
            fail
              (Printf.sprintf
                 "read #%d reads-from #%d, which executes after it" r.seq
                 s.seq)
          else if r.kind = Action.Load && r.value <> s.value then
            fail
              (Printf.sprintf
                 "load #%d returned %d but its reads-from store #%d wrote %d"
                 r.seq r.value s.seq s.value))
    c.trace

(* Per-location mo-graph families: coherence (cycle, CoWW, CoWR) and the
   Theorem-1 differential.  Each location is first decided over bit rows
   (see [decide] below); only a location the decision rejects runs the
   pair-by-pair pass [check_location], which explains the rejection.

   Both passes read one dense view of the location, which the decision
   fills: its window indices (ascending seq), their seqs and tids, each
   read's store, the location's live writes, and mo reachability between
   its writes as bit rows.  The pair pass adds the union relation as
   linked adjacency lists in flat arrays.  Every pair check is an array
   read.  The buffers live in one scratch per domain that grows to the
   largest location seen and is reused for the next: checking a location
   allocates nothing but its violations. *)
type scratch = {
  mutable idx : int array;
      (** window indices grouped by location, ascending within a group *)
  mutable lstart : int array;  (** grouping: loc -> end of its group *)
  (* the view's rows, over n actions in (n + 62) / 63 words per row (see
     [decide]) *)
  mutable vseq : int array;  (** view action -> seq *)
  mutable vtid : int array;  (** view action -> tid *)
  mutable vlive : int array;  (** the view's live writes, ascending *)
  mutable vrf : int array;
      (** view action -> its same-location store's view index, -1 if
          outside the view, -2 if none *)
  mutable wmask : int array;  (** one row: the view's writes *)
  mutable live : int array;  (** one row: the writes with a live node *)
  mutable cowr : int array;  (** one row: the reads CoWR constrains *)
  mutable searched : int array;  (** one row: writes whose search is done *)
  mutable rel : int array;
      (** rows: certified-hb predecessors, then those of the union *)
  mutable mo_rows : int array;  (** rows: mo successors, by graph search *)
  mutable mo_pred : int array;  (** rows: mo predecessors *)
  mutable row : int array;  (** one row: clock-vector reachability *)
  mutable white : int array;  (** one row: cycle search, not yet visited *)
  mutable gray : int array;  (** one row: cycle search, on the path *)
  mutable stack : int array;  (** cycle search path *)
  mutable stamp : int array;
      (** view write -> last search (1-based) to meet it *)
  other : (int, int) Hashtbl.t;
      (** the same for a node outside the view (a retired write), by seq *)
  (* the pair pass's union relation *)
  mutable head : int array;  (** view action -> its newest out-edge, or -1 *)
  mutable enext : int array;  (** edge -> next older edge of its source *)
  mutable edst : int array;  (** edge -> target view action *)
  mutable ne : int;
  mutable color : Bytes.t;  (** DFS: 0 unvisited, 1 on the path, 2 done *)
  mutable path : int array;  (** DFS path, root first *)
  mutable pedge : int array;  (** DFS: next edge to follow at each depth *)
}

let no_action = Mograph.absent.Mograph.action

let new_scratch () =
  {
    idx = [||];
    lstart = [||];
    vseq = [||];
    vtid = [||];
    vlive = [||];
    vrf = [||];
    wmask = [||];
    live = [||];
    cowr = [||];
    searched = [||];
    rel = [||];
    mo_rows = [||];
    mo_pred = [||];
    row = [||];
    white = [||];
    gray = [||];
    stack = [||];
    stamp = [||];
    other = Hashtbl.create 8;
    head = [||];
    enext = [||];
    edst = [||];
    ne = 0;
    color = Bytes.empty;
    path = [||];
    pedge = [||];
  }

(* One scratch per domain: campaigns certify on several domains at once. *)
let scratch_key = Domain.DLS.new_key new_scratch

(* A scratch grown for a large residue is dropped after use, so it does
   not pin its buffers for the domain's life. *)
let oversized sc =
  Array.length sc.idx > 4096
  || Array.length sc.edst > 65536
  || Array.length sc.rel > 65536

(* [a] if it holds [n] ints, else a larger copy *)
let ints a n =
  let len = Array.length a in
  if len >= n then a
  else begin
    let b = Array.make (max n (max 16 (2 * len))) 0 in
    Array.blit a 0 b 0 len;
    b
  end

(* Group the indices of [n] actions by location into [sc.idx], keeping
   their order within a location; fences (loc -1) are left out.
   Afterwards location [l]'s group is [idx.(lstart.(l-1) .. lstart.(l) -
   1)] (from 0 for [l = 0]).  Returns the number of location slots. *)
let group_by_loc sc (acts : Action.t array) n =
  let nloc = ref 0 in
  for i = 0 to n - 1 do
    let l = acts.(i).Action.loc in
    if l >= !nloc then nloc := l + 1
  done;
  let nloc = !nloc in
  if Array.length sc.lstart <= nloc then sc.lstart <- ints sc.lstart (nloc + 1);
  let ls = sc.lstart in
  for l = 0 to nloc do
    ls.(l) <- 0
  done;
  (* counts at l + 1, prefix sums: ls.(l) = start of l's group *)
  for i = 0 to n - 1 do
    let l = acts.(i).Action.loc in
    if l >= 0 then ls.(l + 1) <- ls.(l + 1) + 1
  done;
  for l = 1 to nloc do
    ls.(l) <- ls.(l) + ls.(l - 1)
  done;
  if Array.length sc.idx < n then sc.idx <- ints sc.idx n;
  let idx = sc.idx in
  (* scatter: ls.(l) advances from l's start to its end *)
  for i = 0 to n - 1 do
    let l = acts.(i).Action.loc in
    if l >= 0 then begin
      let p = ls.(l) in
      idx.(p) <- i;
      ls.(l) <- p + 1
    end
  done;
  nloc

(* [f loc ~off ~n] for each location of [n] actions that has any,
   ascending: its window indices are [sc.idx.(off .. off + n - 1)] *)
let iter_locations sc (acts : Action.t array) n f =
  let nloc = group_by_loc sc acts n in
  let start = ref 0 in
  for l = 0 to nloc - 1 do
    let stop = sc.lstart.(l) in
    if stop > !start then f l ~off:!start ~n:(stop - !start);
    start := stop
  done

(* Bit rows: row [i] of a relation over a view of n actions is [nwd =
   (n + 62) / 63] words of 63 bits each (see [decide]). *)
let word_bits = 63

let[@inline] set_bit rows nwd i j =
  let w = (i * nwd) + (j / word_bits) in
  rows.(w) <- rows.(w) lor (1 lsl (j mod word_bits))

let[@inline] has_bit rows nwd i j =
  rows.((i * nwd) + (j / word_bits)) land (1 lsl (j mod word_bits)) <> 0

(* Strict certified happens-before between two of the view's actions,
   read off [j]'s clock *)
let view_hb sc (clks : int array array) ~off i j =
  i <> j
  &&
  let bc = clks.(sc.idx.(off + j)) and t = sc.vtid.(i) in
  t < Array.length bc && bc.(t) >= sc.vseq.(i)

(* adjacency for the union relation: [i]'s list runs newest edge first *)
let add_edge sc i j =
  let e = sc.ne in
  if e = Array.length sc.edst then begin
    sc.edst <- ints sc.edst (e + 1);
    sc.enext <- ints sc.enext (e + 1)
  end;
  sc.edst.(e) <- j;
  sc.enext.(e) <- sc.head.(i);
  sc.head.(i) <- e;
  sc.ne <- e + 1

(* Depth-first search from [root] for a cycle, following each action's
   edges newest first.  On meeting an action on the current path, the
   cycle is that action, then the path from it down to here (as seqs). *)
let cycle_from sc root =
  Bytes.set sc.color root '\001';
  sc.path.(0) <- root;
  sc.pedge.(0) <- sc.head.(root);
  let depth = ref 1 and cycle = ref [] in
  while !depth > 0 do
    let d = !depth - 1 in
    let e = sc.pedge.(d) in
    if e < 0 then begin
      Bytes.set sc.color sc.path.(d) '\002';
      depth := d
    end
    else begin
      sc.pedge.(d) <- sc.enext.(e);
      let j = sc.edst.(e) in
      match Bytes.get sc.color j with
      | '\001' ->
        let p = ref d in
        while sc.path.(!p) <> j do
          decr p
        done;
        let l = ref [] in
        for k = d downto !p do
          l := sc.vseq.(sc.path.(k)) :: !l
        done;
        cycle := sc.vseq.(j) :: !l;
        depth := 0
      | '\002' -> ()
      | _ ->
        Bytes.set sc.color j '\001';
        sc.path.(!depth) <- j;
        sc.pedge.(!depth) <- sc.head.(j);
        incr depth
    end
  done;
  !cycle

let find_cycle sc n =
  if Bytes.length sc.color < n then begin
    sc.color <- Bytes.create (max n (2 * Bytes.length sc.color));
    sc.path <- Array.make (Bytes.length sc.color) 0;
    sc.pedge <- Array.make (Bytes.length sc.color) 0
  end;
  Bytes.fill sc.color 0 n '\000';
  let cycle = ref [] and root = ref 0 in
  while !cycle == [] && !root < n do
    if Bytes.get sc.color !root = '\000' then cycle := cycle_from sc !root;
    incr root
  done;
  !cycle

let push found axiom actions detail =
  found := { axiom; actions; detail } :: !found

(* Per-location coherence over the view of the location whose window
   indices are [idx.(off .. off + n - 1)], as [decide] left it:
   acyclicity of hb|loc ∪ rf ∪ mo ∪ fr over the location's actions, plus
   — when the graph is exact (nothing pruned) — the completeness
   obligations CoWW and CoWR that catch a dropped mo edge (a merely
   missing edge never creates a cycle), and the Theorem 1 differential:
   on the final (unpruned) graph, the engine's O(threads) clock-vector
   reachability must agree with explicit search for every live
   same-location write pair.  Violations are pushed onto [found] (newest
   first), which is returned. *)
let check_location sc ~graph ~graph_exact ~loc (acts : Action.t array) clks
    ~off ~n found =
  let nwd = (n + word_bits - 1) / word_bits in
  let hb i j = view_hb sc clks ~off i j
  and mo i j = has_bit sc.mo_rows nwd i j
  and live k = has_bit sc.live 0 0 k in
  let found = ref found in
  sc.head <- ints sc.head n;
  Array.fill sc.head 0 n (-1);
  sc.ne <- 0;
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      (* one edge for hb and mo alike: a second copy right behind the
         first never changes what the search below finds *)
      if i <> j && (hb i j || mo i j) then add_edge sc i j
    done;
    (* a store outside the view (-1) has no incoming edge here, so its
       out-edges cannot close a cycle *)
    let si = sc.vrf.(i) in
    if si >= 0 then begin
      add_edge sc si i;
      (* fr = rf⁻¹ ; mo *)
      for k = 0 to n - 1 do
        if k <> si && k <> i && mo si k then add_edge sc i k
      done
    end
  done;
  (match find_cycle sc n with
  | [] -> ()
  | cyc ->
    push found Coherence cyc
      (Printf.sprintf
         "loc %d: hb|loc ∪ rf ∪ mo ∪ fr has a cycle through %d actions" loc
         (List.length cyc - 1)));
  if graph_exact then begin
    let count = ref 0 in
    (* CoWW: hb-ordered same-location writes must be mo-ordered *)
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if !count < cap && a <> b && live a && live b && hb a b && not (mo a b)
        then begin
          incr count;
          let sa = sc.vseq.(a) and sb = sc.vseq.(b) in
          push found Coherence [ sa; sb ]
            (Printf.sprintf
               "loc %d: CoWW incomplete — write #%d happens before write #%d \
                but is not mo-before it"
               loc sa sb)
        end
      done
    done;
    (* CoWR: a write hb-visible to a read must be mo-before the write the
       read actually observed *)
    for r = 0 to n - 1 do
      let ra = acts.(sc.idx.(off + r)) in
      match ra.rf with
      | Some s when has_bit sc.cowr 0 0 r ->
        let si = sc.vrf.(r) in
        for k = 0 to n - 1 do
          if
            !count < cap && k <> si && k <> r && live k && hb k r
            && not (si >= 0 && mo k si)
          then begin
            incr count;
            let sk = sc.vseq.(k) in
            push found Coherence [ sk; ra.seq; s.seq ]
              (Printf.sprintf
                 "loc %d: CoWR incomplete — write #%d happens before read \
                  #%d but is not mo-before its store #%d"
                 loc sk ra.seq s.seq)
          end
        done
      | Some _ | None -> ()
    done;
    (* Theorem 1: clock-vector reachability against the search *)
    let count = ref 0 in
    for a = 0 to n - 1 do
      for b = 0 to n - 1 do
        if !count < cap && a <> b && live a && live b then begin
          let wa = acts.(sc.idx.(off + a)) and wb = acts.(sc.idx.(off + b)) in
          let cv = Mograph.reaches graph wa wb in
          let dfs = mo a b in
          if cv <> dfs then begin
            incr count;
            push found Theorem1_differential [ wa.seq; wb.seq ]
              (Printf.sprintf
                 "loc %d: #%d reaches #%d is %b by clock vectors but %b by \
                  graph search"
                 loc wa.seq wb.seq cv dfs)
          end
        end
      done
    done
  end;
  !found

(* ------------------------------------------------------------------ *)
(* The per-location decision.

   [decide] answers, exactly, whether [check_location] would report
   anything for a location, without building its adjacency lists or
   visiting pairs one at a time.  A relation over the location's view of
   n actions is a matrix of bit rows: row [i] holds the actions [i]
   relates to, in [(n + 62) / 63] words of 63 bits, so one code path
   serves every view size.  The rows are

   - [rel]: certified-hb predecessors, read off the view's clocks;
   - [mo_rows] and [mo_pred]: mo successors and predecessors among the
     view's writes, by explicit search of the final mo-graph (edges and
     rmw links, never clock vectors, so Theorem 1 is still checked
     against an independent computation);
   - [live] and [wmask]: one row each, the writes with a live node and
     all writes.

   CoWW, CoWR and Theorem 1 are then row comparisons, and the coherence
   cycle is a search for a cycle in the union, built in [rel] as
   predecessor rows (the reversed union has a cycle exactly when the
   union has).  The pair pass reads the same view, the same mo rows and
   the same stores, so what the two must agree on is each family's
   definition: the same live-node tests and the same excluded pairs. *)

(* index of the lowest set bit of a non-zero word *)
let lowest_bit x =
  let b = ref 0 and x = ref x in
  if !x land 0xFFFFFFFF = 0 then begin
    b := 32;
    x := !x lsr 32
  end;
  if !x land 0xFFFF = 0 then begin
    b := !b + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    b := !b + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    b := !b + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    b := !b + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then !b + 1 else !b

(* view index of the action with this seq, or -1 *)
let view_index sc n seq =
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if sc.vseq.(mid) < seq then lo := mid + 1 else hi := mid
  done;
  if n > 0 && sc.vseq.(!lo) = seq then !lo else -1

(* mo reachability by explicit search of the final mo-graph (edges and
   rmw links), never by clock vectors: the search from the live write [k]
   sets the bits of the view writes it meets in [k]'s mo row.  Visits are
   stamped per search, in [stamp] for the view's writes and in [other]
   for any other node met on the way (a write the stream already
   retired).  It does not enter a view write whose own search has
   finished: that write's row already holds every view write past it. *)
let rec row_reach sc ~n ~nwd k (node : Mograph.node) =
  let seq = node.Mograph.action.Action.seq in
  let j = view_index sc n seq in
  let j = if j >= 0 && has_bit sc.wmask 0 0 j then j else -1 in
  let fresh =
    if j >= 0 then sc.stamp.(j) <> k + 1
    else
      match Hashtbl.find sc.other seq with
      | t -> t <> k + 1
      | exception Not_found -> true
  in
  if fresh then begin
    if j >= 0 then begin
      sc.stamp.(j) <- k + 1;
      if j <> k then set_bit sc.mo_rows nwd k j
    end
    else Hashtbl.replace sc.other seq (k + 1);
    if j >= 0 && j <> k && has_bit sc.searched 0 0 j then
      for w = 0 to nwd - 1 do
        let c = (k * nwd) + w in
        sc.mo_rows.(c) <- sc.mo_rows.(c) lor sc.mo_rows.((j * nwd) + w)
      done
    else begin
      for e = 0 to node.Mograph.nedges - 1 do
        row_reach sc ~n ~nwd k node.Mograph.edges.(e)
      done;
      match node.Mograph.rmw with
      | Some r -> row_reach sc ~n ~nwd k r
      | None -> ()
    end
  end

(* Push [u] onto the cycle search's path: it is visited, and on the path
   until popped.  True when one of its successors is already on the
   path, or is [u] itself. *)
let push_path sc ~nwd depth u =
  let w = u / word_bits and bit = 1 lsl (u mod word_bits) in
  sc.white.(w) <- sc.white.(w) land lnot bit;
  sc.gray.(w) <- sc.gray.(w) lor bit;
  sc.stack.(depth) <- u;
  let back = ref false in
  for w = 0 to nwd - 1 do
    if sc.rel.((u * nwd) + w) land sc.gray.(w) <> 0 then back := true
  done;
  !back

(* Depth-first search over [rel] for a cycle.  A node's successors are
   tested against the path once, when it is pushed: while it is the top
   of the stack the path does not change, so every back edge is seen. *)
let has_cycle sc ~n ~nwd =
  let rel = sc.rel and white = sc.white and gray = sc.gray in
  for w = 0 to nwd - 1 do
    let m = n - (w * word_bits) in
    white.(w) <- (if m >= word_bits then -1 else (1 lsl m) - 1);
    gray.(w) <- 0
  done;
  let found = ref false and depth = ref 0 and root = ref 0 in
  while (not !found) && !root < n do
    if has_bit white 0 0 !root then begin
      found := push_path sc ~nwd 0 !root;
      depth := 1;
      while (not !found) && !depth > 0 do
        let v = sc.stack.(!depth - 1) in
        (* its first successor not yet visited *)
        let u = ref (-1) and w = ref 0 in
        while !u < 0 && !w < nwd do
          let x = rel.((v * nwd) + !w) land white.(!w) in
          if x <> 0 then u := (!w * word_bits) + lowest_bit x;
          incr w
        done;
        if !u >= 0 then begin
          found := push_path sc ~nwd !depth !u;
          incr depth
        end
        else begin
          let w = v / word_bits in
          gray.(w) <- gray.(w) land lnot (1 lsl (v mod word_bits));
          decr depth
        end
      done
    end;
    incr root
  done;
  !found

(* Size the decision's buffers for a view of [n] actions in rows of [nwd]
   words.  They only grow, so a view no larger than the last writes no
   field. *)
let size_rows sc ~n ~nwd =
  if Array.length sc.vseq < n then begin
    sc.vseq <- ints sc.vseq n;
    sc.vtid <- ints sc.vtid n;
    sc.vlive <- ints sc.vlive n;
    sc.vrf <- ints sc.vrf n;
    sc.stack <- ints sc.stack n
  end;
  if Array.length sc.stamp < n then sc.stamp <- ints sc.stamp n;
  if Array.length sc.live < nwd then begin
    sc.wmask <- ints sc.wmask nwd;
    sc.live <- ints sc.live nwd;
    sc.cowr <- ints sc.cowr nwd;
    sc.searched <- ints sc.searched nwd;
    sc.row <- ints sc.row nwd;
    sc.white <- ints sc.white nwd;
    sc.gray <- ints sc.gray nwd
  end;
  let cells = n * nwd in
  if Array.length sc.rel < cells then begin
    sc.rel <- ints sc.rel cells;
    sc.mo_rows <- ints sc.mo_rows cells;
    sc.mo_pred <- ints sc.mo_pred cells
  end

(* Read the view's actions: seqs, tids, the write rows and the live
   writes, then each read's same-location store (its view index, -1
   outside the view, -2 for none) and the reads CoWR constrains.  Returns
   the number of live writes. *)
let read_view sc ~graph ~graph_exact (acts : Action.t array) ~off ~n ~nwd =
  for w = 0 to nwd - 1 do
    sc.wmask.(w) <- 0;
    sc.live.(w) <- 0;
    sc.cowr.(w) <- 0
  done;
  let nlive = ref 0 in
  for k = 0 to n - 1 do
    let a = acts.(sc.idx.(off + k)) in
    sc.vseq.(k) <- a.Action.seq;
    sc.vtid.(k) <- a.Action.tid;
    sc.stamp.(k) <- 0;
    if Action.is_write a then begin
      set_bit sc.wmask 0 0 k;
      if Mograph.live_node graph a != Mograph.absent then begin
        set_bit sc.live 0 0 k;
        sc.vlive.(!nlive) <- k;
        incr nlive
      end
    end
  done;
  for k = 0 to n - 1 do
    let a = acts.(sc.idx.(off + k)) in
    sc.vrf.(k) <- -2;
    if Action.is_read a then
      match a.rf with
      | Some s when s.loc = a.loc ->
        sc.vrf.(k) <- view_index sc n s.seq;
        if graph_exact && Mograph.live_node graph s != Mograph.absent then
          set_bit sc.cowr 0 0 k
      | Some _ | None -> ()
  done;
  !nlive

(* One word of a certified-hb predecessor row: bit [i - lo] is set when
   [bc], the clock of the row's action, covers view action [i], for [i]
   in [lo .. hi].  No branch depends on the pair. *)
let hb_word sc (bc : int array) lo hi =
  let len = Array.length bc in
  let acc = ref 0 in
  for i = hi downto lo do
    let t = sc.vtid.(i) in
    let covered = if t < len then Bool.to_int (bc.(t) >= sc.vseq.(i)) else 0 in
    acc := (!acc lsl 1) lor covered
  done;
  !acc

(* [rel]: each view action's certified-hb predecessors, itself left out *)
let hb_rows sc (clks : int array array) ~off ~n ~nwd =
  for j = 0 to n - 1 do
    let bc = clks.(sc.idx.(off + j)) in
    for w = 0 to nwd - 1 do
      let lo = w * word_bits in
      let hi = if n <= lo + word_bits then n - 1 else lo + word_bits - 1 in
      sc.rel.((j * nwd) + w) <- hb_word sc bc lo hi
    done;
    let c = (j * nwd) + (j / word_bits) in
    sc.rel.(c) <- sc.rel.(c) land lnot (1 lsl (j mod word_bits))
  done

(* [mo_rows] by search, later writes first (the mo successors of a write
   are mostly later writes, whose rows are then complete), and
   [mo_pred] as their transpose *)
let search_mo sc ~graph (acts : Action.t array) ~off ~n ~nwd =
  for c = 0 to (n * nwd) - 1 do
    sc.mo_rows.(c) <- 0;
    sc.mo_pred.(c) <- 0
  done;
  for w = 0 to nwd - 1 do
    sc.searched.(w) <- 0
  done;
  if Hashtbl.length sc.other > 0 then Hashtbl.clear sc.other;
  for k = n - 1 downto 0 do
    if has_bit sc.live 0 0 k then begin
      row_reach sc ~n ~nwd k (Mograph.live_node graph acts.(sc.idx.(off + k)));
      (* a cycle back to [k] brings its own bit in through a finished row *)
      let c = (k * nwd) + (k / word_bits) in
      sc.mo_rows.(c) <- sc.mo_rows.(c) land lnot (1 lsl (k mod word_bits));
      set_bit sc.searched 0 0 k;
      for w = 0 to nwd - 1 do
        let x = ref sc.mo_rows.((k * nwd) + w) in
        while !x <> 0 do
          set_bit sc.mo_pred nwd ((w * word_bits) + lowest_bit !x) k;
          x := !x land (!x - 1)
        done
      done
    end
  done

(* CoWW and CoWR as row comparisons over [rel], [mo_pred] and [live] *)
let completeness_ok sc ~n ~nwd =
  let rel = sc.rel and live = sc.live and mo_pred = sc.mo_pred in
  let ok = ref true and k = ref 0 in
  while !ok && !k < n do
    let r = !k * nwd in
    (* CoWW: a live write's live hb-predecessors are mo-predecessors *)
    if has_bit live 0 0 !k then
      for w = 0 to nwd - 1 do
        if rel.(r + w) land live.(w) land lnot mo_pred.(r + w) <> 0 then
          ok := false
      done;
    (* CoWR: a read's live hb-predecessors, other than its store, are
       mo-predecessors of that store (of nothing, if it is not a view
       write) *)
    if has_bit sc.cowr 0 0 !k then begin
      let si = sc.vrf.(!k) in
      for w = 0 to nwd - 1 do
        let x = rel.(r + w) land live.(w) in
        let x =
          if si < 0 then x
          else
            x land lnot mo_pred.((si * nwd) + w)
            land
            if si / word_bits = w then lnot (1 lsl (si mod word_bits))
            else -1
        in
        if x <> 0 then ok := false
      done
    end;
    incr k
  done;
  !ok

(* Theorem 1: each live write's clock-vector reachability row, over the
   live writes, equals its searched mo row *)
let theorem1_ok sc ~graph (acts : Action.t array) ~off ~nwd ~nlive =
  let row = sc.row and vlive = sc.vlive in
  let ok = ref true and x = ref 0 in
  while !ok && !x < nlive do
    let a = vlive.(!x) in
    let wa = acts.(sc.idx.(off + a)) in
    for w = 0 to nwd - 1 do
      row.(w) <- 0
    done;
    for y = 0 to nlive - 1 do
      let b = vlive.(y) in
      if b <> a && Mograph.reaches graph wa acts.(sc.idx.(off + b)) then
        set_bit row 0 0 b
    done;
    for w = 0 to nwd - 1 do
      if row.(w) <> sc.mo_rows.((a * nwd) + w) land sc.live.(w) then ok := false
    done;
    incr x
  done;
  !ok

(* Turn [rel] into the predecessor rows of the union: hb is there; add
   mo, then for each read the rf edge from its store and the fr edges to
   the store's mo successors *)
let union_rows sc ~n ~nwd =
  let rel = sc.rel in
  for c = 0 to (n * nwd) - 1 do
    rel.(c) <- rel.(c) lor sc.mo_pred.(c)
  done;
  for r = 0 to n - 1 do
    let si = sc.vrf.(r) in
    if si >= 0 then begin
      set_bit rel nwd r si;
      for w = 0 to nwd - 1 do
        let x = ref sc.mo_rows.((si * nwd) + w) in
        while !x <> 0 do
          let k = (w * word_bits) + lowest_bit !x in
          if k <> r then set_bit rel nwd k r;
          x := !x land (!x - 1)
        done
      done
    end
  done

(* Would [check_location] report nothing for the location whose window
   indices are [idx.(off .. off + n - 1)]? *)
let decide sc ~graph ~graph_exact (acts : Action.t array) clks ~off ~n =
  let nwd = (n + word_bits - 1) / word_bits in
  size_rows sc ~n ~nwd;
  let nlive = read_view sc ~graph ~graph_exact acts ~off ~n ~nwd in
  hb_rows sc clks ~off ~n ~nwd;
  search_mo sc ~graph acts ~off ~n ~nwd;
  ((not graph_exact)
  || completeness_ok sc ~n ~nwd
     && theorem1_ok sc ~graph acts ~off ~nwd ~nlive)
  &&
  (union_rows sc ~n ~nwd;
   not (has_cycle sc ~n ~nwd))

(* Every location's families, ascending by location, over [n] actions
   and their clocks: a location the decision finds clean adds nothing,
   and one it rejects runs the pair pass, which pushes its violations
   onto [found].  Returns [found], the locations checked and the
   locations explained. *)
let check_locations ~graph ~graph_exact (acts : Action.t array) clks n found =
  let sc = Domain.DLS.get scratch_key in
  let found = ref found and checked = ref 0 and explained = ref 0 in
  iter_locations sc acts n (fun loc ~off ~n ->
      incr checked;
      if not (decide sc ~graph ~graph_exact acts clks ~off ~n) then begin
        incr explained;
        found :=
          check_location sc ~graph ~graph_exact ~loc acts clks ~off ~n !found
      end);
  if oversized sc then Domain.DLS.set scratch_key (new_scratch ());
  (!found, !checked, !explained)

let not_immediate_detail (r : Action.t) (s : Action.t) =
  Printf.sprintf "rmw #%d reads-from #%d but does not immediately mo-follow it"
    r.seq s.seq

let check_rmw_atomicity c ~graph =
  let claimed = Hashtbl.create 8 in
  let count = ref 0 in
  Array.iter
    (fun (r : Action.t) ->
      if r.kind = Action.Rmw && !count < cap then
        match r.rf with
        | None -> () (* already an rf-wf violation *)
        | Some s ->
          (match Hashtbl.find_opt claimed s.seq with
          | Some other ->
            incr count;
            add_violation c Rmw_atomicity [ s.seq; other; r.seq ]
              (Printf.sprintf
                 "store #%d is read by two RMWs, #%d and #%d" s.seq other
                 r.seq)
          | None -> Hashtbl.replace claimed s.seq r.seq);
          (match (Mograph.find_node graph s, Mograph.find_node graph r) with
          | Some ns, Some nr ->
            let immediate =
              match ns.Mograph.rmw with Some x -> x == nr | None -> false
            in
            if not immediate then begin
              incr count;
              add_violation c Rmw_atomicity [ s.seq; r.seq ]
                (not_immediate_detail r s)
            end
          | _ -> () (* a pruned end of the pair: immediacy unobservable *)))
    c.trace

let check_sc c =
  let sc =
    Array.to_list c.trace
    |> List.filter (fun (a : Action.t) -> Memorder.is_seq_cst a.mo)
  in
  let count = ref 0 in
  (* The total sc order is execution order restricted to sc actions; it
     must be consistent with certified hb. *)
  let rec pairs = function
    | [] -> ()
    | (a : Action.t) :: rest ->
      List.iter
        (fun (b : Action.t) ->
          if !count < cap && cert_hb c b a then begin
            incr count;
            add_violation c Sc_order [ a.seq; b.seq ]
              (Printf.sprintf
                 "sc order places #%d before #%d but #%d happens before #%d"
                 a.seq b.seq b.seq a.seq)
          end)
        rest;
      pairs rest
  in
  pairs sc;
  (* Section 29.3 statement 3: an sc read observes the last sc store to
     its location, or a store that neither sc-precedes it nor happens
     before it. *)
  List.iter
    (fun (r : Action.t) ->
      if Action.is_read r && !count < cap then
        match r.rf with
        | None -> ()
        | Some x ->
          let last_sc =
            List.fold_left
              (fun acc (s : Action.t) ->
                if Action.is_write s && s.loc = r.loc && s.seq < r.seq then
                  Some s
                else acc)
              None sc
          in
          (match last_sc with
          | Some s when x.seq <> s.seq ->
            if
              (Memorder.is_seq_cst x.mo && x.seq < s.seq) || cert_hb c x s
            then begin
              incr count;
              add_violation c Sc_order [ r.seq; x.seq; s.seq ]
                (Printf.sprintf
                   "sc read #%d observes #%d, hidden behind the last sc \
                    store #%d to loc %d"
                   r.seq x.seq s.seq r.loc)
            end
          | Some _ | None -> ()))
    sc;
  List.length sc

(* ------------------------------------------------------------------ *)

let na_total_mo =
  "Total_mo executions use 2011 release sequences, outside the certified \
   fragment"

(* The post-hoc state for a recorded execution, before any check *)
let cert_of (exec : Execution.t) ~actions ~sync_edges =
  let trace = Array.of_list actions in
  let by_seq = Hashtbl.create (Array.length trace) in
  Array.iter (fun (a : Action.t) -> Hashtbl.replace by_seq a.seq a) trace;
  let c =
    {
      nthreads = exec.Execution.nthreads;
      trace;
      by_seq;
      edges = Array.of_list sync_edges;
      acv = Hashtbl.create (Array.length trace);
      heads = Hashtbl.create 64;
      last_rel_fence = Hashtbl.create 64;
      violations = [];
    }
  in
  (* F^rel tracking: remember, for every store, its thread's most recent
     release fence at the moment the store executed. *)
  let last_rel = Hashtbl.create 8 in
  Array.iter
    (fun (a : Action.t) ->
      match a.kind with
      | Action.Fence ->
        if Memorder.is_release a.mo then Hashtbl.replace last_rel a.tid a
      | Action.Store | Action.Rmw -> (
        match Hashtbl.find_opt last_rel a.tid with
        | Some f -> Hashtbl.replace c.last_rel_fence a.seq f
        | None -> ())
      | Action.Load | Action.Na_store -> ())
    trace;
  c

(* the trace's certified clocks, [||] for an action without one *)
let trace_clocks c =
  Array.map
    (fun (a : Action.t) ->
      match Hashtbl.find_opt c.acv a.seq with Some x -> x | None -> [||])
    c.trace

let certify (exec : Execution.t) ~actions ~sync_edges =
  if not exec.Execution.cert_on then
    Not_applicable "no certification sink was installed"
  else if exec.Execution.mode <> Execution.Full_c11 then
    Not_applicable na_total_mo
  else begin
    let c = cert_of exec ~actions ~sync_edges in
    let trace = c.trace and edges = c.edges in
    check_sync_wf c;
    build_hb c;
    check_hb_irreflexive c;
    let hb_pairs = check_hb_differential c in
    check_rf_wf c;
    let graph = exec.Execution.graph in
    let graph_exact = exec.Execution.pruned_count = 0 in
    let found, _, _ =
      check_locations ~graph ~graph_exact trace (trace_clocks c)
        (Array.length trace) c.violations
    in
    c.violations <- found;
    let locations =
      let seen = Hashtbl.create 16 in
      Array.iter
        (fun (a : Action.t) -> if a.loc >= 0 then Hashtbl.replace seen a.loc ())
        trace;
      Hashtbl.length seen
    in
    check_rmw_atomicity c ~graph;
    let sc_actions = check_sc c in
    match List.rev c.violations with
    | [] ->
      Certified
        {
          actions = Array.length trace;
          reads =
            Array.fold_left
              (fun n a -> if Action.is_read a then n + 1 else n)
              0 trace;
          writes =
            Array.fold_left
              (fun n a -> if Action.is_write a then n + 1 else n)
              0 trace;
          sc_actions;
          sync_edges = Array.length edges;
          hb_pairs;
          locations;
          graph_checked = graph_exact;
        }
    | vs -> Rejected vs
  end

(* ------------------------------------------------------------------ *)
(* Streaming incremental certification.

   The post-hoc certifier above rebuilds everything from a complete
   recorded trace — an O(n²)-ish pass that caps execution size, kept as
   the tests' reference.  The stream below, the engine's only
   certifier, consumes the same inputs *as the execution produces them*
   (via an [Execution.cert_sink]), maintains the certified clock
   replica incrementally, runs the per-action axiom checks online, and
   — the point of the exercise — *retires* actions whose every future
   obligation is provably discharged, freeing their window storage so
   certification memory is bounded by the live window, not the run
   length.

   Equivalence with [certify] (checked by the test suite on single runs
   that also record the events for [certify], key-level on rejections,
   bit-level on certified stats):

   - The certified clocks are replayed in arrival order, which coincides
     with the post-hoc (seq, rank) event order because every release
     point is announced (and snapshotted) at the instant the engine
     passes it — [cs_release] plays the role of the post-hoc [Snap]
     event, eagerly.
   - Backward hb pairs (later action as source) can never produce a
     differential violation — every clock entry is bounded by the seq of
     the event that wrote it — so checking each new action against the
     live window covers exactly the pairs the post-hoc double loop does.
   - An action retires only when (a) the certified and operational
     clocks of every live thread *agree* on whether they cover it — so
     no future snapshot can disagree about it either (merges only
     propagate existing coverage), (b) it is not a release-sequence head
     of an unretired store, (c) a write is additionally unreadable (a
     newer same-cell store is covered by every runnable thread's engine
     clock) and cv-mo-before every still-readable same-location store —
     which discharges its CoWW/CoWR obligations against all future
     actions, because a future write's prior set always contains a cover
     of it, and (d) no coherence obligation is pending anywhere (a
     pending obligation — a window pair whose mo edge [Mograph.reaches]
     cannot yet confirm — pauses retirement wholesale, so a dropped mo
     edge freezes the window into the full trace and finalize degenerates
     to the exact post-hoc per-location checks).
   - Mo-graph-dependent families (coherence cycle, CoWW/CoWR residue,
     Theorem 1) run at [finalize] with the *same* code as the post-hoc
     pass, over the unretired window; retired actions are exactly those
     proven unable to participate in a violation.  RMW immediacy is
     probed when the RMW is fed and again at [finalize] for every RMW
     still in the window, so a link that changes after the feed is
     reported once; a pair that has already retired is not probed
     again.

   Known, deliberate divergence: a synthetically corrupted trace whose
   read names a *future* store is reported as "not in the trace" here
   but "executes after" post-hoc; the real engine (and its seeded
   mutants) never produces such an rf.  Violation *keys* still differ
   only in stripped digits. *)

module Stream = struct
  type tstate = {
    mutable cl : int array;  (* certified clock replica, grown on demand *)
    mutable pend : int array;  (* pending acquire-fence buffer *)
    mutable relf_cv : int array;
        (* the certified clock of this thread's last release fence (F^rel),
           copied at the fence so the fence itself can retire; [||] before
           the first *)
  }

  (* Live writes of one location by one thread, ascending by seq, in a
     {!Seqarr}: the sweep's completeness and readability checks only ever
     ask for "the newest write at or below a bound".  Cells are filled
     from the window at the start of a sweep and emptied at its end:
     nothing reads them in between. *)

  type lstate = {
    mutable l_last_sc_w : Action.t;
        (* pinned: 29.3/3 witness, [no_action] before the first *)
    mutable l_last_sc_cv : int array;  (* its certified clock *)
    mutable l_barrier : int array;
        (* per cell tid: newest store seq covered by every runnable
           thread's engine clock (monotone); strictly older same-cell
           stores are unreadable forever *)
    mutable l_cells : Seqarr.t array;  (* by tid *)
  }

  type t = {
    exec : Execution.t;
    counted : int -> bool;
        (* thread contributes to the readability frontier: live and not
           parked on an unconditional acquire (join / held mutex) *)
    mutable nthreads : int;
    mutable ts : tstate array;
    (* The live window, ascending by seq (the order actions arrive in),
       as parallel arrays compacted by each sweep; a seq is looked up by
       binary search. *)
    mutable w_act : Action.t array;
    mutable w_clk : int array array;  (* certified clock of the action *)
    mutable w_rel : int array array;
        (* pre-merged release clock of a store, [||] if none: the union of
           the certified clocks of the store's release-sequence heads.  The
           post-hoc pass merges acv(h) per head at each read; the union is
           associative and each acv(h) is fixed at h's feed, so folding it
           store-by-store (own head ∪ predecessor's clock along the RMW
           chain) reads back identically — and unlike a head list it pins
           nothing: an RMW chain would otherwise keep every head back to
           the chain start unretirable. *)
    mutable w_claim : int array;  (* seq of the RMW that read the store, or -1 *)
    mutable w_n : int;
    mutable w_swept : int;
        (* window index of the first action fed since the last sweep:
           the sweep derives the coherence obligations of those *)
    (* release seq -> snapshot, for the sync edges still to come *)
    mutable rs_seq : int array;
    mutable rs_snap : int array array;
    mutable rs_n : int;
    mutable locs : lstate array;  (* by loc; [no_lstate] if untouched *)
    mutable n_locs : int;
    mutable obligs : (Action.t * Action.t) list;
        (* window coherence pairs whose mo edge isn't (yet) confirmed by
           clock-vector reachability: retirement pauses until they
           discharge *)
    mutable fed : Bytes.t;  (* bitset over seqs: action membership *)
    (* online violation buckets, newest first, post-hoc family caps *)
    mutable v_sync : violation list;
    mutable c_sync : int;
    mutable v_irr : violation list;
    mutable c_irr : int;
    mutable v_diff : violation list;
    mutable c_diff : int;
    mutable v_rf : violation list;
    mutable c_rf : int;
    mutable v_rmw : (violation * (Action.t * Action.t) option) list;
        (* [Some (store, rmw)]: immediacy candidate, re-probed against the
           final graph at finalize (a pruned end drops it, as post-hoc) *)
    mutable c_rmw : int;
    mutable v_sc_pair : violation list;
    mutable v_sc_read : violation list;
    mutable c_sc : int;
    mutable max_cv_entry : int;  (* sc backward-pair scan guard *)
    mutable n_actions : int;
    mutable n_reads : int;
    mutable n_writes : int;
    mutable n_sc : int;
    mutable n_edges : int;
    mutable n_retired : int;
    mutable n_checked_locs : int;  (* locations finalize checked *)
    mutable n_explained_locs : int;  (* of those, the pair pass explained *)
    mutable frozen : bool;  (* any violation: retirement halts for good *)
    mutable finalized : verdict option;
  }

  let mk_tstate () = { cl = [||]; pend = [||]; relf_cv = [||] }
  let no_tstate = mk_tstate ()

  let no_cell = Seqarr.create ()  (* placeholder, never filled *)

  let no_lstate =
    {
      l_last_sc_w = no_action;
      l_last_sc_cv = [||];
      l_barrier = [||];
      l_cells = [||];
    }

  (* Nothing is allocated until it is needed: a stream is created per
     execution, and most executions are short. *)
  let create ~exec ~counted =
    {
      exec;
      counted;
      nthreads = 0;
      ts = [||];
      w_act = [||];
      w_clk = [||];
      w_rel = [||];
      w_claim = [||];
      w_n = 0;
      w_swept = 0;
      rs_seq = [||];
      rs_snap = [||];
      rs_n = 0;
      locs = [||];
      n_locs = 0;
      obligs = [];
      fed = Bytes.make 16 '\000';
      v_sync = [];
      c_sync = 0;
      v_irr = [];
      c_irr = 0;
      v_diff = [];
      c_diff = 0;
      v_rf = [];
      c_rf = 0;
      v_rmw = [];
      c_rmw = 0;
      v_sc_pair = [];
      v_sc_read = [];
      c_sc = 0;
      max_cv_entry = 0;
      n_actions = 0;
      n_reads = 0;
      n_writes = 0;
      n_sc = 0;
      n_edges = 0;
      n_retired = 0;
      n_checked_locs = 0;
      n_explained_locs = 0;
      frozen = false;
      finalized = None;
    }

  let certified_ops s = s.n_actions
  let retired_ops s = s.n_retired
  let checked_locations s = s.n_checked_locs
  let explained_locations s = s.n_explained_locs

  (* growable int arrays, zero-filled: a short array reads as 0s, exactly
     like the post-hoc fixed-width clocks.  Widths round as the engine's
     clocks do, so they too stay bounded by the execution's threads. *)
  let grown arr n =
    let len = Array.length arr in
    if len >= n then arr
    else begin
      let a = Array.make (Clockvec.round_width n) 0 in
      Array.blit arr 0 a 0 len;
      a
    end

  (* Clocks are short, so the common widths are copied as array literals
     (an inline minor-heap allocation, not a runtime call). *)
  let copy_clock (c : int array) =
    match Array.length c with
    | 4 ->
      [|
        Array.unsafe_get c 0;
        Array.unsafe_get c 1;
        Array.unsafe_get c 2;
        Array.unsafe_get c 3;
      |]
    | 8 ->
      [|
        Array.unsafe_get c 0;
        Array.unsafe_get c 1;
        Array.unsafe_get c 2;
        Array.unsafe_get c 3;
        Array.unsafe_get c 4;
        Array.unsafe_get c 5;
        Array.unsafe_get c 6;
        Array.unsafe_get c 7;
      |]
    | _ -> Array.copy c

  let sget arr u = if u < Array.length arr then arr.(u) else 0

  let merge_grow dst src =
    let d = grown dst (Array.length src) in
    merge_into d src;
    d

  let ensure_tid s tid =
    if tid >= s.nthreads then begin
      let n = tid + 1 in
      let ts = Array.make n no_tstate in
      Array.blit s.ts 0 ts 0 s.nthreads;
      for i = s.nthreads to n - 1 do
        ts.(i) <- mk_tstate ()
      done;
      s.ts <- ts;
      s.nthreads <- n
    end

  let mark_fed s seq =
    let byte = seq lsr 3 in
    if byte >= Bytes.length s.fed then begin
      let b = Bytes.make (max (byte + 1) (2 * Bytes.length s.fed)) '\000' in
      Bytes.blit s.fed 0 b 0 (Bytes.length s.fed);
      s.fed <- b
    end;
    Bytes.set s.fed byte
      (Char.chr (Char.code (Bytes.get s.fed byte) lor (1 lsl (seq land 7))))

  let is_fed s seq =
    let byte = seq lsr 3 in
    byte < Bytes.length s.fed
    && Char.code (Bytes.get s.fed byte) land (1 lsl (seq land 7)) <> 0

  (* the location's state, created (and counted) on first touch *)
  let lstate s loc =
    if loc >= Array.length s.locs then begin
      let a = Array.make (max (loc + 1) (2 * Array.length s.locs)) no_lstate in
      Array.blit s.locs 0 a 0 (Array.length s.locs);
      s.locs <- a
    end;
    let l = s.locs.(loc) in
    if l != no_lstate then l
    else begin
      let l =
        {
          l_last_sc_w = no_action;
          l_last_sc_cv = [||];
          l_barrier = [||];
          l_cells = [||];
        }
      in
      s.locs.(loc) <- l;
      s.n_locs <- s.n_locs + 1;
      l
    end

  (* --- the window -------------------------------------------------- *)

  (* window index of the action with this seq, or -1 *)
  let w_find s seq =
    let lo = ref 0 and hi = ref (s.w_n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if s.w_act.(mid).Action.seq < seq then lo := mid + 1 else hi := mid
    done;
    if !lo = !hi && s.w_act.(!lo).Action.seq = seq then !lo else -1

  (* release clock of a live store, [||] if none (or not live) *)
  let rel_cv s (st : Action.t) =
    let k = w_find s st.seq in
    if k < 0 then [||] else s.w_rel.(k)

  let w_push s (a : Action.t) clk rel =
    let n = s.w_n in
    if n = Array.length s.w_act then begin
      let cap = max 16 (2 * n) in
      let grow arr fill =
        let b = Array.make cap fill in
        Array.blit arr 0 b 0 n;
        b
      in
      s.w_act <- grow s.w_act no_action;
      s.w_clk <- grow s.w_clk [||];
      s.w_rel <- grow s.w_rel [||];
      s.w_claim <- grow s.w_claim (-1)
    end;
    s.w_act.(n) <- a;
    s.w_clk.(n) <- clk;
    s.w_rel.(n) <- rel;
    s.w_claim.(n) <- -1;
    s.w_n <- n + 1

  (* --- release snapshots ------------------------------------------- *)

  (* slot of a release seq, or -1; few are live (one per thread start,
     thread end and mutex), newest usually wanted *)
  let rs_find s seq =
    let i = ref (s.rs_n - 1) in
    while !i >= 0 && s.rs_seq.(!i) <> seq do
      decr i
    done;
    !i

  (* mo confirmation for a window pair; trusting Theorem 1 here is fine —
     the Theorem-1 differential still validates cv-vs-DFS agreement on
     the live residue at finalize. *)
  let mo_confirmed s (a : Action.t) (b : Action.t) =
    s.exec.Execution.pruned_count > 0
    ||
    let graph = s.exec.Execution.graph in
    Mograph.live_node graph a == Mograph.absent
    || Mograph.live_node graph b == Mograph.absent
    (* a pruned end: the post-hoc completeness checks skip it *)
    || Mograph.reaches graph a b

  let require_mo s src dst =
    if not (mo_confirmed s src dst) then s.obligs <- (src, dst) :: s.obligs

  (* --- feeds ----------------------------------------------------- *)

  let feed_release s ~tid ~seq =
    ensure_tid s tid;
    let snap = Array.copy s.ts.(tid).cl in
    let snap = grown snap (tid + 1) in
    if seq > snap.(tid) then snap.(tid) <- seq;
    if seq > s.max_cv_entry then s.max_cv_entry <- seq;
    let i = rs_find s seq in
    if i >= 0 then s.rs_snap.(i) <- snap
    else begin
      let n = s.rs_n in
      if n = Array.length s.rs_seq then begin
        let cap = max 8 (2 * n) in
        let seqs = Array.make cap 0 and snaps = Array.make cap [||] in
        Array.blit s.rs_seq 0 seqs 0 n;
        Array.blit s.rs_snap 0 snaps 0 n;
        s.rs_seq <- seqs;
        s.rs_snap <- snaps
      end;
      s.rs_seq.(n) <- seq;
      s.rs_snap.(n) <- snap;
      s.rs_n <- n + 1
    end

  let feed_release_drop s ~seq =
    let i = rs_find s seq in
    if i >= 0 then begin
      let last = s.rs_n - 1 in
      s.rs_seq.(i) <- s.rs_seq.(last);
      s.rs_snap.(i) <- s.rs_snap.(last);
      s.rs_snap.(last) <- [||];
      s.rs_n <- last
    end

  let feed_edge s (e : Execution.sync_edge) =
    s.n_edges <- s.n_edges + 1;
    let nt = s.exec.Execution.nthreads in
    if s.c_sync < cap then
      if
        e.se_from_tid < 0 || e.se_from_tid >= nt || e.se_to_tid < 0
        || e.se_to_tid >= nt || e.se_from_seq <= 0
        || (e.se_to_seq <> 0 && e.se_to_seq <= e.se_from_seq)
      then begin
        s.c_sync <- s.c_sync + 1;
        s.v_sync <-
          {
            axiom = Sync_wf;
            actions = [];
            detail =
              Printf.sprintf
                "malformed sync edge t%d@#%d -> t%d@#%d (tids in [0,%d), \
                 release must precede acquire)"
                e.se_from_tid e.se_from_seq e.se_to_tid e.se_to_seq nt;
          }
          :: s.v_sync;
        s.frozen <- true
      end;
    if e.se_to_tid >= 0 && e.se_to_tid < nt then begin
      ensure_tid s e.se_to_tid;
      let i = rs_find s e.se_from_seq in
      if i >= 0 then begin
        let snap = s.rs_snap.(i) in
        let ts = s.ts.(e.se_to_tid) in
        ts.cl <- merge_grow ts.cl snap;
        let cl = grown ts.cl (e.se_to_tid + 1) in
        ts.cl <- cl;
        if e.se_to_seq > cl.(e.se_to_tid) then begin
          cl.(e.se_to_tid) <- e.se_to_seq;
          if e.se_to_seq > s.max_cv_entry then s.max_cv_entry <- e.se_to_seq
        end
      end
    end

  let push_diff s (a_seq : int) (b_seq : int) certified operational =
    s.c_diff <- s.c_diff + 1;
    s.v_diff <-
      {
        axiom = Hb_differential;
        actions = [ a_seq; b_seq ];
        detail =
          Printf.sprintf
            "#%d -hb-> #%d is %b under the certified (sb ∪ sw)⁺ closure \
             but %b under the engine's clock vectors"
            a_seq b_seq certified operational;
      }
      :: s.v_diff;
    s.frozen <- true

  let push_rf s actions detail =
    s.c_rf <- s.c_rf + 1;
    s.v_rf <- { axiom = Rf_wf; actions; detail } :: s.v_rf;
    s.frozen <- true

  let push_rmw s actions detail probe =
    s.c_rmw <- s.c_rmw + 1;
    s.v_rmw <- ({ axiom = Rmw_atomicity; actions; detail }, probe) :: s.v_rmw;
    s.frozen <- true

  (* rf well-formedness of a read *)
  let check_rf s (a : Action.t) =
    match a.rf with
    | None ->
      push_rf s [ a.seq ]
        (Printf.sprintf "read #%d of loc %d has no reads-from store" a.seq
           a.loc)
    | Some st ->
      if not (is_fed s st.seq) then
        push_rf s [ a.seq; st.seq ]
          (Printf.sprintf "read #%d reads-from #%d, not in the trace" a.seq
             st.seq)
      else if not (Action.is_write st) then
        push_rf s [ a.seq; st.seq ]
          (Printf.sprintf "read #%d reads-from #%d, which is not a write"
             a.seq st.seq)
      else if st.loc <> a.loc then
        push_rf s [ a.seq; st.seq ]
          (Printf.sprintf "read #%d of loc %d reads-from #%d of loc %d" a.seq
             a.loc st.seq st.loc)
      else if st.seq >= a.seq then
        push_rf s [ a.seq; st.seq ]
          (Printf.sprintf "read #%d reads-from #%d, which executes after it"
             a.seq st.seq)
      else if a.kind = Action.Load && a.value <> st.value then
        push_rf s [ a.seq; st.seq ]
          (Printf.sprintf
             "load #%d returned %d but its reads-from store #%d wrote %d"
             a.seq a.value st.seq st.value)

  (* [r] read [st] but does not immediately mo-follow it in [graph]; a
     pruned end makes immediacy unobservable, as post-hoc *)
  let not_immediate graph (st : Action.t) (r : Action.t) =
    let ns = Mograph.live_node graph st and nr = Mograph.live_node graph r in
    ns != Mograph.absent && nr != Mograph.absent
    && match ns.Mograph.rmw with Some x -> x != nr | None -> true

  (* rmw atomicity: double claim + mo immediacy (re-probed at finalize
     against the final graph, mirroring the post-hoc pruning skip).  A
     store outside the window takes no claim: unfed, it is already an
     rf-wf violation, and a retired store is unreadable. *)
  let check_rmw s (a : Action.t) (st : Action.t) =
    let k = w_find s st.seq in
    if k >= 0 then begin
      let other = s.w_claim.(k) in
      if other >= 0 then
        push_rmw s [ st.seq; other; a.seq ]
          (Printf.sprintf "store #%d is read by two RMWs, #%d and #%d" st.seq
             other a.seq)
          None
      else s.w_claim.(k) <- a.seq
    end;
    if not_immediate s.exec.Execution.graph st a then
      push_rmw s [ st.seq; a.seq ] (not_immediate_detail a st) (Some (st, a))

  let check_sc s (a : Action.t) ~pre_max =
    s.n_sc <- s.n_sc + 1;
    (* backward pairs: an earlier sc action whose snapshot covers this
       one.  Impossible unless some clock entry already reached this
       seq — the guard keeps clean runs O(1). *)
    if s.c_sc < cap && pre_max >= a.seq then
      for k = s.w_n - 1 downto 0 do
        let x = s.w_act.(k) in
        if
          Memorder.is_seq_cst x.mo && x.seq < a.seq && s.c_sc < cap
          && sget s.w_clk.(k) a.tid >= a.seq
        then begin
          s.c_sc <- s.c_sc + 1;
          s.v_sc_pair <-
            {
              axiom = Sc_order;
              actions = [ x.seq; a.seq ];
              detail =
                Printf.sprintf
                  "sc order places #%d before #%d but #%d happens before #%d"
                  x.seq a.seq a.seq x.seq;
            }
            :: s.v_sc_pair;
          s.frozen <- true
        end
      done;
    (* 29.3/3: an sc read must not observe a store hidden behind the
       last sc store to its location (the pinned per-loc witness) *)
    (if Action.is_read a && s.c_sc < cap then
       match a.rf with
       | Some x when a.loc >= 0 ->
         let l = lstate s a.loc in
         let sw = l.l_last_sc_w in
         if sw != no_action && x.seq <> sw.seq then begin
           let hidden =
             (Memorder.is_seq_cst x.mo && x.seq < sw.seq)
             || sget l.l_last_sc_cv x.tid >= x.seq
           in
           if hidden then begin
             s.c_sc <- s.c_sc + 1;
             s.v_sc_read <-
               {
                 axiom = Sc_order;
                 actions = [ a.seq; x.seq; sw.seq ];
                 detail =
                   Printf.sprintf
                     "sc read #%d observes #%d, hidden behind the last sc \
                      store #%d to loc %d"
                     a.seq x.seq sw.seq a.loc;
               }
               :: s.v_sc_read;
             s.frozen <- true
           end
         end
       | Some _ | None -> ())

  let check_action_online s (a : Action.t) snap ~pre_max =
    (* hb irreflexivity: a foreign slot at or above the action's seq *)
    for u = 0 to Array.length snap - 1 do
      let v = snap.(u) in
      if u <> a.tid && v >= a.seq && s.c_irr < cap then begin
        s.c_irr <- s.c_irr + 1;
        s.v_irr <-
          {
            axiom = Hb_irreflexivity;
            actions = [ a.seq ];
            detail =
              Printf.sprintf
                "action #%d's certified clock covers t%d@#%d, which does not \
                 precede it"
                a.seq u v;
          }
          :: s.v_irr;
        s.frozen <- true
      end
    done;
    (* hb differential, forward pairs only: per-thread certified vs
       operational coverage; a mismatched slot is enumerated over the
       live window, newest first (empty in clean runs: the slots agree) *)
    for u = 0 to s.nthreads - 1 do
      if s.c_diff < cap then begin
        let cs = sget snap u and oc = Clockvec.get a.hb_cv u in
        if cs <> oc then begin
          s.frozen <- true;
          let lo = min cs oc and hi = max cs oc in
          for k = s.w_n - 1 downto 0 do
            let x = s.w_act.(k) in
            if
              s.c_diff < cap && x.tid = u && x.seq > lo && x.seq <= hi
              && x.seq <> a.seq
            then push_diff s x.seq a.seq (cs >= x.seq) (oc >= x.seq)
          done
        end
      end
    done;
    if Action.is_read a && s.c_rf < cap then check_rf s a;
    (if a.kind = Action.Rmw && s.c_rmw < cap then
       match a.rf with Some st -> check_rmw s a st | None -> ());
    if Memorder.is_seq_cst a.mo then begin
      check_sc s a ~pre_max;
      if Action.is_write a && a.loc >= 0 then begin
        let l = lstate s a.loc in
        l.l_last_sc_w <- a;
        l.l_last_sc_cv <- snap
      end
    end

  let rec feed_action s (a : Action.t) =
    ensure_tid s a.tid;
    let pre_max = s.max_cv_entry in
    let ts = s.ts.(a.tid) in
    (* certified clock replica: own tick, then the Act merge rules *)
    let cl = grown ts.cl (a.tid + 1) in
    ts.cl <- cl;
    cl.(a.tid) <- a.seq;
    if a.seq > s.max_cv_entry then s.max_cv_entry <- a.seq;
    (match a.kind with
    | Action.Load | Action.Rmw -> (
      match a.rf with
      | Some st when st.Action.seq < a.seq ->
        let rc = rel_cv s st in
        if Array.length rc > 0 then
          if Memorder.is_acquire a.mo then ts.cl <- merge_grow ts.cl rc
          else ts.pend <- merge_grow ts.pend rc
      | Some _ | None -> ())
    | Action.Fence ->
      if Memorder.is_acquire a.mo then ts.cl <- merge_grow ts.cl ts.pend
    | Action.Store | Action.Na_store -> ());
    let snap = copy_clock ts.cl in
    (* the store's release clock: what a reads-from of this store (or of
       a later RMW in its release sequence) synchronises with *)
    let rel =
      match a.kind with
      | Action.Fence ->
        if Memorder.is_release a.mo then ts.relf_cv <- snap;
        [||]
      | Action.Store | Action.Rmw -> (
        let chain =
          match (a.kind, a.rf) with
          | Action.Rmw, Some prev when prev.Action.seq < a.seq -> rel_cv s prev
          | _ -> [||]
        in
        let own = if Memorder.is_release a.mo then snap else ts.relf_cv in
        match (Array.length own, Array.length chain) with
        | 0, _ -> chain
        | _, 0 -> own
        | _ -> merge_grow (Array.copy own) chain)
      | Action.Na_store | Action.Load -> [||]
    in
    mark_fed s a.seq;
    s.n_actions <- s.n_actions + 1;
    if Action.is_read a then s.n_reads <- s.n_reads + 1;
    if Action.is_write a then s.n_writes <- s.n_writes + 1;
    check_action_online s a snap ~pre_max;
    if a.loc >= 0 then ignore (lstate s a.loc);
    w_push s a snap rel;
    if s.n_actions land 4095 = 0 then sweep s

  (* --- retirement ------------------------------------------------- *)

  and sweep s =
    (* nothing retires once a violation froze the window *)
    if not s.frozen then begin
      fill_cells s;
      s.obligs <-
        List.filter (fun (src, dst) -> not (mo_confirmed s src dst)) s.obligs;
      (* derived here, not per feed: see DESIGN.md *)
      if s.exec.Execution.pruned_count = 0 then
        for k = s.w_swept to s.w_n - 1 do
          coherence_obligations s k
        done;
      s.w_swept <- s.w_n;
      if s.obligs = [] then retire s;
      empty_cells s
    end

  (* every live write into its (location, thread) cell, in seq order *)
  and fill_cells s =
    for k = 0 to s.w_n - 1 do
      let a = s.w_act.(k) in
      if a.loc >= 0 && Action.is_write a then begin
        let l = s.locs.(a.loc) in
        if a.tid >= Array.length l.l_cells then begin
          let cs = Array.make (max (a.tid + 1) 4) no_cell in
          Array.blit l.l_cells 0 cs 0 (Array.length l.l_cells);
          l.l_cells <- cs
        end;
        let c =
          match l.l_cells.(a.tid) with
          | c when c == no_cell ->
            let c = Seqarr.create () in
            l.l_cells.(a.tid) <- c;
            c
          | c -> c
        in
        Seqarr.push c a
      end
    done

  (* cells hold nothing between sweeps *)
  and empty_cells s =
    for loc = 0 to Array.length s.locs - 1 do
      let cells = s.locs.(loc).l_cells in
      for tid = 0 to Array.length cells - 1 do
        Seqarr.clear cells.(tid)
      done
    done

  (* Coherence completeness obligations of the window action at index
     [k], using per-cell newest-covered representatives: older same-cell
     writes are chained through them (mo is transitive under cv
     reachability), so each action checks O(threads) pairs, not
     O(window).  The cells hold the writes the action saw when it was
     fed plus later ones only, and the bound [a.seq - 1] leaves those
     out. *)
  and coherence_obligations s k =
    let a = s.w_act.(k) in
    if a.loc >= 0 then begin
      let cells = s.locs.(a.loc).l_cells in
      let snap = s.w_clk.(k) in
      let before = a.seq - 1 in
      if Action.is_write a then
        for tid = 0 to Array.length cells - 1 do
          let c = cells.(tid) in
          let bound = if tid = a.tid then before else min (sget snap tid) before in
          let i = Seqarr.newest_le c bound in
          if i >= 0 then require_mo s (Seqarr.get c i) a
        done;
      if Action.is_read a then
        match a.rf with
        | Some st when st.loc = a.loc ->
          for tid = 0 to Array.length cells - 1 do
            let c = cells.(tid) in
            let i = Seqarr.newest_le c (min (sget snap tid) before) in
            if i >= 0 then begin
              let w = Seqarr.get c i in
              if w.Action.seq <> st.Action.seq then require_mo s w st
            end
          done
        | Some _ | None -> ()
    end

  and retire s =
    let exec = s.exec in
    let nt = exec.Execution.nthreads in
    (* engine-clock frontier over runnable threads: what every possible
       future reader is guaranteed to cover *)
    let omin = Array.make nt max_int in
    let any_counted = ref false in
    for v = 0 to nt - 1 do
      let tv = exec.Execution.threads.(v) in
      if tv.Execution.live && s.counted v then begin
        any_counted := true;
        for u = 0 to nt - 1 do
          let x = Clockvec.get tv.Execution.c u in
          if x < omin.(u) then omin.(u) <- x
        done
      end
    done;
    if !any_counted then begin
      (* advance per-cell readability barriers (monotone) *)
      for loc = 0 to Array.length s.locs - 1 do
        let l = s.locs.(loc) in
        if l != no_lstate then begin
          l.l_barrier <- grown l.l_barrier nt;
          let cells = l.l_cells in
          for tid = 0 to min nt (Array.length cells) - 1 do
            let c = cells.(tid) in
            let i = Seqarr.newest_le c omin.(tid) in
            if i >= 0 && (Seqarr.get c i).Action.seq > l.l_barrier.(tid) then
              l.l_barrier.(tid) <- (Seqarr.get c i).Action.seq
          done
        end
      done;
      (* decide and compact in one pass: the decisions read the cells,
         barriers and clocks, never the window *)
      let j = ref 0 in
      for k = 0 to s.w_n - 1 do
        let a = s.w_act.(k) in
        if agree s a && ((not (Action.is_write a && a.loc >= 0)) || store_ok s a)
        then s.n_retired <- s.n_retired + 1
        else begin
          let j' = !j in
          if j' < k then begin
            s.w_act.(j') <- a;
            s.w_clk.(j') <- s.w_clk.(k);
            s.w_rel.(j') <- s.w_rel.(k);
            s.w_claim.(j') <- s.w_claim.(k)
          end;
          j := j' + 1
        end
      done;
      let n = !j in
      if n < s.w_n then begin
        (* no retired action stays reachable from the window *)
        Array.fill s.w_act n (s.w_n - n) no_action;
        Array.fill s.w_clk n (s.w_n - n) [||];
        Array.fill s.w_rel n (s.w_n - n) [||];
        s.w_n <- n;
        s.w_swept <- n
      end
    end

  (* certified/operational agreement per live thread: no future snapshot
     can disagree about an action both sides agree on *)
  and agree s (a : Action.t) =
    let threads = s.exec.Execution.threads in
    let ok = ref true and v = ref 0 in
    while !ok && !v < s.exec.Execution.nthreads do
      let tv = threads.(!v) in
      if tv.Execution.live then begin
        let cc = sget s.ts.(!v).cl a.tid in
        let oc = Clockvec.get tv.Execution.c a.tid in
        if cc >= a.seq <> (oc >= a.seq) then ok := false
      end;
      incr v
    done;
    !ok

  and store_ok s (w : Action.t) =
    let exec = s.exec in
    let l = s.locs.(w.loc) in
    let unreadable =
      sget l.l_barrier w.tid > w.seq
      || exec.Execution.pruned_count > 0
         && Mograph.live_node exec.Execution.graph w == Mograph.absent
    in
    unreadable
    && l.l_last_sc_w.seq <> w.seq
    &&
    (* cv-mo-before every still-readable same-location store: this
       discharges CoWW/CoWR against every future action *)
    (exec.Execution.pruned_count > 0
    ||
    let ok = ref true and tid = ref 0 in
    let cells = l.l_cells in
    while !ok && !tid < Array.length cells do
      let c = cells.(!tid) in
      (* still-readable = at or past the barrier; the newest write
         strictly below it starts the scan *)
      let b = sget l.l_barrier !tid in
      let i = ref (max 0 (1 + Seqarr.newest_le c (b - 1))) in
      while !ok && !i < Seqarr.length c do
        let y = Seqarr.get c !i in
        if y.Action.seq <> w.seq && not (mo_confirmed s w y) then ok := false;
        incr i
      done;
      incr tid
    done;
    !ok)

  (* --- finalize ---------------------------------------------------- *)

  (* rmw immediacy candidates ([v_rmw], newest first) re-probed against
     the final graph, onto [acc], oldest first *)
  let rec reprobe_rmw graph acc = function
    | [] -> acc
    | (v, None) :: rest -> reprobe_rmw graph (v :: acc) rest
    | (v, Some (st, r)) :: rest ->
      let acc = if not_immediate graph st r then v :: acc else acc in
      reprobe_rmw graph acc rest

  (* Every other RMW still in the window, probed against the final graph
     (oldest first, under the family cap): its link was immediate when it
     was fed, but the graph can change after that.  Each pair is reported
     once — a candidate in [v_rmw] is re-probed above instead — and a pair
     that has already retired is not probed again. *)
  let probe_window_rmw s graph =
    let candidate (r : Action.t) =
      List.exists
        (function _, Some (_, x) -> x == r | _, None -> false)
        s.v_rmw
    in
    let found = ref [] in
    for k = 0 to s.w_n - 1 do
      let r = s.w_act.(k) in
      if r.kind = Action.Rmw && s.c_rmw < cap then
        match r.rf with
        | Some st when not_immediate graph st r && not (candidate r) ->
          s.c_rmw <- s.c_rmw + 1;
          found :=
            {
              axiom = Rmw_atomicity;
              actions = [ st.seq; r.seq ];
              detail = not_immediate_detail r st;
            }
            :: !found
        | Some _ | None -> ()
    done;
    List.rev !found

  let finalize_now s =
    let exec = s.exec in
    if exec.Execution.mode <> Execution.Full_c11 then Not_applicable na_total_mo
    else begin
      let graph = exec.Execution.graph in
      let graph_exact = exec.Execution.pruned_count = 0 in
      (* mo-graph families over the live residue, with the post-hoc code
         reading the stream's certified clocks *)
      let mo_found, checked, explained =
        check_locations ~graph ~graph_exact s.w_act s.w_clk s.w_n []
      in
      s.n_checked_locs <- checked;
      s.n_explained_locs <- explained;
      let rmw = reprobe_rmw graph [] s.v_rmw @ probe_window_rmw s graph in
      match
        (s.v_sync, s.v_irr, s.v_diff, s.v_rf, mo_found, rmw, s.v_sc_pair,
         s.v_sc_read)
      with
      | [], [], [], [], [], [], [], [] ->
        Certified
          {
            actions = s.n_actions;
            reads = s.n_reads;
            writes = s.n_writes;
            sc_actions = s.n_sc;
            sync_edges = s.n_edges;
            hb_pairs = s.n_actions * (s.n_actions - 1);
            locations = s.n_locs;
            graph_checked = graph_exact;
          }
      | _ ->
        Rejected
          (List.concat
             [
               List.rev s.v_sync;
               List.rev s.v_irr;
               List.rev s.v_diff;
               List.rev s.v_rf;
               List.rev mo_found;
               rmw;
               List.rev s.v_sc_pair;
               List.rev s.v_sc_read;
             ])
    end

  let finalize s =
    match s.finalized with
    | Some v -> v
    | None ->
      let v = finalize_now s in
      s.finalized <- Some v;
      v

  let sink s =
    {
      Execution.cs_action = (fun a -> feed_action s a);
      cs_edge = (fun e -> feed_edge s e);
      cs_release = (fun ~tid ~seq -> feed_release s ~tid ~seq);
      cs_release_drop = (fun ~seq -> feed_release_drop s ~seq);
    }
end

module Internal = struct
  let location_verdicts ?(perturb = ignore) exec ~actions ~sync_edges =
    let c = cert_of exec ~actions ~sync_edges in
    build_hb c;
    let clks = trace_clocks c in
    perturb clks;
    let graph = exec.Execution.graph in
    let graph_exact = exec.Execution.pruned_count = 0 in
    let sc = Domain.DLS.get scratch_key in
    let out = ref [] in
    iter_locations sc c.trace (Array.length c.trace) (fun loc ~off ~n ->
        let clean = decide sc ~graph ~graph_exact c.trace clks ~off ~n in
        let found =
          check_location sc ~graph ~graph_exact ~loc c.trace clks ~off ~n []
        in
        out := (loc, clean, List.rev found) :: !out);
    List.rev !out
end
