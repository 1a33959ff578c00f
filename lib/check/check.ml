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
   Theorem-1 differential, over one dense view of the location.  The
   view holds the location's actions in an array (trace order, hence
   ascending seq), their certified clocks fetched once, write <-> action
   index maps, and mo reachability between the location's writes as a
   w×w bitset.  Every pair check is then an array read, and the view's
   cost is proportional to the location, not to any fixed table size. *)
type view = {
  acts : Action.t array;
  clk : int array option array;  (** action -> certified clock *)
  wr : int array;  (** write index -> action index *)
  wof : int array;  (** action index -> write index, or -1 *)
  wnode : Mograph.node option array;  (** write -> its live graph node *)
  reach : Bytes.t;  (** bit [i * w + j]: write i -mo->⁺ write j, i <> j *)
}

(* index of the action with this seq, or -1 *)
let act_index v seq =
  let lo = ref 0 and hi = ref (Array.length v.acts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v.acts.(mid).Action.seq < seq then lo := mid + 1 else hi := mid
  done;
  if !lo = !hi && v.acts.(!lo).Action.seq = seq then !lo else -1

let write_index v seq =
  let i = act_index v seq in
  if i < 0 then -1 else v.wof.(i)

let reach_bit v wi wj = (wi * Array.length v.wr) + wj

(* mo reachability between two write indices; -1 (not a write of the
   view) reaches and is reached by nothing *)
let mo v wi wj =
  wi >= 0 && wj >= 0
  &&
  let b = reach_bit v wi wj in
  Char.code (Bytes.get v.reach (b lsr 3)) land (1 lsl (b land 7)) <> 0

(* Reachability over the final mo-graph by explicit search (edges + rmw
   links), never by clock vectors: one traversal per live write, setting
   the bits of the same-location writes it reaches.  Visits are stamped
   per traversal, in an array for the view's writes and in a table for
   any other node met on the way (a write the stream already retired). *)
let fill_reach v =
  let nw = Array.length v.wr in
  let stamp = Array.make nw 0 in
  let other = Hashtbl.create 8 in
  for i = 0 to nw - 1 do
    match v.wnode.(i) with
    | None -> ()
    | Some start ->
      let rec go (n : Mograph.node) =
        let seq = n.action.seq in
        let j = write_index v seq in
        let fresh =
          if j >= 0 then stamp.(j) <> i + 1
          else Hashtbl.find_opt other seq <> Some (i + 1)
        in
        if fresh then begin
          if j >= 0 then begin
            stamp.(j) <- i + 1;
            if j <> i then begin
              let b = reach_bit v i j in
              let byte = Char.code (Bytes.get v.reach (b lsr 3)) in
              Bytes.set v.reach (b lsr 3)
                (Char.unsafe_chr (byte lor (1 lsl (b land 7))))
            end
          end
          else Hashtbl.replace other seq (i + 1);
          for k = 0 to n.nedges - 1 do
            go n.edges.(k)
          done;
          match n.rmw with Some r -> go r | None -> ()
        end
      in
      go start
  done

let loc_view ~acv ~graph (acts : Action.t list) =
  let acts = Array.of_list acts in
  let n = Array.length acts in
  let wof = Array.make n (-1) in
  let nw = ref 0 in
  Array.iteri
    (fun i a ->
      if Action.is_write a then begin
        wof.(i) <- !nw;
        incr nw
      end)
    acts;
  let wr = Array.make !nw 0 in
  Array.iteri (fun i w -> if w >= 0 then wr.(w) <- i) wof;
  let v =
    {
      acts;
      clk = Array.map (fun (a : Action.t) -> Hashtbl.find_opt acv a.seq) acts;
      wr;
      wof;
      wnode = Array.map (fun i -> Mograph.find_node graph acts.(i)) wr;
      reach = Bytes.make (((!nw * !nw) + 7) / 8) '\000';
    }
  in
  fill_reach v;
  v

(* Strict certified happens-before between two of the view's actions *)
let view_hb v i j =
  i <> j
  &&
  match v.clk.(j) with
  | Some bc ->
    let a = v.acts.(i) in
    a.tid < Array.length bc && bc.(a.tid) >= a.seq
  | None -> false

(* Per-location coherence: acyclicity of hb|loc ∪ rf ∪ mo ∪ fr over the
   location's actions, plus — when the graph is exact (nothing pruned) —
   the completeness obligations CoWW and CoWR that catch a dropped mo
   edge (a merely missing edge never creates a cycle), and the Theorem 1
   differential: on the final (unpruned) graph, the engine's O(threads)
   clock-vector reachability must agree with explicit search for every
   live same-location write pair.  [add] records a violation. *)
let check_location ~acv ~graph ~graph_exact ~loc acts add =
  let v = loc_view ~acv ~graph acts in
  let n = Array.length v.acts and nw = Array.length v.wr in
  let live w = v.wnode.(w) <> None in
  let seq i = v.acts.(i).Action.seq in
  (* adjacency for the union relation, newest edge first *)
  let adj = Array.make n [] in
  let add_edge i j = adj.(i) <- j :: adj.(i) in
  for i = 0 to n - 1 do
    let a = v.acts.(i) in
    for j = 0 to n - 1 do
      if i <> j then begin
        if view_hb v i j then add_edge i j;
        if mo v v.wof.(i) v.wof.(j) then add_edge i j
      end
    done;
    if Action.is_read a then
      match a.rf with
      | Some s when s.loc = a.loc ->
        (* a store outside the view has no incoming edge here, so its
           out-edges cannot close a cycle *)
        let si = act_index v s.seq in
        if si >= 0 then add_edge si i;
        (* fr = rf⁻¹ ; mo *)
        let ws = if si >= 0 then v.wof.(si) else -1 in
        for w = 0 to nw - 1 do
          let k = v.wr.(w) in
          if k <> si && k <> i && mo v ws w then add_edge i k
        done
      | Some _ | None -> ()
  done;
  (* cycle detection with path extraction *)
  let color = Bytes.make n '\000' in
  let cycle = ref None in
  let rec visit path i =
    if !cycle = None then
      match Bytes.get color i with
      | '\001' ->
        let rec cut = function
          | [] -> [ i ]
          | x :: rest -> if x = i then [ x ] else x :: cut rest
        in
        cycle := Some (i :: List.rev (cut path))
      | '\002' -> ()
      | _ ->
        Bytes.set color i '\001';
        List.iter (visit (i :: path)) adj.(i);
        Bytes.set color i '\002'
  in
  for i = 0 to n - 1 do
    visit [] i
  done;
  (match !cycle with
  | Some cyc ->
    add Coherence (List.map seq cyc)
      (Printf.sprintf
         "loc %d: hb|loc ∪ rf ∪ mo ∪ fr has a cycle through %d actions" loc
         (List.length cyc - 1))
  | None -> ());
  if graph_exact then begin
    let count = ref 0 in
    (* CoWW: hb-ordered same-location writes must be mo-ordered *)
    for wa = 0 to nw - 1 do
      for wb = 0 to nw - 1 do
        let a = v.wr.(wa) and b = v.wr.(wb) in
        if
          !count < cap && a <> b && live wa && live wb && view_hb v a b
          && not (mo v wa wb)
        then begin
          incr count;
          add Coherence [ seq a; seq b ]
            (Printf.sprintf
               "loc %d: CoWW incomplete — write #%d happens before write #%d \
                but is not mo-before it"
               loc (seq a) (seq b))
        end
      done
    done;
    (* CoWR: a write hb-visible to a read must be mo-before the write the
       read actually observed *)
    for r = 0 to n - 1 do
      let ra = v.acts.(r) in
      if Action.is_read ra then
        match ra.rf with
        | Some s when s.loc = ra.loc && Mograph.find_node graph s <> None ->
          let ws = write_index v s.seq in
          for w = 0 to nw - 1 do
            let k = v.wr.(w) in
            if
              !count < cap && w <> ws && k <> r && live w && view_hb v k r
              && not (mo v w ws)
            then begin
              incr count;
              add Coherence [ seq k; ra.seq; s.seq ]
                (Printf.sprintf
                   "loc %d: CoWR incomplete — write #%d happens before read \
                    #%d but is not mo-before its store #%d"
                   loc (seq k) ra.seq s.seq)
            end
          done
        | Some _ | None -> ()
    done;
    (* Theorem 1: clock-vector reachability against the search above *)
    let count = ref 0 in
    for wa = 0 to nw - 1 do
      for wb = 0 to nw - 1 do
        if !count < cap && wa <> wb && live wa && live wb then begin
          let a = v.acts.(v.wr.(wa)) and b = v.acts.(v.wr.(wb)) in
          let cv = Mograph.reaches graph a b in
          let dfs = mo v wa wb in
          if cv <> dfs then begin
            incr count;
            add Theorem1_differential [ a.seq; b.seq ]
              (Printf.sprintf
                 "loc %d: #%d reaches #%d is %b by clock vectors but %b by \
                  graph search"
                 loc a.seq b.seq cv dfs)
          end
        end
      done
    done
  end

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
                (Printf.sprintf
                   "rmw #%d reads-from #%d but does not immediately \
                    mo-follow it"
                   r.seq s.seq)
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

let certify (exec : Execution.t) =
  if not (exec.Execution.cert_on && exec.Execution.cert_record) then
    Not_applicable "execution was not recorded for certification"
  else if exec.Execution.mode <> Execution.Full_c11 then
    Not_applicable na_total_mo
  else begin
    let trace = Array.of_list (Execution.cert_trace exec) in
    let edges = Array.of_list (Execution.cert_sync_edges exec) in
    let by_seq = Hashtbl.create (Array.length trace) in
    Array.iter (fun (a : Action.t) -> Hashtbl.replace by_seq a.seq a) trace;
    let c =
      {
        nthreads = exec.Execution.nthreads;
        trace;
        by_seq;
        edges;
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
    check_sync_wf c;
    build_hb c;
    check_hb_irreflexive c;
    let hb_pairs = check_hb_differential c in
    check_rf_wf c;
    let graph = exec.Execution.graph in
    let graph_exact = exec.Execution.pruned_count = 0 in
    (* group actions by location (fences excluded: loc = -1) *)
    let by_loc = Hashtbl.create 16 in
    Array.iter
      (fun (a : Action.t) ->
        if a.loc >= 0 then
          Hashtbl.replace by_loc a.loc
            (a :: (try Hashtbl.find by_loc a.loc with Not_found -> [])))
      trace;
    let locs =
      Hashtbl.fold (fun loc acts l -> (loc, List.rev acts) :: l) by_loc []
      |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
    in
    List.iter
      (fun (loc, acts) ->
        check_location ~acv:c.acv ~graph ~graph_exact ~loc acts
          (add_violation c))
      locs;
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
          locations = List.length locs;
          graph_checked = graph_exact;
        }
    | vs -> Rejected vs
  end

(* ------------------------------------------------------------------ *)
(* Streaming incremental certification.

   The post-hoc certifier above rebuilds everything from the complete
   retained trace — an O(n²)-ish pass that caps execution size.  The
   stream below consumes the same inputs *as the execution produces
   them* (via an [Execution.cert_sink]), maintains the certified clock
   replica incrementally, runs the per-action axiom checks online, and
   — the point of the exercise — *retires* actions whose every future
   obligation is provably discharged, freeing their window storage so
   certification memory is bounded by the live window, not the run
   length.

   Equivalence with [certify] (checked by the QCheck differential in the
   test suite, key-level on rejections, bit-level on certified stats):

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
     proven unable to participate in a violation.

   Known, deliberate divergence: a synthetically corrupted trace whose
   read names a *future* store is reported as "not in the trace" here
   but "executes after" post-hoc; the real engine (and its seeded
   mutants) never produces such an rf.  Violation *keys* still differ
   only in stripped digits. *)

module Stream = struct
  type tstate = {
    mutable cl : int array;  (* certified clock replica, grown on demand *)
    mutable pend : int array;  (* pending acquire-fence buffer *)
    mutable relf_cv : int array option;
        (* the certified clock of this thread's last release fence (F^rel),
           copied at the fence so the fence itself can retire *)
  }

  (* A window coherence pair whose mo edge isn't (yet) confirmed by
     clock-vector reachability: retirement pauses until it discharges. *)
  type oblig = { o_src : Action.t; o_dst : Action.t }

  (* Live writes of one location by one thread, ascending by seq: the
     feed-time completeness checks and the retirement barrier only ever
     ask for "the newest write at or below a bound", so cells are arrays
     binary-searched in O(log n) — a list walk from the newest end is
     O(window) for a bound that trails far behind (a spinning thread's
     relaxed stores as seen by everyone else). *)
  type cell = { mutable cws : Action.t array; mutable cn : int }

  type lstate = {
    mutable l_acts_rev : Action.t list;  (* live window actions, newest first *)
    l_cells : (int, cell) Hashtbl.t;
    mutable l_last_sc_w : Action.t option;  (* pinned: 29.3/3 witness *)
    mutable l_barrier : int array;
        (* per cell tid: newest store seq covered by every runnable
           thread's engine clock (monotone); strictly older same-cell
           stores are unreadable forever *)
  }

  type t = {
    exec : Execution.t;
    counted : int -> bool;
        (* thread contributes to the readability frontier: live and not
           parked on an unconditional acquire (join / held mutex) *)
    mutable nthreads : int;
    mutable ts : tstate array;
    acv : (int, int array) Hashtbl.t;
    rel_cv : (int, int array) Hashtbl.t;
        (* store seq -> pre-merged release clock: the union of the
           certified clocks of the store's release-sequence heads.  The
           post-hoc pass merges acv(h) per head at each read; the union
           is associative and each acv(h) is fixed at h's feed, so
           folding it store-by-store (own head ∪ predecessor's clock
           along the RMW chain) reads back identically — and unlike a
           head list it pins nothing: an RMW chain would otherwise keep
           every head back to the chain start unretirable. *)
    rel_snaps : (int, int array) Hashtbl.t;  (* release seq -> snapshot *)
    claimed : (int, int) Hashtbl.t;  (* store seq -> claiming rmw seq *)
    by_loc : (int, lstate) Hashtbl.t;
    mutable live : Action.t list;  (* global window, newest first *)
    mutable obligs : oblig list;
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
    mutable frozen : bool;  (* any violation: retirement halts for good *)
    mutable finalized : verdict option;
  }

  let mk_tstate () = { cl = [||]; pend = [||]; relf_cv = None }

  (* Every table starts small and grows with the window: a stream is
     created per execution, most executions are short, and a large
     initial table would be allocated straight into the major heap. *)
  let create ~exec ~counted =
    {
      exec;
      counted;
      nthreads = 0;
      ts = [||];
      acv = Hashtbl.create 16;
      rel_cv = Hashtbl.create 16;
      rel_snaps = Hashtbl.create 16;
      claimed = Hashtbl.create 16;
      by_loc = Hashtbl.create 16;
      live = [];
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
      frozen = false;
      finalized = None;
    }

  let certified_ops s = s.n_actions
  let retired_ops s = s.n_retired
  let anomalous s = s.frozen || s.obligs <> []

  (* growable int arrays, zero-filled: a short array reads as 0s, exactly
     like the post-hoc fixed-width clocks *)
  let grown arr n =
    let len = Array.length arr in
    if len >= n then arr
    else begin
      let a = Array.make (max n ((2 * len) + 4)) 0 in
      Array.blit arr 0 a 0 len;
      a
    end

  let sget arr u = if u < Array.length arr then arr.(u) else 0

  let merge_grow dst src =
    let d = grown dst (Array.length src) in
    merge_into d src;
    d

  let ensure_tid s tid =
    if tid >= s.nthreads then begin
      let n = tid + 1 in
      let ts = Array.make n (mk_tstate ()) in
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

  let lstate s loc =
    match Hashtbl.find_opt s.by_loc loc with
    | Some l -> l
    | None ->
      let l =
        {
          l_acts_rev = [];
          l_cells = Hashtbl.create 4;
          l_last_sc_w = None;
          l_barrier = [||];
        }
      in
      Hashtbl.replace s.by_loc loc l;
      l

  let cell_push c a =
    if c.cn = Array.length c.cws then begin
      let arr = Array.make (max 8 (2 * c.cn)) a in
      Array.blit c.cws 0 arr 0 c.cn;
      c.cws <- arr
    end;
    c.cws.(c.cn) <- a;
    c.cn <- c.cn + 1

  (* index of the newest write with seq <= bound, or -1 *)
  let cell_newest_le c bound =
    if c.cn = 0 || c.cws.(0).Action.seq > bound then -1
    else begin
      let lo = ref 0 and hi = ref (c.cn - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if c.cws.(mid).Action.seq <= bound then lo := mid else hi := mid - 1
      done;
      !lo
    end

  (* mo confirmation for a window pair; trusting Theorem 1 here is fine —
     the Theorem-1 differential still validates cv-vs-DFS agreement on
     the live residue at finalize. *)
  let mo_confirmed s (a : Action.t) (b : Action.t) =
    s.exec.Execution.pruned_count > 0
    ||
    let graph = s.exec.Execution.graph in
    match (Mograph.find_node graph a, Mograph.find_node graph b) with
    | Some _, Some _ -> Mograph.reaches graph a b
    | _ -> true (* a pruned end: the post-hoc completeness checks skip it *)

  let require_mo s src dst =
    if not (mo_confirmed s src dst) then
      s.obligs <- { o_src = src; o_dst = dst } :: s.obligs

  (* --- feeds ----------------------------------------------------- *)

  let feed_release s ~tid ~seq =
    ensure_tid s tid;
    let snap = Array.copy s.ts.(tid).cl in
    let snap = grown snap (tid + 1) in
    if seq > snap.(tid) then snap.(tid) <- seq;
    if seq > s.max_cv_entry then s.max_cv_entry <- seq;
    Hashtbl.replace s.rel_snaps seq snap

  let feed_release_drop s ~seq = Hashtbl.remove s.rel_snaps seq

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
      match Hashtbl.find_opt s.rel_snaps e.se_from_seq with
      | Some snap ->
        let ts = s.ts.(e.se_to_tid) in
        ts.cl <- merge_grow ts.cl snap;
        let cl = grown ts.cl (e.se_to_tid + 1) in
        ts.cl <- cl;
        if e.se_to_seq > cl.(e.se_to_tid) then begin
          cl.(e.se_to_tid) <- e.se_to_seq;
          if e.se_to_seq > s.max_cv_entry then s.max_cv_entry <- e.se_to_seq
        end
      | None -> ()
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

  let check_action_online s (a : Action.t) snap ~pre_max =
    (* hb irreflexivity: a foreign slot at or above the action's seq *)
    Array.iteri
      (fun u v ->
        if u <> a.tid && v >= a.seq && s.c_irr < cap then begin
          s.c_irr <- s.c_irr + 1;
          s.v_irr <-
            {
              axiom = Hb_irreflexivity;
              actions = [ a.seq ];
              detail =
                Printf.sprintf
                  "action #%d's certified clock covers t%d@#%d, which does \
                   not precede it"
                  a.seq u v;
            }
            :: s.v_irr;
          s.frozen <- true
        end)
      snap;
    (* hb differential, forward pairs only: per-thread certified vs
       operational coverage; a mismatched slot is enumerated over the
       live window (empty in clean runs: the slots agree) *)
    for u = 0 to s.nthreads - 1 do
      if s.c_diff < cap then begin
        let cs = sget snap u and oc = Clockvec.get a.hb_cv u in
        if cs <> oc then begin
          s.frozen <- true;
          let lo = min cs oc and hi = max cs oc in
          List.iter
            (fun (x : Action.t) ->
              if
                s.c_diff < cap && x.tid = u && x.seq > lo && x.seq <= hi
                && x.seq <> a.seq
              then push_diff s x.seq a.seq (cs >= x.seq) (oc >= x.seq))
            s.live
        end
      end
    done;
    (* rf well-formedness *)
    (if Action.is_read a && s.c_rf < cap then
       let fail actions msg =
         s.c_rf <- s.c_rf + 1;
         s.v_rf <- { axiom = Rf_wf; actions; detail = msg } :: s.v_rf;
         s.frozen <- true
       in
       match a.rf with
       | None ->
         fail [ a.seq ]
           (Printf.sprintf "read #%d of loc %d has no reads-from store"
              a.seq a.loc)
       | Some st ->
         if not (is_fed s st.seq) then
           fail [ a.seq; st.seq ]
             (Printf.sprintf "read #%d reads-from #%d, not in the trace"
                a.seq st.seq)
         else if not (Action.is_write st) then
           fail [ a.seq; st.seq ]
             (Printf.sprintf "read #%d reads-from #%d, which is not a write"
                a.seq st.seq)
         else if st.loc <> a.loc then
           fail [ a.seq; st.seq ]
             (Printf.sprintf "read #%d of loc %d reads-from #%d of loc %d"
                a.seq a.loc st.seq st.loc)
         else if st.seq >= a.seq then
           fail [ a.seq; st.seq ]
             (Printf.sprintf
                "read #%d reads-from #%d, which executes after it" a.seq
                st.seq)
         else if a.kind = Action.Load && a.value <> st.value then
           fail [ a.seq; st.seq ]
             (Printf.sprintf
                "load #%d returned %d but its reads-from store #%d wrote %d"
                a.seq a.value st.seq st.value));
    (* rmw atomicity: double claim + mo immediacy (re-probed at finalize
       against the final graph, mirroring the post-hoc pruning skip) *)
    (if a.kind = Action.Rmw && s.c_rmw < cap then
       match a.rf with
       | None -> ()
       | Some st ->
         (match Hashtbl.find_opt s.claimed st.seq with
         | Some other ->
           s.c_rmw <- s.c_rmw + 1;
           s.v_rmw <-
             ( {
                 axiom = Rmw_atomicity;
                 actions = [ st.seq; other; a.seq ];
                 detail =
                   Printf.sprintf "store #%d is read by two RMWs, #%d and #%d"
                     st.seq other a.seq;
               },
               None )
             :: s.v_rmw;
           s.frozen <- true
         | None -> Hashtbl.replace s.claimed st.seq a.seq);
         let graph = s.exec.Execution.graph in
         (match (Mograph.find_node graph st, Mograph.find_node graph a) with
         | Some ns, Some nr ->
           let immediate =
             match ns.Mograph.rmw with Some x -> x == nr | None -> false
           in
           if not immediate then begin
             s.c_rmw <- s.c_rmw + 1;
             s.v_rmw <-
               ( {
                   axiom = Rmw_atomicity;
                   actions = [ st.seq; a.seq ];
                   detail =
                     Printf.sprintf
                       "rmw #%d reads-from #%d but does not immediately \
                        mo-follow it"
                       a.seq st.seq;
                 },
                 Some (st, a) )
               :: s.v_rmw;
             s.frozen <- true
           end
         | _ -> ()));
    (* sc order *)
    if Memorder.is_seq_cst a.mo then begin
      s.n_sc <- s.n_sc + 1;
      (* backward pairs: an earlier sc action whose snapshot covers this
         one.  Impossible unless some clock entry already reached this
         seq — the guard keeps clean runs O(1). *)
      if s.c_sc < cap && pre_max >= a.seq then
        List.iter
          (fun (x : Action.t) ->
            if Memorder.is_seq_cst x.mo && x.seq < a.seq && s.c_sc < cap then
              match Hashtbl.find_opt s.acv x.seq with
              | Some xc when sget xc a.tid >= a.seq ->
                s.c_sc <- s.c_sc + 1;
                s.v_sc_pair <-
                  {
                    axiom = Sc_order;
                    actions = [ x.seq; a.seq ];
                    detail =
                      Printf.sprintf
                        "sc order places #%d before #%d but #%d happens \
                         before #%d"
                        x.seq a.seq a.seq x.seq;
                  }
                  :: s.v_sc_pair;
                s.frozen <- true
              | _ -> ())
          s.live;
      (* 29.3/3: an sc read must not observe a store hidden behind the
         last sc store to its location (the pinned per-loc witness) *)
      (if Action.is_read a && s.c_sc < cap then
         match a.rf with
         | None -> ()
         | Some x when a.loc >= 0 -> (
           match (lstate s a.loc).l_last_sc_w with
           | Some sw when x.seq <> sw.seq ->
             let hidden =
               (Memorder.is_seq_cst x.mo && x.seq < sw.seq)
               || (x.seq <> sw.seq
                  &&
                  match Hashtbl.find_opt s.acv sw.seq with
                  | Some sc' -> sget sc' x.tid >= x.seq
                  | None -> false)
             in
             if hidden then begin
               s.c_sc <- s.c_sc + 1;
               s.v_sc_read <-
                 {
                   axiom = Sc_order;
                   actions = [ a.seq; x.seq; sw.seq ];
                   detail =
                     Printf.sprintf
                       "sc read #%d observes #%d, hidden behind the last \
                        sc store #%d to loc %d"
                       a.seq x.seq sw.seq a.loc;
                 }
                 :: s.v_sc_read;
               s.frozen <- true
             end
           | Some _ | None -> ())
         | Some _ -> ());
      if Action.is_write a && a.loc >= 0 then
        (lstate s a.loc).l_last_sc_w <- Some a
    end

  (* Coherence completeness obligations for a new window action, using
     per-cell newest-covered representatives: older same-cell writes are
     chained through them (mo is transitive under cv reachability), so
     each feed checks O(threads) pairs, not O(window). *)
  let coherence_obligations s (a : Action.t) snap =
    if a.loc >= 0 then begin
      let l = lstate s a.loc in
      (if Action.is_write a then
         Hashtbl.iter
           (fun tid c ->
             if tid = a.tid then begin
               if c.cn > 0 then begin
                 let prev = c.cws.(c.cn - 1) in
                 if prev.Action.seq <> a.seq then require_mo s prev a
               end
             end
             else begin
               let i = cell_newest_le c (sget snap tid) in
               if i >= 0 then begin
                 let w = c.cws.(i) in
                 if w.Action.seq <> a.seq then require_mo s w a
               end
             end)
           l.l_cells);
      (if Action.is_read a then
         match a.rf with
         | Some st when st.loc = a.loc ->
           Hashtbl.iter
             (fun tid c ->
               let i = cell_newest_le c (sget snap tid) in
               if i >= 0 then begin
                 let w = c.cws.(i) in
                 if w.Action.seq <> st.Action.seq && w.Action.seq <> a.seq
                 then require_mo s w st
               end)
             l.l_cells
         | Some _ | None -> ());
      (* window bookkeeping after the checks: the action joins its loc *)
      l.l_acts_rev <- a :: l.l_acts_rev;
      if Action.is_write a then
        match Hashtbl.find_opt l.l_cells a.tid with
        | Some c -> cell_push c a
        | None ->
          let c = { cws = Array.make 8 a; cn = 1 } in
          Hashtbl.replace l.l_cells a.tid c
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
      | Some st when st.Action.seq < a.seq -> (
        match Hashtbl.find_opt s.rel_cv st.Action.seq with
        | Some rc when Array.length rc > 0 ->
          if Memorder.is_acquire a.mo then ts.cl <- merge_grow ts.cl rc
          else ts.pend <- merge_grow ts.pend rc
        | Some _ | None -> ())
      | Some _ | None -> ())
    | Action.Fence ->
      if Memorder.is_acquire a.mo then ts.cl <- merge_grow ts.cl ts.pend
    | Action.Store | Action.Na_store -> ());
    let snap = Array.copy ts.cl in
    Hashtbl.replace s.acv a.seq snap;
    (* the store's release clock: what a reads-from of this store (or of
       a later RMW in its release sequence) synchronises with *)
    (match a.kind with
    | Action.Fence ->
      if Memorder.is_release a.mo then ts.relf_cv <- Some snap
    | Action.Store | Action.Rmw ->
      let chain =
        match a.kind with
        | Action.Rmw -> (
          match a.rf with
          | Some prev when prev.Action.seq < a.seq ->
            Hashtbl.find_opt s.rel_cv prev.Action.seq
          | Some _ | None -> None)
        | _ -> None
      in
      let own =
        if Memorder.is_release a.mo then Some snap else ts.relf_cv
      in
      (match (own, chain) with
      | None, None -> ()
      | Some rc, None | None, Some rc -> Hashtbl.replace s.rel_cv a.seq rc
      | Some o, Some c -> Hashtbl.replace s.rel_cv a.seq (merge_grow (Array.copy o) c))
    | Action.Na_store | Action.Load -> ());
    mark_fed s a.seq;
    s.n_actions <- s.n_actions + 1;
    if Action.is_read a then s.n_reads <- s.n_reads + 1;
    if Action.is_write a then s.n_writes <- s.n_writes + 1;
    check_action_online s a snap ~pre_max;
    coherence_obligations s a snap;
    s.live <- a :: s.live;
    if s.n_actions land 4095 = 0 then sweep s

  (* --- retirement ------------------------------------------------- *)

  and sweep s =
    (* re-try pending obligations first: mo only grows *)
    s.obligs <-
      List.filter
        (fun o -> not (mo_confirmed s o.o_src o.o_dst))
        s.obligs;
    if (not s.frozen) && s.obligs = [] then begin
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
        Hashtbl.iter
          (fun _ l ->
            l.l_barrier <- grown l.l_barrier nt;
            Hashtbl.iter
              (fun tid c ->
                if tid < nt then begin
                  let i = cell_newest_le c omin.(tid) in
                  if i >= 0 && c.cws.(i).Action.seq > l.l_barrier.(tid) then
                    l.l_barrier.(tid) <- c.cws.(i).Action.seq
                end)
              l.l_cells)
          s.by_loc;
        (* certified/operational agreement per live thread: no future
           snapshot can disagree about an action both sides agree on *)
        let agree (a : Action.t) =
          let ok = ref true in
          for v = 0 to nt - 1 do
            if !ok then begin
              let tv = exec.Execution.threads.(v) in
              if tv.Execution.live then begin
                let cc = sget s.ts.(v).cl a.tid in
                let oc = Clockvec.get tv.Execution.c a.tid in
                if cc >= a.seq <> (oc >= a.seq) then ok := false
              end
            end
          done;
          !ok
        in
        let store_ok (w : Action.t) =
          let l = lstate s w.loc in
          let unreadable =
            sget l.l_barrier w.tid > w.seq
            || (exec.Execution.pruned_count > 0
               && Mograph.find_node exec.Execution.graph w = None)
          in
          unreadable
          && (match l.l_last_sc_w with
             | Some sw -> sw.seq <> w.seq
             | None -> true)
          &&
          (* cv-mo-before every still-readable same-location store: this
             discharges CoWW/CoWR against every future action *)
          (exec.Execution.pruned_count > 0
          ||
          let ok = ref true in
          Hashtbl.iter
            (fun tid c ->
              if !ok then begin
                (* still-readable = at or past the barrier; the newest
                   write strictly below it starts the scan *)
                let b = sget l.l_barrier tid in
                let start = 1 + cell_newest_le c (b - 1) in
                let i = ref (max 0 start) in
                while !ok && !i < c.cn do
                  let y = c.cws.(!i) in
                  if y.Action.seq <> w.seq && not (mo_confirmed s w y) then
                    ok := false;
                  incr i
                done
              end)
            l.l_cells;
          !ok)
        in
        let to_retire = Hashtbl.create 64 in
        List.iter
          (fun (a : Action.t) ->
            if
              agree a
              && (not (Action.is_write a && a.loc >= 0) || store_ok a)
            then Hashtbl.replace to_retire a.seq ())
          s.live;
        if Hashtbl.length to_retire > 0 then begin
          List.iter
            (fun (a : Action.t) ->
              if Hashtbl.mem to_retire a.seq then begin
                Hashtbl.remove s.acv a.seq;
                Hashtbl.remove s.claimed a.seq;
                Hashtbl.remove s.rel_cv a.seq;
                s.n_retired <- s.n_retired + 1
              end)
            s.live;
          s.live <-
            List.filter
              (fun (a : Action.t) -> not (Hashtbl.mem to_retire a.seq))
              s.live;
          Hashtbl.iter
            (fun _ l ->
              l.l_acts_rev <-
                List.filter
                  (fun (a : Action.t) -> not (Hashtbl.mem to_retire a.seq))
                  l.l_acts_rev;
              Hashtbl.iter
                (fun _ c ->
                  let j = ref 0 in
                  for i = 0 to c.cn - 1 do
                    let w = c.cws.(i) in
                    if not (Hashtbl.mem to_retire w.Action.seq) then begin
                      c.cws.(!j) <- w;
                      incr j
                    end
                  done;
                  if !j < c.cn then begin
                    (* exact copy: capacity slots past [cn] would pin
                       retired actions against the GC *)
                    c.cws <- Array.sub c.cws 0 (max 1 !j);
                    c.cn <- !j
                  end)
                l.l_cells)
            s.by_loc
        end
      end
    end

  (* --- finalize ---------------------------------------------------- *)

  let finalize_now s =
    let exec = s.exec in
    if exec.Execution.mode <> Execution.Full_c11 then Not_applicable na_total_mo
    else begin
      let graph = exec.Execution.graph in
      let graph_exact = exec.Execution.pruned_count = 0 in
      (* mo-graph families over the live residue, with the post-hoc code
         reading the stream's certified clocks *)
      let mo_found = ref [] in
      let add axiom actions detail =
        mo_found := { axiom; actions; detail } :: !mo_found
      in
      let locs =
        Hashtbl.fold
          (fun loc l acc -> (loc, List.rev l.l_acts_rev) :: acc)
          s.by_loc []
        |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
      in
      List.iter
        (fun (loc, acts) ->
          if acts <> [] then
            check_location ~acv:s.acv ~graph ~graph_exact ~loc acts add)
        locs;
      (* rmw immediacy candidates re-probed against the final graph: a
         pruned end makes immediacy unobservable, as post-hoc *)
      let rmw =
        List.rev s.v_rmw
        |> List.filter_map (fun (v, probe) ->
               match probe with
               | None -> Some v
               | Some (st, r) -> (
                 match (Mograph.find_node graph st, Mograph.find_node graph r)
                 with
                 | Some ns, Some nr ->
                   let immediate =
                     match ns.Mograph.rmw with
                     | Some x -> x == nr
                     | None -> false
                   in
                   if immediate then None else Some v
                 | _ -> None))
      in
      let violations =
        List.concat
          [
            List.rev s.v_sync;
            List.rev s.v_irr;
            List.rev s.v_diff;
            List.rev s.v_rf;
            List.rev !mo_found;
            rmw;
            List.rev s.v_sc_pair;
            List.rev s.v_sc_read;
          ]
      in
      match violations with
      | [] ->
        Certified
          {
            actions = s.n_actions;
            reads = s.n_reads;
            writes = s.n_writes;
            sc_actions = s.n_sc;
            sync_edges = s.n_edges;
            hb_pairs = s.n_actions * (s.n_actions - 1);
            locations = List.length locs;
            graph_checked = graph_exact;
          }
      | vs -> Rejected vs
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
