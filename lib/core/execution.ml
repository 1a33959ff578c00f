type mode = Full_c11 | Total_mo

(* Deliberate, test-only engine faults (see the .mli).  Each one removes a
   piece of bookkeeping the memory model depends on; the axiomatic
   certifier (lib/check) and the fuzz oracle (lib/fuzz) must detect all of
   them from the outside. *)
type mutation =
  | Skip_acquire_merge
  | Drop_mo_edge
  | Weak_release_store
  | Race_ignores_sync

let mutation_name = function
  | Skip_acquire_merge -> "skip-acquire-merge"
  | Drop_mo_edge -> "drop-mo-edge"
  | Weak_release_store -> "weak-release-store"
  | Race_ignores_sync -> "race-ignores-sync"

let mutation_of_string = function
  | "skip-acquire-merge" -> Some Skip_acquire_merge
  | "drop-mo-edge" -> Some Drop_mo_edge
  | "weak-release-store" -> Some Weak_release_store
  | "race-ignores-sync" -> Some Race_ignores_sync
  | _ -> None

let all_mutations =
  [ Skip_acquire_merge; Drop_mo_edge; Weak_release_store; Race_ignores_sync ]

exception Model_error of string

type rmw_decision = Rmw_keep | Rmw_write of int

type thread_state = {
  tid : int;
  mutable c : Clockvec.t;
  mutable frel : Clockvec.t;
  mutable facq : Clockvec.t;
  sc_fences : Seqarr.t;
  mutable live : bool;
}

(* One (location, thread) cell: its actions in seq order.  Every entry
   has the cell's tid, so coverage by a clock is monotone along each
   array and the prior-set scans are binary searches. *)
type loc_cell = {
  cell_tid : int;
  c_stores : Seqarr.t;
  c_accesses : Seqarr.t;
  c_sc_stores : Seqarr.t;
}

(* A synchronisation edge recorded for the certifier: the event at
   [se_from_tid]'s sequence number [se_from_seq] released state that the
   event at [se_to_tid]/[se_to_seq] acquired (thread spawn, join, mutex
   hand-off).  [se_to_seq = 0] means "before the target thread's first
   event" (thread start). *)
type sync_edge = {
  se_from_tid : int;
  se_from_seq : int;
  se_to_tid : int;
  se_to_seq : int;
}

(* Incremental certification sink (the streaming certifier in lib/check
   implements one; this module only drives it).  Actions are fed once
   their reads-from field is final; release points are fed for every
   event a future sync edge may name as its source (thread spawn and
   finish, mutex unlock), so the sink can snapshot its own clocks at the
   release instead of retaining history.  [cs_release_drop] retires a
   release snapshot that can no longer be named (a superseded unlock). *)
type cert_sink = {
  cs_action : Action.t -> unit;
  cs_edge : sync_edge -> unit;
  cs_release : tid:int -> seq:int -> unit;
  cs_release_drop : seq:int -> unit;
}

type loc_info = {
  li_loc : int;
  mutable cells : loc_cell list;
      (* newest-created first: may-read-from visits the cells, and so
         draws its candidates, in this order *)
  mutable by_tid : loc_cell array;
      (* the same cells ascending by tid, in [by_tid.(0 .. ncells-1)]:
         the prior sets visit them in this order *)
  mutable cell_tids : int array;
      (* their tids, [cell_tids.(i) = by_tid.(i).cell_tid]: the per-access
         cell lookup binary-searches these plain ints *)
  mutable ncells : int;
  mutable last_sc : Action.t option;
      (** newest seq_cst store to this location, maintained incrementally
          by [record_store] (a new store always has the global max seq) and
          rebuilt by {!refresh_loc_caches} after pruning *)
  mutable newest : Action.t option;  (** newest store of any order; ditto *)
  mutable store_count : int;
  mutable rel_head : (int * Clockvec.t) option;
      (** Total_mo mode only: the C++11-style release-sequence head (owner
          thread, its clock at the release) still in force at this
          location.  tsan-lineage tools implement the 2011 release-sequence
          definition, under which later relaxed stores by the same thread
          continue the sequence; C11Tester uses the C++20 definition where
          they do not (Section 2.2, change 1). *)
}

type t = {
  mode : mode;
  rng : Rng.t;
  race : Race.t;
  graph : Mograph.t;
  obs : Obs.t;
  prof : Profile.t;
  metrics : Metrics.t;
  (* [Obs.enabled obs] etc., cached at creation: the guards sit on every
     transition rule, and a field load + branch is free while a
     cross-module call is not (no flambda to inline it away). *)
  obs_on : bool;
  prof_on : bool;
  metrics_on : bool;
  (* set by [add_cert_sink]: the sinks are the only consumers of
     certification events, so without one none are produced *)
  mutable cert_on : bool;
  mutation : mutation option;
      (** test-only seeded engine fault; [None] (the default) is the
          correct engine *)
  mutable cert_sink : cert_sink option;
  mutable seq : int;
  mutable threads : thread_state array;
  mutable nthreads : int;
  (* Locations are dense small ints handed out by [fresh_loc], so all
     loc-keyed state is direct-indexed growable arrays: the per-access
     lookups on the non-atomic hot path are a bounds check and a load.
     Every array of an execution starts empty and takes its first
     capacity as an array literal, so setting up an execution makes no
     runtime call; a growth below loc 16 can only be the first.  A
     literal of more than four constants compiles to a [caml_obj_dup] of
     a static block, so those name their constant through
     [Sys.opaque_identity], which keeps them inline allocations. *)
  mutable locs : loc_info option array;
  mutable values : int array;
  mutable atomic_locs : bool array;
  mutable next_loc : int;
  mutable atomic_ops : int;
  mutable na_ops : int;
  mutable max_graph_size : int;
  mutable pruned_count : int;
  mutable mrf_buf : Action.t array;
      (* reusable may-read-from scratch: one growable buffer per execution
         instead of a fresh list + array per atomic load/RMW *)
  mutable mrf_n : int;
}

(* Placeholder for growing [mrf_buf]; never read. *)
let dummy_action : Action.t =
  {
    Action.seq = 0;
    tid = 0;
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

let create ?(obs = Obs.null) ?(prof = Profile.null) ?(metrics = Metrics.null)
    ?mutation ~mode ~rng ~race () =
  {
    mode;
    rng;
    race;
    graph = Mograph.create ();
    obs;
    prof;
    metrics;
    obs_on = Obs.enabled obs;
    prof_on = Profile.enabled prof;
    metrics_on = Metrics.enabled metrics;
    cert_on = false;
    mutation;
    cert_sink = None;
    seq = 0;
    threads = [||];
    nthreads = 0;
    locs = [||];
    values = [||];
    atomic_locs = [||];
    next_loc = 0;
    atomic_ops = 0;
    na_ops = 0;
    max_graph_size = 0;
    pruned_count = 0;
    mrf_buf = [||];
    mrf_n = 0;
  }

(* Is fault [m] installed?  A pattern match, where the polymorphic
   [t.mutation <> Some m] would be a runtime call on every load and store;
   with [None] it is one test. *)
let[@inline] has_mutation t m =
  match t.mutation with None -> false | Some m' -> m' == m

let[@inline never] unknown_thread tid =
  raise (Model_error (Printf.sprintf "unknown thread %d" tid))

(* [threads] holds at least [nthreads] slots, so the checked index is in
   bounds. *)
let[@inline] thread t tid =
  if tid < 0 || tid >= t.nthreads then unknown_thread tid;
  Array.unsafe_get t.threads tid

let fresh_loc t ~atomic ~name =
  let loc = t.next_loc in
  t.next_loc <- loc + 1;
  if atomic then begin
    let len = Array.length t.atomic_locs in
    if loc >= len then
      t.atomic_locs <-
        (if loc < 16 then
           let f = Sys.opaque_identity false in
           [| f; f; f; f; f; f; f; f; f; f; f; f; f; f; f; f |]
         else begin
           let arr = Array.make (max (loc + 1) (max 16 (2 * len))) false in
           Array.blit t.atomic_locs 0 arr 0 len;
           arr
         end);
    t.atomic_locs.(loc) <- true
  end;
  (match name with
  | Some n -> Race.name_location t.race ~loc n
  | None -> ());
  loc

let[@inline] is_atomic_loc t loc =
  loc < Array.length t.atomic_locs && Array.unsafe_get t.atomic_locs loc

let cert_sync_edge t ~from_tid ~from_seq ~to_tid ~to_seq =
  match t.cert_sink with
  | Some s ->
    s.cs_edge
      {
        se_from_tid = from_tid;
        se_from_seq = from_seq;
        se_to_tid = to_tid;
        se_to_seq = to_seq;
      }
  | None -> ()

(* Current sequence number of the thread's own clock slot — the seq of its
   most recent event (action or synchronisation tick). *)
let[@inline] thread_now t ~tid = Clockvec.get (thread t tid).c tid

(* A second sink is called after the first, for every event. *)
let add_cert_sink t sink =
  t.cert_on <- true;
  t.cert_sink <-
    Some
      (match t.cert_sink with
      | None -> sink
      | Some first ->
        {
          cs_action =
            (fun a ->
              first.cs_action a;
              sink.cs_action a);
          cs_edge =
            (fun e ->
              first.cs_edge e;
              sink.cs_edge e);
          cs_release =
            (fun ~tid ~seq ->
              first.cs_release ~tid ~seq;
              sink.cs_release ~tid ~seq);
          cs_release_drop =
            (fun ~seq ->
              first.cs_release_drop ~seq;
              sink.cs_release_drop ~seq);
        })

let[@inline] cert_feed t a =
  match t.cert_sink with Some s -> s.cs_action a | None -> ()

(* Announce a release point (thread spawn/finish, mutex unlock): the
   streaming certifier snapshots its replica clocks here so a later sync
   edge naming this (tid, seq) needs no retained history. *)
let cert_release t ~tid =
  match t.cert_sink with
  | Some s -> s.cs_release ~tid ~seq:(thread_now t ~tid)
  | None -> ()

let cert_release_drop t ~seq =
  match t.cert_sink with Some s -> s.cs_release_drop ~seq | None -> ()

let new_thread t ~parent =
  let tid = t.nthreads in
  let c =
    match parent with
    | Some p -> Clockvec.copy (thread t p).c
    | None -> Clockvec.bottom ()
  in
  let ts =
    {
      tid;
      c;
      frel = Clockvec.bottom ();
      facq = Clockvec.bottom ();
      sc_fences = Seqarr.create ();
      live = true;
    }
  in
  let len = Array.length t.threads in
  if tid >= len then
    t.threads <-
      (if len = 0 then [| ts; ts; ts; ts |]
       else begin
         let threads = Array.make (2 * len) ts in
         Array.blit t.threads 0 threads 0 tid;
         threads
       end);
  t.threads.(tid) <- ts;
  t.nthreads <- tid + 1;
  (* The child inherits the parent's whole clock (the
     additional-synchronizes-with edge of thread creation); for the
     certifier that is an edge from the parent's latest event to the
     child's start. *)
  (if t.cert_on then
     match parent with
     | Some p ->
       cert_release t ~tid:p;
       cert_sync_edge t ~from_tid:p ~from_seq:(thread_now t ~tid:p) ~to_tid:tid
         ~to_seq:0
     | None -> ());
  tid

let[@inline] tick t ts =
  t.seq <- t.seq + 1;
  Clockvec.set ts.c ts.tid t.seq;
  t.seq

let[@inline] tick_sync t ~tid =
  let ts = thread t tid in
  ignore (tick t ts);
  t.atomic_ops <- t.atomic_ops + 1

let[@inline] acquire_cv t ~tid cv =
  let p0 = if t.prof_on then Profile.now_ns () else 0 in
  ignore (Clockvec.merge (thread t tid).c cv);
  if t.prof_on then Profile.stop t.prof "cv_merge" p0

let release_snapshot t ~tid = Clockvec.copy (thread t tid).c

(* ------------------------------------------------------------------ *)
(* Location bookkeeping                                               *)

let[@inline] find_loc t loc =
  if loc < Array.length t.locs then Array.unsafe_get t.locs loc else None

let[@inline never] new_loc t loc =
  let li =
    {
      li_loc = loc;
      cells = [];
      by_tid = [||];
      cell_tids = [||];
      ncells = 0;
      last_sc = None;
      newest = None;
      store_count = 0;
      rel_head = None;
    }
  in
  let len = Array.length t.locs in
  if loc >= len then
    t.locs <-
      (if loc < 16 then
         let n = Sys.opaque_identity None in
         [| n; n; n; n; n; n; n; n; n; n; n; n; n; n; n; n |]
       else begin
         let arr = Array.make (max (loc + 1) (max 16 (2 * len))) None in
         Array.blit t.locs 0 arr 0 len;
         arr
       end);
  t.locs.(loc) <- Some li;
  li

let[@inline] get_loc t loc =
  match find_loc t loc with Some li -> li | None -> new_loc t loc

(* Commit-order value of each location; what a plain non-atomic read sees. *)
let[@inline never] grow_values t loc =
  let len = Array.length t.values in
  t.values <-
    (if loc < 16 then
       let z = Sys.opaque_identity 0 in
       [| z; z; z; z; z; z; z; z; z; z; z; z; z; z; z; z |]
     else begin
       let arr = Array.make (max (loc + 1) (max 16 (2 * len))) 0 in
       Array.blit t.values 0 arr 0 len;
       arr
     end)

let[@inline] set_value t loc v =
  if loc >= Array.length t.values then grow_values t loc;
  Array.unsafe_set t.values loc v

let[@inline] get_value t loc =
  if loc < Array.length t.values then Array.unsafe_get t.values loc else 0

let[@inline never] new_cell li tid i =
  let c =
    {
      cell_tid = tid;
      c_stores = Seqarr.create ();
      c_accesses = Seqarr.create ();
      c_sc_stores = Seqarr.create ();
    }
  in
  li.cells <- c :: li.cells;
  let n = li.ncells in
  (* cells are never removed, so [n = 0] is the location's first cell *)
  if n = 0 then begin
    li.by_tid <- [| c; c; c; c |];
    li.cell_tids <- [| 0; 0; 0; 0 |]
  end
  else if n = Array.length li.by_tid then begin
    let arr = Array.make (2 * n) c in
    Array.blit li.by_tid 0 arr 0 n;
    li.by_tid <- arr;
    let tids = Array.make (2 * n) 0 in
    Array.blit li.cell_tids 0 tids 0 n;
    li.cell_tids <- tids
  end;
  (* open slot [i] by a loop: a blit is a runtime call even for the
     common zero-length shift of a cell appended at the end *)
  let by_tid = li.by_tid and tids = li.cell_tids in
  for j = n downto i + 1 do
    Array.unsafe_set by_tid j (Array.unsafe_get by_tid (j - 1));
    Array.unsafe_set tids j (Array.unsafe_get tids (j - 1))
  done;
  by_tid.(i) <- c;
  tids.(i) <- tid;
  li.ncells <- n + 1;
  c

let[@inline] get_cell li tid =
  let i = Bytid.search li.cell_tids li.ncells tid in
  if i < li.ncells && Array.unsafe_get li.cell_tids i = tid then
    Array.unsafe_get li.by_tid i
  else new_cell li tid i

let[@inline] record_store li (a : Action.t) =
  let cell = get_cell li a.tid in
  Seqarr.push cell.c_stores a;
  Seqarr.push cell.c_accesses a;
  (* Sequence numbers are globally increasing, so the store being recorded
     is the location's newest — the caches stay exact without a scan. *)
  li.newest <- Some a;
  if Memorder.is_seq_cst a.mo then begin
    Seqarr.push cell.c_sc_stores a;
    li.last_sc <- Some a
  end;
  li.store_count <- li.store_count + 1

let[@inline] record_load li (a : Action.t) =
  Seqarr.push (get_cell li a.tid).c_accesses a

(* Rebuild [last_sc]/[newest] from the cells' newest entries; the pruner
   calls this after removing stores, the only event that can invalidate
   them. *)
let refresh_loc_caches li =
  let newest = ref None and last_sc = ref None in
  let newer_of acc c =
    if not (Seqarr.is_empty c) then
      let (x : Action.t) = Seqarr.last c in
      match !acc with
      | Some (y : Action.t) when y.seq >= x.seq -> ()
      | _ -> acc := Some x
  in
  List.iter
    (fun cell ->
      newer_of newest cell.c_stores;
      newer_of last_sc cell.c_sc_stores)
    li.cells;
  li.newest <- !newest;
  li.last_sc <- !last_sc

let last_sc_store li = li.last_sc

(* ------------------------------------------------------------------ *)
(* may-read-from (Figure 12)                                           *)

let[@inline never] grow_mrf t =
  let n = t.mrf_n in
  t.mrf_buf <-
    (if n = 0 then
       [| dummy_action; dummy_action; dummy_action; dummy_action;
          dummy_action; dummy_action; dummy_action; dummy_action;
          dummy_action; dummy_action; dummy_action; dummy_action;
          dummy_action; dummy_action; dummy_action; dummy_action |]
     else begin
       let arr = Array.make (2 * n) dummy_action in
       Array.blit t.mrf_buf 0 arr 0 n;
       arr
     end)

let[@inline] mrf_push t (a : Action.t) =
  let n = t.mrf_n in
  if n = Array.length t.mrf_buf then grow_mrf t;
  Array.unsafe_set t.mrf_buf n a;
  t.mrf_n <- n + 1

(* Section 29.3 statement 3: a seq_cst load reads the last seq_cst store
   S, or some store that neither precedes S in sc nor happens before S.
   [sc] is [Some S] for a seq_cst load of a location with one, else
   [None] (every candidate kept). *)
let[@inline] sc_keep sc (x : Action.t) =
  match sc with
  | None -> true
  | Some (s : Action.t) ->
    x == s
    || not
         ((Memorder.is_seq_cst x.mo && x.seq < s.seq) || Action.happens_before x s)

(* One thread's stores, newest first, down to the newest one the loading
   thread's clock covers; [cd]/[nc] are that clock's slots, hoisted out
   of the loop. *)
let[@inline] mrf_cell t sc cd nc cell =
  let st = cell.c_stores in
  let u = cell.cell_tid in
  let bound = if u < nc then Array.unsafe_get cd u else 0 in
  let i = ref (Seqarr.length st - 1) in
  while !i >= 0 do
    let (x : Action.t) = Seqarr.get st !i in
    if sc_keep sc x then mrf_push t x;
    if x.seq <= bound then i := -1 else decr i
  done

(* For each thread's stores (newest first): every store that does not
   happen before the load is a candidate; the newest store that does happen
   before the load is the final candidate for that thread (anything older is
   hidden behind it: X -sb-> Y -hb-> L).

   Candidates land in [t.mrf_buf] (first [t.mrf_n] slots) — the one scratch
   buffer replaces the list + [Array.of_list] pair the previous version
   allocated per load.  The buffer is reversed before returning so its
   order matches the old prepend-built list bit for bit (the seq_cst
   filter commutes with the reversal because both preserve relative
   order), keeping the downstream shuffle's RNG draws identical. *)
let[@inline] build_may_read_from_buf t li ts ~is_sc =
  t.mrf_n <- 0;
  let cd = Clockvec.raw ts.c in
  let nc = Array.length cd in
  let sc = if is_sc then li.last_sc else None in
  let cells = ref li.cells in
  while
    match !cells with
    | [] -> false
    | cell :: rest ->
      mrf_cell t sc cd nc cell;
      cells := rest;
      true
  do
    ()
  done;
  let buf = t.mrf_buf in
  let i = ref 0 and j = ref (t.mrf_n - 1) in
  while !i < !j do
    let tmp = buf.(!i) in
    buf.(!i) <- buf.(!j);
    buf.(!j) <- tmp;
    incr i;
    decr j
  done

(* List view of the scratch buffer, for tests. *)
let build_may_read_from t li ts ~is_sc =
  build_may_read_from_buf t li ts ~is_sc;
  Array.to_list (Array.sub t.mrf_buf 0 t.mrf_n)

(* ------------------------------------------------------------------ *)
(* priorsets (Figure 13)                                               *)

(* The newest entry of [c] with seq below [bound], or [dummy_action]
   (seq 0, below every real action). *)
let[@inline] newest_before c bound =
  Seqarr.newest_le_or c (bound - 1) ~default:dummy_action

let[@inline] newer (acc : Action.t) (c : Action.t) = if c.seq > acc.seq then c else acc

(* The four terms of Figure 13 for one thread [u], given its cell at the
   location: each is "the newest entry of one of [u]'s seq-sorted arrays
   below a bound", a binary search.  [f_l] is the acting thread's newest
   seq_cst fence ([dummy_action] if none); [current] is its clock, used
   for happens-before against the action being processed (which has no
   record yet): [u]'s entries all carry tid [u], so the newest one
   [current] covers is the newest at or below [current]'s slot for [u].
   Returns the newest of the four, [dummy_action] when all are empty. *)
let[@inline] prior_in_cell t cell ~(f_l : Action.t) ~is_sc_op ~current =
  let u = cell.cell_tid in
  let fences = t.threads.(u).sc_fences in
  let stores = cell.c_stores in
  let s1 =
    if is_sc_op && not (Seqarr.is_empty fences) then
      newest_before stores (Seqarr.last fences).seq
    else dummy_action
  in
  let s23 =
    if f_l == dummy_action then s1
    else begin
      let s2 = newest_before cell.c_sc_stores f_l.seq in
      let fb = newest_before fences f_l.seq in
      let s3 = if fb == dummy_action then fb else newest_before stores fb.seq in
      newer (newer s1 s2) s3
    end
  in
  newer s23
    (Seqarr.newest_le_or cell.c_accesses (Clockvec.get current u)
       ~default:dummy_action)

(* The write a prior-set term stands for: a store itself, the store a
   load read from. *)
let[@inline] add_prior_write acc (a : Action.t) =
  match a.kind with
  | Action.Store | Action.Rmw | Action.Na_store -> a :: acc
  | Action.Load -> ( match a.rf with Some w -> w :: acc | None -> acc)
  | Action.Fence -> acc

(* Is the mo constraint [e -> s] unsatisfiable given the current graph?
   In Full_c11 this is the rollback-free cycle check of Section 4.3
   (following [e]'s rmw chain as AddEdge will); with a total commit-order
   mo it is a plain order comparison. *)
let[@inline] edge_infeasible t ~(from : Action.t) ~(to_ : Action.t) =
  match t.mode with
  | Full_c11 -> Mograph.edge_would_close_cycle t.graph ~from ~to_
  | Total_mo -> to_.seq <= from.seq

let[@inline] newest_fence (ts : thread_state) =
  if Seqarr.is_empty ts.sc_fences then dummy_action else Seqarr.last ts.sc_fences

(* The prior-set writes of every cell of [li], ascending by tid, pushed
   onto [acc] (so the highest tid ends up first). *)
let prior_cells t li ~f_l ~is_sc_op ~current acc =
  let acc = ref acc in
  for i = 0 to li.ncells - 1 do
    let w = prior_in_cell t (Array.unsafe_get li.by_tid i) ~f_l ~is_sc_op ~current in
    if w != dummy_action then acc := add_prior_write !acc w
  done;
  !acc

(* ReadPriorSet (Figure 13), in two halves.  The per-thread stores a load
   must be mo-after do not depend on the store it reads, so
   [read_prior_base] computes them once per operation, highest thread id
   first; [read_prior_set] then drops the candidate [s] itself (keeping
   the order, whose head [Drop_mo_edge] drops) and returns [None] if any
   remaining edge source is already reachable from [s] — i.e. the read
   would put a cycle in the mo-graph.  Only threads with a cell at the
   location can contribute (all four terms read the cell), so the loop
   visits the cells, ascending by tid, not every thread. *)
let[@inline] read_prior_base t li ts ~load_mo =
  prior_cells t li ~f_l:(newest_fence ts)
    ~is_sc_op:(Memorder.is_seq_cst load_mo) ~current:ts.c []

(* [base] without the candidate [s], in order; shares [base] when [s] is
   not in it (the common case). *)
let rec without (s : Action.t) = function
  | [] -> []
  | (w : Action.t) :: rest as l ->
    if w == s || w.seq = s.seq then without s rest
    else
      let rest' = without s rest in
      if rest' == rest then l else w :: rest'

let rec any_infeasible t ~to_ = function
  | [] -> false
  | e :: rest -> edge_infeasible t ~from:e ~to_ || any_infeasible t ~to_ rest

let[@inline] read_prior_set t base (s : Action.t) =
  let pset = without s base in
  if any_infeasible t ~to_:s pset then None else Some pset

(* WritePriorSet (Figure 13).  A plain store goes to the end of mo and
   cannot create a cycle (it has no outgoing edges yet), so its callers
   need no feasibility check; an RMW's write is pinned mid-order and must
   pre-check with [rmw_write_feasible].  [current] is the acting thread's
   clock to run the happens-before scans against — [ts.c] at commit time,
   or a what-if clock for the RMW pre-check. *)
let[@inline] write_prior_set t li ts ~store_mo ~current =
  let is_sc_op = Memorder.is_seq_cst store_mo in
  let acc =
    if is_sc_op then match last_sc_store li with Some x -> [ x ] | None -> []
    else []
  in
  prior_cells t li ~f_l:(newest_fence ts) ~is_sc_op ~current acc

let rec none_reached t (s : Action.t) = function
  | [] -> true
  | (w : Action.t) :: rest ->
    (w == s || w.seq = s.seq || not (Mograph.reaches t.graph s w))
    && none_reached t s rest

(* The write half of an RMW reading [s] is pinned immediately mo-after
   [s] (AddRmwEdge migrates [s]'s existing successors behind it), so a
   WritePriorSet constraint [w -mo-> rmw] with [w] already strictly
   mo-after [s] would close a cycle — e.g. a seq_cst RMW reading a stale
   store when a later seq_cst store already sits further down mo.  Such a
   candidate must be rejected before anything is committed.  The what-if
   clock mirrors the acquire merge [rmw_commit_write] will perform, so the set
   checked here is the set that commit will install. *)
let rmw_write_feasible t li ts ~mo (s : Action.t) =
  match t.mode with
  | Total_mo -> true (* candidates are already restricted to the newest store *)
  | Full_c11 ->
    let current =
      if Memorder.is_acquire mo && not (has_mutation t Skip_acquire_merge) then
        match s.rf_cv with
        | Some cv -> Clockvec.union ts.c cv
        | None -> ts.c
      else ts.c
    in
    none_reached t s (write_prior_set t li ts ~store_mo:mo ~current)

let rec add_edges_to g ns = function
  | [] -> ()
  | e :: rest ->
    Mograph.add_edge g (Mograph.get_node g e) ns;
    add_edges_to g ns rest

let add_edges t pset (s : Action.t) =
  match t.mode with
  | Total_mo -> ()
  | Full_c11 ->
    (* [Drop_mo_edge] fault: silently lose one modification-order
       constraint per update; the certifier's coherence completeness
       obligations (CoWW/CoWR) must notice the missing edges. *)
    let pset =
      match (t.mutation, pset) with
      | Some Drop_mo_edge, _ :: tl -> tl
      | _, _ -> pset
    in
    let p0 = if t.prof_on then Profile.now_ns () else 0 in
    add_edges_to t.graph (Mograph.get_node t.graph s) pset;
    let sz = Mograph.size t.graph in
    if sz > t.max_graph_size then t.max_graph_size <- sz;
    if t.prof_on then Profile.stop t.prof "mo_graph_update" p0;
    if t.metrics_on then begin
      Metrics.incr t.metrics ~by:(List.length pset) "mograph.edges_added";
      Metrics.max_gauge t.metrics "mograph.peak_nodes" (float_of_int t.max_graph_size)
    end

(* ------------------------------------------------------------------ *)
(* Transition rules (Figure 11)                                        *)

let[@inline] mk_action ts kind ~loc ~mo ~value ~volatile ~seq =
  {
    Action.seq;
    tid = ts.tid;
    kind;
    loc;
    mo;
    value;
    rf = None;
    hb_cv = Clockvec.copy ts.c;
    rf_cv = None;
    rmw_claimed = false;
    volatile;
    mo_node = Action.No_graph_node;
  }

(* Fisher–Yates over the scratch buffer, drawing from the RNG in exactly
   the order [Rng.shuffle_in_place] does on a materialised array. *)
let[@inline] shuffle_scratch t =
  let buf = t.mrf_buf in
  for i = t.mrf_n - 1 downto 1 do
    let j = Rng.int t.rng (i + 1) in
    let tmp = buf.(i) in
    buf.(i) <- buf.(j);
    buf.(j) <- tmp
  done

(* The clock the [Race_ignores_sync] fault hands the detector. *)
let[@inline never] own_slot hb ~tid =
  Clockvec.of_slot ~tid ~seq:(Clockvec.get hb tid)

(* All race-detector calls funnel through here so the "race_check" span
   and the check counter cover atomic and non-atomic accesses alike. *)
let[@inline] race_check t ~loc ~tid ~seq ~hb ~is_write ~cls =
  let p0 = if t.prof_on then Profile.now_ns () else 0 in
  (* [Race_ignores_sync] fault: the detector sees only the accessing
     thread's own clock slot, so every cross-thread conflict reads as a
     race, synchronised or not.  The certifier passes such executions;
     the fuzzer's lint differential must flag the races it reports on
     statically race-free programs. *)
  let hb = if has_mutation t Race_ignores_sync then own_slot hb ~tid else hb in
  Race.on_access t.race ~loc ~tid ~seq ~hb ~is_write ~cls;
  if t.prof_on then Profile.stop t.prof "race_check" p0;
  if t.metrics_on then Metrics.incr t.metrics "race.checks"

let[@inline] race_atomic t (a : Action.t) ~is_write =
  race_check t ~loc:a.loc ~tid:a.tid ~seq:a.seq ~hb:a.hb_cv ~is_write
    ~cls:Race.Atomic_access

(* Build and emit a memory-access event; call sites guard on
   [Obs.enabled] so tracing costs nothing when off. *)
let emit_access t kind ~tid ~loc ~mo ~value ~detail ~seq =
  Obs.emit t.obs { Obs.step = seq; tid; kind; loc; mo; value; detail }

(* The acquire half of a load/RMW: merge the observed store's reads-from
   clock into the thread clock (acquire or stronger) or, for weaker
   orders, into the pending acquire-fence clock.  The [Skip_acquire_merge]
   fault downgrades every acquire-side merge to the relaxed path — a
   dropped synchronizes-with edge the certifier's hb differential must
   catch. *)
let[@inline] acquire_merge t ts ~mo rf_cv =
  if Memorder.is_acquire mo && not (has_mutation t Skip_acquire_merge) then
    ignore (Clockvec.merge ts.c rf_cv)
  else ignore (Clockvec.merge ts.facq rf_cv)

(* The first shuffled candidate from slot [k] on whose read keeps the
   mo-graph acyclic, with its prior set; [(-1, [])] if there is none. *)
let rec first_readable t base k =
  if k >= t.mrf_n then (-1, [])
  else
    match read_prior_set t base t.mrf_buf.(k) with
    | Some pset -> (k, pset)
    | None -> first_readable t base (k + 1)

let atomic_load t ~tid ~loc ~mo ~volatile =
  let ts = thread t tid in
  let seq = tick t ts in
  t.atomic_ops <- t.atomic_ops + 1;
  if t.metrics_on then Metrics.incr t.metrics "ops.atomic_load";
  let li = get_loc t loc in
  let p0 = if t.prof_on then Profile.now_ns () else 0 in
  build_may_read_from_buf t li ts ~is_sc:(Memorder.is_seq_cst mo);
  if t.prof_on then Profile.stop t.prof "may_read_from" p0;
  if t.mrf_n = 0 then
    raise
      (Model_error
         (Printf.sprintf "load from location %d with no visible store" loc));
  if t.metrics_on then
    Metrics.observe t.metrics "mrf.candidates" (float_of_int t.mrf_n);
  shuffle_scratch t;
  let p1 = if t.prof_on then Profile.now_ns () else 0 in
  let base = read_prior_base t li ts ~load_mo:mo in
  let k, pset = first_readable t base 0 in
  if t.prof_on then Profile.stop t.prof "prior_set" p1;
  if k < 0 then
    raise
      (Model_error
         (Printf.sprintf "no feasible store for load of location %d" loc))
  else begin
    let s = t.mrf_buf.(k) in
    let rf_cv = match s.rf_cv with Some cv -> cv | None -> Clockvec.bottom () in
    let p2 = if t.prof_on then Profile.now_ns () else 0 in
    acquire_merge t ts ~mo rf_cv;
    if t.prof_on then Profile.stop t.prof "cv_merge" p2;
    let a = mk_action ts Action.Load ~loc ~mo ~value:s.value ~volatile ~seq in
    a.rf <- Some s;
    add_edges t pset s;
    record_load li a;
    if t.cert_on then cert_feed t a;
    race_atomic t a ~is_write:false;
    if t.obs_on then
      emit_access t Obs.Load ~tid ~loc ~mo:(Memorder.to_string mo)
        ~value:s.value
        ~detail:(Printf.sprintf "rf=%d" s.seq)
        ~seq;
    s.value
  end

(* [Weak_release_store] fault: a release store publishes only the
   release-fence clock, as if it were relaxed — acquirers synchronise
   with a stale clock, which the certifier's reconstructed sw/hb must
   expose. *)
let[@inline] store_rf_cv t ts ~mo =
  if Memorder.is_release mo && not (has_mutation t Weak_release_store) then
    Clockvec.copy ts.c
  else Clockvec.copy ts.frel

(* The reads-from clock of a plain store in Total_mo, with the C++11-style
   release-sequence bookkeeping of those baselines: a release store heads
   a new sequence, a later relaxed store by the same thread continues it
   (2011 rules), and any other thread's plain store breaks it.  Out of
   line: Full_c11 never takes it. *)
let[@inline never] store_rf_cv_total_mo li ts ~mo =
  if Memorder.is_release mo then begin
    let cv = Clockvec.copy ts.c in
    li.rel_head <- Some (ts.tid, cv);
    cv
  end
  else begin
    match li.rel_head with
    | Some (owner, head_cv) when owner = ts.tid ->
      Clockvec.union head_cv ts.frel
    | Some _ | None ->
      li.rel_head <- None;
      Clockvec.copy ts.frel
  end

let[@inline] store_rf_cv_with_relseq t li ts ~mo =
  let p0 = if t.prof_on then Profile.now_ns () else 0 in
  let cv =
    match t.mode with
    | Full_c11 -> store_rf_cv t ts ~mo
    | Total_mo -> store_rf_cv_total_mo li ts ~mo
  in
  if t.prof_on then Profile.stop t.prof "release_seq" p0;
  cv

(* tsan-lineage tools conservatively treat every atomic RMW as
   acquire-release regardless of the requested order — one of the reasons
   they miss the relaxed-RMW lock bugs of Section 8.1. *)
let[@inline] effective_rmw_mo t mo =
  match t.mode with
  | Full_c11 -> mo
  | Total_mo -> Memorder.join mo Memorder.Acq_rel

let atomic_store t ~tid ~loc ~mo ~volatile value =
  let ts = thread t tid in
  let seq = tick t ts in
  t.atomic_ops <- t.atomic_ops + 1;
  if t.metrics_on then Metrics.incr t.metrics "ops.atomic_store";
  let li = get_loc t loc in
  let a = mk_action ts Action.Store ~loc ~mo ~value ~volatile ~seq in
  a.rf_cv <- Some (store_rf_cv_with_relseq t li ts ~mo);
  let p0 = if t.prof_on then Profile.now_ns () else 0 in
  let pset = write_prior_set t li ts ~store_mo:mo ~current:ts.c in
  if t.prof_on then Profile.stop t.prof "prior_set" p0;
  add_edges t pset a;
  record_store li a;
  if t.cert_on then cert_feed t a;
  set_value t loc value;
  race_atomic t a ~is_write:true;
  if t.obs_on then
    emit_access t Obs.Store ~tid ~loc ~mo:(Memorder.to_string mo) ~value
      ~detail:"" ~seq

(* In Total_mo mode, modification order is the store commit order, so an
   RMW (pinned immediately after the store it reads) can only read the
   globally newest store — exactly tsan11's behaviour. *)
let newest_store li = li.newest

(* The two ways an RMW commits, top-level functions rather than closures
   over the operation: a failed compare-exchange degenerates to a load of
   [s]; otherwise the RMW reads [s] and writes [new_value] pinned
   immediately mo-after it. *)
let rmw_commit_load t ts li ~tid ~loc ~mo ~volatile ~seq (s : Action.t) pset =
  let rf_cv = match s.rf_cv with Some cv -> cv | None -> Clockvec.bottom () in
  acquire_merge t ts ~mo rf_cv;
  let a = mk_action ts Action.Load ~loc ~mo ~value:s.value ~volatile ~seq in
  a.rf <- Some s;
  add_edges t pset s;
  record_load li a;
  if t.cert_on then cert_feed t a;
  race_atomic t a ~is_write:false;
  if t.obs_on then
    emit_access t Obs.Load ~tid ~loc ~mo:(Memorder.to_string mo) ~value:s.value
      ~detail:(Printf.sprintf "rf=%d rmw-keep" s.seq)
      ~seq;
  s.value

let rmw_commit_write t ts li ~tid ~loc ~mo ~volatile ~seq (s : Action.t) pset
    new_value =
  s.rmw_claimed <- true;
  let rf_cv_s = match s.rf_cv with Some cv -> cv | None -> Clockvec.bottom () in
  acquire_merge t ts ~mo rf_cv_s;
  let r = mk_action ts Action.Rmw ~loc ~mo ~value:new_value ~volatile ~seq in
  r.rf <- Some s;
  (* Release sequences: the RMW carries its own release clock (if any)
     joined with the clock of the sequence it extends (Figure 9,
     RELEASE/RELAXED RMW). *)
  r.rf_cv <- Some (Clockvec.union (store_rf_cv t ts ~mo) rf_cv_s);
  add_edges t pset s;
  (match t.mode with
  | Full_c11 ->
    Mograph.add_rmw_edge t.graph
      (Mograph.get_node t.graph s)
      (Mograph.get_node t.graph r)
  | Total_mo -> ());
  let wpset = write_prior_set t li ts ~store_mo:mo ~current:ts.c in
  add_edges t wpset r;
  record_store li r;
  if t.cert_on then cert_feed t r;
  set_value t loc new_value;
  race_atomic t r ~is_write:false;
  race_atomic t r ~is_write:true;
  if t.obs_on then
    emit_access t Obs.Rmw ~tid ~loc ~mo:(Memorder.to_string mo) ~value:new_value
      ~detail:(Printf.sprintf "rf=%d read=%d" s.seq s.value)
      ~seq;
  s.value

let atomic_rmw t ~tid ~loc ~mo ~volatile ~f =
  let mo = effective_rmw_mo t mo in
  let ts = thread t tid in
  let seq = tick t ts in
  t.atomic_ops <- t.atomic_ops + 1;
  if t.metrics_on then Metrics.incr t.metrics "ops.rmw";
  let li = get_loc t loc in
  let p0 = if t.prof_on then Profile.now_ns () else 0 in
  build_may_read_from_buf t li ts ~is_sc:(Memorder.is_seq_cst mo);
  if t.prof_on then Profile.stop t.prof "may_read_from" p0;
  if t.mrf_n = 0 then
    raise
      (Model_error (Printf.sprintf "rmw on location %d with no visible store" loc));
  if t.metrics_on then
    Metrics.observe t.metrics "mrf.candidates" (float_of_int t.mrf_n);
  shuffle_scratch t;
  let result = ref None in
  let base = read_prior_base t li ts ~load_mo:mo in
  (try
     for k = 0 to t.mrf_n - 1 do
       let (s : Action.t) = t.mrf_buf.(k) in
       match f s.value with
       | Rmw_keep -> (
         match read_prior_set t base s with
         | Some pset ->
           result :=
             Some (rmw_commit_load t ts li ~tid ~loc ~mo ~volatile ~seq s pset);
           raise Exit
         | None -> ())
       | Rmw_write v ->
         let claimable =
           (not s.rmw_claimed)
           && (match t.mode with
              | Full_c11 -> true
              | Total_mo -> (
                match newest_store li with
                | Some newest -> newest == s
                | None -> false))
           && rmw_write_feasible t li ts ~mo s
         in
         if claimable then (
           match read_prior_set t base s with
           | Some pset ->
             result :=
               Some
                 (rmw_commit_write t ts li ~tid ~loc ~mo ~volatile ~seq s pset
                    v);
             raise Exit
           | None -> ())
     done
   with Exit -> ());
  match !result with
  | None ->
    raise
      (Model_error
         (Printf.sprintf "no feasible store for rmw on location %d" loc))
  | Some v -> v

let fence t ~tid ~mo =
  let ts = thread t tid in
  let seq = tick t ts in
  t.atomic_ops <- t.atomic_ops + 1;
  if t.metrics_on then Metrics.incr t.metrics "ops.fence";
  (* An acquire (or stronger) fence publishes pending relaxed-load
     synchronisation into the thread clock before the release side
     snapshots it. *)
  if Memorder.is_acquire mo then ignore (Clockvec.merge ts.c ts.facq);
  if Memorder.is_release mo then ts.frel <- Clockvec.copy ts.c;
  if Memorder.is_seq_cst mo then begin
    let a = mk_action ts Action.Fence ~loc:(-1) ~mo ~value:0 ~volatile:false ~seq in
    Seqarr.push ts.sc_fences a;
    if t.cert_on then cert_feed t a
  end
  else if t.cert_on then begin
    (* Weaker fences are pure clock-vector operations and normally leave no
       action; the certifier reconstructs fence-based synchronisation from
       the trace, so materialise them when certifying (no RNG draws, no
       extra sequence numbers — executions are unperturbed). *)
    let a = mk_action ts Action.Fence ~loc:(-1) ~mo ~value:0 ~volatile:false ~seq in
    cert_feed t a
  end;
  if t.obs_on then
    emit_access t Obs.Fence ~tid ~loc:(-1) ~mo:(Memorder.to_string mo) ~value:0
      ~detail:"" ~seq

let na_read t ~tid ~loc =
  let ts = thread t tid in
  let seq = tick t ts in
  t.na_ops <- t.na_ops + 1;
  if t.metrics_on then Metrics.incr t.metrics "ops.na_read";
  let v = get_value t loc in
  race_check t ~loc ~tid ~seq ~hb:ts.c ~is_write:false ~cls:Race.Na_access;
  if t.obs_on then
    emit_access t Obs.Na_read ~tid ~loc ~mo:"" ~value:v ~detail:"" ~seq;
  v

let na_write t ~tid ~loc value =
  let ts = thread t tid in
  let seq = tick t ts in
  t.na_ops <- t.na_ops + 1;
  if t.metrics_on then Metrics.incr t.metrics "ops.na_write";
  if is_atomic_loc t loc then begin
    (* Section 7.2: a non-atomic store to an atomic location must enter the
       modification order so that later atomic loads can read it.  It never
       synchronises (empty reads-from clock). *)
    let li = get_loc t loc in
    let a =
      mk_action ts Action.Na_store ~loc ~mo:Memorder.Relaxed ~value
        ~volatile:false ~seq
    in
    a.rf_cv <- Some (Clockvec.bottom ());
    li.rel_head <- None;
    let pset = write_prior_set t li ts ~store_mo:Memorder.Relaxed ~current:ts.c in
    add_edges t pset a;
    record_store li a;
    if t.cert_on then cert_feed t a
  end;
  set_value t loc value;
  race_check t ~loc ~tid ~seq ~hb:ts.c ~is_write:true ~cls:Race.Na_access;
  if t.obs_on then
    emit_access t Obs.Na_write ~tid ~loc ~mo:"" ~value ~detail:"" ~seq

let graph_footprint t =
  let acc = ref 0 in
  Array.iter
    (function Some li -> acc := !acc + li.store_count | None -> ())
    t.locs;
  !acc

module Internal = struct
  let build_may_read_from = build_may_read_from
  let read_prior_base = read_prior_base
  let write_prior_set = write_prior_set
  let last_sc_store = last_sc_store
  let find_loc = find_loc
end
