open Execution

type policy =
  | No_prune
  | Conservative of { interval : int }
  | Aggressive of { window : int; interval : int }

type stats = { stores_pruned : int; loads_pruned : int; fences_pruned : int }

let pp_policy fmt = function
  | No_prune -> Format.pp_print_string fmt "no-prune"
  | Conservative { interval } -> Format.fprintf fmt "conservative(%d)" interval
  | Aggressive { window; interval } ->
    Format.fprintf fmt "aggressive(window=%d,%d)" window interval

let cv_min exec =
  let acc = ref None in
  for i = 0 to exec.nthreads - 1 do
    let ts = exec.threads.(i) in
    if ts.live then
      acc :=
        Some
          (match !acc with
          | None -> Clockvec.copy ts.c
          | Some cv -> Clockvec.intersect cv ts.c)
  done;
  match !acc with None -> Clockvec.bottom () | Some cv -> cv

(* A store [x] is prunable when it is modification-ordered strictly before
   some anchor store [s]: no thread can read [x] anymore.  In Full_c11 mode
   reachability comes from the mo-graph clock vectors (Theorem 1); in
   Total_mo mode modification order is commit order. *)
let mo_before exec (x : Action.t) (s : Action.t) =
  x.seq <> s.seq
  &&
  match exec.mode with
  | Full_c11 -> (
    match
      (Mograph.find_node exec.graph x, Mograph.find_node exec.graph s)
    with
    | Some nx, Some ns -> Clockvec.leq nx.Mograph.cv ns.Mograph.cv
    | _ -> false)
  | Total_mo -> x.seq < s.seq

(* The cell's sc stores that survived the compaction of its stores: both
   arrays ascend by seq and the first is a subset of the second, so one
   merge pass keeps exactly the retained ones. *)
let compact_sc_stores cell =
  let stores = cell.c_stores in
  let j = ref 0 in
  ignore
    (Seqarr.filter_in_place cell.c_sc_stores (fun (x : Action.t) ->
         while
           !j < Seqarr.length stores && (Seqarr.get stores !j).Action.seq < x.seq
         do
           incr j
         done;
         !j < Seqarr.length stores && Seqarr.get stores !j == x))

let prune_with_anchors exec ~anchors_of_loc =
  let stores_pruned = ref 0 and loads_pruned = ref 0 in
  Array.iter
    (function
      | None -> ()
      | Some li ->
      let anchors = anchors_of_loc li in
      if anchors <> [] then begin
        let removed = Hashtbl.create 16 in
        List.iter
          (fun cell ->
            (* decide the whole cell against the graph as it stands, then
               remove the dropped nodes *)
            let drop = ref [] in
            let dropped =
              Seqarr.filter_in_place cell.c_stores (fun (x : Action.t) ->
                  if List.exists (fun s -> mo_before exec x s) anchors then begin
                    drop := x :: !drop;
                    false
                  end
                  else true)
            in
            if dropped > 0 then begin
              List.iter
                (fun (x : Action.t) ->
                  Hashtbl.replace removed x.seq ();
                  Mograph.remove_node exec.graph x)
                !drop;
              stores_pruned := !stores_pruned + dropped;
              li.store_count <- li.store_count - dropped;
              compact_sc_stores cell
            end)
          li.cells;
        if Hashtbl.length removed > 0 then begin
          (* Drop pruned stores and any loads that read from them from the
             access arrays. *)
          List.iter
            (fun cell ->
              ignore
                (Seqarr.filter_in_place cell.c_accesses (fun (a : Action.t) ->
                     let keep =
                       (not (Hashtbl.mem removed a.seq))
                       &&
                       match a.rf with
                       | Some s -> not (Hashtbl.mem removed s.seq)
                       | None -> true
                     in
                     if (not keep) && a.kind = Action.Load then incr loads_pruned;
                     keep)))
            li.cells;
          (* Removing stores may have invalidated the location's
             incremental newest/last-sc caches. *)
          refresh_loc_caches li
        end
      end)
    exec.locs;
  (!stores_pruned, !loads_pruned)

let prune_fences exec cvmin =
  let pruned = ref 0 in
  for i = 0 to exec.nthreads - 1 do
    let ts = exec.threads.(i) in
    pruned :=
      !pruned
      + Seqarr.filter_in_place ts.sc_fences (fun (f : Action.t) ->
            not (Clockvec.covers cvmin ~tid:f.tid ~seq:f.seq))
  done;
  !pruned

(* The stores of every cell of [li] satisfying [p], as a list. *)
let stores_where li p =
  List.fold_left
    (fun acc cell ->
      let acc = ref acc in
      for i = Seqarr.length cell.c_stores - 1 downto 0 do
        let s = Seqarr.get cell.c_stores i in
        if p s then acc := s :: !acc
      done;
      !acc)
    [] li.cells

let prune_conservative exec =
  let cvmin = cv_min exec in
  let anchors_of_loc li =
    stores_where li (fun (s : Action.t) ->
        Clockvec.covers cvmin ~tid:s.tid ~seq:s.seq)
  in
  let stores_pruned, loads_pruned = prune_with_anchors exec ~anchors_of_loc in
  let fences_pruned = prune_fences exec cvmin in
  exec.pruned_count <- exec.pruned_count + stores_pruned;
  { stores_pruned; loads_pruned; fences_pruned }

let prune_aggressive exec ~window =
  let boundary = exec.seq - window in
  let anchors_of_loc li = stores_where li (fun (s : Action.t) -> s.seq < boundary) in
  let stores_pruned, loads_pruned = prune_with_anchors exec ~anchors_of_loc in
  let fences_pruned = prune_fences exec (cv_min exec) in
  exec.pruned_count <- exec.pruned_count + stores_pruned;
  { stores_pruned; loads_pruned; fences_pruned }

(* Run one sweep under the "prune_sweep" profiling span and report it to
   the C11obs layer (Prune event + counters). *)
let observed_sweep exec f =
  let p0 = Profile.start exec.prof in
  let stats = f () in
  Profile.stop exec.prof "prune_sweep" p0;
  if Metrics.enabled exec.metrics then begin
    Metrics.incr exec.metrics "prune.sweeps";
    Metrics.incr exec.metrics ~by:stats.stores_pruned "prune.stores";
    Metrics.incr exec.metrics ~by:stats.loads_pruned "prune.loads";
    Metrics.incr exec.metrics ~by:stats.fences_pruned "prune.fences"
  end;
  if Obs.enabled exec.obs then
    Obs.emit exec.obs
      {
        Obs.step = exec.seq;
        tid = -1;
        kind = Obs.Prune;
        loc = -1;
        mo = "";
        value = stats.stores_pruned;
        detail =
          Printf.sprintf "stores=%d loads=%d fences=%d" stats.stores_pruned
            stats.loads_pruned stats.fences_pruned;
      };
  stats

(* A pruning policy's step, out of line: the scheduling loop calls
   [maybe_prune] once per step, and most runs do not prune. *)
let[@inline never] prune_due policy exec ~ops =
  match policy with
  | No_prune -> None
  | Conservative { interval } ->
    if interval > 0 && ops mod interval = 0 then
      Some (observed_sweep exec (fun () -> prune_conservative exec))
    else None
  | Aggressive { window; interval } ->
    if interval > 0 && ops mod interval = 0 then
      Some (observed_sweep exec (fun () -> prune_aggressive exec ~window))
    else None

let[@inline] maybe_prune policy exec ~ops =
  match policy with
  | No_prune -> None
  | Conservative _ | Aggressive _ -> prune_due policy exec ~ops
