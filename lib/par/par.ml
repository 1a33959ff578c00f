let available_jobs () = Domain.recommended_domain_count ()

let shard_size ~jobs ~total ~worker =
  if jobs <= 0 then invalid_arg "Par.shard_size: jobs must be positive";
  if worker < 0 || worker >= jobs then
    invalid_arg "Par.shard_size: worker out of range";
  if total <= worker then 0 else 1 + ((total - 1 - worker) / jobs)

(* Workers [1 .. jobs-1] on fresh domains, worker 0 here; [jobs >= 1]. *)
let spawn_workers ~jobs f =
  if jobs = 1 then [| f ~worker:0 |]
  else begin
    let wrap worker () =
      match f ~worker with v -> Ok v | exception e -> Error e
    in
    let domains =
      Array.init (jobs - 1) (fun i -> Domain.spawn (wrap (i + 1)))
    in
    (* worker 0 runs here: the spawning domain does a full share of the
       campaign instead of idling at the join *)
    let r0 = wrap 0 () in
    let results =
      Array.init jobs (fun w ->
          if w = 0 then r0 else Domain.join domains.(w - 1))
    in
    Array.map
      (function
        | Ok v -> v
        | Error e ->
          (* lowest failing worker wins (Array.map visits in index order),
             so the surfaced exception is deterministic *)
          raise e)
      results
  end

let domains ?(profile = Profile.null) ?(metrics = Metrics.null) ~jobs ~total f
    =
  let jobs = max 1 (min jobs (max 1 total)) in
  let results =
    spawn_workers ~jobs (fun ~worker ->
        let p =
          if Profile.enabled profile then Profile.create () else Profile.null
        in
        let m =
          if Metrics.enabled metrics then Metrics.create () else Metrics.null
        in
        (f ~worker ~jobs ~profile:p ~metrics:m, p, m))
  in
  Array.iter
    (fun (_, p, m) ->
      Profile.absorb ~into:profile p;
      Metrics.absorb ~into:metrics m)
    results;
  Array.to_list (Array.map (fun (r, _, _) -> r) results)

module Merge = struct
  type counters = {
    executions : int;
    buggy : int;
    racy : int;
    asserts : int;
    deadlocks : int;
    limits : int;
    certified : int;
    cert_rejected : int;
    certified_ops : int;
    retired_prefix_ops : int;
    atomic_ops : int;
    na_ops : int;
    max_graph : int;
    steps : int;
  }

  let zero =
    {
      executions = 0;
      buggy = 0;
      racy = 0;
      asserts = 0;
      deadlocks = 0;
      limits = 0;
      certified = 0;
      cert_rejected = 0;
      certified_ops = 0;
      retired_prefix_ops = 0;
      atomic_ops = 0;
      na_ops = 0;
      max_graph = 0;
      steps = 0;
    }

  let add a b =
    {
      executions = a.executions + b.executions;
      buggy = a.buggy + b.buggy;
      racy = a.racy + b.racy;
      asserts = a.asserts + b.asserts;
      deadlocks = a.deadlocks + b.deadlocks;
      limits = a.limits + b.limits;
      certified = a.certified + b.certified;
      cert_rejected = a.cert_rejected + b.cert_rejected;
      certified_ops = a.certified_ops + b.certified_ops;
      retired_prefix_ops = a.retired_prefix_ops + b.retired_prefix_ops;
      atomic_ops = a.atomic_ops + b.atomic_ops;
      na_ops = a.na_ops + b.na_ops;
      max_graph = max a.max_graph b.max_graph;
      steps = a.steps + b.steps;
    }

  (* Within one campaign each execution contributes at most one histogram
     observation and one first occurrence per race key, so merged first
     indices are distinct across keys and sorting by them is a total,
     shard-order-independent order. *)

  let histogram_indexed shards =
    let acc = Hashtbl.create 32 in
    List.iter
      (List.iter (fun (k, count, first) ->
           match Hashtbl.find_opt acc k with
           | None -> Hashtbl.replace acc k (count, first)
           | Some (c, f) -> Hashtbl.replace acc k (c + count, min f first)))
      shards;
    Hashtbl.fold (fun k (count, first) l -> (k, count, first) :: l) acc []
    |> List.sort (fun (_, _, f1) (_, _, f2) -> compare (f1 : int) f2)

  let histogram shards =
    List.map (fun (k, count, _) -> (k, count)) (histogram_indexed shards)

  let dedup_indexed ~key shards =
    let acc = Hashtbl.create 32 in
    List.iter
      (List.iter (fun (index, item) ->
           let k = key item in
           match Hashtbl.find_opt acc k with
           | None -> Hashtbl.replace acc k (index, item)
           | Some (i, _) when index < i -> Hashtbl.replace acc k (index, item)
           | Some _ -> ()))
      shards;
    Hashtbl.fold (fun _ entry l -> entry :: l) acc []
    |> List.sort (fun (i1, _) (i2, _) -> compare (i1 : int) i2)

  let dedup ~key shards = List.map snd (dedup_indexed ~key shards)

  (* Shard-range accounting for distributed merges: a leapfrog plan of
     [workers] shards over [total] executions is complete exactly when
     each worker index in [0 .. workers-1] appears exactly once.  The
     report lists faults in ascending worker order, so it is independent
     of the order ranges were collected in — the degraded summary a
     coordinator builds from it is deterministic across merge orders. *)

  type range_report = { missing : int list; duplicated : int list }

  let range_ok r = r.missing = [] && r.duplicated = []

  let check_ranges ~workers ~total:_ ranges =
    if workers <= 0 then
      invalid_arg "Par.Merge.check_ranges: workers must be positive";
    let counts = Array.make workers 0 in
    List.iter
      (fun w ->
        if w < 0 || w >= workers then
          invalid_arg "Par.Merge.check_ranges: worker index out of range";
        counts.(w) <- counts.(w) + 1)
      ranges;
    let missing = ref [] and duplicated = ref [] in
    for w = workers - 1 downto 0 do
      if counts.(w) = 0 then missing := w :: !missing
      else if counts.(w) > 1 then duplicated := w :: !duplicated
    done;
    { missing = !missing; duplicated = !duplicated }
end
