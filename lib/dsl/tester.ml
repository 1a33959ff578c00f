type summary = {
  executions : int;
  buggy_executions : int;
  race_executions : int;
  assert_executions : int;
  deadlocks : int;
  step_limit_hits : int;
  certified_executions : int;
  cert_rejected_executions : int;
  certified_ops : int;
  retired_prefix_ops : int;
  distinct_races : Race.report list;
  distinct_cert_violations : Check.violation list;
  total_atomic_ops : int;
  total_na_ops : int;
  max_graph_size : int;
  mean_steps : float;
  coverage : Cov.summary option;
  first_buggy : int option;
}

let detection_rate s =
  if s.executions = 0 then 0.0
  else 100.0 *. float_of_int s.buggy_executions /. float_of_int s.executions

(* ------------------------------------------------------------------ *)
(* Shards.

   Every runner, at any job count, is built from the same unit: run the
   executions of one leapfrog shard (global indices [worker],
   [worker+jobs], ... below [total]) and accumulate counters,
   shard-local race dedup and a shard-local observation histogram, each
   entry carrying the global index of its first occurrence.  Execution
   [i]'s seed comes from [Rng.substream config.seed ~index:i] — a pure
   function of the index — so what executions do is independent of how
   they are dealt to workers; the first-occurrence indices then let the
   merge reconstruct exactly the sequential runner's output. *)

type 'a shard = {
  sh_counters : Par.Merge.counters;
  sh_races : (int * Race.report) list;
      (* shard-local first occurrences, ascending global index *)
  sh_violations : (int * Check.violation) list;
      (* certifier counterexamples, deduped by {!Check.violation_key};
         same first-occurrence discipline as [sh_races] *)
  sh_hist : ('a * int * int) list;
      (* (observation, count, first global index), unordered *)
  sh_cov : Cov.shard option;
      (* shard-local coverage accumulation; [Some _] iff the campaign ran
         with [config.coverage] *)
  sh_first_buggy : int option;
      (* the shard's first buggy execution: its lowest buggy global index *)
}

(* An observation's histogram entry: how often, and the global index of
   its first occurrence. *)
type hist_entry = { mutable h_count : int; h_first : int }

(* [start]/[stride] generalise the one-level leapfrog (worker [w] of [j]
   is [start = w], [stride = j]) so nested sharding composes: worker [w]
   of [W] processes splitting its shard across [j] domains hands domain
   [d] the arithmetic progression [start = w + d*W], [stride = j*W] —
   still a partition of the worker's global indices, so the merge
   discipline is unchanged. *)
let run_shard ?(profile = Profile.null) ?(metrics = Metrics.null)
    ?(progress = Progress.null) ~config ~total ~start ~stride f =
  let seen = Hashtbl.create 16 in
  let races = ref [] in
  let seen_violations = Hashtbl.create 16 in
  let violations = ref [] in
  let histogram = Hashtbl.create 16 in
  let buggy = ref 0
  and racy = ref 0
  and asserts = ref 0
  and deadlocks = ref 0
  and limits = ref 0
  and certified = ref 0
  and cert_rejected = ref 0
  and certified_ops = ref 0
  and retired_prefix_ops = ref 0
  and atomic_ops = ref 0
  and na_ops = ref 0
  and max_graph = ref 0
  and steps = ref 0
  and executions = ref 0 in
  let first_buggy = ref None in
  let observation = ref None in
  let cov =
    if config.Engine.coverage then Some (Cov.create ()) else None
  in
  let progress_on = Progress.enabled progress in
  let i = ref start in
  while !i < total do
    let index = !i in
    let seed = Rng.substream config.Engine.seed ~index in
    observation := None;
    let body () = observation := Some (f ()) in
    let o = Engine.run ~profile ~metrics { config with Engine.seed } body in
    incr executions;
    if Engine.buggy o then begin
      incr buggy;
      if !first_buggy = None then first_buggy := Some index
    end;
    if o.Engine.races <> [] then incr racy;
    if o.Engine.assertion_failures <> [] then incr asserts;
    if o.Engine.deadlock then incr deadlocks;
    if o.Engine.step_limit_hit then incr limits;
    atomic_ops := !atomic_ops + o.Engine.atomic_ops;
    na_ops := !na_ops + o.Engine.na_ops;
    if o.Engine.max_graph_size > !max_graph then
      max_graph := o.Engine.max_graph_size;
    steps := !steps + o.Engine.steps;
    certified_ops := !certified_ops + o.Engine.certified_ops;
    retired_prefix_ops := !retired_prefix_ops + o.Engine.retired_prefix_ops;
    if progress_on then
      Progress.account_certified progress ~certified:o.Engine.certified_ops
        ~retired:o.Engine.retired_prefix_ops;
    let new_finding = ref false in
    List.iter
      (fun r ->
        let key = Race.dedup_key r in
        (match cov with
        | Some acc -> ignore (Cov.observe_race acc ~index key)
        | None -> ());
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          new_finding := true;
          races := (index, r) :: !races
        end)
      o.Engine.races;
    (match o.Engine.certificate with
    | Some (Check.Certified _) -> incr certified
    | Some (Check.Rejected vs) ->
      incr cert_rejected;
      (match cov with
      | Some acc ->
        ignore (Cov.observe_violation acc ~index (Check.rejection_key vs))
      | None -> ());
      List.iter
        (fun v ->
          let key = Check.violation_key v in
          if not (Hashtbl.mem seen_violations key) then begin
            Hashtbl.add seen_violations key ();
            new_finding := true;
            violations := (index, v) :: !violations
          end)
        vs
    | Some (Check.Not_applicable _) | None -> ());
    (* one lookup per execution: a seen observation's entry is bumped in
       place *)
    (match !observation with
    | Some obs -> (
      match Hashtbl.find_opt histogram obs with
      | Some e -> e.h_count <- e.h_count + 1
      | None -> Hashtbl.add histogram obs { h_count = 1; h_first = index })
    | None -> ());
    let novel =
      match (cov, o.Engine.shape) with
      | Some acc, Some sg -> Cov.observe acc ~index sg
      | _ -> false
    in
    if progress_on then Progress.tick progress ~novel ~finding:!new_finding;
    i := !i + stride
  done;
  {
    sh_counters =
      {
        Par.Merge.executions = !executions;
        buggy = !buggy;
        racy = !racy;
        asserts = !asserts;
        deadlocks = !deadlocks;
        limits = !limits;
        certified = !certified;
        cert_rejected = !cert_rejected;
        certified_ops = !certified_ops;
        retired_prefix_ops = !retired_prefix_ops;
        atomic_ops = !atomic_ops;
        na_ops = !na_ops;
        max_graph = !max_graph;
        steps = !steps;
      };
    sh_races = List.rev !races;
    sh_violations = List.rev !violations;
    sh_hist =
      Hashtbl.fold (fun k e l -> (k, e.h_count, e.h_first) :: l) histogram [];
    sh_cov = Option.map Cov.shard cov;
    sh_first_buggy = !first_buggy;
  }

let merge_shard_list shards =
  let c =
    List.fold_left
      (fun acc s -> Par.Merge.add acc s.sh_counters)
      Par.Merge.zero shards
  in
  let distinct_races =
    Par.Merge.dedup ~key:Race.dedup_key (List.map (fun s -> s.sh_races) shards)
  in
  let distinct_cert_violations =
    Par.Merge.dedup ~key:Check.violation_key
      (List.map (fun s -> s.sh_violations) shards)
  in
  let hist = Par.Merge.histogram (List.map (fun s -> s.sh_hist) shards) in
  let coverage =
    match List.filter_map (fun s -> s.sh_cov) shards with
    | [] -> None
    | cov_shards -> Some (Cov.merge cov_shards)
  in
  let first_buggy =
    match List.filter_map (fun s -> s.sh_first_buggy) shards with
    | [] -> None
    | i :: is -> Some (List.fold_left min i is)
  in
  ( {
      executions = c.Par.Merge.executions;
      buggy_executions = c.Par.Merge.buggy;
      race_executions = c.Par.Merge.racy;
      assert_executions = c.Par.Merge.asserts;
      deadlocks = c.Par.Merge.deadlocks;
      step_limit_hits = c.Par.Merge.limits;
      certified_executions = c.Par.Merge.certified;
      cert_rejected_executions = c.Par.Merge.cert_rejected;
      certified_ops = c.Par.Merge.certified_ops;
      retired_prefix_ops = c.Par.Merge.retired_prefix_ops;
      distinct_races;
      distinct_cert_violations;
      total_atomic_ops = c.Par.Merge.atomic_ops;
      total_na_ops = c.Par.Merge.na_ops;
      max_graph_size = c.Par.Merge.max_graph;
      mean_steps =
        (if c.Par.Merge.executions = 0 then 0.0
         else
           float_of_int c.Par.Merge.steps
           /. float_of_int c.Par.Merge.executions);
      coverage;
      first_buggy;
    },
    hist )

(* ------------------------------------------------------------------ *)
(* Campaign runners.

   Worker [w] of [j] runs its leapfrog shard on its own domain with fully
   private engine state (execution, mo-graph, race detector, RNG) and
   private C11obs handles ({!Par.domains}); the shards are merged with
   the order-independent operations of {!Par.Merge}.  The contract: the
   merged summary, histogram and distinct-race list are bit-identical for
   every job count. *)

let run_collect ?profile ?metrics ?(jobs = 1) ~config ~iters f =
  merge_shard_list
    (Par.domains ?profile ?metrics ~jobs ~total:iters
       (fun ~worker ~jobs ~profile ~metrics ->
         run_shard ~profile ~metrics ~config ~total:iters ~start:worker
           ~stride:jobs f))

let run ?profile ?metrics ?jobs ~config ~iters f =
  fst (run_collect ?profile ?metrics ?jobs ~config ~iters f)

(* Executions are pure functions of their seed, so replaying index [i] of
   a campaign reproduces its execution [i] exactly. *)
let replay ?(obs = Obs.null) ~config ~index f =
  Obs.clear obs;
  let seed = Rng.substream config.Engine.seed ~index in
  Engine.run ~obs { config with Engine.seed } (fun () -> ignore (f ()))

(* ------------------------------------------------------------------ *)
(* Shard-level entry points for the multi-process fabric (lib/svc).

   A worker process runs [run_shard] over its arithmetic progression of
   global indices and ships the resulting ['a shard] — plain data, no
   closures — back to the coordinator, which folds every shard (local or
   remote, fresh or cache-replayed) with [merge_shard_list].  Because the
   shard values are exactly what the in-process runners merge,
   the multi-process merge is byte-identical to [-j 1] by construction. *)

let shard_executions s = s.sh_counters.Par.Merge.executions

(* ------------------------------------------------------------------ *)

let summary_to_json s =
  (* [coverage] is appended only when the campaign ran with coverage on, so
     coverage-off reports (and their goldens) are byte-identical to before *)
  let coverage_fields =
    match s.coverage with
    | None -> []
    | Some c ->
      [
        ("distinct_shapes", Jsonx.Int (Cov.distinct_shapes c));
        ("coverage", Cov.summary_to_json c);
      ]
  in
  (* streaming-certification counters appear only when the certifier
     ran, keeping certify-off reports (and their goldens) byte-identical
     to before *)
  let stream_fields =
    if s.certified_ops > 0 || s.retired_prefix_ops > 0 then
      [
        ("certified_ops", Jsonx.Int s.certified_ops);
        ("retired_prefix_ops", Jsonx.Int s.retired_prefix_ops);
      ]
    else []
  in
  Jsonx.Obj
    ([
      ("executions", Jsonx.Int s.executions);
      ("buggy_executions", Jsonx.Int s.buggy_executions);
      ("race_executions", Jsonx.Int s.race_executions);
      ("assert_executions", Jsonx.Int s.assert_executions);
      ("deadlocks", Jsonx.Int s.deadlocks);
      ("step_limit_hits", Jsonx.Int s.step_limit_hits);
      ("certified_executions", Jsonx.Int s.certified_executions);
      ("cert_rejected_executions", Jsonx.Int s.cert_rejected_executions);
    ]
    @ stream_fields
    @ [
      ("detection_rate_percent", Jsonx.Float (detection_rate s));
      ( "distinct_races",
        Jsonx.List (List.map Race.report_to_json s.distinct_races) );
      ( "distinct_cert_violations",
        Jsonx.List (List.map Check.violation_to_json s.distinct_cert_violations)
      );
      ("total_atomic_ops", Jsonx.Int s.total_atomic_ops);
      ("total_na_ops", Jsonx.Int s.total_na_ops);
      ("max_graph_size", Jsonx.Int s.max_graph_size);
      ("mean_steps", Jsonx.Float s.mean_steps);
     ]
    @ coverage_fields)

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>executions: %d@ buggy: %d (%.1f%%) [races %d, asserts %d]@ \
     deadlocks: %d, step-limit hits: %d@ distinct races: %d@ ops: %d atomic \
     / %d non-atomic@ peak mo-graph: %d nodes@ mean steps: %.1f@]"
    s.executions s.buggy_executions (detection_rate s) s.race_executions
    s.assert_executions s.deadlocks s.step_limit_hits
    (List.length s.distinct_races)
    s.total_atomic_ops s.total_na_ops s.max_graph_size s.mean_steps;
  if s.certified_executions > 0 || s.cert_rejected_executions > 0 then begin
    Format.fprintf fmt "@ certified: %d, rejected: %d, distinct violations: %d"
      s.certified_executions s.cert_rejected_executions
      (List.length s.distinct_cert_violations);
    if s.certified_ops > 0 then
      Format.fprintf fmt "@ streaming: %d ops certified, %d retired"
        s.certified_ops s.retired_prefix_ops;
    List.iter
      (fun v -> Format.fprintf fmt "@   %a" Check.pp_violation v)
      s.distinct_cert_violations
  end;
  match s.coverage with
  | None -> ()
  | Some c -> Format.fprintf fmt "@ %a" Cov.pp_summary c
