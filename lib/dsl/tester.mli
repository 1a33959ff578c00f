(** Repeated execution (Section 7.6 of the paper).

    C11Tester re-runs the program under test many times, restoring the
    application's initial state between executions (fork snapshots in the
    paper; re-invoking the OCaml closure here) while its own state — race
    deduplication, statistics, the random stream — persists across
    executions.

    Executions are numbered [0 .. iters-1] and execution [i] draws its
    seed from [Rng.substream config.seed ~index:i], a pure function of
    the index.  A campaign is therefore embarrassingly parallel, and
    every runner takes [?jobs] to shard it across OCaml 5 domains ([jobs]
    workers, leapfrog assignment) with fully private engine state per
    domain.

    {b Determinism contract}: the merged summary, observation histogram
    (first-occurrence order) and deduplicated race list of a [~jobs:n]
    campaign are bit-identical to the [~jobs:1] campaign's, for every
    [n].
    Only wall-clock diagnostics (profile timings, metric percentile
    windows) may differ with [jobs]. *)

type summary = {
  executions : int;
  buggy_executions : int;
      (** executions with a race, an assertion failure, or a rejected
          certificate *)
  race_executions : int;
  assert_executions : int;
  deadlocks : int;
  step_limit_hits : int;
  certified_executions : int;
      (** executions the axiomatic certifier certified (0 unless the
          campaign ran with [config.certify]) *)
  cert_rejected_executions : int;
  certified_ops : int;
      (** actions consumed by the streaming certifier across the campaign
          (0 when not certifying) *)
  retired_prefix_ops : int;
      (** actions whose certification window storage was freed by
          hb-closed prefix retirement *)
  distinct_races : Race.report list;
      (** deduplicated across executions, in order of first occurrence *)
  distinct_cert_violations : Check.violation list;
      (** certifier counterexamples, deduplicated by
          {!Check.violation_key} in order of first occurrence *)
  total_atomic_ops : int;
  total_na_ops : int;
  max_graph_size : int;
  mean_steps : float;
  coverage : Cov.summary option;
      (** merged execution-shape coverage; [Some _] iff the campaign ran
          with [config.coverage].  Bit-identical across job counts (same
          {!Par.Merge} discipline as the rest of the summary). *)
  first_buggy : int option;
      (** global index of the campaign's first buggy execution, the one
          {!replay} reproduces; [None] when no execution was buggy.  Not
          part of {!summary_to_json} or {!pp_summary}. *)
}

(** Detection rate in percent, as reported in Tables 2 and Section 8.1. *)
val detection_rate : summary -> float

(** [run ~config ~iters f] executes [f] [iters] times, deriving a fresh
    seed for each execution from [config.seed].  [metrics] and [profile]
    aggregate over the whole campaign.

    [jobs] (default 1, clamped to [1 .. iters]) shards the executions
    across that many domains ({!Par.domains}).  [f] then runs
    concurrently on several domains, so it must create the state it
    mutates per invocation — every workload and litmus test in this
    repository already does, allocating its locations through the DSL
    inside the closure.  Each domain records into a private profiler and
    registry, absorbed into the caller's in worker order after the join:
    counters, gauges and span totals merge exactly; percentile windows
    are deterministic for a fixed [jobs] but may differ across job
    counts.  The summary itself is bit-identical for every [jobs]. *)
val run :
  ?profile:Profile.t ->
  ?metrics:Metrics.t ->
  ?jobs:int ->
  config:Engine.config ->
  iters:int ->
  (unit -> unit) ->
  summary

(** [run_collect ~config ~iters f] also collects the observation returned
    by each execution of [f] (read out of plain OCaml state by the caller's
    closure) into a histogram — the litmus-test workhorse.  Histogram
    entries are listed in order of first occurrence, and are bit-identical
    for every [jobs]; otherwise the contract is {!run}'s. *)
val run_collect :
  ?profile:Profile.t ->
  ?metrics:Metrics.t ->
  ?jobs:int ->
  config:Engine.config ->
  iters:int ->
  (unit -> 'a) ->
  summary * ('a * int) list

(** [replay ~config ~index f] runs execution [index] of the campaign
    [run ~config] makes of [f] once more, from the same seed
    ([Rng.substream config.seed ~index]), and returns its outcome: the
    same execution, since an execution is a pure function of its seed.
    When [obs] is enabled its ring is cleared first, so it then holds
    exactly that execution's events, ready for {!Obs.write_ndjson}.  The
    replay is neither profiled nor counted.  Replaying a summary's
    [first_buggy] gives the same trace at every [jobs], on worker
    processes and from a warm cache. *)
val replay :
  ?obs:Obs.t -> config:Engine.config -> index:int -> (unit -> 'a) ->
  Engine.outcome

(** {2 Shard-level API (the multi-process fabric's building block)}

    One worker's accumulated results: outcome counters, shard-local
    first-occurrence race/violation dedup, the observation histogram and
    the optional coverage extract.  Plain data (no closures), so a shard
    value survives [Marshal] across processes — lib/svc ships shards from
    worker processes to the coordinator and replays them from the result
    cache. *)
type 'a shard

(** [run_shard ~config ~total ~start ~stride f] runs the executions whose
    global indices form the arithmetic progression [start, start+stride,
    ...] below [total].  Worker [w] of [j] is [~start:w ~stride:j]; a
    worker process [w] of [W] splitting its shard across [d] domains hands
    domain [i] [~start:(w + i*W) ~stride:(d*W)] — nested leapfrog is still
    a partition, so the merge contract is unchanged. *)
val run_shard :
  ?profile:Profile.t ->
  ?metrics:Metrics.t ->
  ?progress:Progress.t ->
  config:Engine.config ->
  total:int ->
  start:int ->
  stride:int ->
  (unit -> 'a) ->
  'a shard

(** Fold shards with the {!Par.Merge} algebra: the summary and
    first-occurrence histogram are independent of how the index space was
    partitioned and of the list order.  Exactly the merge {!run_collect}
    uses. *)
val merge_shard_list : 'a shard list -> summary * ('a * int) list

(** Executions the shard actually ran (partial-failure accounting). *)
val shard_executions : 'a shard -> int

(** JSON form of a summary (the ["summary"] object of the CLI's [--json]
    document). *)
val summary_to_json : summary -> Jsonx.t

val pp_summary : Format.formatter -> summary -> unit
