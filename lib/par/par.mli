(** Parallel campaign layer: shard a campaign's executions across OCaml 5
    domains and merge the per-shard results deterministically.

    A C11Tester campaign is embarrassingly parallel: each execution is a
    pure function of its derived seed (see [Rng.substream]), so executions
    can be dealt to workers in any pattern without changing what any one
    execution does.  This module supplies the two halves the testers build
    on:

    - {b fan-out} — {!domains} runs one shard per domain with fully
      private engine state and private observability handles;
    - {b merge} — {!Merge} provides the order-independent, associative
      operations (counter sums, first-occurrence histograms, keyed dedup)
      that make the merged observables of a [jobs = N] campaign
      bit-identical to the sequential runner's, for every N.

    The sharding pattern is leapfrog: worker [w] of [j] runs global
    execution indices [w, w+j, w+2j, ...], ascending.  Every merged
    quantity that names an execution (a first occurrence, the first buggy
    execution) names it by global index, so it is the same however the
    indices were dealt. *)

(** Number of domains worth spawning on this machine
    ([Domain.recommended_domain_count]). *)
val available_jobs : unit -> int

(** [shard_size ~jobs ~total ~worker] is how many of [total] executions
    worker [worker] of [jobs] runs under leapfrog sharding. *)
val shard_size : jobs:int -> total:int -> worker:int -> int

(** [domains ~jobs ~total f] is the campaign fan-out, the one place a
    campaign is split across domains.  It clamps [jobs] to
    [1 .. max 1 total] and runs [f ~worker ~jobs ~profile ~metrics] for
    [worker] in [0 .. jobs-1] (with the clamped [jobs]), workers
    [1 .. jobs-1] each on a fresh domain and worker [0] on the calling
    domain, and returns the results in worker order.  Each worker gets a
    private profiler and metrics registry when the caller's [profile] /
    [metrics] are enabled (the null ones otherwise), absorbed into the
    caller's in worker order after every domain has joined — for every
    [jobs], 1 included.  If any worker raises, the exception of the
    lowest-numbered failing worker is re-raised after the join (so the
    choice of surfaced error is worker-count-deterministic, not a race),
    and nothing is absorbed. *)
val domains :
  ?profile:Profile.t ->
  ?metrics:Metrics.t ->
  jobs:int ->
  total:int ->
  (worker:int -> jobs:int -> profile:Profile.t -> metrics:Metrics.t -> 'a) ->
  'a list

(** Order-independent merge operations.  Each is associative and
    commutative in its shard argument(s), so the merged result is
    independent of worker count and completion order. *)
module Merge : sig
  (** Per-shard outcome counters — the additive portion of a campaign
      summary.  [max_graph] merges by maximum, everything else by sum. *)
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
        (** actions consumed by the streaming certifier across the shard *)
    retired_prefix_ops : int;
        (** actions whose certification window storage was retired *)
    atomic_ops : int;
    na_ops : int;
    max_graph : int;
    steps : int;
  }

  val zero : counters

  (** Associative, commutative, with {!zero} as identity. *)
  val add : counters -> counters -> counters

  (** [histogram shards] merges per-shard histogram entries
      [(key, count, first_index)] — [first_index] being the lowest global
      execution index at which the shard observed [key] — by summing
      counts and taking the minimum first index per key.  The result lists
      each key once, in ascending order of merged first index: exactly the
      first-occurrence order the sequential runner produces. *)
  val histogram : ('k * int * int) list list -> ('k * int) list

  (** Like {!histogram}, but each merged entry keeps its (merged-minimum)
      first-occurrence index — for coverage tables that must name when a
      key was first seen. *)
  val histogram_indexed :
    ('k * int * int) list list -> ('k * int * int) list

  (** [dedup ~key shards] merges per-shard first-occurrence lists
      [(first_index, item)], keeps one item per [key] (the one with the
      lowest index), and returns the survivors in ascending index order —
      the sequential runner's first-occurrence dedup, recovered from
      shards. *)
  val dedup : key:('a -> string) -> (int * 'a) list list -> 'a list

  (** {!dedup}, but each survivor keeps the (merged-minimum) global index
      of its first occurrence — for reports that must name the winning
      index, e.g. the fuzzer's lowest-index-wins finding protocol. *)
  val dedup_indexed :
    key:('a -> string) -> (int * 'a) list list -> (int * 'a) list

  (** Partial-failure accounting for distributed merges.  A leapfrog plan
      of [workers] shards is complete exactly when each worker index in
      [0 .. workers-1] contributed exactly one shard; {!check_ranges}
      reports the holes.  Both fault lists are in ascending worker order,
      so the report — and any degraded summary built from it — is
      independent of the order the shards were collected in. *)
  type range_report = {
    missing : int list;  (** worker indices with no shard, ascending *)
    duplicated : int list;
        (** worker indices with more than one shard, ascending *)
  }

  val range_ok : range_report -> bool

  (** [check_ranges ~workers ~total ranges] audits the list of worker
      indices that contributed a shard.  Raises [Invalid_argument] on a
      non-positive [workers] or an out-of-range index (those are caller
      bugs, not partial failures). *)
  val check_ranges : workers:int -> total:int -> int list -> range_report
end
