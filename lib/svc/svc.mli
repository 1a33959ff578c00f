(** C11svc — the multi-process campaign fabric.

    Domain-level parallelism (lib/par) is bound by one process and one
    runtime; campaign scale means going wider.  This module runs a
    campaign as a {e coordinator} that spawns worker {e processes} —
    fork/exec of the c11test binary in its hidden [worker] mode — hands
    each a leapfrog shard of the execution index space, and streams
    per-shard results back over a pipe as NDJSON.  The coordinator folds
    the shards with the same {!Par.Merge} lowest-index-wins algebra the
    in-process runners use, so a [--workers N] campaign's summary,
    histogram, coverage and findings are byte-identical to [-j 1] for
    every N.

    {b Wire protocol} (one JSON document per line on the worker's
    stdout):

    - [{"schema":"c11svc-v1","kind":"hello","worker":w,"pid":p}] — the
      worker acknowledges its shard claim;
    - [c11progress-v1] heartbeat records — the worker's cumulative
      shard-local counts, aggregated by the coordinator into the single
      campaign progress stream;
    - [{"schema":"c11svc-v1","kind":"shard","worker":w,"payload":B64,
      "md5":HEX}] — the shard result: base64 of the [Marshal]-encoded
      pair of the campaign kind and the worker's closure-free shard
      values (one per domain, of the type the surface's merge folds),
      and the MD5 of those bytes, checked before they are unmarshalled;
    - [{"schema":"c11svc-v1","kind":"done","worker":w}] — end of stream.

    The spec a worker runs arrives the same way on its stdin (one line,
    [<md5> <base64>]; a worker refuses a spec that fails its digest with
    exit 2).  A worker that dies before its [shard] record (crash, kill,
    exec failure), or whose shard record fails its digest, has its range
    re-claimed once by a respawned process;
    if that dies too, the range is recorded in {!stats.st_failed} (audited
    with {!Par.Merge.check_ranges}, ascending worker order) and the
    degraded summary is the deterministic merge of the surviving shards —
    never a hang, never silent loss.

    {b Result cache}: with [~cache], each shard's outcome is stored
    content-addressed under {!cache_key} — a digest of the campaign spec
    the worker runs, the shard coordinates and a code-version salt — so a
    warm re-run of an identical campaign spawns no workers, performs zero
    engine executions and reconstructs the exact merged summary from
    cached records.  The progress stream's [final] record is computed
    from the merged shards, so a warm replay reports the same counts as a
    cold run. *)

(** What the campaign runs.  [config] must be fully resolved (seed,
    pruning, certification, coverage): workers reconstruct their engine
    from it verbatim. *)
type campaign =
  | Run_c of {
      workload : string;  (** {!Registry} name *)
      buggy : bool;
      scale : int;
      config : Engine.config;
      iters : int;
    }
  | Litmus_c of { name : string; config : Engine.config; iters : int }
  | Fuzz_c of {
      cfg : Fuzz.campaign_cfg;
      coverage : bool;
      range : (int * int) option;
          (** [Some (lo, hi)] scopes the campaign to global program
              indices [lo, hi) — one corpus admission round; campaign
              entry points pass [None].  With [cfg.c_corpus] set and
              [range = None], the fabric runs {!Fuzz.run_rounds} with
              one ranged fan-out per admission round — byte-identical to
              the in-process round loop. *)
    }  (** [cfg.c_jobs] is ignored; process fan-out replaces it *)
  | Sweep_c of { sw_family : string; sw_iters : int; sw_seed : int64 }
      (** a {!Sweep} memory-order matrix: the flattened cells x iters
          index space is leapfrogged exactly like execution indices *)
  | Lint_c of {
      lt_targets : string list;
          (** named {!Lmodel}/{!Wmodel} targets, one work item each *)
      lt_programs : int;
          (** generated programs appended after the named targets; item
              [i >= length lt_targets] analyzes the program generated
              from [Rng.substream lt_seed ~index:(i - length lt_targets)] *)
      lt_seed : int64;
      lt_gen : Fuzz.gen_cfg;
    }  (** pure static analysis — no engine executions at all *)

(** Merged campaign result, same observables as the in-process runners. *)
type merged =
  | M_run of Tester.summary
  | M_litmus of Tester.summary * (Litmus.outcome * int) list
      (** histogram in first-occurrence order (as {!Tester.run_collect}) *)
  | M_fuzz of Fuzz.report
  | M_sweep of Sweep.result
  | M_lint of (int * Lint.result) list
      (** ascending work-item index; named targets first, then generated
          programs labelled ["gen:<k>"] *)

(** [lint_resolve name] finds the static model behind a named lint
    target: the {!Lmodel} litmus catalog first, then the {!Wmodel}
    workload models. *)
val lint_resolve : string -> Progir.program option

type stats = {
  st_workers : int;  (** worker count after clamping to the total *)
  st_spawned : int;  (** processes actually spawned (incl. re-claims) *)
  st_failed : int list;
      (** worker indices whose shard range was lost after one re-claim,
          ascending — non-empty means the summary is degraded *)
  st_executions_run : int;
      (** engine executions performed by workers this run (0 on an
          all-hit warm cache replay) *)
  st_cache : Cache.stats option;
}

val stats_to_json : stats -> Jsonx.t

(** [cache_key ~exe ~workers ~jobs ~worker c] is the content address of
    worker [worker]'s shard: the MD5 of the key's schema tag, the
    code-version salt (the MD5 of the worker executable at [exe],
    computed once per process), the spec [c] itself and the shard
    coordinates [(worker, workers, jobs)], marshalled with
    [Marshal.No_sharing].  Every field of [c] is part of the key, and
    equal specs get equal keys however their sub-values are shared. *)
val cache_key :
  exe:string -> workers:int -> jobs:int -> worker:int -> campaign -> string

(** Best guess at the c11test binary for spawning workers: the running
    executable when it {e is} c11test, otherwise [bin/c11test.exe]
    resolved against the executable's directory and the build tree (for
    tests and the bench harness).  [None] when nothing exists. *)
val locate_exe : unit -> string option

(** {1 Running campaigns} *)

(** A surface's campaign, ready to run; ['r] is the surface's merged
    result.  An instance and the {!campaign} spec it is built from (and
    hands to workers) describe the same executions. *)
type 'r instance

val run_instance :
  Registry.t ->
  buggy:bool ->
  scale:int ->
  config:Engine.config ->
  iters:int ->
  Tester.summary instance

(** The histogram is in first-occurrence order (as {!Tester.run_collect}). *)
val litmus_instance :
  Litmus.t ->
  config:Engine.config ->
  iters:int ->
  (Tester.summary * (Litmus.outcome * int) list) instance

(** [cfg.c_jobs] is ignored: {!run}'s [jobs] replaces it. *)
val fuzz_instance : coverage:bool -> Fuzz.campaign_cfg -> Fuzz.report instance

val sweep_instance :
  Sweep.family -> iters:int -> seed:int64 -> Sweep.result instance

(** One work item per named target (each must resolve through
    {!lint_resolve}), then [programs] generated programs: item
    [List.length targets + k] analyzes the program generated from
    [Rng.substream seed ~index:k], labelled ["gen:<k>"].  Results are in
    ascending item order. *)
val lint_instance :
  targets:string list ->
  programs:int ->
  seed:int64 ->
  gen:Fuzz.gen_cfg ->
  (int * Lint.result) list instance

(** [run ~jobs i] runs the campaign and returns its merged result, with
    the fabric's statistics when it ran there.  Both ways drive the
    instance's shards through one merge.  Without [workers] and [cache]
    it runs in this process, each fan-out on [jobs] domains
    ({!Par.domains}) whose private [profile]/[metrics] are absorbed into
    the caller's: run and litmus record what {!Tester.run_collect} does,
    fuzz what {!Fuzz.campaign} does, sweep and lint nothing.  With
    either, it runs on [workers] (default 1) worker processes of [jobs]
    domains each, as {!run_campaign}; [profile] and [metrics] see
    nothing.  [progress] ends with the exact merged [final] record either
    way.  [Error] only comes from the fabric. *)
val run :
  ?profile:Profile.t ->
  ?metrics:Metrics.t ->
  ?progress:Progress.t ->
  ?cache:Cache.t ->
  ?workers:int ->
  jobs:int ->
  'r instance ->
  ('r * stats option, string) result

(** [run_campaign ~workers ~jobs c] coordinates the campaign and returns
    the merged result and run statistics.

    @param exe worker binary (default {!locate_exe}; [Error] if none)
    @param cache consult/populate this result cache per shard
    @param progress the campaign's single progress handle: worker
           heartbeats are aggregated into it and it receives the exact
           merged [final] record
    @param kill test-only fault injection [(worker, attempts)]: the
           worker with that index exits uncleanly on its first [attempts]
           claims — [(w, 1)] exercises re-claim recovery, [(w, 2)] the
           deterministic degraded summary
    @param workers worker processes ([>= 1]; clamped to the total)
    @param jobs domains {e inside} each worker (the in-process leapfrog
           nests under the process-level one)

    [Error msg] for a campaign naming an unknown workload, litmus test,
    sweep family or lint target, and for environmental failures (no
    executable, spawn failure, a shard payload of another campaign kind)
    — partial worker loss degrades instead. *)
val run_campaign :
  ?exe:string ->
  ?cache:Cache.t ->
  ?progress:Progress.t ->
  ?kill:int * int ->
  workers:int ->
  jobs:int ->
  campaign ->
  (merged * stats, string) result

(** The worker-mode entry point behind [c11test worker]: decode the spec
    line read from stdin, run the assigned shard(s), stream protocol
    records to stdout.  Returns the process exit code. *)
val worker_main : string -> int
