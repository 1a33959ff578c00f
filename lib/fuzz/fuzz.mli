(** C11fuzz: random concurrent-program generation with a certifier-backed
    differential oracle and automatic shrinking.

    The fixed litmus tests and workloads exercise the shapes their authors
    thought of; this module generates the ones nobody did.  A seeded
    {!generate} draws a random well-formed DSL program — several threads of
    atomic loads, stores, RMWs and compare-exchanges across every memory
    order, fences, plain non-atomic accesses, memory-reuse accesses and
    ordered mutex critical sections — and the fuzz loop runs it under the
    operational engine with the axiomatic certifier ({!Check}) as a
    differential oracle.  On a correct engine every generated program must
    certify: the certifier reconstructs [sb]/[rf]/[mo]/[sw]/[hb] from
    scratch and cross-checks the engine's clock vectors, so {e any}
    rejection, engine crash or deadlock is a finding about the engine (or
    the certifier), never about the random program.  Data races are
    expected in random programs and are deliberately not findings.

    Findings are shrunk automatically: {!shrink} greedily deletes threads
    and operations (lock/unlock pairs as one unit) and weakens memory
    orders one lattice step at a time, accepting a reduction only while
    the failure reproduces with the same {!finding_key}, until no single
    deletion or weakening keeps it failing.  The result prints as a
    ready-to-paste OCaml DSL snippet plus the replay seeds.

    Determinism contract: program [i] of a campaign is a pure function of
    the campaign seed and [i] ([Rng.substream]), its executions draw seeds
    from the substream rooted at the program's own seed, and shards merge
    through {!Par.Merge} with lowest-index-wins finding dedup — so the
    same campaign seed yields the same finding set (same keys, same
    winning indices, same shrunk repros) at any [--jobs]. *)

(* ------------------------------------------------------------------ *)
(** {1 Programs}

    The program IR is {!Progir}'s, shared with the static analyzer
    {!Lint}. *)

(** Generator knobs.  Each program draws its actual thread/op/location
    counts uniformly up to these bounds, so one configuration covers many
    shapes. *)
type gen_cfg = {
  g_threads : int;  (** max spawned threads (>= 1); main also runs ops *)
  g_ops : int;  (** max ops per thread body (>= 1) *)
  g_atomic_locs : int;  (** max atomic locations (>= 1) *)
  g_na_locs : int;  (** max plain non-atomic locations (>= 0) *)
  g_mutexes : int;  (** max mutexes (>= 0) *)
  g_profile : Progir.profile;
}

val default_gen_cfg : gen_cfg

(** The largest [g_threads] and [g_ops] whose programs, with
    [default_gen_cfg]'s other knobs, stay inside {!Progir}'s bounds: main
    runs one body more than [g_threads], and a body unlocks each mutex it
    still holds after its [g_ops] draws, so it can run [g_mutexes] ops
    past [g_ops]. *)
val max_gen_threads : int

val max_gen_ops : int

(** [generate ~cfg ~seed] draws a well-formed program: every generated
    program satisfies {!Progir.validate}.  Mutex use follows an ordered
    discipline (lock only mutexes above the innermost held one, unlock
    innermost-first, bodies close every lock they open), so generated
    programs never deadlock on their own — an observed deadlock is an
    engine finding. *)
val generate : cfg:gen_cfg -> seed:int64 -> Progir.program

(** [to_closure p] compiles the program to a thunk for {!Engine.run}. *)
val to_closure : Progir.program -> unit -> unit

(** Renders the program as a ready-to-paste OCaml DSL test function. *)
val pp_program : Format.formatter -> Progir.program -> unit

val program_to_string : Progir.program -> string

(* ------------------------------------------------------------------ *)
(** {1 Oracle} *)

(** Why a program counts as a finding.  Races, assertion-free outcomes
    and step-limit aborts are not findings. *)
type finding_kind =
  | Cert_rejected of Check.violation list
      (** the axiomatic certifier rejected the execution *)
  | Engine_crash of string  (** uncaught exception or model invariant *)
  | Deadlock  (** generated programs are deadlock-free by construction *)
  | Lint_unsound of { race : string }
      (** the engine reported a race on a program {!Lint} proved
          race-free: a soundness disagreement between the static and
          dynamic detectors (the static side only over-approximates
          towards [Potential_race], so the engine side is suspect) *)

(** Seed-stable identity of a finding (numbers stripped), used for dedup
    across programs, shrink steps and shards. *)
val finding_key : finding_kind -> string

type status = Passed of { certified : bool } | Failed of finding_kind

(** The engine configuration campaigns probe under: [Full_c11],
    controlled-random scheduling, no pruning, the given seeded fault
    installed. *)
val engine_config : mutation:Execution.mutation option -> Engine.config

(** [exec_seed p ~attempt] is the seed of the program's [attempt]-th
    execution ([Rng.substream p.p_seed]). *)
val exec_seed : Progir.program -> attempt:int -> int64

(** [run_one ~config ~certify ~seed p] executes the program once and
    classifies the outcome; engine exceptions are caught and classified,
    never propagated.  [race_free] is [p]'s lint verdict
    ([(Lint.analyze p).res_race_free]) when the caller already has it;
    otherwise it is computed, and only if the execution passes with a
    race (the {!Lint_unsound} check). *)
val run_one :
  ?race_free:bool ->
  config:Engine.config ->
  certify:bool ->
  seed:int64 ->
  Progir.program ->
  status

(** [reproduces ~config ~key p] probes up to 8 executions (certifying
    each) and returns the seed of the first that fails with exactly
    [key], if any.  [p] is linted at most once, however many executions
    race. *)
val reproduces : config:Engine.config -> key:string -> Progir.program -> int64 option

(* ------------------------------------------------------------------ *)
(** {1 Shrinking} *)

(** Single-unit deletion candidates of a program, the granularity at
    which {!shrink}'s fixpoint is minimal: every program with one op unit
    removed (a lock and its matching unlock count as one unit) and every
    program with one whole thread removed. *)
val deletion_candidates : Progir.program -> Progir.program list

(** [shrink ~config ~key p] greedily reduces [p] while the failure
    keyed [key] still reproduces: passes of thread deletion, op-unit
    deletion and one-step memory-order weakening repeat to a fixpoint at
    which no {!deletion_candidates} element and no single weakening still
    fails.  Returns the minimal program, a reproducing execution seed and
    the number of accepted reductions; [on_accept] observes every
    accepted intermediate (each is guaranteed to reproduce [key]). *)
val shrink :
  ?on_accept:(Progir.program -> unit) ->
  config:Engine.config ->
  key:string ->
  Progir.program ->
  Progir.program * int64 * int

(* ------------------------------------------------------------------ *)
(** {1 Campaigns} *)

type finding = {
  f_index : int;  (** global program index — lowest wins across shards *)
  f_seed : int64;  (** program seed: replays via {!generate} *)
  f_key : string;
  f_kind : finding_kind;  (** classification of the original failure *)
  f_repro : Progir.program;  (** shrunk minimal reproducer *)
  f_exec_seed : int64;  (** execution seed that reproduces on [f_repro] *)
  f_shrink_steps : int;
  f_ops_before : int;
  f_ops_after : int;
}

type campaign_cfg = {
  c_programs : int;
  c_seed : int64;
  c_jobs : int;  (** >= 1 *)
  c_gen : gen_cfg;
  c_mutation : Execution.mutation option;  (** seeded engine fault *)
  c_corpus : Corpus.plan option;
      (** corpus-guided mode: the campaign runs in rounds of
          [pl_round] programs, mutates [pl_mutate_pct]% of each round's
          programs from the (snapshot + admitted-so-far) corpus, admits
          coverage-novel programs at round barriers, and reports them in
          [r_corpus].  Forces coverage fingerprinting on.  The admitted
          list is a pure function of the campaign configuration —
          independent of [c_jobs] and of process-level sharding. *)
}

val default_campaign_cfg : campaign_cfg

(** Corpus-guided campaign readout. *)
type corpus_stats = {
  k_seeded : int;  (** entries in the starting snapshot *)
  k_fresh : int;  (** programs generated from scratch *)
  k_mutated : int;  (** programs mutated from a corpus entry *)
  k_admitted : Corpus.entry list;  (** newly admitted, ascending index *)
}

(** Campaign outcome.  Everything except wall-clock diagnostics is a pure
    function of the configuration: independent of [c_jobs]. *)
type report = {
  r_programs : int;
  r_certified : int;  (** probes the certifier accepted *)
  r_cert_rejected : int;  (** programs whose probe was rejected *)
  r_crashes : int;  (** programs whose probe crashed or deadlocked *)
  r_findings : finding list;  (** deduped by key, ascending index *)
  r_shrink_steps : int;  (** accepted reductions over [r_findings] *)
  r_gen_ops : int;  (** total ops generated *)
  r_coverage : Cov.summary option;
      (** merged execution-shape coverage of the primary (non-shrink)
          executions; [Some _] iff the campaign ran with [~coverage:true].
          Bit-identical across [c_jobs]. *)
  r_lint_potential : int;
      (** programs the static analyzer marked [Potential_race] (and so
          eligible for prioritized extra executions) *)
  r_lint_unsound : int;
      (** programs whose final status was {!Lint_unsound} — zero on a
          sound engine *)
  r_corpus : corpus_stats option;  (** [Some _] iff [c_corpus] was set *)
  r_certified_ops : int;
      (** actions the streaming certifier consumed over the primary
          probes — with [r_retired_prefix_ops], what a campaign's [final]
          progress record reports; neither appears in {!report_to_json} *)
  r_retired_prefix_ops : int;
}

(** [campaign cfg] generates and probes [c_programs] programs (a program
    {!Lint} marks race-potential whose primary probe passed gets up to 2
    extra executions, pure functions of (program, attempt)), shrinks
    the first local occurrence of each finding key, and merges shards
    with the lowest-index-wins protocol, on [c_jobs] domains
    ({!Par.domains}).  The C11obs handles observe without perturbing:
    [metrics] gains [fuzz.*] counters and [profile] the
    [fuzz_generate]/[fuzz_execute]/[fuzz_shrink] spans (from which
    {!Profile.rate} reads programs/sec).  [coverage] fingerprints every
    primary execution into {!Cov} shapes ([r_coverage]); [progress] is
    ticked once per program and receives a [final] record with the merged
    novelty counts. *)
val campaign :
  ?profile:Profile.t ->
  ?metrics:Metrics.t ->
  ?coverage:bool ->
  ?progress:Progress.t ->
  campaign_cfg ->
  report

(** {2 Shard-level API (the multi-process fabric's building block)}

    One worker's accumulated fuzz results — counters, lowest-index
    finding dedup with shrunk repros, optional coverage extract.  Plain
    data (no closures), so a shard survives [Marshal] across processes;
    lib/svc ships shards from worker processes and replays them from the
    result cache. *)
type shard

(** [campaign_shard ~cfg ~start ~stride ()] probes the programs whose
    global indices form the arithmetic progression [start, start+stride,
    ...] below [stop] (default [cfg.c_programs]; [cfg.c_jobs] is ignored —
    process-level callers do their own fan-out).  [stop] lets corpus-round
    drivers confine a shard to one round's index range.  [profile] and
    [metrics] record as in {!campaign}. *)
val campaign_shard :
  ?coverage:bool ->
  ?progress:Progress.t ->
  ?profile:Profile.t ->
  ?metrics:Metrics.t ->
  ?stop:int ->
  cfg:campaign_cfg ->
  start:int ->
  stride:int ->
  unit ->
  shard

(** Fold shards with the lowest-index-wins protocol — exactly the merge
    {!campaign} applies to its domain shards, so the report is independent
    of how the program index space was partitioned.  [admitted] threads a
    corpus driver's accumulated admissions into [r_corpus]. *)
val merge_shard_list : ?admitted:Corpus.entry list -> campaign_cfg -> shard list -> report

(** [run_rounds ~wave cfg] is the campaign round loop, shared by the
    in-process {!campaign} (a wave fans out to domains) and the
    multi-process fabric in lib/svc (a wave fans out to worker processes).
    [wave ~cfg ~lo ~hi] must probe programs [lo, hi) of [cfg], sharded any
    way, and return their shards.  A plain campaign is one wave over
    [0, c_programs), and so is a corpus campaign of no programs.  A
    corpus campaign ([c_corpus = Some plan]) is one wave per admission
    round of [pl_round] programs; each wave's [cfg]
    carries a plan holding the snapshot plus everything admitted at
    earlier barriers, and a round's candidates are admitted at its barrier
    in ascending global index order — so admissions, and the merged
    report, do not depend on how the waves were sharded.  The first
    [Error] from [wave] ends the loop. *)
val run_rounds :
  wave:(cfg:campaign_cfg -> lo:int -> hi:int -> (shard list, 'e) result) ->
  campaign_cfg ->
  (report, 'e) result

val finding_to_json : finding -> Jsonx.t

(** A [c11fuzz-finding-v1] record read back: {!finding_to_json}'s fields,
    with the finding's kind by name (["cert_rejected"], ...) and the
    shrunk repro as the DSL snippet it was rendered to. *)
type finding_record = {
  fr_index : int;
  fr_seed : int64;
  fr_key : string;
  fr_kind : string;
  fr_exec_seed : int64;
  fr_shrink_steps : int;
  fr_ops_before : int;
  fr_ops_after : int;
  fr_repro : string;
}

val finding_record_of_json : Jsonx.t -> (finding_record, string) result
val report_to_json : report -> Jsonx.t
val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit
