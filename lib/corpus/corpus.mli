(** C11corpus — the persistent on-disk corpus behind coverage-guided
    fuzzing ([c11test fuzz --corpus DIR]).

    A corpus entry is a generated (or mutated) {!Progir.program} that hit
    a coverage-novel key — a new execution-shape digest, race site or
    certifier violation key ({!Cov.summary_keys} namespace) — together
    with the program seed its executions replay from and the keys it
    contributed.  Entries are stored one JSON document per file
    ([<shape-digest>.json], schema [c11corpus-v1]) with an atomic
    temp-file + rename write, so concurrent campaigns over one corpus
    directory never observe a torn entry.

    Corruption contract: a file that fails to parse or validate is
    skipped, deleted and noted on stderr — never a crash ({!load}).

    Determinism contract: everything here is a pure function of its
    inputs.  {!mutate} draws from the caller's {!Rng.t} only; {!load}
    returns entries in ascending digest order, so a freshly loaded
    snapshot is byte-identical across runs and machines. *)

(** One admitted program.  [en_digest] is the execution-shape digest the
    admitting execution produced (also the storage key); [en_keys] the
    coverage keys it contributed, in {!Cov.summary_keys}'s prefixed
    namespace; [en_seed] the program seed ([Rng.substream] of it gives
    the execution seeds, exactly as for a generated program). *)
type entry = {
  en_digest : string;
  en_index : int;  (** global program index at admission *)
  en_seed : int64;
  en_keys : string list;
  en_program : Progir.program;
}

val entry_to_json : entry -> Jsonx.t

(** Parse an entry document; [Error] on missing/ill-typed fields, schema
    mismatch or a program failing {!Progir.validate}. *)
val entry_of_json : Jsonx.t -> (entry, string) result

(** {1 Storage} *)

type t

(** Create [dir] (and parents) if needed and probe it is writable;
    [Error msg] otherwise — the CLI turns that into a usage error
    (exit 2) before any campaign work starts, mirroring the result
    cache's contract. *)
val open_dir : string -> (t, string) result

val dir : t -> string

(** Load every entry, ascending digest order.  Corrupt entries (parse
    failure, schema/digest mismatch, invalid program) are skipped,
    deleted and noted on stderr. *)
val load : t -> entry list

(** Persist one entry under its digest ([false] when that digest is
    already stored — first admission wins).  Atomic temp + rename. *)
val store : t -> entry -> bool

(** {1 Mutation}

    Validity-preserving program edits over the shrinker's op-unit
    machinery ({!Progir.units_of}): drop a unit, duplicate a unit (a
    lock/unlock pair is duplicated with its whole region, immediately
    after it — the held-mutex stack there equals the stack at its start,
    so the ordered discipline is preserved), rotate one memory order
    along the {!Memorder} lattice within its access category, or swap
    two locations.  Every result satisfies {!Progir.validate}. *)

(** [mutate ~rng p] applies 1–3 mutation steps drawn from [rng].  Pure in
    [rng]'s stream: the same rng state yields the same program. *)
val mutate : rng:Rng.t -> Progir.program -> Progir.program

(** {1 Campaign plan}

    What a corpus-guided campaign carries into its shards: the entry
    snapshot mutation draws from, the per-round admission barrier length
    and the mutate-vs-fresh percentage.  Plain data — survives [Marshal]
    to worker processes. *)

type plan = {
  pl_entries : entry list;
      (** the snapshot mutation draws from (round [r] sees the initial
          snapshot plus every entry admitted in rounds [< r]) *)
  pl_mutate_pct : int;  (** percent of programs mutated from the corpus *)
  pl_round : int;  (** programs per admission round (>= 1) *)
}

val default_mutate_pct : int
val default_round : int

val plan : ?mutate_pct:int -> ?round:int -> entry list -> plan
