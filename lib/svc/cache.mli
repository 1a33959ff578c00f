(** Content-addressed result cache for campaign shards.

    A shard's outcome is a pure function of (campaign spec, shard
    coordinates, code version) — see {!Svc.cache_key} for the digest
    definition — so it can be stored once and replayed forever: a warm
    re-run of an identical campaign performs zero engine executions and
    reconstructs the exact merged summary from the cached records.

    Entries live under [dir/ab/cdef....shard] (first digest byte as a fan
    directory).  Writes go through a temp file + atomic rename, so
    concurrent campaigns over one cache directory never observe a torn
    entry; a corrupt or truncated entry reads as a miss and is deleted.
    Values are stored with [Marshal] (shards are closure-free plain data)
    behind three header lines: the format version, the full key and the
    MD5 of the body.  All three are verified on load, the digest before
    the body is unmarshalled, so a flipped byte is a miss rather than a
    wrong value.  The cache key itself is salted with a digest of the
    executable, so a rebuilt binary can never replay a stale entry (which
    also makes the [Marshal] round-trip safe). *)

type t

type stats = {
  hits : int;
  misses : int;
  stores : int;
  hit_bytes : int;  (** payload bytes replayed from the cache *)
  store_bytes : int;  (** payload bytes written to the cache *)
}

(** [$XDG_CACHE_HOME/c11test] or [~/.cache/c11test]. *)
val default_dir : unit -> string

(** Create [dir] (and parents) if needed and probe that it is writable;
    [Error msg] otherwise — the CLI turns that into a usage error
    (exit 2) before any campaign work starts. *)
val open_dir : string -> (t, string) result

val dir : t -> string

(** [lookup t ~key] replays the entry stored under [key], or [None].
    A missing entry is a silent miss.  Version-skewed, truncated or
    corrupt entries (a body whose digest does not match) are misses too,
    are removed, and are reported on stderr as
    [c11test: cache: dropping corrupt entry PATH (REASON)]. *)
val lookup : t -> key:string -> 'a option

(** [store t ~key v] persists [v] under [key] (atomic rename; last writer
    wins). *)
val store : t -> key:string -> 'a -> unit

val stats : t -> stats
val stats_to_json : stats -> Jsonx.t
