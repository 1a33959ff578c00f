(** A minimal JSON representation used by the observability layer
    ({!Obs} NDJSON traces, {!Metrics} readouts, the CLI's [--json]
    summaries and the bench harness reports).

    No third-party JSON library is available in the build environment, so
    this module provides just enough: a value type, a compact and a
    pretty emitter, a strict parser sufficient to round-trip everything
    this library emits, and the decoding vocabulary its readers are built
    from.  Non-finite floats are emitted as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val to_channel : out_channel -> t -> unit

(** Two-space indented rendering, for human-facing [--json -] output. *)
val to_pretty_string : t -> string

(** [parse s] parses exactly one JSON document ([Error] describes the
    first offending offset otherwise).  Numbers containing ['.'], ['e'] or
    ['E'] parse as [Float]; everything else as [Int]. *)
val parse : string -> (t, string) result

(** {1 Decoding}

    One vocabulary for every reader of the artifacts the library writes.
    A reader names its record once (["entry"], ["c11sweep-v1"], ...) and
    asks for members by type.  A member that is absent, or holds another
    type, is an [Error] of one shape: [<record>: missing integer field
    "k"]. *)

(** [member key j] is the value bound to [key] when [j] is an object. *)
val member : string -> t -> t option

(** A member type: a projection, and the name a message gives it. *)
type 'a ty

val int : int ty

(** A number: an [Int] reads as a float too. *)
val float : float ty

val string : string ty
val bool : bool ty
val list : t list ty

(** An object, whole: for a member another reader decodes. *)
val obj : t ty

(** A string holding an [int64], as the writers print seeds ("0x..."). *)
val int64 : int64 ty

(** [list_of ty]: a list every element of which is a [ty]. *)
val list_of : 'a ty -> 'a list ty

(** [obj_of ty]: an object every member of which is a [ty]. *)
val obj_of : 'a ty -> (string * 'a) list ty

(** [enum name of_string]: a string that [of_string] recognises, called
    [name] in messages. *)
val enum : string -> (string -> 'a option) -> 'a ty

(** [literal s]: the string [s] and no other, as a record's ["schema"]. *)
val literal : string -> unit ty

(** [req record ty key j] is member [key] of [j] as a [ty], or the
    [Error] ["<record>: missing <ty> field \"key\""]. *)
val req : string -> 'a ty -> string -> t -> ('a, string) result

(** [opt record ty key j] is [Ok None] when [j] has no member [key],
    [Ok (Some v)] when it holds a [ty], and [req]'s [Error] otherwise. *)
val opt : string -> 'a ty -> string -> t -> ('a option, string) result

(** [map_result f xs] maps [f] over [xs] in order, stopping at the first
    [Error]. *)
val map_result : ('a -> ('b, 'e) result) -> 'a list -> ('b list, 'e) result
