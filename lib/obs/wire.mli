(** The service's JSON codec — parser with error positions, deterministic
    printer, no external dependencies.

    The evaluation server speaks newline-delimited JSON; every request and
    response, every bench JSON artifact ([BENCH_*.json]) and the load
    generator's summaries go through this one module, so escaping and float
    formatting are implemented (and tested) exactly once.

    Determinism matters beyond aesthetics: the result cache keys on the
    {e printed} canonical request, so [print] must be a pure function of the
    value — it is, including floats, which are printed with the shortest
    representation that round-trips to the identical bits.

    [parse] and [print] are exact inverses on the value level:
    [parse (print v) = Ok v] for every [v] whose floats are finite (the
    QCheck property in [test/test_service.ml]). JSON has no lexical form
    for NaN or infinities, so [print] raises [Invalid_argument] on
    non-finite floats rather than emitting something another parser would
    reject. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string  (** UTF-8 bytes, unescaped *)
  | List of t list
  | Obj of (string * t) list  (** field order is preserved *)

type error = {
  pos : int;  (** byte offset into the input *)
  line : int;  (** 1-based *)
  col : int;  (** 1-based *)
  msg : string;
}

val error_to_string : error -> string
(** ["line L, col C: message"]. *)

val parse : string -> (t, error) result
(** Strict JSON: one value, optionally surrounded by whitespace; trailing
    bytes are an error. Numbers without [.]/[e] parse as [Int] (falling
    back to [Float] past [max_int]); numbers that overflow to infinity are
    an error. [\uXXXX] escapes (including surrogate pairs) decode to
    UTF-8. *)

val print : t -> string
(** Compact single-line form — the NDJSON wire format and the cache key.
    Raises [Invalid_argument] on a non-finite float. *)

val add_compact : Buffer.t -> t -> unit
(** Append {!print}'s bytes to a buffer — for callers that splice a
    printed value into bytes they assemble themselves. *)

val print_hum : t -> string
(** Two-space-indented multi-line form, for bench artifacts meant to be
    read by humans as well as machines. Same escaping and float rules as
    {!print}. *)

val member : string -> t -> t option
(** First field of that name in an [Obj]; [None] otherwise. *)

val kind_name : t -> string
(** ["null"], ["bool"], ["int"], ["number"], ["string"], ["array"],
    ["object"] — for error messages. *)
