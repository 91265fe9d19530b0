(** The request-envelope scan: one walk over the top-level members of a
    request, with a front end per wire, that finds the byte spans of the
    envelope members ([id], [trace], [timeout_ms]) without building a
    value. The server keys its frame cache on what it finds, and the
    cluster router forms routing keys from it.

    Both front ends report the {e first} member of each name, the one
    {!Wire.member} reads, and give up ([None]) rather than guess:

    - JSON ({!json}): one top-level object, optionally surrounded by
      whitespace. A top-level key containing a backslash gives up, since
      a key whose [i] is written as a unicode escape spells [id] without
      those bytes. So does any raw control byte, NUL included,
      outside whitespace. Nested values are skipped by bracket depth and
      are not otherwise checked.
    - Binary ({!binary}): one well-formed {!Wire_bin} object with no
      trailing bytes. Every value is checked as the decoder checks it,
      non-finite floats included.

    Allocation: the result record and one option per member found. *)

type scan = {
  id_value : (int * int) option;  (** [[start, stop)] of the ["id"] value *)
  trace_value : (int * int) option;  (** of the ["trace"] value *)
  timeout_value : (int * int) option;  (** of the ["timeout_ms"] value *)
}

val json : string -> scan option
val binary : string -> scan option

val key : string -> scan -> string
(** The frame-cache key: the bytes with the [id] and [trace] values each
    replaced by one NUL byte (the bytes themselves when neither is
    present).

    No valid JSON contains a raw NUL, and {!json} refuses one, so on the
    JSON wire the NULs in a key are exactly its excision marks: two lines
    with equal keys differ at most in those two values. On the binary
    wire NUL is the [null] tag, so a key is itself a well-formed request
    with a null id and trace, and equal keys again mean equal bytes
    outside the two values. *)

val json_value : string -> int * int -> Wire.t option
(** The JSON value at a span {!json} reported, as {!Wire.parse} reads it
    on its own ([None] where it fails): plain integers and escape-free
    strings directly, anything else through the parser. So [007] reads
    as [Int 7], [-0] as [Int 0] and [1e2] as [Float 100.]. *)
