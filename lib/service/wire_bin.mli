(** The binary wire codec: a canonical, length-prefixed binary encoding
    of {!Wire.t} values, negotiated per connection by a [hello] record
    (JSON stays the default and the compatibility oracle — see DESIGN.md
    section 17 for the byte-level layout and the handshake).

    Properties the service stack relies on:

    - {b Canonical}: every value has exactly one encoding, so
      [decode ∘ encode = id] {e and} [encode ∘ decode = id] (byte-wise).
      The cluster router splices routed binary responses in place and the
      result is still byte-identical to a direct server's encoding.
    - {b Same value domain as JSON}: non-finite floats are rejected on
      encode (like {!Wire.print}) and on decode, so any payload
      expressible in one codec is expressible in the other.
    - {b Skippable}: a value's extent follows from its header, so
      envelope scans ({!scan_request}) build no value. *)

type mode = Json | Binary
(** The per-connection wire mode. Every connection starts in [Json]; a
    [hello] record with ["wire":"binary"] as the {e first} record flips
    both directions to length-prefixed binary frames (the hello response
    itself is still JSON). *)

val mode_string : mode -> string
(** ["json"] / ["binary"] — the wire spelling in [hello] records and the
    CLI's [--wire] values. *)

val mode_of_string : string -> mode option

val add_value : Buffer.t -> Wire.t -> unit
(** Append the encoding of a value. Raises [Invalid_argument] on
    non-finite floats (mirroring {!Wire.print}). *)

val encode : Wire.t -> string
(** [add_value] into a per-domain scratch buffer (reused across calls on
    the same domain; only the result string is allocated per call). *)

val add_obj_header : Buffer.t -> int -> unit
(** The object tag and member count — with {!add_key}, lets a caller
    assemble an object encoding around already-encoded value spans (the
    canonical object encoding is exactly
    [add_obj_header; (add_key; value)*]). *)

val add_key : Buffer.t -> string -> unit
(** One member key (length prefix + bytes); the member's value bytes
    follow. *)

val with_scratch : (Buffer.t -> unit) -> string
(** Run [f] on the (cleared) per-domain scratch buffer and return its
    contents — for callers that splice encodings by hand (the server's
    response fast path, the router's probe encoder). *)

val decode : string -> (Wire.t, string) result
(** Decode one value occupying the whole string. [Error] messages carry
    the byte offset of the defect (truncation, unknown tag, non-finite
    float, trailing bytes). *)

val decode_span : string -> pos:int -> len:int -> (Wire.t, string) result
(** Decode the one value occupying exactly [s.[pos .. pos+len-1]] — used
    with the spans {!scan_request} returns to materialise just the id and
    trace values of a request payload. *)

type request_scan = Envelope.scan = {
  id_value : (int * int) option;
  trace_value : (int * int) option;
  timeout_value : (int * int) option;
}

val scan_request : string -> request_scan option
(** {!Envelope.binary}: the envelope scan of an encoded request payload,
    [None] unless the payload is one well-formed top-level object. The
    server keys its frame cache on what it finds, without decoding
    anything. *)

(** {1 Framing}

    A frame is a 4-byte big-endian unsigned payload length followed by
    the payload bytes. No terminator, no padding. *)

val frame : string -> string
(** The framed bytes of a payload (length prefix + payload) — for tests
    and clients that batch writes. *)

val output_frame : out_channel -> string -> unit
(** Write one frame (no flush). *)

type read_result =
  | Frame of string  (** one whole payload *)
  | Eof  (** clean end of stream at a frame boundary *)
  | Oversized of int
      (** the length prefix exceeds [max_bytes]; the payload bytes are
          {e not} consumed (resynchronising after a hostile or desynced
          length is guesswork — answer and close) *)
  | Truncated  (** end of stream inside a prefix or payload *)

val input_frame : ?first:char -> ?max_bytes:int -> in_channel -> read_result
(** Read one frame, blocking until the payload is complete. [first], if
    given, is a byte the caller already consumed from the channel and is
    treated as the first byte of the length prefix — used by transports
    that sniff the opening byte of a pinned-binary connection. *)
