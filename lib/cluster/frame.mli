(** Byte-span surgery on request and response lines.

    The router never re-prints request or response bodies: a warm worker
    answer is dominated by codec cost, so re-encoding every line at the
    router would cancel the scaling the cluster exists for. Instead the
    router validates each client line once with {!Rvu_service.Wire.parse}
    (so parse errors are answered locally, with the same messages a
    direct server gives) and then works on the raw bytes:

    - requests are forwarded verbatim with a fresh router-chosen integer
      ["id"] member {e prepended} to the object ({!forward_parts}) — JSON
      object field names may repeat and {!Rvu_service.Wire.member} takes
      the first, so the worker sees the router's id while the client's
      spelling of everything else (including its own id) rides along
      untouched;
    - the routing key is the line with the envelope value spans (["id"],
      ["timeout_ms"], ["trace"]) blanked out ({!routing_parts}, from the
      server's own envelope scan {!Rvu_service.Envelope}), so retries of
      the same scenario under fresh client ids still land on the same
      shard;
    - worker responses come back with only the ["id"] and ["ctx"] value
      spans spliced ({!response_spans} / {!splice_response}), leaving the
      ["ok"]/["error"] body bytes — floats included — exactly as the
      worker printed them. Bit-identity with a direct [rvu serve]
      round-trip holds by construction.

    All request-side functions assume the line already passed
    [Wire.parse] as a JSON object; on malformed input they degrade to
    safe defaults rather than raise. *)

val routing_parts : string -> string list
(** The line split into the byte runs {e between} the first top-level
    ["id"], ["timeout_ms"] and ["trace"] value spans
    ({!Rvu_service.Envelope.json}) — the shard-routing key fed to
    {!Ring}; the whole line when the scan gives up (an escaped top-level
    key, for one).
    For canonically-printed requests this is equivalent to keying on
    [Proto.canonical_key]; for exotic-but-equal spellings (extra
    whitespace, escaped field names) it may differ, which costs cache
    locality only, never correctness. *)

val forward_parts : ?trace:string -> string -> string * string
(** [(pre, post)] such that [pre ^ string_of_int rid ^ post] is the line
    to send a worker: the object with a fresh ["id"] member at the front,
    followed — when [trace] (a W3C traceparent string) is given — by a
    ["trace"] member carrying the router's span context, ahead of the
    client's members so the worker's [Wire.member "trace"] sees it first.
    Computed once per request; retries re-use it with a new [rid]. *)

val response_spans : string -> (int * (int * int) * (int * int) option) option
(** Fast-path scan of a worker-printed response line
    [{"id":<digits>,"ctx":"…",…}]: [Some (rid, id_span, ctx_span)] where
    the spans are [\[start, stop)] byte ranges of the ["id"] value and the
    ["ctx"] value (quotes included). [None] when the line is not of that
    shape (e.g. the worker salvaged a null id) — the router then falls
    back to a full parse. *)

val splice_response :
  string ->
  id_span:int * int ->
  ctx_span:(int * int) option ->
  id:string ->
  ctx:string ->
  string
(** The response line with the ["id"] value span replaced by [id] (the
    client's id, canonically printed) and the ["ctx"] value span replaced
    by [ctx] (a printed JSON string); a line without a ["ctx"] span gets
    [ctx] inserted right after the id. Every other byte is copied
    through. *)

(** {1 Binary-frame analogues}

    The same discipline over {!Rvu_service.Wire_bin} payloads. One
    structural difference: a binary object carries its member count in
    the header, so {!bin_forward_parts}'s prefix re-encodes the header
    with the count bumped for the prepended router id; everything from
    the first original member on is forwarded byte-verbatim (duplicate
    keys decode fine and [Wire.member] takes the first, exactly like the
    JSON path). Splice results stay byte-identical to a direct binary
    server because the encoding is canonical and compositional. *)

val bin_routing_parts : string -> string list
(** {!routing_parts} over a binary payload: the byte runs between the
    first top-level ["id"], ["timeout_ms"] and ["trace"] {e value} spans
    ({!Rvu_service.Envelope.binary}). *)

val bin_forward_parts : ?trace:string -> string -> string * string
(** [(pre, post)] such that [pre ^ rid ^ post] — [rid] the 9-byte
    encoding of the router's Int id — is the frame payload to send a
    worker. [trace] prepends an encoded ["trace"] String member to
    [post] (the header count is bumped for it), mirroring
    {!forward_parts}. *)

val bin_response_spans : string -> (int * (int * int) * (int * int)) option
(** Fast-path scan of a worker binary response opening with an Int ["id"]
    member then a String ["ctx"] member (the shape our servers always
    emit): [Some (rid, id_value_span, ctx_value_span)], or [None] to send
    the caller to the full-decode fallback. *)

val bin_splice_response :
  string ->
  id_span:int * int ->
  ctx_span:int * int ->
  id:string ->
  ctx:string ->
  string
(** The response payload with the two value spans replaced by the
    client's encoded id value bytes and encoded ctx String value bytes;
    every other byte is copied through. *)
