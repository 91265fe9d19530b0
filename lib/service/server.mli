(** The evaluation server: newline-delimited JSON over stdio, a TCP
    socket, or in-process calls.

    One request per input line; one response per output line, not
    necessarily in request order (clients tag requests with ["id"] and
    match completions — see {!Proto}). Malformed lines get a
    [parse_error]/[invalid_request] response instead of killing the
    session. [stats], [metrics] and [health] requests are answered
    synchronously by the server itself — they observe load, so they must
    not queue behind it.

    Observability: every accepted request is timed into the
    [rvu_server_request_seconds{kind=…}] histogram and counted in the
    [rvu_server_in_flight] gauge of the process-wide registry
    ({!Rvu_obs.Metrics}); the [metrics] request kind exposes the whole
    registry as a JSON snapshot or Prometheus text.

    Correlation: each request line gets one {!Rvu_obs.Ctx} request
    context, installed once for the whole handling extent (the worker pool
    carries it to the worker domain). Its correlation id — ["req-<id>"]
    when the envelope carries an [Int]/[String] id, a generated
    ["c<hex>"] otherwise — is stamped on every {!Rvu_obs.Log} record and
    {!Rvu_obs.Trace} span emitted on the way, and echoed as the
    response's envelope ["ctx"] field. When logging is configured the
    server writes a [debug]-level ["request"] record on accept and an
    [info]/[warn]/[error] ["response"] record on completion ([error] for
    [internal] outcomes, which also dump the flight recorder when one is
    armed).

    Tracing: with {!Rvu_obs.Trace} enabled the request context also
    carries a span context — a child of the envelope's propagated
    ["trace"] member (the router's W3C traceparent) when present, a fresh
    root otherwise — and each request emits a ["serve"] complete span. Serve latency is
    decomposed into [rvu_phase_seconds{phase=…}] histograms whose
    observations carry trace-id exemplars, and [slow_ms] force-retains
    over-budget requests' spans.

    The same [handle_line] entry point backs all three transports, so the
    in-process form used by tests and the [perf-serve] bench exercises
    exactly the scheduling, caching and backpressure that the socket form
    serves. *)

type config = {
  jobs : int;  (** worker domains *)
  queue_depth : int;  (** admission bound; past it requests are shed *)
  cache_entries : int;  (** LRU capacity; [0] disables result caching *)
  timeout_ms : float option;  (** default per-request queue-wait budget *)
  max_request_bytes : int;
      (** requests longer than this are rejected up front with a
          structured [invalid_request] error (they are never parsed, so a
          hostile client cannot make the server materialise an arbitrary
          JSON document; a session never even holds such a line whole) *)
  slow_ms : float option;
      (** slow-request trigger ([rvu serve --slow-ms]): a request whose
          wall time exceeds this budget gets its trace id force-retained
          ({!Rvu_obs.Trace.retain}) so its spans survive ring wrap-around,
          plus a [warn]-level log record carrying the trace id. No effect
          when tracing is off. *)
}

val default_config : config
(** [{jobs = recommended; queue_depth = 64; cache_entries = 256;
    timeout_ms = None; max_request_bytes = 1_048_576; slow_ms = None}]. *)

type t

val create : ?config:config -> unit -> t

val handle_line : t -> string -> respond:(string -> unit) -> unit
(** Process one request line. [respond] is called exactly once with the
    response line (no trailing newline) — synchronously for parse errors,
    stats, cache hits and shed requests; from a worker domain otherwise.
    [respond] must be domain-safe and must not raise.

    Warm repeats of a cacheable request — the same bytes apart from the
    [id] and [trace] values, no [timeout_ms] member — are answered from
    the frame cache: the line is scanned ({!Envelope.json}), not parsed,
    and the memoized result bytes are spliced under a fresh envelope.
    The answer is byte-identical to the one the full parse gives. *)

val handle_sync : t -> string -> string
(** [handle_line] plus blocking until the response arrives. *)

val await : (respond:(string -> unit) -> unit) -> string
(** [await handle] calls [handle ~respond] and blocks until [respond] has
    been called, returning its argument — the synchronous form of any
    [handle_*] entry point, the cluster router's included. *)

val handle_payload : t -> string -> respond:(string -> unit) -> unit
(** The binary-path analogue of {!handle_line}: process one decoded
    frame payload ({!Wire_bin}, length prefix already stripped);
    [respond] is called exactly once with the response payload (no
    length prefix — the transport frames it). Warm repeats take the same
    frame-cache path as {!handle_line}'s, scanned by {!Envelope.binary}
    instead of decoded. *)

val handle_payload_sync : t -> string -> string
(** [handle_payload] plus blocking until the response arrives. *)

val frame_cache_stats : t -> Lru.stats
(** Counters of the frame cache both wires share: a hit is a lookup that
    found an entry (its answer is spliced without decoding, unless the
    result cache has since evicted the result); a miss falls through to
    the full decode path and arms the fill. Entries are filed only when
    that path is answered from the result cache. These counters never
    reach the process-wide result-cache metrics ({!Lru.create_private}),
    which count each request's result-cache lookup once, on either
    path. *)

val wait_idle : t -> unit
(** Block until no request accepted through any entry point (every
    session's, and the in-process calls') is outstanding: the
    [in_flight] of {!stats_json} and the [rvu_server_in_flight] gauge
    read the same count. A session does not wait on it; it drains only
    its own answers ({!serve_channels}). *)

val stats_json : t -> Wire.t
(** The [stats] payload: request counters, in-flight depth, result-cache
    counters ({!Lru.stats}), shared reference-stream cache counters
    ({!Rvu_trajectory.Stream_cache.stats}), a ["process"] section of
    cumulative registry counters (since process start, never reset —
    unlike the per-instance cache sections, these aggregate over every
    scheduler/cache the process ever created), a ["runtime"] section
    ({!Rvu_obs.Runtime.json}: GC counters, heap size, uptime), and the
    effective config. *)

val health_json : t -> Wire.t
(** The [health] payload:
    [{"status":"ready"|"degraded","queue":{"in_flight":…,"depth":…},
      "shed_since_last_probe":…}]. Degraded while admission is saturated
    ([in_flight >= depth]) or any request was shed since the previous
    probe (each probe advances that mark). *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** One {!Conn.serve} session over {!handle_line}/{!handle_payload}:
    serve until end-of-input, then flush and wait for this session's own
    answers, not for other sessions' requests. The connection starts in
    JSON; a first-record [hello] upgrades it to frames. The session's
    own answers are accounted here like requests: a first-record [hello]
    counts as ok and is timed into
    [rvu_server_request_seconds{kind="hello"}]. An oversized line or
    length prefix is refused like any record the server does not accept
    (a parse error, an invalid request, a mid-stream hello): answered
    with a structured error, counted as an error with a [warn] log
    record, and not timed. *)

val serve_tcp :
  t -> host:string -> port:int -> ?connections:int -> unit -> unit
(** {!Conn.listen} as ["rvu serve"], serving one connection at a time to
    completion (each runs {!serve_channels}; requests within a
    connection are still concurrent). [connections] bounds how many
    connections to serve before returning (default: serve forever). A
    connection error is logged and printed to [stderr], and the accept
    loop continues. *)

val stop : t -> unit
(** Drain and join the worker domains. *)
