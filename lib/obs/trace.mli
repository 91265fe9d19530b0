(** Monotonic-clock tracing spans in Chrome [trace_event] format.

    When enabled, instrumentation sites emit begin/end/instant/complete
    events (one JSON object per line, timestamps in microseconds from
    {!Clock.now_us}, [tid] = the recording domain's id) into a bounded
    in-memory ring buffer; {!close} writes the retained events to the
    file as one JSON array — loadable directly in [chrome://tracing] or
    [ui.perfetto.dev]. Nesting needs no explicit parent links: Chrome
    stacks begin/end pairs per [tid], so a span begun inside another
    span on the same domain renders as its child.

    When disabled (the default), {!begin_span} returns a shared dummy
    span after a single branch and {!end_span}/{!instant} return after
    the same branch — tracing that is off costs one predictable branch
    per site, no allocation.

    The ring keeps the {e last} [capacity] events: a long-running server
    retains the most recent window, which is the one a debugger wants.
    Dropped-event counts are reported in the file's metadata event and
    mirrored into the [rvu_trace_dropped_total] counter; {!retain}
    exempts a slow request's events from the drop.

    {b Request context.} Every event recorded while a {!Ctx} context is
    ambient is stamped with its correlation id (["ctx"]) and, when it
    carries a span context, with [trace_id]/[span_id]/[parent_id] args —
    which is what [rvu trace-merge] joins on. An explicit arg of the same
    name wins over the stamp. *)

type span

val enabled : unit -> bool

val enable : ?capacity:int -> path:string -> unit -> unit
(** Start tracing into [path] (truncating it). The file is opened
    immediately, so an unwritable path fails here ([Sys_error]) rather
    than at the end of the run. [capacity] bounds the ring (default
    [65536] events). Raises [Invalid_argument] if tracing is already
    enabled or [capacity < 2] (a span needs two slots). A [close] is
    registered with [at_exit] as a backstop. *)

val close : unit -> unit
(** Write the retained events and close the file. No-op when disabled
    (safe to call unconditionally, and idempotent). *)

val begin_span : ?args:(string * Wire.t) list -> string -> span
(** Record a begin event now; pair with {!end_span}. The span must be
    ended on the domain that began it (Chrome matches B/E per [tid]). *)

val end_span : span -> unit

val with_span : ?args:(string * Wire.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] wraps [f ()] in a span; the end event is recorded
    even if [f] raises. *)

val instant : ?args:(string * Wire.t) list -> string -> unit
(** A zero-duration marker event. *)

val complete :
  ?args:(string * Wire.t) list ->
  ?tid:int ->
  ts_us:float ->
  dur_us:float ->
  string ->
  unit
(** A complete ('X') event: begin time and duration in one record, so
    begin and end need not happen on the same domain — the shape for
    spans that start on one domain and resolve on another (the router's
    forward span) and for externally timed intervals (GC pauses).
    [tid] defaults to the recording domain's id. *)

val retain : trace_id:string -> unit
(** Copy every event currently in the ring stamped with this trace id
    into a side list that survives ring wrap-around: {!close} re-emits
    (deduplicated, in recording order) exactly those copies the ring
    dropped. The server's [--slow-ms] trigger calls this for over-budget
    requests. *)
