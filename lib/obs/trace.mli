(** Monotonic-clock tracing spans in Chrome [trace_event] format.

    When enabled, instrumentation sites record complete (['X']) events —
    begin time and duration in one record, timestamps in microseconds
    from {!Clock.now_us}, [tid] = the recording domain's id — into a
    bounded in-memory ring buffer; {!close} writes the retained events to
    the file as one JSON array, one event per line — loadable directly in
    [chrome://tracing] or [ui.perfetto.dev], which nest a span under the
    one that encloses it on the same [tid].

    When disabled (the default), {!complete} returns after a single
    branch — tracing that is off costs one predictable branch per site,
    no allocation. Sites that read a clock only for their span check
    {!enabled} first.

    The ring keeps the {e last} [capacity] events: a long-running server
    retains the most recent window, which is the one a debugger wants.
    Dropped-event counts are reported in the file's metadata event and
    mirrored into the [rvu_trace_dropped_total] counter; {!retain}
    exempts a slow request's events from the drop.

    {b Request context.} An event keeps the {!Ctx} context that was
    ambient when it was recorded, and becomes JSON only when {!close}
    writes it: its own args, then the context's correlation id
    (["ctx"]) and, when the context carries a span context, its
    [trace_id]/[span_id]/[parent_id] — which is what [rvu trace-merge]
    joins on. *)

val enabled : unit -> bool

val enable : ?capacity:int -> path:string -> unit -> unit
(** Start tracing into [path] (truncating it). The file is opened
    immediately, so an unwritable path fails here ([Sys_error]) rather
    than at the end of the run. [capacity] bounds the ring (default
    [65536] events). Raises [Invalid_argument] if tracing is already
    enabled or [capacity < 1]. A [close] is registered with [at_exit] as
    a backstop. *)

val close : unit -> unit
(** Write the retained events and close the file. No-op when disabled
    (safe to call unconditionally, and idempotent). *)

val complete :
  ?args:(string * Wire.t) list ->
  ?tid:int ->
  ts_us:float ->
  dur_us:float ->
  string ->
  unit
(** Record a span that began at [ts_us] and lasted [dur_us]
    microseconds. Begin and end need not happen on the same domain — the
    router's forward span starts on one domain and resolves on another,
    and GC pauses are timed outside the program. [tid] defaults to the
    recording domain's id. *)

val retain : trace_id:string -> unit
(** Copy every event currently in the ring recorded under this trace id
    into a side list that survives ring wrap-around: {!close} re-emits
    (deduplicated, in recording order) exactly those copies the ring
    dropped. The server's [--slow-ms] trigger calls this for over-budget
    requests. *)
