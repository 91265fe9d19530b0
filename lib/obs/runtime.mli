(** Runtime telemetry: GC and domain statistics as metrics and JSON.

    Each sample folds [Gc.quick_stat] into the process-global {!Metrics}
    registry — counters [rvu_gc_minor_collections_total],
    [rvu_gc_major_collections_total], [rvu_gc_compactions_total]
    (incremented by delta against the previous sample, so they stay
    cumulative-since-process-start like every registry counter) and
    gauges [rvu_gc_heap_words] / [rvu_gc_top_heap_words]. {!start} runs a
    sampler on its own domain at a configurable interval and logs a
    {!Log.warn} when the major-collection pace crosses a threshold;
    {!json} serves the same numbers as the [runtime] section of the
    server's [stats] response. *)

val json : unit -> Wire.t
(** A fresh sample, safe from any domain (the delta state is
    mutex-guarded), as
    [{"minor_collections":…,"major_collections":…,"compactions":…,
      "heap_words":…,"top_heap_words":…,"minor_words":…,
      "recommended_domains":…,"uptime_s":…}].
    [uptime_s] counts from the first use of this module in the
    process. *)

val start : ?interval_s:float -> ?major_pace_warn:float -> unit -> unit
(** Spawn the sampler domain: every [interval_s] seconds (default [5.])
    take a sample and emit a [warn] record when major collections per
    second since the previous tick exceed [major_pace_warn] (default
    [10.]). No-op if a sampler is already running. Raises
    [Invalid_argument] on a non-positive interval.

    While {!Trace.enabled}, the sampler additionally consumes this
    process's OCaml [Runtime_events] stream (polled every 50 ms) and
    records each minor/major GC pause as a complete trace event
    ([gc.minor] / [gc.major]) on a dedicated lane ([tid] = 9000 + the
    runtime ring id), giving merged timelines a GC lane per process.
    With tracing off, the runtime-events machinery is never started. *)

val stop : unit -> unit
(** Stop and join the sampler domain (worst-case ~50 ms latency). No-op
    when not running. *)

val running : unit -> bool
