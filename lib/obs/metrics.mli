(** A process-wide, domain-safe registry of named metrics.

    Three metric kinds, Prometheus-shaped:

    - {b counters} — monotonically increasing integers (requests served,
      cache hits). Lock-free: one [Atomic.t] per counter, so recording
      from worker domains never contends.
    - {b gauges} — instantaneous floats that go both ways (queue depth,
      in-flight requests). Mutex-guarded; gauge traffic is per-request,
      not per-interval, so a lock is cheap enough.
    - {b histograms} — fixed-bucket distributions (latencies, task
      walls). Recording is O(log buckets) — a binary search plus an
      increment under the histogram's mutex — with bucket counts, total
      count and sum maintained together so exposition needs no pass over
      samples. A histogram created with [~retain_samples:true]
      additionally keeps every raw observation, enabling {e exact}
      quantiles ({!exact_quantile}) — meant for tests and for bounded
      client-side runs (the load generator), not for unbounded servers.

    {b Identity.} Metrics are identified by [(name, labels)]. The
    constructors are idempotent: asking twice for the same identity
    returns the {e same} metric, so instrumentation sites in different
    modules can share a series by name without threading handles.
    Re-registering a name with a different metric kind raises.

    {b Semantics.} All registry metrics are cumulative since process
    start. Nothing resets on read: [snapshot], [expose] and the server's
    [metrics] endpoint are pure observations, and consumers that want
    rates must take deltas themselves.

    {b Kill switch.} {!set_enabled}[ false] turns every recording
    operation into a single-branch no-op (registration and reads still
    work). It exists so the [perf-obs] bench can measure the cost of the
    instrumentation itself; production code never needs it. *)

type counter
type gauge
type histogram

(** {1 Registration} *)

val counter : ?help:string -> ?labels:(string * string) list -> string -> counter
(** [counter name] registers (or finds) the counter [(name, labels)].
    Raises [Invalid_argument] if the identity exists with another kind. *)

val gauge : ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram :
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:float array ->
  ?retain_samples:bool ->
  string ->
  histogram
(** [buckets] are upper bounds, strictly increasing, all finite; an
    implicit [+Inf] overflow bucket is always appended (default
    {!default_buckets}). Raises [Invalid_argument] on unsorted,
    non-finite or empty bounds. *)

val private_histogram :
  ?buckets:float array -> ?retain_samples:bool -> unit -> histogram
(** A histogram {e outside} the registry — same recording and quantile
    machinery, but invisible to {!snapshot}/{!expose}. For per-run
    measurement (e.g. one load-generator run) where a process-wide
    cumulative series would conflate runs. Private histograms are
    measurement state, not instrumentation, so the kill switch does not
    silence them. *)

val default_buckets : float array
(** Exponential bounds suited to seconds-scale durations:
    [1e-6 … ~100] in steps of [×2.5] (16 bounds). *)

val exponential_buckets : lo:float -> factor:float -> count:int -> float array
(** [count] bounds starting at [lo > 0], each [factor > 1] times the
    previous. Raises [Invalid_argument] on bad parameters. *)

(** {1 Recording} *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1, must be [>= 0]) — lock-free. *)

val gauge_set : gauge -> float -> unit
val gauge_add : gauge -> float -> unit
(** [gauge_add g x] adds [x] (negative to decrement). *)

val observe : histogram -> float -> unit
(** Record one sample. Samples are expected non-negative (durations,
    sizes); negative samples land in the first bucket. If the ambient
    {!Ctx} context carries a span context, a registry histogram also
    retains the observation as that bucket's exemplar under its trace id
    (latest wins). *)

(** {1 Reading} *)

val counter_value : counter -> int
val gauge_value : gauge -> float
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val quantile : histogram -> float -> float
(** [quantile h q] (with [q] in [\[0, 1\]]) estimates the [q]-quantile
    from the buckets: the bucket holding the [max 1 (ceil (q*count))]-th
    smallest sample is found by cumulating counts, and the estimate is
    linearly interpolated inside it by rank. The true sample of that rank
    lies in the same bucket, so the estimate is off by less than one
    bucket width (samples past the last finite bound clamp to it).
    [nan] on an empty histogram; raises [Invalid_argument] if [q] is
    outside [\[0, 1\]]. *)

val exact_quantile : histogram -> float -> float
(** The exact interpolated percentile (same convention as
    {!Rvu_numerics.Stats.percentile}) over the retained samples. [nan]
    on an empty histogram; raises [Invalid_argument] unless the
    histogram was created with [~retain_samples:true]. *)

val exemplars : histogram -> (float * string * float) list
(** The latest exemplar per bucket, bucket-ascending, as
    [(observed value, trace id, unix timestamp)] — empty until an
    observation lands while a context with a span context is ambient. *)

(** {1 Exposition} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      buckets : (float * int) list;
          (** (upper bound, cumulative count) per finite bound, ascending *)
      count : int;
      sum : float;
    }

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

val snapshot : unit -> sample list
(** Every registered metric, sorted by name then labels. Each metric's
    fields are read under its own lock (consistent per metric, not
    across metrics — a scrape races with recording by design). *)

val expose : unit -> string
(** Prometheus text exposition format ([# HELP]/[# TYPE] then samples;
    histograms as [_bucket{le=…}]/[_sum]/[_count] with cumulative bucket
    counts ending at [le="+Inf"]). *)

val expose_openmetrics : unit -> string
(** The same exposition in OpenMetrics flavour: bucket lines carry
    [# {trace_id="…"} value timestamp] exemplar annotations when present,
    and the output ends with the mandatory [# EOF] terminator. Series
    names and label rendering are identical to {!expose}. *)

val json : unit -> Wire.t
(** The same snapshot as a JSON document:
    [{"metrics":[{"name":…,"kind":…,"labels":{…},…}]}], printable with
    {!Wire.print} / {!Wire.print_hum}. *)

(** {1 Kill switch} *)

val set_enabled : bool -> unit
(** Default [true]. When [false], {!incr}, {!gauge_set}, {!gauge_add}
    and {!observe} return after one branch ({!private_histogram}s keep
    recording — see above). *)

val enabled : unit -> bool
