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
      samples. Raw observations are not kept: a caller that needs exact
      quantiles keeps its own samples (the load generator reduces its
      latency array with [Rvu_numerics.Stats.percentile]).

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
  string ->
  histogram
(** [buckets] are upper bounds, strictly increasing, all finite; an
    implicit [+Inf] overflow bucket is always appended (default
    {!default_buckets}). Raises [Invalid_argument] on unsorted,
    non-finite or empty bounds. *)

val private_histogram : ?buckets:float array -> unit -> histogram
(** A histogram {e outside} the registry — same recording and quantile
    machinery, but invisible to {!snapshot}/{!expose}. For per-run
    measurement where a process-wide cumulative series would conflate
    runs. Private histograms are
    measurement state, not instrumentation, so the kill switch does not
    silence them. *)

val default_buckets : float array
(** Exponential bounds suited to seconds-scale durations:
    [1e-6 … ~100] in steps of [×2.5] (16 bounds). *)

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

val quantile : histogram -> float -> float
(** [quantile h q] (with [q] in [\[0, 1\]]) estimates the [q]-quantile
    from the buckets: the bucket holding the [max 1 (ceil (q*count))]-th
    smallest sample is found by cumulating counts, and the estimate is
    linearly interpolated inside it by rank. The true sample of that rank
    lies in the same bucket, so the estimate is off by less than one
    bucket width (samples past the last finite bound clamp to it).
    [nan] on an empty histogram; raises [Invalid_argument] if [q] is
    outside [\[0, 1\]]. *)

val exemplars : histogram -> (float * string * float) list
(** The latest exemplar per bucket, bucket-ascending, as
    [(observed value, trace id, unix timestamp)] — empty until an
    observation lands while a context with a span context is ambient. *)

(** {1 Exposition}

    This module is the one owner of the metrics document. A {!sample}
    list is what {!snapshot} reads from the registry, what {!of_json}
    reads back from another process's [metrics] answer and what {!merge}
    sums across processes; {!to_json} and {!to_prometheus} are its only
    printers. *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      buckets : (float * int) list;
          (** (upper bound, cumulative count) per finite bound, ascending *)
      count : int;
      sum : float;
      exemplars : (float * string * float) option list;
          (** per bucket, the finite bounds then [+Inf], the latest
              exemplar as in {!exemplars}; [[]] when none was recorded *)
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

val merge : sample list list -> sample list
(** The cluster-wide view of several processes' samples, keyed on
    [(name, labels)]: counters add as integers, gauges add, histograms
    add bucket-wise on the union of their bound grids (the cumulative
    count at every bound is the sum of the inputs' step functions there)
    and their [count]/[sum] add. The first [help] wins, and a sample
    whose kind clashes with the first of its identity is dropped.
    Exemplars are per process and do not merge: merged histograms carry
    none. Sorted as {!snapshot} sorts. *)

val to_json : sample list -> Wire.t
(** The JSON document
    [{"metrics":[{"name":…,"kind":…,"labels":{…},"help":…,"value":…}]}]
    ([help] omitted when empty); a histogram has
    [buckets] ([{"le":…,"cumulative":…}] per finite bound), [count] and
    [sum] in place of [value]. Exemplars are not rendered. *)

val of_json : Wire.t -> sample list
(** The inverse of {!to_json}, exemplars aside. Never raises: a sample it
    cannot read (not an object, no string [name], an unknown [kind], a
    counter without an integer [value], a gauge without a finite one) is
    dropped, labels keep their string values only, a histogram keeps the
    buckets whose finite bounds ascend, and its missing [count]/[sum]
    read as 0. *)

val to_prometheus : ?openmetrics:bool -> sample list -> string
(** Prometheus text exposition format ([# HELP]/[# TYPE] once per name,
    then samples; histograms as [_bucket{le=…}]/[_sum]/[_count] with
    cumulative bucket counts ending at [le="+Inf"]). With
    [~openmetrics:true] (default [false]) bucket lines carry
    [# {trace_id="…"} value timestamp] exemplar annotations when present,
    and the text ends with the mandatory [# EOF] terminator. *)

val expose : unit -> string
(** [to_prometheus (snapshot ())]. *)

val expose_openmetrics : unit -> string
(** [to_prometheus ~openmetrics:true (snapshot ())]. No request serves
    it: exemplars are rendered in-process only. *)

val json : unit -> Wire.t
(** [to_json (snapshot ())], printable with {!Wire.print} /
    {!Wire.print_hum}. *)

(** {1 Kill switch} *)

val set_enabled : bool -> unit
(** Default [true]. When [false], {!incr}, {!gauge_set}, {!gauge_add}
    and {!observe} return after one branch ({!private_histogram}s keep
    recording — see above). *)
