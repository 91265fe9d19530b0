(** The client-side load generator behind [rvu loadgen].

    Replays a deterministic scenario mix against a server — over TCP, or
    in-process through {!Server.handle_line} — at a target request rate,
    matches pipelined responses back to requests by ["id"], and reports
    throughput and latency percentiles. The mix interleaves repeated
    scenarios (which exercise the result cache) with unique ones (which
    exercise the simulation path), covering every request kind.

    Transport-agnostic by design: the caller owns the socket or server
    handle and wires [send] / {!note_response}; the generator owns pacing,
    matching and measurement. *)

type t

val create :
  ?seed:int ->
  ?lines:string array ->
  ?slow_ms:float ->
  ?zipf:float ->
  requests:int ->
  unit ->
  t
(** A generator for [requests] requests. The default mix is derived
    deterministically from [seed] (default [0]) and cycles twelve
    templates covering every request kind and every registered model;
    [lines] overrides it with caller-built request lines (e.g. the
    [perf-serve] bench's fixed workload), which must carry ids [1 … n]
    matching their positions. [zipf] replaces the uniform cycle with a
    Zipf-skewed draw over a fixed 64-member scenario population: rank [k]
    (1-based) is sent with probability proportional to [1/k^s], so higher
    exponents concentrate traffic on fewer distinct requests — the
    cache-friendliness dial. The draw is a pure function of [seed];
    pacing, id assignment and matching are unchanged. [slow_ms] logs a
    {!Rvu_obs.Log.warn} ["slow request"] record — under the request's
    ["req-<id>"] correlation id — for every response slower than that
    target (e.g. a p99 objective), so slow outliers can be joined against
    the server's logs and traces. Raises [Invalid_argument] if
    [requests < 1], [lines] has the wrong length or is combined with
    [zipf], or [slow_ms]/[zipf] is not positive and finite. *)

val drive : ?rate:float -> send:(string -> unit) -> t -> unit
(** Send every request line through [send], pacing to [rate] requests per
    second ([0.], the default, means as fast as [send] accepts — useful to
    probe the overload behaviour). Send timestamps are recorded just
    before each [send], so latency includes queueing. Sends, arrivals,
    pacing and {!wait}'s deadline all read the monotonic
    {!Rvu_obs.Clock}. *)

val note_response : t -> string -> unit
(** Feed one response line back (from the socket-reader loop or the
    in-process [respond] callback). Domain-safe; unmatched or duplicate
    ids are counted as protocol errors. *)

val wait : ?timeout_s:float -> t -> bool
(** Block until every request has a response ([true]) or the timeout
    (default [120.]) elapses ([false] — some responses never arrived).
    It returns as soon as the last response is noted, with no polling
    period. *)

type summary = {
  requests : int;
  completed : int;
  ok : int;
  overloaded : int;
  timeouts : int;
  other_errors : int;
  wall_s : float;  (** first send to last response *)
  throughput_rps : float;  (** completed / wall *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_ms : float;
  max_ms : float;
}

val summary : t -> summary
(** Latency statistics cover completed requests; an incomplete run (see
    {!wait}) still summarizes what arrived. Percentiles are exact:
    {!Rvu_numerics.Stats.percentile} over the completed latencies, in
    milliseconds; [nan] when nothing completed. *)

val summary_json : summary -> Wire.t
val print_summary : summary -> unit
(** Human-readable report on stdout. *)
