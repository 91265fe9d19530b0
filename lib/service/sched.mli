(** The request scheduler: cache in front, admission control at the door,
    persistent domain workers behind.

    Request path, in order:

    + {b Cache} — the canonical key ({!Proto.canonical_key}) is looked up
      in the {!Lru}; a hit completes synchronously on the calling domain
      without consuming a queue slot (cached repeats must stay fast even
      when the queue is full).
    + {b Admission} — an atomic in-flight counter bounds the pending
      queue. At [queue_depth] the request is shed immediately with an
      [overloaded] error instead of queueing unboundedly: under sustained
      overload the server degrades to fast rejections, never to unbounded
      memory growth or a hang.
    + {b Execution} — admitted requests run on
      {!Rvu_exec.Pool.Persistent} workers. A request whose queue wait
      exceeded its timeout budget is answered [timeout] without running
      (the work would be wasted — its client has given up). Successful
      results are inserted into the cache; errors are not.

    {b Counter semantics.} Every decision on this path increments a
    process-wide metric in {!Rvu_obs.Metrics} —
    [rvu_sched_{admitted,shed,timeout}_total], and the queue wait (admission
    to worker pickup) lands in [rvu_phase_seconds{phase="queue"}]. These
    are {e cumulative since
    process start} and aggregated over every scheduler instance; they never
    reset, so rates must be computed by differencing successive snapshots.
    [cache_stats] is the per-instance view of the same activity. *)

type t

val create :
  ?jobs:int ->
  ?queue_depth:int ->
  ?cache_entries:int ->
  ?timeout_ms:float ->
  unit ->
  t
(** [jobs] worker domains (default {!Rvu_exec.Pool.recommended_jobs}),
    [queue_depth] pending-request bound (default [64]),
    [cache_entries] LRU capacity (default [256]; [0] disables caching),
    [timeout_ms] default queue-wait budget (default: none — requests may
    override per-request either way). Raises [Invalid_argument] on
    [queue_depth < 1] or negative [cache_entries]. *)

type outcome = (Payload.t, Proto.error_code * string) result
(** Successful outcomes carry the cached {!Payload} so each transport
    renders (or splices) its own codec's bytes from the memoized forms
    instead of re-printing the tree per response. *)

val submit :
  ?on_hit:(string -> unit) -> t -> Proto.envelope -> k:(outcome -> unit) -> unit
(** Run the request and deliver the outcome to [k] exactly once — on the
    calling domain for cache hits and shed requests, on a worker domain
    otherwise. [k] must not raise (a raise from a worker task is swallowed
    by the pool; the caller would wait forever). Either way [k] runs under
    the caller's ambient {!Rvu_obs.Ctx} context: the worker pool carries
    it across the domain hop. Shed and timed-out requests are logged at
    [warn] level. {!Proto.Stats} requests must not be submitted here — the
    server answers them directly.

    [on_hit] is called with the request's canonical key, on the calling
    domain just before [k], when the result cache answered — the server
    files its frame-cache entries from it. *)

val cached : t -> string -> Payload.t option
(** The result-cache entry under a canonical key, counted (in
    {!cache_stats} and the result-cache metrics) as a hit when found; a
    miss is left uncounted for the {!submit} that follows it. *)

val cache_stats : t -> Lru.stats
val jobs : t -> int
val queue_depth : t -> int

val in_flight : t -> int
(** Requests admitted and not yet completed — the health probe's queue
    saturation signal. Racy by nature; a point-in-time read. *)

val stop : t -> unit
(** Drain the worker pool: queued requests still complete, then the worker
    domains are joined. *)
