(** Shared, realized-prefix caches for timed-trajectory streams.

    {!Realize.realize} is lazy and pure: every consumer that walks a
    program's stream re-realizes each segment (frame mapping, compensated
    timestamp accumulation) from scratch. When a whole batch of simulations
    shares one side of the instance — the reference robot runs the same
    program in the same frame in every cell of a sweep — that work is
    identical across the batch. A [Stream_cache.t] realizes the stream once
    into a growable prefix buffer and lets any number of consumers (on any
    number of domains) replay it.

    Invariants:

    - The cached stream is {e bit-identical} to
      [Realize.realize clocked program]: segments come from the same
      realization pass, so every [t0], [dur] and mapped shape carries the
      exact same floats. Parallel batch results therefore match sequential
      ones exactly.
    - The prefix buffer is bounded by [max_segments]. Consumers that walk
      past the cap continue seamlessly on the {e uncached} lazy remainder
      (pure re-realization, exactly as without a cache), so deep walks keep
      the simulator's O(1)-memory property instead of pinning millions of
      segments.
    - All cache access is domain-safe: the buffer only grows, under an
      internal mutex; segments themselves are immutable. *)

type t

val create : ?clocked:Realize.clocked -> ?max_segments:int -> Program.t -> t
(** [create ?clocked ?max_segments program] caches the realization of
    [program] under [clocked] (default {!Realize.identity}, the reference
    robot). At most [max_segments] (default [524288]) segments are retained;
    the program is consumed lazily, so creation itself is cheap. *)

val stream : t -> Timed.t Seq.t
(** The realized stream, replayed from the cache. Safe to share across
    domains; every call (and every traversal) starts from the beginning. *)

val stream_from : t -> int -> Timed.t Seq.t
(** [stream_from t i] replays the cached stream starting at segment index
    [i] (empty if the stream has fewer than [i + 1] segments). [stream t]
    is [stream_from t 0]. Raises [Invalid_argument] on a negative index. *)

val compiled_source : t -> Compiled.t * Timed.t Seq.t
(** The realized prefix as a {!Compiled} table, plus the stream of
    everything after it. The prefix is first realized to at least 16384
    segments (fewer if the stream ends or the cap is lower), so the
    shallow rounds a shared reference serves are realized and compiled
    once rather than step by step as deeper consumers arrive. The
    compilation is memoized and only redone when the prefix has grown
    since the last call, so a batch that shares this cache realizes once
    and compiles once — later callers (including neighbouring sweep
    cells resolving the same registry key) get the same table for free. Segments are identical to [stream t]'s, in the
    same order: [table-prefix ++ tail] {e is} the reference stream, so
    compiled and interpreted consumers stay bit-identical. *)

val realized : t -> int
(** Number of segments realized into the prefix buffer so far. *)

val max_segments : t -> int
(** The retention cap this cache was created with. *)

type stats = { hits : int; misses : int; evictions : int }
(** Block-read counters, for cache-effectiveness observability (the service
    layer's [stats] endpoint reports them). Each increment is also mirrored
    into the process-wide metrics registry ({!Rvu_obs.Metrics}) as
    [rvu_stream_cache_{hits,misses,evictions}_total], aggregated over every
    cache instance and cumulative since process start.

    - [hits] — block reads served entirely from already-realized slots;
    - [misses] — block reads that had to realize the stream forward;
    - [evictions] — block reads past [max_segments], served from the
      uncached lazy tail. The prefix cache never removes realized segments,
      so this counts the reads whose segments it {e declined to retain} —
      a persistently growing value means the cap is too small for the
      workload's walk depth. *)

val stats : t -> stats
(** A consistent snapshot of the counters (taken under the cache lock). *)

val find_or_create :
  key:string ->
  ?clocked:Realize.clocked ->
  ?max_segments:int ->
  (unit -> Program.t) ->
  t
(** Global keyed registry, for program families whose construction sites
    cannot share a handle (e.g. "the universal Algorithm 7 program"). The
    thunk is forced only on the first use of [key]. The registry itself is
    domain-safe. Callers are responsible for key hygiene: a key must
    identify the program {e and} the frame. *)

val find_opt : key:string -> t option
(** Look a key up without creating it — observability code (e.g. a stats
    endpoint) must not instantiate caches as a side effect. *)

val drop : key:string -> unit
(** Remove a key from the global registry (existing handles stay valid). *)
