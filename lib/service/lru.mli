(** A mutex-guarded LRU map from canonical request keys to results.

    The service's query space is the full attribute vector
    [(v, τ, φ, χ, d, r)] — effectively infinite — but real request streams
    repeat: the same scenario probed at different rates, dashboards
    refreshing the same instances. Every response the scheduler computes
    is stored here under the request's canonical printed form
    ({!Proto.canonical_key}); repeats are answered without touching the
    simulation layer (or even the worker pool).

    Domain-safe: all operations take an internal lock. Recency is LRU over
    both reads and writes. Counters make effectiveness observable through
    the [stats] endpoint, and every increment of a {!create}d instance is
    mirrored into the process-wide metrics registry ({!Rvu_obs.Metrics})
    as [rvu_result_cache_{hits,misses,evictions}_total] — aggregated over
    those instances, cumulative since process start. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] is the maximum number of retained entries; [0] disables the
    cache (every [find] misses, [add] is a no-op). Raises
    [Invalid_argument] on a negative capacity. *)

val create_private : capacity:int -> 'a t
(** {!create} for a cache that is not the result cache (the server's
    frame cache): its counters stay in its own {!stats} and never reach
    the process-wide result-cache metrics. *)

val find : 'a t -> string -> 'a option
(** Lookup; refreshes the entry's recency and counts a hit or miss. *)

val find_hit : 'a t -> string -> 'a option
(** {!find} that counts only a hit. For a lookup whose miss is followed
    by the caller's own {!find} of the same key, which counts it once. *)

val length : 'a t -> int
(** Current number of entries. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or overwrite, evicting the least-recently-used entry when the
    capacity is exceeded. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** current size *)
  capacity : int;
}

val stats : 'a t -> stats
