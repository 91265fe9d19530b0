(** Rendezvous (highest-random-weight) hashing over a fixed shard count.

    The router keys every cacheable request on its canonical routing key
    (the request line with the envelope fields masked out — see
    {!Frame.routing_parts}) and must send equal keys to the same shard so that
    shard's [Lru]/[Stream_cache] stays hot for its slice of the keyspace.

    HRW was chosen over a fixed-size ring because eviction behaviour falls
    out for free: each (key, shard) pair gets an independent 64-bit score
    and a key routes to the live shard with the highest score. When a
    shard dies, only the keys it owned move (each to its second-choice
    shard); every other key keeps its shard, so the surviving caches stay
    warm. When the shard is re-admitted, exactly those keys return.

    The score is deterministic across runs and processes: FNV-1a over the
    key bytes, mixed with the shard index through the same SplitMix64
    finaliser ({!Rvu_obs.Splitmix.mix64}) the fault injector uses. No state,
    no dependence on word size beyond 64-bit [Int64]. *)

val score : shard:int -> parts:string list -> int64
(** The HRW score of [shard] for the key formed by [parts]. The parts are
    hashed with a separator fold so [["ab";"c"]] and [["a";"bc"]] differ. *)

val pick : live:bool array -> parts:string list -> int option
(** The live shard with the highest {!score} for this key ([None] when no
    shard is live). Ties break toward the lower index; scores compare as
    unsigned 64-bit so the distribution is uniform. *)

val order : shards:int -> parts:string list -> int array
(** All shard indices sorted by descending score — the key's failover
    preference list. [pick] is [order].(first live). Exposed for tests:
    minimal-disruption is the statement that [order] is independent of
    liveness. *)
