(** Cross-shard aggregation of [stats] and [health] payloads.

    Fan-out requests return one payload per live shard; the router merges
    them into a single cluster-wide view while keeping the per-shard
    breakdown alongside (the router builds that part — this module only
    implements the merge arithmetic). [metrics] payloads are merged by
    {!Rvu_obs.Metrics.merge}, which owns that document. *)

val sum_json : Rvu_service.Wire.t list -> Rvu_service.Wire.t
(** Structural numeric sum of homogeneous JSON documents, used for
    [stats] payloads: objects merge key-wise (field order follows first
    appearance), [Int]/[Float] leaves add ([Int] is kept when every
    summand is an [Int]), any other leaf keeps the first shard's value
    (strings like the uptime are informational, not additive). The
    reconciliation property — each aggregate equals the sum of its
    per-shard values — is pinned in [test/test_cluster.ml]. *)
