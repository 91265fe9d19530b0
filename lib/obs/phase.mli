(** Per-phase latency attribution: the [rvu_phase_seconds{phase=…}]
    histogram family.

    A served request decomposes into phases, each observed where it is
    measured, all under one metric name so a dashboard stacks them:

    - [queue] — submission to worker pickup (scheduler queue wait)
    - [cache] — a warm hit answered from the LRU or frame cache
    - [realize] — trajectory realization inside the engine
    - [detect] — rendezvous detection inside the engine
    - [encode] — response rendering on the worker

    Phases are attribution, not a partition: [detect] contains
    [realize] — summing phases does not reproduce end-to-end latency.
    The router's hop is timed by its own [rvu_router_request_seconds].
    Handles are memoized per label, so an observation site costs a hash
    lookup, not a registry registration. Observations attach exemplars like any other
    registry histogram (see {!Metrics.observe}). *)

val seconds : string -> Metrics.histogram
(** The [rvu_phase_seconds{phase=…}] histogram for this phase label. *)

val observe : string -> float -> unit
(** [observe phase dt] records [dt] seconds against [phase]. *)

val time : string -> (unit -> 'a) -> 'a
(** [time phase f] runs [f] and observes its wall time (recorded even if
    [f] raises). *)
