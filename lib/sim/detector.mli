(** The rendezvous detector: earliest time two realised trajectories come
    within visibility range.

    Consumes two lazy streams of timed segments (assumed contiguous in time,
    as produced by {!Rvu_trajectory.Realize.realize}), walks them in
    lockstep over their common timeline, and queries {!Approach} on each
    maximal interval during which both robots occupy a single segment.
    Memory is O(1) regardless of schedule length — Algorithm 7's
    exponentially long rounds never materialise.

    The walker resumes each stream from its last consumed node and caches
    the per-segment quantities ([t1], speed, affine form) on the node, so
    a segment spanning many intervals pays its derivation once; intervals
    that provably stay out of range ({!Approach.escapes}) skip the
    closed-form/Lipschitz solve entirely. *)

type outcome =
  | Hit of float  (** first time the robots are within range *)
  | Horizon of float
      (** no meeting before the given global time (certified at the
          detector's resolution) *)
  | Stream_end of float
      (** a finite program ran out at the given time without a meeting *)

type stats = {
  intervals : int;  (** segment-pair intervals examined *)
  min_distance : float;
      (** smallest inter-robot distance sampled at interval starts — a
          diagnostic upper bound on the true minimum (not certified; use
          {!Approach.min_distance_lower_bound} for certification) *)
}

val first_meeting :
  ?closed_forms:bool ->
  ?resolution:float ->
  ?horizon:float ->
  r:float ->
  Rvu_trajectory.Timed.t Seq.t ->
  Rvu_trajectory.Timed.t Seq.t ->
  outcome * stats
(** [first_meeting ~r s1 s2] scans until a hit, the [horizon] (default
    infinite — supply one for possibly-infeasible instances!), or stream
    exhaustion. [resolution] (default [1e-9]) is the time granularity below
    which a grazing approach may be missed; see {!Rvu_numerics.Lipschitz}.
    Requires [r > 0]. [closed_forms] (default [true]) — see
    {!Approach.first_within}; disable to ablate the exact fast path. *)

(** {1 Compiled kernel}

    The interpreted walker above derives per-segment quantities into heap
    nodes and allocates [Vec2.t]s per interval. The compiled kernel scans
    {!Rvu_trajectory.Compiled} tables instead — unboxed float-array reads,
    one preallocated scratch buffer, block-wise compilation of the lazy
    streams — and is pinned bit-identical (outcome, interval count,
    min-distance) to [first_meeting] by the QCheck suite, so the
    interpreted path stays available as the oracle. *)

type source
(** Where a robot's realised trajectory comes from: a plain lazy stream,
    or a precompiled table prefix (shared via
    {!Rvu_trajectory.Stream_cache.compiled_source}) followed by the
    stream of the remainder. *)

val source_of_seq : Rvu_trajectory.Timed.t Seq.t -> source

val source_of_table :
  Rvu_trajectory.Compiled.t -> tail:Rvu_trajectory.Timed.t Seq.t -> source
(** [source_of_table tbl ~tail]: scan [tbl]'s segments first (no
    recompilation), then continue block-compiling [tail]. [tail] must be
    the stream continuation immediately after [tbl]'s last segment. *)

val source_of_chunks : (int -> Rvu_trajectory.Compiled.t) -> source
(** [source_of_chunks pull]: scan successive table chunks produced by
    [pull max_segments] — an empty table ends the stream. The scan asks
    for doubling sizes: 64 on the first pull (about round 1's 51
    segments), then 128, 256, ... up to 16384, and 16384 on every pull
    after that, so a run that meets early derives little while a deep
    run pays the per-pull overhead only once per 16384 segments. (Stream
    and table sources compile their continuation in fixed 512-segment
    blocks.) Built for
    {!Rvu_trajectory.Compiled.next_chunk}, whose chunks are only valid
    until the next pull: the scan honours that by discarding each chunk
    before pulling the next. *)

val seq_of_source : source -> Rvu_trajectory.Timed.t Seq.t
(** The segments of a source as one stream — how the interpreted oracle
    consumes a source built for the compiled kernel. Raises
    [Invalid_argument] on a chunked source (its chunks alias reused
    storage, so no persistent stream view exists). *)

val table_of_source :
  source ->
  (Rvu_trajectory.Compiled.t * Rvu_trajectory.Timed.t Seq.t) option
(** The table and tail behind a {!source_of_table} source, [None] for a
    plain stream. Lets the engine derive the displaced robot's table from
    a shared reference table ({!Rvu_trajectory.Compiled.derive}) instead
    of re-realising its stream. *)

val first_meeting_sources :
  ?closed_forms:bool ->
  ?resolution:float ->
  ?horizon:float ->
  r:float ->
  source ->
  source ->
  outcome * stats
(** Exactly {!first_meeting}, over compiled tables: the same outcome,
    [intervals] and [min_distance], bit for bit. Requires [r > 0].

    Where either side is an arc (every interval with [closed_forms]
    off), a broad phase first bounds the robots' distance over the
    whole interval from below by the gap between two annuli: an arc's
    circle, a line's disc on its chord, a wait's point. Past
    max([r], running minimum) plus a relative margin (1e-9 of the
    coordinates, radii and [r] involved, far above any rounding) the
    interval is settled without evaluating a position; past [r] plus the
    margin the Lipschitz solve is skipped. Neither can change a result:
    every interval is still counted, and a settled one could neither
    hit nor lower [min_distance]. The intervals settled unevaluated are
    counted once per run in [rvu_engine_pruned_intervals_total]. *)

val fold_intervals :
  ?horizon:float ->
  Rvu_trajectory.Timed.t Seq.t ->
  Rvu_trajectory.Timed.t Seq.t ->
  init:'a ->
  f:
    ('a ->
    lo:float ->
    hi:float ->
    Rvu_trajectory.Timed.t ->
    Rvu_trajectory.Timed.t ->
    'a) ->
  'a
(** Fold over the same merged timeline the detector scans — one call per
    maximal interval on which both robots occupy a single segment. Used to
    build certificates (e.g. minimum-separation lower bounds) with the exact
    same interval decomposition as detection. *)
