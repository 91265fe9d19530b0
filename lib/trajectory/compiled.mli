(** Compiled trajectory tables: a realised segment stream flattened into
    struct-of-arrays form for the detector hot loop.

    The interpreted pipeline ([Realize.realize] → [Detector.first_meeting])
    allocates a [Timed.t], a cached node and several [Vec2.t] records per
    merged-timeline interval; at millions of intervals per run the minor
    heap becomes the throughput ceiling (BENCH_1/BENCH_2). A compiled table
    stores the same per-segment quantities — start/end times, speeds, the
    affine form of waits and lines, raw geometry for arcs — in flat float
    arrays, so the kernel reads unboxed floats and writes positions into a
    caller-provided scratch buffer without touching the heap.

    Every derived quantity is computed with exactly the float expressions
    (and evaluation order) of the interpreted path, so compiled execution
    is bit-identical to interpreted execution — the QCheck suite pins
    outcomes, interval counts and min-distances across both.

    Infinite programs (Algorithm 7 never ends) cannot be materialised, so
    {!of_seq} compiles a bounded prefix and returns the untouched remainder
    of the stream; the detector re-compiles block by block. *)

(** The table. The record is [private]: fields are readable (the detector
    kernel indexes them directly) but only the compilers below construct
    them. Arrays must never be mutated by consumers.

    Geometry layout, by [kind]:
    - wait ([kind_wait]): [g0], [g1] = position;
    - line ([kind_line]): [g0], [g1] = source, [g2], [g3] = destination;
    - arc ([kind_arc]): [g0], [g1] = center, [g2] = radius, [g3] = start
      angle, [g4] = sweep.

    [abx]/[aby]/[asx]/[asy] hold the affine form [p(t) = base + slope·t]
    for waits and lines (exactly [Approach.affine_of]); arcs leave zeros
    and are guarded by [kind]. *)
type t = private {
  n : int;  (** Segment count. *)
  start : float;  (** Global time the table begins at ([stop] if empty). *)
  stop : float;  (** Global time the table covers up to. *)
  t0 : float array;  (** Per-segment start times. *)
  dur : float array;  (** Per-segment global durations. *)
  t_end : float array;
      (** Per-segment end times, [t0.(i) +. dur.(i)] — the prefix-summed
          timeline the binary search runs over; nondecreasing for any
          stream produced by [Realize]. *)
  speed : float array;  (** Per-segment global speeds ([Timed.speed]). *)
  kind : int array;  (** {!kind_wait} / {!kind_line} / {!kind_arc}. *)
  local_dur : float array;  (** [Segment.duration] of the shape. *)
  g0 : float array;
  g1 : float array;
  g2 : float array;
  g3 : float array;
  g4 : float array;
  abx : float array;
  aby : float array;
  asx : float array;
  asy : float array;
  segs : Timed.t array Lazy.t;
      (** The segments in [Timed.t] form, for interval folds and oracle
          paths. Tables built by {!of_timed}/{!of_seq} carry their source
          array pre-forced; tables built by {!derive} rebuild it from the
          flat columns on first force (the columns are exactly the mapped
          shape fields, so the rebuild is bit-exact). Force only from the
          table's owning domain — shared reference tables are always
          pre-forced. *)
}

val kind_wait : int
val kind_line : int
val kind_arc : int

val empty : t
(** The empty table ([n = 0], covering nothing, [start = stop = 0.]). *)

val of_timed : Timed.t array -> t
(** Compile an explicit segment array (the array is copied). *)

val of_seq : ?max_segments:int -> Timed.t Seq.t -> t * Timed.t Seq.t
(** [of_seq ?max_segments s] compiles up to [max_segments] segments
    (default: unbounded — only safe on finite streams) and returns the
    table together with the un-consumed remainder of [s]. Raises
    [Invalid_argument] if [max_segments < 0]. *)

val of_program : ?clocked:Realize.clocked -> Program.t -> t
(** Realise (with [Realize.identity] by default) and compile a {e finite}
    program. Diverges on infinite programs — use {!of_seq} on
    [Realize.realize] output for those. *)

type arena
(** Reusable column storage for {!derive}. Allocating fresh megabyte-scale
    float arrays per derive costs more (mmap, kernel page-zeroing, unmap at
    collection) than the entire float pass; an arena amortises that to
    zero in the steady state. Grown geometrically, never shrunk. Not
    thread-safe: one arena per owner (the engine keeps one per domain). *)

val arena : unit -> arena
(** A fresh, empty arena. *)

val derive :
  ?arena:arena -> Realize.clocked -> t -> tail:Timed.t Seq.t -> t * Timed.t Seq.t
(** [derive c tbl ~tail] re-realises, under the clocked frame [c], the
    program whose {e identity-clocked} realisation is [tbl] followed by
    [tail] — without walking a stream for the [tbl] prefix: one flat array
    pass replays [Realize.realize]'s duration scaling, zero-duration drop
    and compensated timestamps, [Segment.map]'s conformal mapping, and
    the table compilation, expression for expression. The result is the
    table [of_seq (Realize.realize c p)] would produce (equal up to the
    sign of floating-point zeros, which no downstream comparison
    distinguishes), at a fraction of the cost — this is what lets every
    batch task reuse the one shared reference table instead of
    re-realising its displaced robot from scratch.

    Requires [tbl] to be an identity-clocked realisation starting at time
    [0.] (as produced by {!Stream_cache.compiled_source} on the reference
    stream); [tail] must be the stream continuation immediately after
    [tbl]'s last segment. The returned lazy tail continues the derived
    stream past the table, resuming the timestamp accumulator exactly.

    Raises the same [Invalid_argument] as [Timed.make] if re-clocking
    overflows a duration or a timestamp to infinity — eagerly for
    segments inside the table (the stream pipeline would raise at the
    point the lazy walk reached them).

    With [?arena], the returned table's columns alias the arena's storage:
    the table (and anything forced from its [segs]) is valid only until
    the next [derive] against the same arena. Every column of every row
    is written, so what an earlier derive left in the arena never shows
    through. Omit [arena] for a table with independent storage. *)

type deriver
(** A streaming {!derive}: hands out the derived realisation in
    successive chunk tables, carrying the compensated timestamp
    accumulator across calls, so the concatenated chunks are bit-for-bit
    the single-pass table — but derivation cost tracks the chunk sizes
    the consumer asks for. Meeting depths across a batch are wildly
    skewed; the detector asks for doubling sizes (64, 128, ..., 16384)
    and stops pulling at the meeting, so a run that meets at segment [k]
    derives fewer than [2k + 64] segments rather than the whole
    reference prefix. *)

val deriver :
  ?arena:arena -> Realize.clocked -> t -> tail:Timed.t Seq.t -> deriver
(** [deriver c tbl ~tail] prepares a streaming derivation with the same
    preconditions as {!derive} ([tbl] identity-clocked, starting at
    [0.]). Construction is O(1) — no pass happens until {!next_chunk}.
    With [?arena] the chunks alias the arena's storage (see below); a
    fresh internal arena is used otherwise. *)

val next_chunk : deriver -> max_segments:int -> t
(** [next_chunk d ~max_segments] derives and returns the next chunk of
    at most [max_segments] segments; an empty table means the derived
    stream is exhausted. Past the reference table it falls back to
    compiling blocks of the replayed stream continuation (the same
    segments {!derive}'s returned tail would produce). Raises
    [Invalid_argument] if [max_segments <= 0], or as [Timed.make] if
    re-clocking overflows.

    Each chunk aliases the deriver's arena: it is valid only until the
    next [next_chunk] call — the detector's sequential scan discards a
    block before pulling the next, which is exactly this contract. *)

val length : t -> int

val index_at : t -> float -> int
(** [index_at tbl t] is the index of the segment active at global time
    [t]: the least [i] with [t < t_end.(i)], clamped to [0] from below and
    [n - 1] from above (times past the end land on the last segment, whose
    evaluation clamps — same convention as [Timed.position]). O(log n)
    binary search over [t_end]. Raises [Invalid_argument] on an empty
    table. *)

val position_at : t -> float -> Rvu_geom.Vec2.t
(** [position_at tbl t] evaluates the trajectory at global time [t] via
    {!index_at} — O(log n), against the interpreted walk's O(n). Raises
    [Invalid_argument] on an empty table. *)

type cursor
(** A sequential scan position: amortised O(1) per {!seek} for
    nondecreasing query times (the detector's access pattern), falling
    back to the binary search when time jumps backwards. *)

val cursor : t -> cursor
(** Raises [Invalid_argument] on an empty table. *)

val seek : cursor -> float -> int
(** [seek cur t] is [index_at tbl t], advancing the cursor. *)

val position : cursor -> float -> Rvu_geom.Vec2.t
(** [position cur t] is [position_at tbl t] through the cursor. *)

val eval_into : t -> int -> float -> float array -> int -> unit
(** [eval_into tbl i t buf k] writes the position of segment [i] at global
    time [t] into [buf.(k)], [buf.(k + 1)] — no allocation ([buf] is a
    flat float array). Bit-identical to [Timed.position tbl.segs.(i) t];
    this is the kernel primitive behind the compiled detector's arc
    distance evaluations. *)

val to_seq : t -> Timed.t Seq.t
(** The table's segments as a stream (for oracles and interval folds). *)
