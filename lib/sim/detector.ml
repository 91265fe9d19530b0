open Rvu_trajectory

type outcome = Hit of float | Horizon of float | Stream_end of float

type stats = { intervals : int; min_distance : float }

(* A pulled stream node, with the per-segment quantities the inner loop
   needs computed once when the node is first consumed. A segment can span
   many merged-timeline intervals (a long inactive-phase wait pairs against
   thousands of the other robot's segments), so deriving end time, speed
   and the affine form per interval — as a naive walker would — repeats
   work proportional to the interval count, not the segment count.

   The fields are mutable because each side of a walk owns exactly one
   node for its whole lifetime (an arena of size one): [pull] refills it
   in place instead of allocating a record per consumed segment. This is
   safe because the walker never holds two generations of the same side
   at once — [f] has returned before the next [pull] overwrites the
   node — and it keeps a long scan's minor-heap traffic down to the
   per-segment [affine] payloads the maths genuinely needs. *)
type node = {
  mutable seg : Timed.t;
  mutable t_end : float;
  mutable speed : float;
  mutable affine : Approach.affine option;
}

type cursor = End | Node of node * Timed.t Seq.t

(* Resume the stream from the last consumed position: skip segments that
   ended at or before [t] (zero-duration stragglers), then cache the new
   head's derived quantities in the side's arena node. *)
let rec pull arena (s : Timed.t Seq.t) t =
  match s () with
  | Seq.Nil -> End
  | Seq.Cons (seg, rest) ->
      if Timed.t1 seg <= t then pull arena rest t
      else begin
        arena.seg <- seg;
        arena.t_end <- Timed.t1 seg;
        arena.speed <- Timed.speed seg;
        arena.affine <- Approach.affine_of seg;
        Node (arena, rest)
      end

(* Shared merged-timeline walker. Calls [f ~lo ~hi a b] on each maximal
   interval where both robots occupy a single segment; [f] may short-circuit
   by returning [Some _]. [finish] receives how the walk ended. *)
let walk ~horizon s1 s2 ~f ~finish =
  let dummy_seg =
    Timed.make ~t0:0.0 ~dur:0.0
      ~shape:(Segment.wait ~at:Rvu_geom.Vec2.zero ~dur:0.0)
  in
  let arena () =
    { seg = dummy_seg; t_end = 0.0; speed = 0.0; affine = None }
  in
  let arena1 = arena () and arena2 = arena () in
  let rec scan now c1 c2 =
    match (c1, c2) with
    | End, _ | _, End -> finish (Stream_end now)
    | Node (a, rest1), Node (b, rest2) ->
        if now >= horizon then finish (Horizon horizon)
        else begin
          let lo = Float.max now (Float.max a.seg.Timed.t0 b.seg.Timed.t0) in
          let hi = Float.min horizon (Float.min a.t_end b.t_end) in
          if lo >= horizon then finish (Horizon horizon)
          else if lo >= hi then
            if a.t_end <= b.t_end then scan now (pull arena1 rest1 now) c2
            else scan now c1 (pull arena2 rest2 now)
          else begin
            match f ~lo ~hi a b with
            | Some result -> result
            | None ->
                if hi >= horizon then finish (Horizon horizon)
                else if a.t_end <= b.t_end then scan hi (pull arena1 rest1 hi) c2
                else scan hi c1 (pull arena2 rest2 hi)
          end
        end
  in
  scan 0.0 (pull arena1 s1 Float.neg_infinity) (pull arena2 s2 Float.neg_infinity)

let first_meeting ?(closed_forms = true) ?(resolution = 1e-9)
    ?(horizon = Float.infinity) ~r s1 s2 =
  if r <= 0.0 then invalid_arg "Detector.first_meeting: r <= 0";
  let intervals = ref 0 in
  let min_distance = ref Float.infinity in
  let f ~lo ~hi a b =
    incr intervals;
    let rel =
      if closed_forms then
        match (a.affine, b.affine) with
        | Some fa, Some fb -> Some (Approach.relative fa fb)
        | _ -> None
      else None
    in
    let d0 =
      match rel with
      | Some rel -> Approach.distance_rel rel lo
      | None -> Approach.distance_at a.seg b.seg lo
    in
    if d0 < !min_distance then min_distance := d0;
    let lipschitz = a.speed +. b.speed in
    (* Conservative fast path: skip the solve on intervals that provably
       stay out of range. *)
    if Approach.escapes ~r ~lipschitz ~lo ~hi ~d_lo:d0 then None
    else
      let hit =
        match rel with
        | Some rel -> Approach.first_within_rel ~r ~d_lo:d0 ~lo ~hi rel
        | None ->
            Approach.first_within_lipschitz ~lipschitz ~r ~resolution ~lo ~hi
              a.seg b.seg
      in
      Option.map (fun t -> Hit t) hit
  in
  let outcome = walk ~horizon s1 s2 ~f ~finish:Fun.id in
  (outcome, { intervals = !intervals; min_distance = !min_distance })

(* ------------------------------------------------------------------ *)
(* Compiled kernel.

   Same merged-timeline scan as [walk]/[first_meeting] above, but over
   flat [Compiled.t] tables: per-segment quantities are unboxed float
   array reads, positions are written into one preallocated scratch
   buffer, and the only steady-state allocations left are the lazy-stream
   pulls at block boundaries (every [block] segments) and the closure of
   the rare non-escaping arc-pair Lipschitz solve. Control flow and float
   evaluation order mirror the interpreted path expression by expression —
   the QCheck suite pins outcomes, interval counts and min-distances to be
   bit-identical, which is what lets the interpreted walker remain the
   oracle. *)

type source =
  | Src_seq of Timed.t Seq.t
  | Src_table of Compiled.t * Timed.t Seq.t
  | Src_chunks of (int -> Compiled.t)

let source_of_seq s = Src_seq s
let source_of_table tbl ~tail = Src_table (tbl, tail)
let source_of_chunks f = Src_chunks f

let seq_of_source = function
  | Src_seq s -> s
  | Src_table (tbl, tail) -> Seq.append (Compiled.to_seq tbl) tail
  | Src_chunks _ ->
      invalid_arg "Detector.seq_of_source: chunked sources have no stream view"

let table_of_source = function
  | Src_seq _ | Src_chunks _ -> None
  | Src_table (tbl, tail) -> Some (tbl, tail)

(* Segments compiled per stream pull: large enough to amortise the table
   build, small enough that runs ending early don't realize far past
   their horizon. *)
let block = 512

(* A chunked source's doubling schedule. A [Compiled.deriver] produces
   segments with a flat array pass, ~50x cheaper per segment than a
   stream compile, so deep runs amortise the per-pull overhead over big
   chunks — but Algorithm 7's rounds grow geometrically (round n spans
   51, 257, 1051, 4161, 16499 segments for n = 1..5) and most instances
   meet in rounds 1-3, so the first pull asks for [first_chunk], about
   round 1's span, and each later one doubles: 64, 128, ..., 16384,
   16384, .... A run that meets at segment k derives fewer than
   2k + 64 segments. *)
let first_chunk = 64
let chunk_block = 16384

(* One robot's scan position: an index into the current compiled block,
   plus how to produce the next block ([pull n] returns an empty table
   when the stream is exhausted). [block] is the size of the next pull;
   it doubles after each pull up to [max_block], which stream sources set
   to [block] itself. *)
type side = {
  mutable tbl : Compiled.t;
  mutable idx : int;
  mutable pull : int -> Compiled.t;
  mutable block : int;
  max_block : int;
  mutable ended : bool;
}

let pull_of_seq s =
  let tail = ref s in
  fun n ->
    let tbl, rest = Compiled.of_seq ~max_segments:n !tail in
    tail := rest;
    tbl

let side_of_source src =
  let tbl, pull, block, max_block =
    match src with
    | Src_seq s -> (Compiled.empty, pull_of_seq s, block, block)
    | Src_table (tbl, tail) -> (tbl, pull_of_seq tail, block, block)
    | Src_chunks f -> (Compiled.empty, f, first_chunk, chunk_block)
  in
  { tbl; idx = 0; pull; block; max_block; ended = false }

(* Advance [side] to its first segment ending after [scratch.(5)] — the
   compiled counterpart of [pull]: skips zero-duration stragglers, pulls
   the next block when the current one is exhausted, marks the end of a
   finite stream. The target time travels through the scratch array
   rather than a parameter: [ensure] is too big to inline, and a float
   argument would be boxed at every advance — one allocation per
   interval, the single largest heap cost left in the scan.

   The [unsafe_get] is guarded by the branch shape: it is only reached
   when [side.idx < n], and every column of a table (including
   arena-backed chunks) is at least [n] long. *)
let ensure side (scratch : float array) =
  let t = Array.unsafe_get scratch 5 in
  let continue = ref (not side.ended) in
  while !continue do
    let tbl = side.tbl in
    if side.idx >= tbl.Compiled.n then begin
      let next = side.pull side.block in
      side.block <- min side.max_block (2 * side.block);
      if next.Compiled.n = 0 then begin
        side.ended <- true;
        continue := false
      end
      else begin
        side.tbl <- next;
        side.idx <- 0
      end
    end
    else if Array.unsafe_get tbl.Compiled.t_end side.idx <= t then
      side.idx <- side.idx + 1
    else continue := false
  done

(* Intervals the broad phase settled, bumped once per run (never per
   interval) and kept out of [stats], which must equal the interpreted
   walker's. *)
let m_pruned =
  Rvu_obs.Metrics.counter
    ~help:"Segment-pair intervals the compiled kernel settled unevaluated"
    "rvu_engine_pruned_intervals_total"

let first_meeting_sources ?(closed_forms = true) ?(resolution = 1e-9)
    ?(horizon = Float.infinity) ~r src1 src2 =
  if r <= 0.0 then invalid_arg "Detector.first_meeting_sources: r <= 0";
  let s1 = side_of_source src1 and s2 = side_of_source src2 in
  (* Scratch: slots 0-3 hold the two evaluated positions; slot 4 is the
     running min distance; slot 5 the scan's current time, doubling as
     [ensure]'s target. Every mutable float of the loop lives in this one
     flat array — locals, [float ref]s or a recursive scan function with
     a float parameter would each box per interval, and at millions of
     intervals per run those boxes were the remaining heap cost. *)
  let scratch = Array.make 6 0.0 in
  scratch.(4) <- Float.infinity;
  scratch.(5) <- Float.neg_infinity;
  let intervals = ref 0 and pruned = ref 0 in
  ensure s1 scratch;
  ensure s2 scratch;
  scratch.(5) <- 0.0;
  let outcome = ref (Horizon horizon) in
  let running = ref true in
  (* Index reads below are [unsafe_get]: [ensure] only leaves a side with
     [idx < n] (or [ended], checked first), and every column is at least
     [n] long. *)
  while !running do
    let now = Array.unsafe_get scratch 5 in
    if s1.ended || s2.ended then begin
      outcome := Stream_end now;
      running := false
    end
    else if now >= horizon then begin
      outcome := Horizon horizon;
      running := false
    end
    else begin
      let a = s1.tbl and ai = s1.idx in
      let b = s2.tbl and bi = s2.idx in
      let a_end = Array.unsafe_get a.Compiled.t_end ai
      and b_end = Array.unsafe_get b.Compiled.t_end bi in
      let lo =
        Float.max now
          (Float.max
             (Array.unsafe_get a.Compiled.t0 ai)
             (Array.unsafe_get b.Compiled.t0 bi))
      in
      let hi = Float.min horizon (Float.min a_end b_end) in
      if lo >= horizon then begin
        outcome := Horizon horizon;
        running := false
      end
      else if lo >= hi then begin
        (* Zero-length overlap: advance the earlier-ending side past
           [now] (still in [scratch.(5)]) and rescan. *)
        if a_end <= b_end then begin
          s1.idx <- ai + 1;
          ensure s1 scratch
        end
        else begin
          s2.idx <- bi + 1;
          ensure s2 scratch
        end
      end
      else begin
        incr intervals;
        let hit =
          if
            closed_forms
            && Array.unsafe_get a.Compiled.kind ai <> Compiled.kind_arc
            && Array.unsafe_get b.Compiled.kind bi <> Compiled.kind_arc
          then begin
            (* Both sides affine: relative motion p(t) = rb + rs·t. *)
            let rbx =
              Array.unsafe_get a.Compiled.abx ai
              -. Array.unsafe_get b.Compiled.abx bi
            in
            let rby =
              Array.unsafe_get a.Compiled.aby ai
              -. Array.unsafe_get b.Compiled.aby bi
            in
            let rsx =
              Array.unsafe_get a.Compiled.asx ai
              -. Array.unsafe_get b.Compiled.asx bi
            in
            let rsy =
              Array.unsafe_get a.Compiled.asy ai
              -. Array.unsafe_get b.Compiled.asy bi
            in
            let d0 = Float.hypot (rbx +. (lo *. rsx)) (rby +. (lo *. rsy)) in
            if d0 < Array.unsafe_get scratch 4 then
              Array.unsafe_set scratch 4 d0;
            let lipschitz =
              Array.unsafe_get a.Compiled.speed ai
              +. Array.unsafe_get b.Compiled.speed bi
            in
            (* [Approach.escapes], inlined: a cross-library call would box
               five floats per interval. *)
            if d0 -. (lipschitz *. (hi -. lo)) > r then Float.nan
            else if d0 <= r then lo
            else begin
              let qa = (rsx *. rsx) +. (rsy *. rsy) in
              let qb = 2.0 *. ((rbx *. rsx) +. (rby *. rsy)) in
              let qc = ((rbx *. rbx) +. (rby *. rby)) -. (r *. r) in
              if qa = 0.0 then Float.nan
              else begin
                let disc = (qb *. qb) -. (4.0 *. qa *. qc) in
                if disc < 0.0 then Float.nan
                else begin
                  let sd = sqrt disc in
                  let t1 = (-.qb -. sd) /. (2.0 *. qa) in
                  if t1 >= lo && t1 <= hi then t1 else Float.nan
                end
              end
            end
          end
          else begin
            (* Broad phase. Every position a segment can take lies on an
               annulus about a fixed centre: an arc on its circle, a line
               in the disc on its chord, a wait at its point. So on the
               whole interval the robots stay at least [lb] apart, the
               gap between the two annuli. Past max(r, running minimum)
               plus a margin far above the rounding of [lb] and of any
               sampled distance, no sample can hit or lower the minimum:
               the interval is settled without evaluating a position. *)
            let ka = Array.unsafe_get a.Compiled.kind ai
            and kb = Array.unsafe_get b.Compiled.kind bi in
            let ax = Array.unsafe_get a.Compiled.g0 ai
            and ay = Array.unsafe_get a.Compiled.g1 ai
            and bx = Array.unsafe_get b.Compiled.g0 bi
            and by = Array.unsafe_get b.Compiled.g1 bi in
            let cax =
              if ka = Compiled.kind_line then
                0.5 *. (ax +. Array.unsafe_get a.Compiled.g2 ai)
              else ax
            and cay =
              if ka = Compiled.kind_line then
                0.5 *. (ay +. Array.unsafe_get a.Compiled.g3 ai)
              else ay
            and cbx =
              if kb = Compiled.kind_line then
                0.5 *. (bx +. Array.unsafe_get b.Compiled.g2 bi)
              else bx
            and cby =
              if kb = Compiled.kind_line then
                0.5 *. (by +. Array.unsafe_get b.Compiled.g3 bi)
              else by
            in
            let oa =
              if ka = Compiled.kind_arc then Array.unsafe_get a.Compiled.g2 ai
              else if ka = Compiled.kind_line then
                0.5 *. Array.unsafe_get a.Compiled.local_dur ai
              else 0.0
            and ob =
              if kb = Compiled.kind_arc then Array.unsafe_get b.Compiled.g2 bi
              else if kb = Compiled.kind_line then
                0.5 *. Array.unsafe_get b.Compiled.local_dur bi
              else 0.0
            in
            let ia = if ka = Compiled.kind_arc then oa else 0.0
            and ib = if kb = Compiled.kind_arc then ob else 0.0 in
            let dc = Float.hypot (cax -. cbx) (cay -. cby) in
            let lb = dc -. oa -. ob in
            let lb = if ia -. ob -. dc > lb then ia -. ob -. dc else lb in
            let lb = if ib -. oa -. dc > lb then ib -. oa -. dc else lb in
            (* Relative to every coordinate and radius a position is
               computed from; their sum also bounds [dc]. *)
            let margin =
              1e-9
              *. (Float.abs cax +. Float.abs cay +. Float.abs cbx
                 +. Float.abs cby +. oa +. ob +. r)
            in
            let m = Array.unsafe_get scratch 4 in
            if lb > (if m > r then m else r) +. margin then begin
              incr pruned;
              Float.nan
            end
            else begin
              Compiled.eval_into a ai lo scratch 0;
              Compiled.eval_into b bi lo scratch 2;
              let d0 =
                Float.hypot
                  (scratch.(0) -. scratch.(2))
                  (scratch.(1) -. scratch.(3))
              in
              if d0 < scratch.(4) then scratch.(4) <- d0;
              let lipschitz =
                Array.unsafe_get a.Compiled.speed ai
                +. Array.unsafe_get b.Compiled.speed bi
              in
              (* Past r plus the margin no sample can hit, so the solve
                 would answer [Stays_above]. *)
              if d0 -. (lipschitz *. (hi -. lo)) > r || lb > r +. margin then
                Float.nan
              else begin
                let f t =
                  Compiled.eval_into a ai t scratch 0;
                  Compiled.eval_into b bi t scratch 2;
                  Float.hypot
                    (scratch.(0) -. scratch.(2))
                    (scratch.(1) -. scratch.(3))
                  -. r
                in
                match
                  Rvu_numerics.Lipschitz.first_below ~lipschitz ~resolution ~f
                    ~lo ~hi ()
                with
                | Rvu_numerics.Lipschitz.First_below t -> t
                | Rvu_numerics.Lipschitz.Stays_above -> Float.nan
              end
            end
          end
        in
        (* NaN is the in-band "no hit": hit times are real by construction
           (the quadratic path filters non-finite roots via the range
           check, the Lipschitz solver only returns in-range times). *)
        if not (Float.is_nan hit) then begin
          outcome := Hit hit;
          running := false
        end
        else if hi >= horizon then begin
          outcome := Horizon horizon;
          running := false
        end
        else begin
          Array.unsafe_set scratch 5 hi;
          if a_end <= b_end then begin
            s1.idx <- ai + 1;
            ensure s1 scratch
          end
          else begin
            s2.idx <- bi + 1;
            ensure s2 scratch
          end
        end
      end
    end
  done;
  Rvu_obs.Metrics.incr ~by:!pruned m_pruned;
  (!outcome, { intervals = !intervals; min_distance = scratch.(4) })

let fold_intervals ?(horizon = Float.infinity) s1 s2 ~init ~f =
  let acc = ref init in
  let g ~lo ~hi a b =
    acc := f !acc ~lo ~hi a.seg b.seg;
    None
  in
  let (_ : outcome) = walk ~horizon s1 s2 ~f:g ~finish:Fun.id in
  !acc
