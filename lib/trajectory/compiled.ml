open Rvu_geom

type t = {
  n : int;
  start : float;
  stop : float;
  t0 : float array;
  dur : float array;
  t_end : float array;
  speed : float array;
  kind : int array;
  local_dur : float array;
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
}

let kind_wait = 0
let kind_line = 1
let kind_arc = 2

let of_timed source =
  let n = Array.length source in
  let segs = Array.copy source in
  let lazy_segs = Lazy.from_val segs in
  let t0 = Array.make n 0.0
  and dur = Array.make n 0.0
  and t_end = Array.make n 0.0
  and speed = Array.make n 0.0
  and kind = Array.make n kind_wait
  and local_dur = Array.make n 0.0
  and g0 = Array.make n 0.0
  and g1 = Array.make n 0.0
  and g2 = Array.make n 0.0
  and g3 = Array.make n 0.0
  and g4 = Array.make n 0.0
  and abx = Array.make n 0.0
  and aby = Array.make n 0.0
  and asx = Array.make n 0.0
  and asy = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let s = segs.(i) in
    t0.(i) <- s.Timed.t0;
    dur.(i) <- s.Timed.dur;
    t_end.(i) <- Timed.t1 s;
    speed.(i) <- Timed.speed s;
    local_dur.(i) <- Segment.duration s.Timed.shape;
    (* The affine precomputation below repeats [Approach.affine_of]'s
       expressions verbatim — any algebraic "simplification" here would
       break the bit-identity contract with the interpreted detector. *)
    match s.Timed.shape with
    | Segment.Wait { pos; _ } ->
        kind.(i) <- kind_wait;
        g0.(i) <- pos.Vec2.x;
        g1.(i) <- pos.Vec2.y;
        abx.(i) <- pos.Vec2.x;
        aby.(i) <- pos.Vec2.y
    | Segment.Line { src; dst } ->
        kind.(i) <- kind_line;
        g0.(i) <- src.Vec2.x;
        g1.(i) <- src.Vec2.y;
        g2.(i) <- dst.Vec2.x;
        g3.(i) <- dst.Vec2.y;
        let inv = 1.0 /. s.Timed.dur in
        let sx = inv *. (dst.Vec2.x -. src.Vec2.x) in
        let sy = inv *. (dst.Vec2.y -. src.Vec2.y) in
        asx.(i) <- sx;
        asy.(i) <- sy;
        abx.(i) <- src.Vec2.x -. (s.Timed.t0 *. sx);
        aby.(i) <- src.Vec2.y -. (s.Timed.t0 *. sy)
    | Segment.Arc { center; radius; from; sweep } ->
        kind.(i) <- kind_arc;
        g0.(i) <- center.Vec2.x;
        g1.(i) <- center.Vec2.y;
        g2.(i) <- radius;
        g3.(i) <- from;
        g4.(i) <- sweep
  done;
  let start = if n = 0 then 0.0 else t0.(0) in
  let stop = if n = 0 then 0.0 else t_end.(n - 1) in
  {
    n;
    start;
    stop;
    t0;
    dur;
    t_end;
    speed;
    kind;
    local_dur;
    g0;
    g1;
    g2;
    g3;
    g4;
    abx;
    aby;
    asx;
    asy;
    segs = lazy_segs;
  }

let empty = of_timed [||]

let of_seq ?(max_segments = max_int) s =
  if max_segments < 0 then invalid_arg "Compiled.of_seq: negative max_segments";
  let rec take acc k s =
    if k = 0 then (acc, s)
    else
      match s () with
      | Seq.Nil -> (acc, Seq.empty)
      | Seq.Cons (seg, rest) -> take (seg :: acc) (k - 1) rest
  in
  let rev, rest = take [] max_segments s in
  let segs = Array.of_list (List.rev rev) in
  (of_timed segs, rest)

let of_program ?(clocked = Realize.identity) p =
  fst (of_seq (Realize.realize clocked p))

let length tbl = tbl.n

let index_at tbl t =
  if tbl.n = 0 then invalid_arg "Compiled.index_at: empty table";
  if t >= tbl.stop then tbl.n - 1
  else begin
    let lo = ref 0 and hi = ref (tbl.n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if tbl.t_end.(mid) <= t then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let position_at tbl t = Timed.position (Lazy.force tbl.segs).(index_at tbl t) t

type cursor = { tbl : t; mutable at : int }

let cursor tbl =
  if tbl.n = 0 then invalid_arg "Compiled.cursor: empty table";
  { tbl; at = 0 }

let seek cur t =
  let tbl = cur.tbl in
  if cur.at > 0 && t < tbl.t_end.(cur.at - 1) then cur.at <- index_at tbl t
  else
    while cur.at < tbl.n - 1 && tbl.t_end.(cur.at) <= t do
      cur.at <- cur.at + 1
    done;
  cur.at

let position cur t = Timed.position (Lazy.force cur.tbl.segs).(seek cur t) t

(* Bit-for-bit the composition [Timed.position] ∘ [Segment.position]: the
   outer fraction is clamped against the global duration, scaled to local
   time, then re-normalised and re-clamped against the local duration —
   replaying both steps (rather than fusing them) is what keeps compiled
   arc distances identical to the interpreted ones. *)
let eval_into tbl i t buf k =
  let d = tbl.dur.(i) in
  if d <= 0.0 then begin
    match tbl.kind.(i) with
    | 2 (* arc: start_pos is the point at the start angle *) ->
        let theta = tbl.g3.(i) in
        buf.(k) <- tbl.g0.(i) +. (tbl.g2.(i) *. cos theta);
        buf.(k + 1) <- tbl.g1.(i) +. (tbl.g2.(i) *. sin theta)
    | _ ->
        buf.(k) <- tbl.g0.(i);
        buf.(k + 1) <- tbl.g1.(i)
  end
  else begin
    (* [Floats.clamp ~lo:0.0 ~hi:1.0], inlined to avoid boxing a float
       per call: clamp is [Float.max 0.0 (Float.min 1.0 x)], and with
       NaN-free inputs (guaranteed here: [d > 0.0], [ld > 0.0] in the
       guarded branch) both stdlib comparisons reduce to the plain
       branches below — including the [-0.0 -> +0.0] normalisation of
       [Float.max 0.0]. *)
    let q = (t -. tbl.t0.(i)) /. d in
    let f = if q > 1.0 then 1.0 else if q > 0.0 then q else 0.0 in
    let ld = tbl.local_dur.(i) in
    let u = f *. ld in
    let f2 =
      if ld <= 0.0 then 0.0
      else
        let q2 = u /. ld in
        if q2 > 1.0 then 1.0 else if q2 > 0.0 then q2 else 0.0
    in
    match tbl.kind.(i) with
    | 0 ->
        buf.(k) <- tbl.g0.(i);
        buf.(k + 1) <- tbl.g1.(i)
    | 1 ->
        buf.(k) <- tbl.g0.(i) +. (f2 *. (tbl.g2.(i) -. tbl.g0.(i)));
        buf.(k + 1) <- tbl.g1.(i) +. (f2 *. (tbl.g3.(i) -. tbl.g1.(i)))
    | _ ->
        let theta = tbl.g3.(i) +. (f2 *. tbl.g4.(i)) in
        buf.(k) <- tbl.g0.(i) +. (tbl.g2.(i) *. cos theta);
        buf.(k + 1) <- tbl.g1.(i) +. (tbl.g2.(i) *. sin theta)
  end

let to_seq tbl = Array.to_seq (Lazy.force tbl.segs)

(* ------------------------------------------------------------------ *)
(* Derived realisation.

   [Realize.realize clocked program] and [of_timed]/[of_seq] over its
   output walk a lazy stream: every segment pays a [Seq] node, a closure,
   a [Timed.t] and a couple of [Vec2.t]s before the table even exists.
   But the identity-clocked reference table already holds, bit-for-bit,
   the program's segment data — realising under the identity frame
   multiplies durations by [1.0] and maps points through a zero-angle,
   unit-scale, zero-offset similarity, both of which return their inputs
   (up to the sign of zero, which OCaml's structural float equality and
   every downstream comparison treat as equal). So the realisation of the
   *same* program under any other frame can be replayed directly from the
   reference table with one flat array pass: same float expressions, same
   evaluation order, no stream, no per-segment heap traffic.

   The expressions below transcribe, verbatim:
   - [Realize.realize]'s duration scaling ([time_unit *. dur]), its
     zero-duration drop, and its Neumaier timestamp accumulation;
   - [Conformal.apply] = offset + scale · rotation · reflection (the
     cos/sin of the constant frame angle are hoisted out of the loop —
     [Vec2.rotate] recomputes them per call with identical values);
   - [Segment.map]'s arc handling (scaled radius, [map_angle], chirality-
     flipped sweep);
   - [Timed.make]'s validation, and [of_timed]'s speed / local-duration /
     affine-form derivations.

   Any algebraic "simplification" here would break the bit-identity
   contract with the interpreted realise-then-compile pipeline, which the
   QCheck suite pins table field by table field. *)

(* Column storage reused across [derive] calls. Fresh megabyte-scale
   [Array.make]s dominate a derive pass end to end — the allocator mmaps,
   the kernel zeroes pages, the GC unmaps them again — costing more than
   every float expression in the pass combined. An arena keeps one set of
   columns per owner (the engine keeps one per domain) and grows them
   geometrically. *)
type arena = {
  mutable cap : int;
  mutable cols : float array array; (* 14 columns of length [cap] *)
  mutable kinds : int array;
}

let arena () = { cap = 0; cols = [||]; kinds = [||] }

let arena_ensure a n =
  if a.cap < n then begin
    let cap = max n (max 1024 (a.cap * 2)) in
    a.cols <- Array.init 14 (fun _ -> Array.make cap 0.0);
    a.kinds <- Array.make cap kind_wait;
    a.cap <- cap
  end

(* The shared inner loop of {!derive} and {!next_chunk}: derive source
   rows from index [i0] under the clocked frame, writing kept segments
   into the given columns from offset [0], until [max_kept] segments are
   kept or the source is exhausted. Every column of every kept row is
   written — zeros where the kind has no value, as in [of_timed] — since
   an arena's rows still hold whatever an earlier derive, of another
   program or another slice, left there. The Neumaier accumulator in [st]
   ([st.(0)] = sum, [st.(1)] = compensation — exactly [Realize]'s
   [advance]/[now]; a float array keeps the cells unboxed, unlike a
   [float ref] which would box every store) is resumed and left updated,
   so a chunked sequence of calls produces bit-for-bit the timestamps of
   one uninterrupted pass. Returns [(next_i, kept)]. *)
let derive_range (c : Realize.clocked) src ~i0 ~max_kept ~(st : float array)
    ~t0 ~dur ~t_end ~speed ~kind ~local_dur ~g0 ~g1 ~g2 ~g3 ~g4 ~abx ~aby ~asx
    ~asy =
  let u = c.Realize.time_unit in
  let fr = c.Realize.frame in
  let sc = fr.Conformal.scale in
  let ang = fr.Conformal.angle in
  let refl = fr.Conformal.reflect in
  let ox = fr.Conformal.offset.Vec2.x in
  let oy = fr.Conformal.offset.Vec2.y in
  let co = cos ang and si = sin ang in
  let chi = if refl then -1.0 else 1.0 in
  let n0 = src.n in
  let i = ref i0 in
  let j = ref 0 in
  while !i < n0 && !j < max_kept do
    let d = src.dur.(!i) in
    let dur' = u *. d in
    (* Zero-duration survivorship: underflow can zero a positive duration;
       the stream pipeline drops exactly the same set, without advancing
       the accumulator. *)
    if dur' > 0.0 then begin
      (* [Timed.make]'s checks, in its order (negative is impossible:
         [dur' > 0.0] just held). *)
      if not (Float.is_finite dur') then
        invalid_arg "Timed.make: non-finite duration";
      let tstart = st.(0) +. st.(1) in
      if not (Float.is_finite tstart) then
        invalid_arg "Timed.make: non-finite start";
      let k = !j in
      t0.(k) <- tstart;
      dur.(k) <- dur';
      t_end.(k) <- tstart +. dur';
      let ki = src.kind.(!i) in
      kind.(k) <- ki;
      if ki = kind_wait then begin
        let x = src.g0.(!i) and y = src.g1.(!i) in
        let ry = if refl then -.y else y in
        let px = ox +. (sc *. ((co *. x) -. (si *. ry))) in
        let py = oy +. (sc *. ((si *. x) +. (co *. ry))) in
        g0.(k) <- px;
        g1.(k) <- py;
        g2.(k) <- 0.0;
        g3.(k) <- 0.0;
        g4.(k) <- 0.0;
        abx.(k) <- px;
        aby.(k) <- py;
        asx.(k) <- 0.0;
        asy.(k) <- 0.0;
        (* A wait's shape duration is frame-independent. *)
        local_dur.(k) <- src.local_dur.(!i);
        speed.(k) <- 0.0
      end
      else if ki = kind_line then begin
        let x1 = src.g0.(!i) and y1 = src.g1.(!i) in
        let x2 = src.g2.(!i) and y2 = src.g3.(!i) in
        let ry1 = if refl then -.y1 else y1 in
        let ry2 = if refl then -.y2 else y2 in
        let sx = ox +. (sc *. ((co *. x1) -. (si *. ry1))) in
        let sy = oy +. (sc *. ((si *. x1) +. (co *. ry1))) in
        let dx = ox +. (sc *. ((co *. x2) -. (si *. ry2))) in
        let dy = oy +. (sc *. ((si *. x2) +. (co *. ry2))) in
        g0.(k) <- sx;
        g1.(k) <- sy;
        g2.(k) <- dx;
        g3.(k) <- dy;
        g4.(k) <- 0.0;
        let len = Float.hypot (sx -. dx) (sy -. dy) in
        local_dur.(k) <- len;
        speed.(k) <- len /. dur';
        let inv = 1.0 /. dur' in
        let vx = inv *. (dx -. sx) in
        let vy = inv *. (dy -. sy) in
        asx.(k) <- vx;
        asy.(k) <- vy;
        abx.(k) <- sx -. (tstart *. vx);
        aby.(k) <- sy -. (tstart *. vy)
      end
      else begin
        let x = src.g0.(!i) and y = src.g1.(!i) in
        let ry = if refl then -.y else y in
        g0.(k) <- ox +. (sc *. ((co *. x) -. (si *. ry)));
        g1.(k) <- oy +. (sc *. ((si *. x) +. (co *. ry)));
        let radius = sc *. src.g2.(!i) in
        let sweep = chi *. src.g4.(!i) in
        g2.(k) <- radius;
        g3.(k) <- ang +. (chi *. src.g3.(!i));
        g4.(k) <- sweep;
        abx.(k) <- 0.0;
        aby.(k) <- 0.0;
        asx.(k) <- 0.0;
        asy.(k) <- 0.0;
        let len = radius *. Float.abs sweep in
        local_dur.(k) <- len;
        speed.(k) <- len /. dur'
      end;
      (* [Realize]'s [advance], verbatim. *)
      let s0 = st.(0) in
      let t = s0 +. dur' in
      st.(1) <-
        (if Float.abs s0 >= Float.abs dur' then st.(1) +. ((s0 -. t) +. dur')
         else st.(1) +. ((dur' -. t) +. s0));
      st.(0) <- t;
      j := k + 1
    end;
    incr i
  done;
  (!i, !j)

(* [segs] rebuilt on demand from the flat arrays — the g-columns *are*
   the mapped shape fields, so the rebuild is exact. Only forced by
   oracle paths ([to_seq], [position_at]); the detector kernel never
   touches it. *)
let table_of_columns ~n ~t0 ~dur ~t_end ~speed ~kind ~local_dur ~g0 ~g1 ~g2
    ~g3 ~g4 ~abx ~aby ~asx ~asy =
  let segs =
    lazy
      (Array.init n (fun i ->
           let shape =
             if kind.(i) = kind_wait then
               Segment.wait ~at:(Vec2.make g0.(i) g1.(i)) ~dur:local_dur.(i)
             else if kind.(i) = kind_line then
               Segment.line
                 ~src:(Vec2.make g0.(i) g1.(i))
                 ~dst:(Vec2.make g2.(i) g3.(i))
             else
               Segment.arc
                 ~center:(Vec2.make g0.(i) g1.(i))
                 ~radius:g2.(i) ~from:g3.(i) ~sweep:g4.(i)
           in
           Timed.make ~t0:t0.(i) ~dur:dur.(i) ~shape))
  in
  let start = if n = 0 then 0.0 else t0.(0) in
  let stop = if n = 0 then 0.0 else t_end.(n - 1) in
  {
    n;
    start;
    stop;
    t0;
    dur;
    t_end;
    speed;
    kind;
    local_dur;
    g0;
    g1;
    g2;
    g3;
    g4;
    abx;
    aby;
    asx;
    asy;
    segs;
  }

(* The stream continuation past a derived prefix: replay
   [Realize.realize] over the reference stream's tail, resuming from the
   Neumaier state the flat pass left. The genuine
   [Segment.map]/[Timed.make] are used here — the per-point cos/sin they
   recompute equal the hoisted ones in [derive_range]. *)
let rec resume_realize (c : Realize.clocked) sum comp (s : Timed.t Seq.t) () =
  match s () with
  | Seq.Nil -> Seq.Nil
  | Seq.Cons (seg, rest) ->
      let dur' = c.Realize.time_unit *. seg.Timed.dur in
      if dur' <= 0.0 then resume_realize c sum comp rest ()
      else
        let timed =
          Timed.make ~t0:(sum +. comp) ~dur:dur'
            ~shape:(Segment.map c.Realize.frame seg.Timed.shape)
        in
        let t = sum +. dur' in
        let comp' =
          if Float.abs sum >= Float.abs dur' then comp +. ((sum -. t) +. dur')
          else comp +. ((dur' -. t) +. sum)
        in
        Seq.Cons (timed, resume_realize c t comp' rest)

let columns_of_arena a =
  let c = a.cols in
  ( c.(0),
    c.(1),
    c.(2),
    c.(3),
    a.kinds,
    c.(4),
    c.(5),
    c.(6),
    c.(7),
    c.(8),
    c.(9),
    c.(10),
    c.(11),
    c.(12),
    c.(13) )

let derive ?arena:(ar : arena option) (c : Realize.clocked) src ~tail =
  let u = c.Realize.time_unit in
  (* Pass 1: survivors of the zero-duration drop, to size the columns
     exactly. *)
  let kept = ref 0 in
  for i = 0 to src.n - 1 do
    if u *. src.dur.(i) > 0.0 then incr kept
  done;
  let n = !kept in
  let t0, dur, t_end, speed, kind, local_dur, g0, g1, g2, g3, g4, abx, aby,
      asx, asy =
    match ar with
    | Some a ->
        arena_ensure a (max 1 n);
        columns_of_arena a
    | None ->
        ( Array.make n 0.0,
          Array.make n 0.0,
          Array.make n 0.0,
          Array.make n 0.0,
          Array.make n kind_wait,
          Array.make n 0.0,
          Array.make n 0.0,
          Array.make n 0.0,
          Array.make n 0.0,
          Array.make n 0.0,
          Array.make n 0.0,
          Array.make n 0.0,
          Array.make n 0.0,
          Array.make n 0.0,
          Array.make n 0.0 )
  in
  let st = [| 0.0; 0.0 |] in
  (* Any rows past the [n]-th keeper are zero-duration drops, which leave
     the accumulator untouched — stopping at [max_kept = n] still leaves
     [st] equal to the full pass's final state. *)
  let (_ : int), (_ : int) =
    derive_range c src ~i0:0 ~max_kept:n ~st ~t0 ~dur ~t_end ~speed ~kind
      ~local_dur ~g0 ~g1 ~g2 ~g3 ~g4 ~abx ~aby ~asx ~asy
  in
  let tbl =
    table_of_columns ~n ~t0 ~dur ~t_end ~speed ~kind ~local_dur ~g0 ~g1 ~g2
      ~g3 ~g4 ~abx ~aby ~asx ~asy
  in
  (tbl, resume_realize c st.(0) st.(1) tail)

(* ------------------------------------------------------------------ *)
(* Streaming derivation.

   A full [derive] pays for the whole reference table even when the
   consumer stops early — and instance meeting depths are wildly skewed
   (a batch's shallowest run can need a sixth of what its deepest does).
   A [deriver] hands out the derived realisation in successive chunks,
   each a flat pass over just the next slice of the reference table with
   the Neumaier accumulator carried across calls, so derivation cost
   tracks consumption exactly. Chunks share the deriver's arena: each is
   valid only until the next [next_chunk] — the sequential-scan contract
   of the detector, which discards a block before pulling the next. *)

type deriver = {
  dc : Realize.clocked;
  dsrc : t;
  dst : float array; (* Neumaier sum / compensation, carried across chunks *)
  dar : arena;
  mutable di : int; (* next unconsumed reference row *)
  mutable dtail : Timed.t Seq.t;
  mutable drest : Timed.t Seq.t option; (* replaces [dtail] once [dsrc] is spent *)
}

let deriver ?arena:(ar : arena option) c src ~tail =
  {
    dc = c;
    dsrc = src;
    dst = [| 0.0; 0.0 |];
    dar = (match ar with Some a -> a | None -> arena ());
    di = 0;
    dtail = tail;
    drest = None;
  }

let rec next_chunk d ~max_segments =
  if max_segments <= 0 then invalid_arg "Compiled.next_chunk: max_segments <= 0";
  match d.drest with
  | Some rest ->
      (* Past the reference table: compile blocks of the replayed stream
         continuation (reached only when a scan outruns the cached
         reference prefix). *)
      let tbl, rest' = of_seq ~max_segments rest in
      d.drest <- Some rest';
      tbl
  | None ->
      if d.di < d.dsrc.n then begin
        let a = d.dar in
        arena_ensure a max_segments;
        let t0, dur, t_end, speed, kind, local_dur, g0, g1, g2, g3, g4, abx,
            aby, asx, asy =
          columns_of_arena a
        in
        let i', k =
          derive_range d.dc d.dsrc ~i0:d.di ~max_kept:max_segments ~st:d.dst
            ~t0 ~dur ~t_end ~speed ~kind ~local_dur ~g0 ~g1 ~g2 ~g3 ~g4 ~abx
            ~aby ~asx ~asy
        in
        d.di <- i';
        if k = 0 then
          (* Every remaining reference row was a zero-duration drop; fall
             through to the tail. *)
          next_chunk d ~max_segments
        else
          table_of_columns ~n:k ~t0 ~dur ~t_end ~speed ~kind ~local_dur ~g0
            ~g1 ~g2 ~g3 ~g4 ~abx ~aby ~asx ~asy
      end
      else begin
        d.drest <-
          Some (resume_realize d.dc d.dst.(0) d.dst.(1) d.dtail);
        d.dtail <- Seq.empty;
        next_chunk d ~max_segments
      end
