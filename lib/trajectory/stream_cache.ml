type t = {
  lock : Mutex.t;
  cap : int;
  mutable buf : Timed.t array; (* slots [0, len) hold realized segments *)
  mutable len : int;
  mutable tail : Timed.t Seq.t; (* unrealized remainder after [len] *)
  mutable ended : bool; (* the underlying stream is exhausted *)
  mutable hits : int; (* chunk reads served from already-realized slots *)
  mutable misses : int; (* chunk reads that had to realize forward *)
  mutable evictions : int; (* chunk reads past the cap: retention declined *)
  mutable compiled : Compiled.t;
      (* memoized compilation of [buf.(0) .. buf.(len-1)]; valid iff
         [compiled.n = len] (the prefix only grows, never changes) *)
}

type stats = { hits : int; misses : int; evictions : int }

(* Process-wide mirrors of the per-cache counters, aggregated over every
   cache instance. The per-cache fields stay authoritative for a single
   cache's [stats]; the registry series feed the service's [metrics]
   endpoint. Cumulative since process start. *)
let m_hits =
  Rvu_obs.Metrics.counter
    ~help:"Stream-cache block reads served from realized slots"
    "rvu_stream_cache_hits_total"

let m_misses =
  Rvu_obs.Metrics.counter
    ~help:"Stream-cache block reads that realized the stream forward"
    "rvu_stream_cache_misses_total"

let m_evictions =
  Rvu_obs.Metrics.counter
    ~help:"Stream-cache block reads past the retention cap (uncached tail)"
    "rvu_stream_cache_evictions_total"

let fault_force_evict = Rvu_obs.Fault.site "stream_cache.force_evict"

(* Placeholder for unfilled buffer slots; never observable. *)
let dummy =
  Timed.make ~t0:0.0 ~dur:0.0
    ~shape:(Segment.wait ~at:Rvu_geom.Vec2.zero ~dur:0.0)

let create ?(clocked = Realize.identity) ?(max_segments = 524288) program =
  if max_segments < 1 then invalid_arg "Stream_cache.create: max_segments < 1";
  {
    lock = Mutex.create ();
    cap = max_segments;
    buf = Array.make (min 256 max_segments) dummy;
    len = 0;
    tail = Realize.realize clocked program;
    ended = false;
    hits = 0;
    misses = 0;
    evictions = 0;
    compiled = Compiled.empty;
  }

let realized t =
  Mutex.lock t.lock;
  let n = t.len in
  Mutex.unlock t.lock;
  n

let max_segments t = t.cap

let stats t =
  Mutex.lock t.lock;
  let s = { hits = t.hits; misses = t.misses; evictions = t.evictions } in
  Mutex.unlock t.lock;
  s

let ensure_capacity t n =
  if n > Array.length t.buf then begin
    let cap = ref (Array.length t.buf) in
    while !cap < n do
      cap := !cap * 2
    done;
    let fresh = Array.make (min !cap t.cap) dummy in
    Array.blit t.buf 0 fresh 0 t.len;
    t.buf <- fresh
  end

(* Realization is amortized over lock acquisitions: each miss pulls a block,
   not a single segment. *)
let block = 64

(* Under [t.lock]: realize forward until slot [i] exists, the stream ends,
   or the cap is reached. *)
let fill t i =
  let stop = min t.cap (max (i + 1) (t.len + block)) in
  ensure_capacity t stop;
  let rec pull n tail =
    if n >= stop then t.tail <- tail
    else
      match tail () with
      | Seq.Nil ->
          t.ended <- true;
          t.tail <- Seq.empty
      | Seq.Cons (seg, rest) ->
          t.buf.(n) <- seg;
          t.len <- n + 1;
          pull (n + 1) rest
  in
  pull t.len t.tail

(* Readers fetch a whole block per lock acquisition (a copy of up to
   [block] realized slots), then emit it lock-free: consumers contend on
   the mutex once per 64 segments rather than once per segment. *)
type chunk =
  | Segs of Timed.t array (* >= 1 segments starting at the queried index *)
  | Ended
  | Overflow of Timed.t Seq.t
      (* the lazy remainder past the cap: consumers continue uncached *)

let chunk t i =
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      let copy_from i = Array.sub t.buf i (min block (t.len - i)) in
      if i < t.len then begin
        t.hits <- t.hits + 1;
        Rvu_obs.Metrics.incr m_hits;
        Segs (copy_from i)
      end
      else if t.ended then Ended
      else if i >= t.cap then begin
        t.evictions <- t.evictions + 1;
        Rvu_obs.Metrics.incr m_evictions;
        Overflow t.tail
      end
      else if i = t.len && Rvu_obs.Fault.fire fault_force_evict then begin
        (* Forced eviction: hand out the uncached remainder as if the cap
           had been hit. Only sound at the frontier ([i = t.len]), where
           [t.tail] is exactly the stream at position [i] — the consumer
           replays the same pure segments uncached, so results stay
           bit-identical. *)
        t.evictions <- t.evictions + 1;
        Rvu_obs.Metrics.incr m_evictions;
        Overflow t.tail
      end
      else begin
        t.misses <- t.misses + 1;
        Rvu_obs.Metrics.incr m_misses;
        fill t i;
        if i < t.len then Segs (copy_from i)
        else if t.ended then Ended
        else Overflow t.tail
      end)

let stream_from t start =
  if start < 0 then invalid_arg "Stream_cache.stream_from: negative index";
  let rec from i () =
    match chunk t i with
    | Segs segs ->
        let n = Array.length segs in
        let rec emit j () =
          if j < n then Seq.Cons (segs.(j), emit (j + 1)) else from (i + n) ()
        in
        emit 0 ()
    | Ended -> Seq.Nil
    | Overflow tail -> tail ()
  in
  from start

let stream t = stream_from t 0

(* The prefix [compiled_source] realizes before compiling, one derive
   chunk at its largest. Every recompile copies the whole prefix, and the
   engine's chunks start at 512 segments, so a prefix left to grow as
   deeper runs arrive would be realized and recompiled piecemeal, each
   step paid by whichever request first reached past it. Realizing the
   shallow rounds' prefix once, at first use, keeps that cost out of the
   requests. *)
let min_compiled = 16384

let compiled_source t =
  Mutex.lock t.lock;
  let tbl =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.lock)
      (fun () ->
        if t.len < min_compiled && not t.ended then fill t (min_compiled - 1);
        if t.compiled.Compiled.n = t.len then t.compiled
        else begin
          (* Compile a snapshot of the realized prefix. [buf] may be
             swapped by a concurrent [ensure_capacity], so the sub-copy
             under the lock is load-bearing, not defensive. *)
          let tbl = Compiled.of_timed (Array.sub t.buf 0 t.len) in
          t.compiled <- tbl;
          tbl
        end)
  in
  (tbl, stream_from t tbl.Compiled.n)

(* ------------------------------------------------------------------ *)
(* Keyed registry *)

let registry : (string, t) Hashtbl.t = Hashtbl.create 8
let registry_lock = Mutex.create ()

let find_or_create ~key ?clocked ?max_segments make =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry key with
      | Some t -> t
      | None ->
          let t = create ?clocked ?max_segments (make ()) in
          Hashtbl.add registry key t;
          t)

let find_opt ~key =
  Mutex.lock registry_lock;
  let r = Hashtbl.find_opt registry key in
  Mutex.unlock registry_lock;
  r

let drop ~key =
  Mutex.lock registry_lock;
  Hashtbl.remove registry key;
  Mutex.unlock registry_lock
