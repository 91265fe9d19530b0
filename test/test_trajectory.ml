(* Unit and property tests for Rvu_trajectory. *)

open Rvu_geom
open Rvu_trajectory

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let vec2_arb =
  QCheck.map
    (fun (x, y) -> Vec2.make x y)
    QCheck.(pair (float_range (-20.0) 20.0) (float_range (-20.0) 20.0))

let conformal_arb =
  QCheck.map
    (fun (((scale, angle), reflect), offset) ->
      Conformal.make ~scale ~angle ~reflect ~offset ())
    QCheck.(
      pair
        (pair (pair (float_range 0.1 5.0) (float_range 0.0 6.28)) bool)
        vec2_arb)

let segment_arb =
  let open QCheck in
  let wait =
    map
      (fun (p, dur) -> Segment.wait ~at:p ~dur)
      (pair vec2_arb (float_range 0.1 10.0))
  in
  let line =
    map (fun (a, b) -> Segment.line ~src:a ~dst:b) (pair vec2_arb vec2_arb)
  in
  let arc =
    map
      (fun ((c, radius), (from, sweep)) -> Segment.arc ~center:c ~radius ~from ~sweep)
      (pair
         (pair vec2_arb (float_range 0.1 5.0))
         (pair (float_range 0.0 6.28) (float_range (-6.28) 6.28)))
  in
  oneof [ wait; line; arc ]

(* ------------------------------------------------------------------ *)
(* Segment *)

let test_segment_durations () =
  let w = Segment.wait ~at:Vec2.zero ~dur:3.0 in
  check_float "wait duration" 3.0 (Segment.duration w);
  check_float "wait length" 0.0 (Segment.length w);
  let l = Segment.line ~src:Vec2.zero ~dst:(Vec2.make 3.0 4.0) in
  check_float "line duration = length" 5.0 (Segment.duration l);
  let a = Segment.full_circle ~center:Vec2.zero ~radius:2.0 () in
  check_float "circle duration" (2.0 *. 2.0 *. Float.pi) (Segment.duration a)

let test_segment_endpoints () =
  let a =
    Segment.arc ~center:(Vec2.make 1.0 0.0) ~radius:2.0 ~from:0.0
      ~sweep:Float.pi
  in
  check_bool "arc start" true
    (Vec2.equal (Segment.start_pos a) (Vec2.make 3.0 0.0));
  check_bool "arc end" true
    (Vec2.equal ~tol:1e-9 (Segment.end_pos a) (Vec2.make (-1.0) 0.0))

let test_segment_position () =
  let l = Segment.line ~src:Vec2.zero ~dst:(Vec2.make 10.0 0.0) in
  check_bool "line midpoint" true
    (Vec2.equal (Segment.position l 5.0) (Vec2.make 5.0 0.0));
  check_bool "clamps beyond end" true
    (Vec2.equal (Segment.position l 20.0) (Vec2.make 10.0 0.0));
  let w = Segment.wait ~at:(Vec2.make 1.0 1.0) ~dur:2.0 in
  check_bool "wait holds" true
    (Vec2.equal (Segment.position w 1.0) (Vec2.make 1.0 1.0))

let test_segment_validation () =
  Alcotest.check_raises "negative wait"
    (Invalid_argument "Segment.wait: negative duration") (fun () ->
      ignore (Segment.wait ~at:Vec2.zero ~dur:(-1.0)));
  Alcotest.check_raises "negative radius"
    (Invalid_argument "Segment.arc: negative radius") (fun () ->
      ignore (Segment.arc ~center:Vec2.zero ~radius:(-1.0) ~from:0.0 ~sweep:1.0))

let prop_segment_map_endpoints =
  QCheck.Test.make
    ~name:"segment: map commutes with start/end positions" ~count:300
    (QCheck.pair conformal_arb segment_arb) (fun (f, seg) ->
      let mapped = Segment.map f seg in
      Vec2.equal ~tol:1e-6 (Segment.start_pos mapped)
        (Conformal.apply f (Segment.start_pos seg))
      && Vec2.equal ~tol:1e-6 (Segment.end_pos mapped)
           (Conformal.apply f (Segment.end_pos seg)))

let prop_segment_map_length =
  QCheck.Test.make ~name:"segment: map scales length by the similarity ratio"
    ~count:300 (QCheck.pair conformal_arb segment_arb) (fun (f, seg) ->
      Rvu_numerics.Floats.equal ~tol:1e-6
        (Segment.length (Segment.map f seg))
        (f.Conformal.scale *. Segment.length seg))

let prop_segment_map_pointwise =
  QCheck.Test.make
    ~name:"segment: map commutes with interior positions" ~count:300
    (QCheck.triple conformal_arb segment_arb (QCheck.float_range 0.0 1.0))
    (fun (f, seg, frac) ->
      let mapped = Segment.map f seg in
      let u = frac *. Segment.duration seg in
      let u' = frac *. Segment.duration mapped in
      Vec2.equal ~tol:1e-6
        (Segment.position mapped u')
        (Conformal.apply f (Segment.position seg u)))

let prop_segment_split =
  QCheck.Test.make ~name:"segment: split preserves geometry and duration"
    ~count:300
    (QCheck.pair segment_arb (QCheck.float_range 0.0 1.0))
    (fun (seg, frac) ->
      let dur = Segment.duration seg in
      let u = frac *. dur in
      let before, after = Segment.split seg u in
      Rvu_numerics.Floats.equal ~tol:1e-9 (Segment.duration before) u
      && Rvu_numerics.Floats.equal ~tol:1e-9 (Segment.duration after) (dur -. u)
      && Vec2.equal ~tol:1e-9 (Segment.start_pos before) (Segment.start_pos seg)
      && Vec2.equal ~tol:1e-9 (Segment.end_pos after) (Segment.end_pos seg)
      && Vec2.equal ~tol:1e-9 (Segment.end_pos before) (Segment.start_pos after)
      && Vec2.equal ~tol:1e-6 (Segment.end_pos before) (Segment.position seg u))

let test_segment_split_validation () =
  let seg = Segment.line ~src:Vec2.zero ~dst:(Vec2.make 1.0 0.0) in
  Alcotest.check_raises "beyond duration"
    (Invalid_argument "Segment.split: time outside segment") (fun () ->
      ignore (Segment.split seg 2.0))

(* ------------------------------------------------------------------ *)
(* Timed *)

let test_timed_basics () =
  let shape = Segment.line ~src:Vec2.zero ~dst:(Vec2.make 4.0 0.0) in
  let seg = Timed.make ~t0:10.0 ~dur:2.0 ~shape in
  check_float "t1" 12.0 (Timed.t1 seg);
  check_float "speed" 2.0 (Timed.speed seg);
  check_bool "position at start" true
    (Vec2.equal (Timed.position seg 10.0) Vec2.zero);
  check_bool "position at mid" true
    (Vec2.equal (Timed.position seg 11.0) (Vec2.make 2.0 0.0));
  check_bool "contains" true (Timed.contains seg 11.0);
  check_bool "not contains end" false (Timed.contains seg 12.0)

let test_timed_validation () =
  let shape = Segment.wait ~at:Vec2.zero ~dur:1.0 in
  Alcotest.check_raises "negative duration"
    (Invalid_argument "Timed.make: negative duration") (fun () ->
      ignore (Timed.make ~t0:0.0 ~dur:(-1.0) ~shape));
  Alcotest.check_raises "non-finite start"
    (Invalid_argument "Timed.make: non-finite start") (fun () ->
      ignore (Timed.make ~t0:Float.nan ~dur:1.0 ~shape))

(* ------------------------------------------------------------------ *)
(* Program *)

let square_program =
  Program.of_list
    [
      Segment.line ~src:Vec2.zero ~dst:(Vec2.make 1.0 0.0);
      Segment.line ~src:(Vec2.make 1.0 0.0) ~dst:(Vec2.make 1.0 1.0);
      Segment.line ~src:(Vec2.make 1.0 1.0) ~dst:(Vec2.make 0.0 1.0);
      Segment.line ~src:(Vec2.make 0.0 1.0) ~dst:Vec2.zero;
    ]

let test_program_measures () =
  check_float "duration" 4.0 (Program.duration square_program);
  check_float "length" 4.0 (Program.length square_program);
  Alcotest.(check int) "segments" 4 (Program.segment_count square_program)

let test_program_continuity () =
  check_bool "square is continuous" true
    (Program.check_continuity square_program = Ok ());
  let broken =
    Program.of_list
      [
        Segment.line ~src:Vec2.zero ~dst:(Vec2.make 1.0 0.0);
        Segment.line ~src:(Vec2.make 5.0 5.0) ~dst:Vec2.zero;
      ]
  in
  check_bool "gap detected" true (Result.is_error (Program.check_continuity broken))

let test_program_position_at () =
  check_bool "t=0.5" true
    (Vec2.equal (Program.position_at square_program 0.5) (Vec2.make 0.5 0.0));
  check_bool "t=1.5" true
    (Vec2.equal (Program.position_at square_program 1.5) (Vec2.make 1.0 0.5));
  check_bool "beyond end returns final" true
    (Vec2.equal (Program.position_at square_program 100.0) Vec2.zero);
  Alcotest.check_raises "negative time"
    (Invalid_argument "Program.position_at: negative time") (fun () ->
      ignore (Program.position_at square_program (-1.0)))

let test_program_rounds () =
  let gen k =
    Program.of_list [ Segment.wait ~at:Vec2.zero ~dur:(float_of_int k) ]
  in
  let p = Program.rounds_desc gen ~from:3 ~down_to:1 in
  check_float "descending durations" 6.0 (Program.duration p);
  let durs =
    List.map Segment.duration (Program.take_segments 3 p)
  in
  check_bool "order 3,2,1" true (durs = [ 3.0; 2.0; 1.0 ]);
  let inf = Program.rounds_from gen ~first:1 in
  Alcotest.(check int) "take from infinite" 5
    (List.length (Program.take_segments 5 inf))

(* ------------------------------------------------------------------ *)
(* Realize *)

let attrs_frame ~scale ~angle ~reflect ~offset ~time_unit =
  Realize.make ~frame:(Conformal.make ~scale ~angle ~reflect ~offset ()) ~time_unit

let test_realize_identity () =
  let stream = Realize.realize Realize.identity square_program in
  let segs = List.of_seq stream in
  Alcotest.(check int) "4 segments" 4 (List.length segs);
  let first = List.hd segs in
  check_float "starts at 0" 0.0 first.Timed.t0;
  let last = List.nth segs 3 in
  check_float "ends at 4" 4.0 (Timed.t1 last)

let test_realize_time_scaling () =
  let c = attrs_frame ~scale:1.0 ~angle:0.0 ~reflect:false ~offset:Vec2.zero ~time_unit:2.0 in
  let segs = List.of_seq (Realize.realize c square_program) in
  check_float "stretched end" 8.0 (Timed.t1 (List.nth segs 3))

let test_realize_drops_zero_durations () =
  let p =
    Program.of_list
      [
        Segment.line ~src:Vec2.zero ~dst:Vec2.zero;
        Segment.wait ~at:Vec2.zero ~dur:0.0;
        Segment.line ~src:Vec2.zero ~dst:(Vec2.make 1.0 0.0);
      ]
  in
  Alcotest.(check int) "only the real move survives" 1
    (List.length (List.of_seq (Realize.realize Realize.identity p)))

let test_realize_start_offset () =
  let segs =
    List.of_seq (Realize.realize ~start:100.0 Realize.identity square_program)
  in
  check_float "starts at 100" 100.0 (List.hd segs).Timed.t0

let prop_realize_contiguous =
  QCheck.Test.make ~name:"realize: stream is contiguous in time" ~count:100
    QCheck.(pair conformal_arb (float_range 0.1 5.0))
    (fun (frame, time_unit) ->
      let c = Realize.make ~frame ~time_unit in
      let segs = List.of_seq (Realize.realize c square_program) in
      let rec contiguous = function
        | a :: (b :: _ as rest) ->
            Rvu_numerics.Floats.equal ~tol:1e-9 (Timed.t1 a) b.Timed.t0
            && contiguous rest
        | _ -> true
      in
      contiguous segs)

let prop_realize_lemma4 =
  (* Lemma 4 with clocks: the realised position of R' at global time t equals
     offset + scale·R(angle)·F(reflect)·S(t/τ) where S is the local program
     trajectory. *)
  QCheck.Test.make ~name:"realize: Lemma 4 frame relation" ~count:200
    QCheck.(pair conformal_arb (pair (float_range 0.1 5.0) (float_range 0.0 3.9)))
    (fun (frame, (time_unit, t_local)) ->
      let c = Realize.make ~frame ~time_unit in
      let t_global = time_unit *. t_local in
      let expected =
        Conformal.apply frame (Program.position_at square_program t_local)
      in
      Vec2.equal ~tol:1e-6 expected (Realize.position c square_program t_global))

let prop_realize_stream_matches_position =
  QCheck.Test.make
    ~name:"realize: streamed segments agree with direct evaluation" ~count:100
    QCheck.(pair conformal_arb (float_range 0.05 0.95))
    (fun (frame, frac) ->
      let c = Realize.make ~frame ~time_unit:1.5 in
      let segs = List.of_seq (Realize.realize c square_program) in
      List.for_all
        (fun (seg : Timed.t) ->
          let t = seg.Timed.t0 +. (frac *. seg.Timed.dur) in
          Vec2.equal ~tol:1e-6 (Timed.position seg t)
            (Realize.position c square_program t))
        segs)

let test_realize_validation () =
  Alcotest.check_raises "bad time unit"
    (Invalid_argument "Realize.make: non-positive time unit") (fun () ->
      ignore (Realize.make ~frame:Conformal.identity ~time_unit:0.0))

(* ------------------------------------------------------------------ *)
(* Drift *)

let test_drift_validation () =
  Alcotest.check_raises "empty pattern"
    (Invalid_argument "Drift.pattern: empty schedule") (fun () ->
      ignore (Drift.pattern []));
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Drift.pattern: non-positive rate") (fun () ->
      ignore (Drift.pattern [ (1.0, 0.0) ]));
  Alcotest.check_raises "bad amplitude"
    (Invalid_argument "Drift.oscillating: amplitude outside [0, 1)") (fun () ->
      ignore (Drift.oscillating ~mean:1.0 ~amplitude:1.0 ~half_period:1.0))

let test_drift_mean_rate () =
  check_float "constant" 0.7 (Drift.mean_rate (Drift.constant 0.7));
  check_float "oscillating mean" 0.6
    (Drift.mean_rate (Drift.oscillating ~mean:0.6 ~amplitude:0.3 ~half_period:2.0))

let prop_drift_constant_equals_plain =
  (* A constant pattern must reproduce Realize.realize: same total global
     duration and the same position at any global time. *)
  QCheck.Test.make ~name:"drift: constant pattern equals plain realisation"
    ~count:100
    QCheck.(pair conformal_arb (pair (float_range 0.2 3.0) (float_range 0.0 1.0)))
    (fun (frame, (rate, frac)) ->
      let plain =
        List.of_seq
          (Realize.realize (Realize.make ~frame ~time_unit:rate) square_program)
      in
      let drift =
        List.of_seq (Drift.realize ~frame (Drift.constant rate) square_program)
      in
      let end_of segs = Timed.t1 (List.nth segs (List.length segs - 1)) in
      let t = frac *. end_of plain in
      let pos_at segs t =
        let seg = List.find (fun s -> Timed.t1 s >= t) segs in
        Timed.position seg t
      in
      Rvu_numerics.Floats.equal ~tol:1e-9 (end_of plain) (end_of drift)
      && Vec2.equal ~tol:1e-6 (pos_at plain t) (pos_at drift t))

let prop_drift_total_time_scales_by_pattern =
  (* Over whole cycles, global time = local time x mean rate; in general the
     total global duration lies between min and max rate x local time. *)
  QCheck.Test.make ~name:"drift: total global time within rate envelope"
    ~count:100
    QCheck.(pair (float_range 0.3 2.0) (float_range 0.0 0.8))
    (fun (mean, amplitude) ->
      let pat = Drift.oscillating ~mean ~amplitude ~half_period:0.7 in
      let segs =
        List.of_seq
          (Drift.realize ~frame:Conformal.identity pat square_program)
      in
      let total = Timed.t1 (List.nth segs (List.length segs - 1)) in
      let local = Program.duration square_program in
      total >= local *. mean *. (1.0 -. amplitude) -. 1e-9
      && total <= local *. mean *. (1.0 +. amplitude) +. 1e-9)

let test_drift_splits_are_contiguous () =
  let pat = Drift.oscillating ~mean:0.5 ~amplitude:0.4 ~half_period:0.3 in
  let segs =
    List.of_seq (Drift.realize ~frame:Conformal.identity pat square_program)
  in
  let rec contiguous = function
    | a :: (b :: _ as rest) ->
        Rvu_numerics.Floats.equal ~tol:1e-9 (Timed.t1 a) b.Timed.t0
        && Vec2.equal ~tol:1e-9
             (Timed.position a (Timed.t1 a))
             (Timed.position b b.Timed.t0)
        && contiguous rest
    | _ -> true
  in
  check_bool "time and space contiguous" true (contiguous segs);
  check_bool "splitting produced more segments" true (List.length segs > 4)

(* ------------------------------------------------------------------ *)
(* Stream_cache *)

let zigzag_program () =
  (* A finite-but-long program with varied shapes. *)
  Program.of_list
    (List.concat
       (List.init 100 (fun i ->
            let x = float_of_int i in
            [
              Segment.line ~src:(Vec2.make x 0.0) ~dst:(Vec2.make (x +. 1.0) 1.0);
              Segment.line ~src:(Vec2.make (x +. 1.0) 1.0)
                ~dst:(Vec2.make (x +. 1.0) 0.0);
              Segment.wait ~at:(Vec2.make (x +. 1.0) 0.0) ~dur:0.5;
            ])))

let timed_equal (a : Timed.t) (b : Timed.t) =
  (* Bit-level equality: the cache must replay the exact realization. *)
  a.Timed.t0 = b.Timed.t0 && a.Timed.dur = b.Timed.dur
  && a.Timed.shape = b.Timed.shape

let test_stream_cache_replays_exactly () =
  let take n s = List.of_seq (Seq.take n s) in
  let direct = take 250 (Realize.realize Realize.identity (zigzag_program ())) in
  let cache = Stream_cache.create (zigzag_program ()) in
  let cached = take 250 (Stream_cache.stream cache) in
  check_bool "bit-identical prefix" true (List.for_all2 timed_equal cached direct);
  (* A second traversal replays from the buffer, same result. *)
  let again = take 250 (Stream_cache.stream cache) in
  check_bool "replay identical" true (List.for_all2 timed_equal again direct)

let test_stream_cache_cap_overflow () =
  let take n s = List.of_seq (Seq.take n s) in
  let direct = take 300 (Realize.realize Realize.identity (zigzag_program ())) in
  let cache = Stream_cache.create ~max_segments:16 (zigzag_program ()) in
  let cached = take 300 (Stream_cache.stream cache) in
  check_bool "overflow continues uncached but identical" true
    (List.for_all2 timed_equal cached direct);
  check_bool "retention respects the cap" true (Stream_cache.realized cache <= 16)

let test_stream_cache_end_of_stream () =
  let short = Program.of_list [ Segment.line ~src:Vec2.zero ~dst:(Vec2.make 1.0 0.0) ] in
  let cache = Stream_cache.create short in
  Alcotest.(check int) "one segment then Nil" 1
    (Seq.length (Stream_cache.stream cache));
  Alcotest.(check int) "realized count" 1 (Stream_cache.realized cache)

let test_stream_cache_stats () =
  let take n s = ignore (List.of_seq (Seq.take n s)) in
  let cache = Stream_cache.create ~max_segments:16 (zigzag_program ()) in
  take 300 (Stream_cache.stream cache);
  let s1 = Stream_cache.stats cache in
  check_bool "first walk realizes the prefix" true (s1.Stream_cache.misses >= 1);
  check_bool "walk past the cap declines retention" true
    (s1.Stream_cache.evictions >= 1);
  take 300 (Stream_cache.stream cache);
  let s2 = Stream_cache.stats cache in
  check_bool "replay is served from realized slots" true
    (s2.Stream_cache.hits > s1.Stream_cache.hits);
  Alcotest.(check int) "replay realizes nothing new" s1.Stream_cache.misses
    s2.Stream_cache.misses

(* The first compile realizes one full derive chunk of a long stream (a
   short one to its end), so the shared table does not grow piecemeal;
   the tail resumes exactly after the table either way. *)
let test_stream_cache_compiled_prefix () =
  let long_program () =
    Program.concat_list (List.init 60 (fun _ -> zigzag_program ()))
  in
  let cache = Stream_cache.create (long_program ()) in
  let tbl, tail = Stream_cache.compiled_source cache in
  Alcotest.(check int) "a full chunk realized" 16384 (Stream_cache.realized cache);
  Alcotest.(check int) "and compiled" 16384 (Compiled.length tbl);
  let direct = Array.of_seq (Realize.realize Realize.identity (long_program ())) in
  check_bool "the tail resumes after the table" true
    (match tail () with
    | Seq.Cons (seg, _) -> timed_equal seg direct.(16384)
    | Seq.Nil -> false);
  let short = Stream_cache.create (zigzag_program ()) in
  let tbl, tail = Stream_cache.compiled_source short in
  Alcotest.(check int) "a short stream compiles whole" 300 (Compiled.length tbl);
  check_bool "with nothing after it" true (Seq.is_empty tail)

let test_stream_cache_registry () =
  let calls = ref 0 in
  let make () = incr calls; zigzag_program () in
  let a = Stream_cache.find_or_create ~key:"test.zigzag" make in
  let b = Stream_cache.find_or_create ~key:"test.zigzag" make in
  check_bool "same handle" true (a == b);
  Alcotest.(check int) "program built once" 1 !calls;
  Stream_cache.drop ~key:"test.zigzag";
  let c = Stream_cache.find_or_create ~key:"test.zigzag" make in
  check_bool "dropped key rebuilds" true (not (c == a));
  Stream_cache.drop ~key:"test.zigzag"

(* ------------------------------------------------------------------ *)
(* Compiled *)

(* Exact float comparison (NaN-free here): the compiled table's whole
   contract is bit-identity with the interpreted walk, so no tolerance. *)
let vec2_bit_equal (a : Vec2.t) (b : Vec2.t) =
  a.Vec2.x = b.Vec2.x && a.Vec2.y = b.Vec2.y

let clocked_arb =
  QCheck.map
    (fun (frame, time_unit) -> Realize.make ~frame ~time_unit)
    QCheck.(pair conformal_arb (float_range 0.2 3.0))

(* Gen.chained_program_arb can drop every degenerate piece; keep the
   compiled stream non-empty so the table APIs are exercised. *)
let nonempty_program_arb =
  QCheck.map
    (fun segs ->
      Program.of_list
        (if segs = [] then [ Segment.wait ~at:Vec2.zero ~dur:1.0 ] else segs))
    Gen.chained_program_arb

(* The interpreted oracle for [index_at]: linear scan for the least [i]
   with [t < t1 segs.(i)], clamped to the last segment. *)
let oracle_index segs t =
  let n = Array.length segs in
  let rec go i =
    if i >= n - 1 then n - 1 else if t < Timed.t1 segs.(i) then i else go (i + 1)
  in
  go 0

let prop_compiled_prefix_monotone =
  QCheck.Test.make ~name:"compiled: prefix-summed timeline is monotone"
    ~count:200
    (QCheck.pair clocked_arb nonempty_program_arb)
    (fun (c, p) ->
      let tbl, _ = Compiled.of_seq (Realize.realize c p) in
      let n = Compiled.length tbl in
      let ok = ref (n > 0 && tbl.Compiled.start = tbl.Compiled.t0.(0)) in
      for i = 0 to n - 1 do
        ok :=
          !ok
          && tbl.Compiled.t_end.(i)
             = tbl.Compiled.t0.(i) +. tbl.Compiled.dur.(i)
          && tbl.Compiled.t0.(i) <= tbl.Compiled.t_end.(i)
          && (i = 0 || tbl.Compiled.t_end.(i - 1) <= tbl.Compiled.t_end.(i))
      done;
      !ok && tbl.Compiled.stop = tbl.Compiled.t_end.(n - 1))

let prop_compiled_position_matches_interpreted =
  QCheck.Test.make
    ~name:"compiled: position_at is bit-identical to the interpreted walk"
    ~count:200
    (QCheck.triple clocked_arb nonempty_program_arb
       (QCheck.float_range (-0.1) 1.1))
    (fun (c, p, frac) ->
      let segs = Array.of_seq (Realize.realize c p) in
      let tbl, _ = Compiled.of_seq (Realize.realize c p) in
      let agree t =
        let i = Compiled.index_at tbl t in
        i = oracle_index segs t
        && vec2_bit_equal (Compiled.position_at tbl t)
             (Timed.position segs.(i) t)
      in
      (* A random time spilling slightly outside the covered range... *)
      let span = tbl.Compiled.stop -. tbl.Compiled.start in
      agree (tbl.Compiled.start +. (frac *. span))
      (* ...and every exact segment boundary, where [t < t_end] tips over. *)
      && Array.for_all agree tbl.Compiled.t_end
      && Array.for_all agree tbl.Compiled.t0)

let prop_compiled_cursor_matches_binary_search =
  QCheck.Test.make
    ~name:"compiled: cursor agrees with binary search (backward seeks too)"
    ~count:200
    (QCheck.pair
       (QCheck.pair clocked_arb nonempty_program_arb)
       (QCheck.list_of_size
          (QCheck.Gen.int_range 1 12)
          (QCheck.float_range (-0.1) 1.1)))
    (fun ((c, p), fracs) ->
      let tbl, _ = Compiled.of_seq (Realize.realize c p) in
      let cur = Compiled.cursor tbl in
      let span = tbl.Compiled.stop -. tbl.Compiled.start in
      (* The times arrive unsorted, so the cursor must handle forward
         scans and backward jumps alike. *)
      List.for_all
        (fun frac ->
          let t = tbl.Compiled.start +. (frac *. span) in
          Compiled.seek cur t = Compiled.index_at tbl t
          && vec2_bit_equal (Compiled.position cur t) (Compiled.position_at tbl t))
        fracs)

let prop_compiled_of_seq_split_roundtrip =
  QCheck.Test.make ~name:"compiled: of_seq cap splits without losing segments"
    ~count:200
    (QCheck.pair
       (QCheck.pair clocked_arb nonempty_program_arb)
       QCheck.(int_range 0 8))
    (fun ((c, p), cap) ->
      let full = List.of_seq (Realize.realize c p) in
      let head, rest = Compiled.of_seq ~max_segments:cap (Realize.realize c p) in
      let tail, rest' = Compiled.of_seq rest in
      let glued =
        List.of_seq (Compiled.to_seq head) @ List.of_seq (Compiled.to_seq tail)
      in
      Compiled.length head = min cap (List.length full)
      && Seq.is_empty rest'
      && List.length glued = List.length full
      && List.for_all2 timed_equal glued full)

(* Rows [0, n) of [got] against rows [off, off + n) of [want], all 15
   columns. Arena-backed columns are longer than their table, so compare
   slices; structural [=] on floats admits exactly the documented ±0.0
   slack. *)
let rows_equal (got : Compiled.t) (want : Compiled.t) ~off =
  let n = Compiled.length got in
  let same col = Array.sub (col got) 0 n = Array.sub (col want) off n in
  off + n <= Compiled.length want
  && same (fun t -> t.Compiled.t0)
  && same (fun t -> t.Compiled.dur)
  && same (fun t -> t.Compiled.t_end)
  && same (fun t -> t.Compiled.speed)
  && same (fun t -> t.Compiled.kind)
  && same (fun t -> t.Compiled.local_dur)
  && same (fun t -> t.Compiled.g0)
  && same (fun t -> t.Compiled.g1)
  && same (fun t -> t.Compiled.g2)
  && same (fun t -> t.Compiled.g3)
  && same (fun t -> t.Compiled.g4)
  && same (fun t -> t.Compiled.abx)
  && same (fun t -> t.Compiled.aby)
  && same (fun t -> t.Compiled.asx)
  && same (fun t -> t.Compiled.asy)

let prop_compiled_derive_matches_realize =
  QCheck.Test.make
    ~name:"compiled: derive equals compiling the re-realised stream" ~count:200
    (QCheck.pair
       (QCheck.pair clocked_arb nonempty_program_arb)
       QCheck.(int_range 0 8))
    (fun ((c, p), cap) ->
      (* Identity-clocked reference split into table + tail, as
         Stream_cache.compiled_source hands it to the engine. *)
      let ref_tbl, ref_tail =
        Compiled.of_seq ~max_segments:cap (Realize.realize Realize.identity p)
      in
      let got, got_tail = Compiled.derive c ref_tbl ~tail:ref_tail in
      let want, want_tail =
        Compiled.of_seq ~max_segments:(Compiled.length got)
          (Realize.realize c p)
      in
      Compiled.length got = Compiled.length want
      && got.Compiled.start = want.Compiled.start
      && got.Compiled.stop = want.Compiled.stop
      && rows_equal got want ~off:0
      && List.for_all2 timed_equal
           (List.of_seq got_tail)
           (List.of_seq want_tail))

let prop_compiled_deriver_chunks_concat =
  QCheck.Test.make
    ~name:"compiled: chunked deriver concatenates to the one-shot derive"
    ~count:200
    (QCheck.pair
       (QCheck.pair clocked_arb nonempty_program_arb)
       (QCheck.pair
          QCheck.(int_range 0 8)
          (QCheck.list_of_size (QCheck.Gen.int_range 1 6) QCheck.(int_range 1 7))))
    (fun ((c, p), (cap, sizes)) ->
      let reference () =
        Compiled.of_seq ~max_segments:cap (Realize.realize Realize.identity p)
      in
      let ref_tbl, ref_tail = reference () in
      let full_tbl, full_tail = Compiled.derive c ref_tbl ~tail:ref_tail in
      let want =
        List.of_seq (Compiled.to_seq full_tbl) @ List.of_seq full_tail
      in
      let ref_tbl', ref_tail' = reference () in
      let d = Compiled.deriver c ref_tbl' ~tail:ref_tail' in
      let sizes = Array.of_list sizes in
      let rec collect acc k =
        let chunk =
          Compiled.next_chunk d
            ~max_segments:sizes.(k mod Array.length sizes)
        in
        if Compiled.length chunk = 0 then List.rev acc
        else
          (* Materialise before the next pull: chunks alias the arena. *)
          collect (List.rev_append (List.of_seq (Compiled.to_seq chunk)) acc)
            (k + 1)
      in
      let got = collect [] 0 in
      List.length got = List.length want
      && List.for_all2 timed_equal got want
      (* Exhaustion is sticky: further pulls stay empty. *)
      && Compiled.length (Compiled.next_chunk d ~max_segments:4) = 0)

(* The two properties above derive into fresh storage, where no stale
   row can show, and the chunked one compares through [to_seq], which
   never reads the affine columns. An engine's arena is reused across
   runs of different programs, frames and chunk offsets, so a row must
   come out the same whatever an earlier derive left in it. *)
let prop_compiled_derive_dirty_arena =
  QCheck.Test.make
    ~name:"compiled: derive into a reused arena writes every column"
    ~count:200
    (QCheck.triple
       (QCheck.pair clocked_arb nonempty_program_arb)
       (QCheck.pair clocked_arb nonempty_program_arb)
       (QCheck.pair
          QCheck.(int_range 0 8)
          (QCheck.list_of_size (QCheck.Gen.int_range 1 6) QCheck.(int_range 1 7))))
    (fun ((c, p), (dirty_c, dirty_p), (cap, sizes)) ->
      let reference p =
        Compiled.of_seq ~max_segments:cap (Realize.realize Realize.identity p)
      in
      let arena = Compiled.arena () in
      let soil () =
        let tbl, tail = reference dirty_p in
        ignore (Compiled.derive ~arena dirty_c tbl ~tail : Compiled.t * _)
      in
      let want, _ = Compiled.of_seq (Realize.realize c p) in
      soil ();
      let tbl, tail = reference p in
      let one_shot, _ = Compiled.derive ~arena c tbl ~tail in
      let one_shot_ok = rows_equal one_shot want ~off:0 in
      soil ();
      let tbl, tail = reference p in
      let d = Compiled.deriver ~arena c tbl ~tail in
      (* Shrinking can empty the list. *)
      let sizes = Array.of_list (if sizes = [] then [ 1 ] else sizes) in
      let rec chunks_ok off k =
        let chunk =
          Compiled.next_chunk d ~max_segments:sizes.(k mod Array.length sizes)
        in
        let n = Compiled.length chunk in
        if n = 0 then off = Compiled.length want
        else rows_equal chunk want ~off && chunks_ok (off + n) (k + 1)
      in
      one_shot_ok && chunks_ok 0 0)

let test_compiled_validation () =
  Alcotest.check_raises "of_seq negative cap"
    (Invalid_argument "Compiled.of_seq: negative max_segments") (fun () ->
      ignore (Compiled.of_seq ~max_segments:(-1) Seq.empty));
  Alcotest.check_raises "index_at on empty"
    (Invalid_argument "Compiled.index_at: empty table") (fun () ->
      ignore (Compiled.index_at Compiled.empty 0.0));
  Alcotest.check_raises "cursor on empty"
    (Invalid_argument "Compiled.cursor: empty table") (fun () ->
      ignore (Compiled.cursor Compiled.empty));
  let tbl, tail =
    Compiled.of_seq
      (Realize.realize Realize.identity
         (Program.of_list [ Segment.wait ~at:Vec2.zero ~dur:1.0 ]))
  in
  Alcotest.check_raises "next_chunk non-positive cap"
    (Invalid_argument "Compiled.next_chunk: max_segments <= 0") (fun () ->
      ignore
        (Compiled.next_chunk
           (Compiled.deriver Realize.identity tbl ~tail)
           ~max_segments:0));
  (* Re-clocking a huge duration overflows to infinity; derive must fail
     with exactly the interpreted pipeline's error, eagerly. *)
  let huge, huge_tail =
    Compiled.of_seq
      (Realize.realize Realize.identity
         (Program.of_list [ Segment.wait ~at:Vec2.zero ~dur:1e308 ]))
  in
  Alcotest.check_raises "derive overflow"
    (Invalid_argument "Timed.make: non-finite duration") (fun () ->
      ignore
        (Compiled.derive
           (Realize.make ~frame:Conformal.identity ~time_unit:10.0)
           huge ~tail:huge_tail))

let test_program_of_list_positioned_errors () =
  (* The variant constructors are public, so a malformed segment can reach
     Program.of_list; the error must carry the segment index. *)
  Alcotest.check_raises "positioned duration error"
    (Invalid_argument "Program.of_list: segment 1: negative wait duration")
    (fun () ->
      ignore
        (Program.of_list
           [
             Segment.wait ~at:Vec2.zero ~dur:1.0;
             Segment.Wait { pos = Vec2.zero; dur = -1.0 };
           ]
          : Program.t));
  Alcotest.check_raises "positioned geometry error"
    (Invalid_argument "Program.of_list: segment 0: non-finite line endpoint")
    (fun () ->
      ignore
        (Program.of_list
           [ Segment.Line { src = Vec2.zero; dst = Vec2.make Float.nan 0.0 } ]
          : Program.t))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "rvu_trajectory"
    [
      ( "segment",
        [
          Alcotest.test_case "durations and lengths" `Quick test_segment_durations;
          Alcotest.test_case "endpoints" `Quick test_segment_endpoints;
          Alcotest.test_case "position" `Quick test_segment_position;
          Alcotest.test_case "validation" `Quick test_segment_validation;
          Alcotest.test_case "split validation" `Quick test_segment_split_validation;
          qc prop_segment_map_endpoints;
          qc prop_segment_map_length;
          qc prop_segment_map_pointwise;
          qc prop_segment_split;
        ] );
      ( "timed",
        [
          Alcotest.test_case "basics" `Quick test_timed_basics;
          Alcotest.test_case "validation" `Quick test_timed_validation;
        ] );
      ( "program",
        [
          Alcotest.test_case "measures" `Quick test_program_measures;
          Alcotest.test_case "continuity check" `Quick test_program_continuity;
          Alcotest.test_case "position_at" `Quick test_program_position_at;
          Alcotest.test_case "round combinators" `Quick test_program_rounds;
        ] );
      ( "realize",
        [
          Alcotest.test_case "identity" `Quick test_realize_identity;
          Alcotest.test_case "time scaling" `Quick test_realize_time_scaling;
          Alcotest.test_case "drops zero durations" `Quick
            test_realize_drops_zero_durations;
          Alcotest.test_case "start offset" `Quick test_realize_start_offset;
          Alcotest.test_case "validation" `Quick test_realize_validation;
          qc prop_realize_contiguous;
          qc prop_realize_lemma4;
          qc prop_realize_stream_matches_position;
        ] );
      ( "stream cache",
        [
          Alcotest.test_case "replays exactly" `Quick
            test_stream_cache_replays_exactly;
          Alcotest.test_case "cap overflow" `Quick test_stream_cache_cap_overflow;
          Alcotest.test_case "end of stream" `Quick test_stream_cache_end_of_stream;
          Alcotest.test_case "hit/miss/eviction counters" `Quick
            test_stream_cache_stats;
          Alcotest.test_case "keyed registry" `Quick test_stream_cache_registry;
          Alcotest.test_case "first compile realizes a chunk" `Quick
            test_stream_cache_compiled_prefix;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "validation" `Quick test_compiled_validation;
          Alcotest.test_case "program positioned errors" `Quick
            test_program_of_list_positioned_errors;
          qc prop_compiled_prefix_monotone;
          qc prop_compiled_position_matches_interpreted;
          qc prop_compiled_cursor_matches_binary_search;
          qc prop_compiled_of_seq_split_roundtrip;
          qc prop_compiled_derive_matches_realize;
          qc prop_compiled_deriver_chunks_concat;
          qc prop_compiled_derive_dirty_arena;
        ] );
      ( "drift",
        [
          Alcotest.test_case "validation" `Quick test_drift_validation;
          Alcotest.test_case "mean rate" `Quick test_drift_mean_rate;
          Alcotest.test_case "contiguous splits" `Quick
            test_drift_splits_are_contiguous;
          qc prop_drift_constant_equals_plain;
          qc prop_drift_total_time_scales_by_pattern;
        ] );
    ]
