(* Tests for Rvu_sim: approach kernels, the detector, both engines and the
   trace sampler. *)

open Rvu_geom
open Rvu_trajectory
open Rvu_sim

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

let timed ~t0 shape =
  Timed.make ~t0 ~dur:(Segment.duration shape) ~shape

let timed_scaled ~t0 ~dur shape = Timed.make ~t0 ~dur ~shape

(* ------------------------------------------------------------------ *)
(* Approach *)

let test_approach_head_on () =
  (* Two unit-speed robots on the x-axis, 10 apart, moving toward each
     other; r = 1: they are within range when the gap 10 - 2t = 1, t = 4.5. *)
  let a = timed ~t0:0.0 (Segment.line ~src:Vec2.zero ~dst:(Vec2.make 10.0 0.0)) in
  let b =
    timed ~t0:0.0
      (Segment.line ~src:(Vec2.make 10.0 0.0) ~dst:(Vec2.make 0.0 0.0))
  in
  match Approach.first_within ~r:1.0 ~resolution:1e-9 ~lo:0.0 ~hi:10.0 a b with
  | Some t -> check_float "gap closes at 4.5" 4.5 t
  | None -> Alcotest.fail "must meet"

let test_approach_already_within () =
  let a = timed ~t0:0.0 (Segment.wait ~at:Vec2.zero ~dur:5.0) in
  let b = timed ~t0:0.0 (Segment.wait ~at:(Vec2.make 0.5 0.0) ~dur:5.0) in
  match Approach.first_within ~r:1.0 ~resolution:1e-9 ~lo:0.0 ~hi:5.0 a b with
  | Some t -> check_float "immediately" 0.0 t
  | None -> Alcotest.fail "already within range"

let test_approach_parallel_never () =
  let a = timed ~t0:0.0 (Segment.line ~src:Vec2.zero ~dst:(Vec2.make 10.0 0.0)) in
  let b =
    timed ~t0:0.0
      (Segment.line ~src:(Vec2.make 0.0 5.0) ~dst:(Vec2.make 10.0 5.0))
  in
  check_bool "parallel stay apart" true
    (Approach.first_within ~r:1.0 ~resolution:1e-9 ~lo:0.0 ~hi:10.0 a b = None)

let test_approach_arc_vs_wait () =
  (* A robot circles at radius 2 around the origin; a stationary robot sits
     at (4, 0); r = 1.5. Closest approach is 2 - 1.5 > 0 when the mover is at
     (2,0)... distance 2 > 1.5, never within range. With r = 2.5 they are in
     range from the start. *)
  let arc = timed ~t0:0.0 (Segment.full_circle ~center:Vec2.zero ~radius:2.0 ()) in
  let sit = timed_scaled ~t0:0.0 ~dur:(Segment.duration (Segment.full_circle ~center:Vec2.zero ~radius:2.0 ()))
      (Segment.wait ~at:(Vec2.make 4.0 0.0) ~dur:1.0) in
  let hi = Timed.t1 arc in
  check_bool "never within 1.5" true
    (Approach.first_within ~r:1.5 ~resolution:1e-6 ~lo:0.0 ~hi arc sit = None);
  (match Approach.first_within ~r:2.5 ~resolution:1e-6 ~lo:0.0 ~hi arc sit with
  | Some t -> check_bool "in range near start" true (t < 1e-3)
  | None -> Alcotest.fail "r=2.5 reaches the arc start");
  (* r = 2.01: in range when the mover comes back around to angle 0 is the
     start; moving away first. The arc starts at (2,0), distance 2 <= 2.01:
     in range at t=0 again. Use an arc starting opposite instead. *)
  let arc_far =
    timed ~t0:0.0
      (Segment.arc ~center:Vec2.zero ~radius:2.0 ~from:Float.pi
         ~sweep:(-.Float.pi))
  in
  let hi = Timed.t1 arc_far in
  match Approach.first_within ~r:2.01 ~resolution:1e-9 ~lo:0.0 ~hi arc_far sit with
  | Some t ->
      (* Moving clockwise from (-2, 0) to (2, 0): distance to (4,0) falls
         monotonically from 6 to 2, hitting 2.01 just before the end. *)
      check_bool "near the end of the sweep" true (t > 0.9 *. hi)
  | None -> Alcotest.fail "must come within 2.01"

let test_approach_escapes () =
  (* The quick-reject bound: starting 10 apart, combined speed 2, over a
     window of 3 the pair can close at most 6 — provably above r = 1. *)
  check_bool "far pair escapes" true
    (Approach.escapes ~r:1.0 ~lipschitz:2.0 ~lo:0.0 ~hi:3.0 ~d_lo:10.0);
  (* Conservative: over a window of 5 the same pair could close 10, so the
     bound cannot rule a meeting out. *)
  check_bool "long window cannot be rejected" true
    (not (Approach.escapes ~r:1.0 ~lipschitz:2.0 ~lo:0.0 ~hi:5.0 ~d_lo:10.0));
  (* And the full kernel agrees with the bound on a concrete far pair, for
     both the closed-form (line/line) and Lipschitz (arc) paths. *)
  let a = timed ~t0:0.0 (Segment.line ~src:Vec2.zero ~dst:(Vec2.make 3.0 0.0)) in
  let b =
    timed ~t0:0.0
      (Segment.line ~src:(Vec2.make 100.0 0.0) ~dst:(Vec2.make 103.0 0.0))
  in
  check_bool "lines: no hit" true
    (Approach.first_within ~r:1.0 ~resolution:1e-9 ~lo:0.0 ~hi:3.0 a b = None);
  let c =
    timed ~t0:0.0
      (Segment.arc ~center:(Vec2.make 100.0 0.0) ~radius:2.0 ~from:0.0
         ~sweep:1.0)
  in
  check_bool "arc: no hit" true
    (Approach.first_within ~r:1.0 ~resolution:1e-6 ~lo:0.0 ~hi:2.0 a c = None)

let brute_force_min s1 s2 ~lo ~hi =
  let n = 20000 in
  let best = ref Float.infinity in
  for i = 0 to n do
    let t = lo +. (float_of_int i /. float_of_int n *. (hi -. lo)) in
    best := Float.min !best (Approach.distance_at s1 s2 t)
  done;
  !best

let segment_shape_arb =
  let open QCheck in
  let v2 =
    map
      (fun (x, y) -> Vec2.make x y)
      (pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
  in
  oneof
    [
      map (fun p -> Segment.wait ~at:p ~dur:4.0) v2;
      map (fun (a, b) -> Segment.line ~src:a ~dst:b) (pair v2 v2);
      map
        (fun ((c, radius), (from, sweep)) ->
          Segment.arc ~center:c ~radius ~from ~sweep)
        (pair (pair v2 (float_range 0.5 3.0))
           (pair (float_range 0.0 6.28)
              (oneof [ float_range 0.5 6.28; float_range (-6.28) (-0.5) ])));
    ]

let prop_first_within_sound =
  (* Whenever the kernel reports a hit, the distance there really is <= r;
     whenever it reports no hit, brute force agrees no sample goes below
     r - slack. *)
  QCheck.Test.make ~name:"approach: detection agrees with brute force"
    ~count:150
    QCheck.(pair (pair segment_shape_arb segment_shape_arb) (float_range 0.3 3.0))
    (fun ((sh1, sh2), r) ->
      QCheck.assume (Segment.duration sh1 > 0.01 && Segment.duration sh2 > 0.01);
      let dur = 4.0 in
      let s1 = timed_scaled ~t0:0.0 ~dur sh1 in
      let s2 = timed_scaled ~t0:0.0 ~dur sh2 in
      match Approach.first_within ~r ~resolution:1e-6 ~lo:0.0 ~hi:dur s1 s2 with
      | Some t ->
          t >= 0.0 && t <= dur && Approach.distance_at s1 s2 t <= r +. 1e-6
      | None -> brute_force_min s1 s2 ~lo:0.0 ~hi:dur > r -. 1e-3)

let prop_min_lower_bound_sound =
  QCheck.Test.make ~name:"approach: certified minimum below brute force"
    ~count:150
    (QCheck.pair segment_shape_arb segment_shape_arb)
    (fun (sh1, sh2) ->
      QCheck.assume (Segment.duration sh1 > 0.01 && Segment.duration sh2 > 0.01);
      let dur = 4.0 in
      let s1 = timed_scaled ~t0:0.0 ~dur sh1 in
      let s2 = timed_scaled ~t0:0.0 ~dur sh2 in
      let lb = Approach.min_distance_lower_bound ~resolution:1e-4 ~lo:0.0 ~hi:dur s1 s2 in
      let bf = brute_force_min s1 s2 ~lo:0.0 ~hi:dur in
      lb <= bf +. 1e-9 && bf -. lb < 0.05)

(* ------------------------------------------------------------------ *)
(* Detector *)

let line_stream points =
  (* Build a contiguous stream of unit-speed lines through the points. *)
  let rec build t0 = function
    | a :: (b :: _ as rest) ->
        let shape = Segment.line ~src:a ~dst:b in
        let dur = Segment.duration shape in
        Timed.make ~t0 ~dur ~shape :: build (t0 +. dur) rest
    | _ -> []
  in
  List.to_seq (build 0.0 points)

let test_detector_hit () =
  let s1 = line_stream [ Vec2.zero; Vec2.make 10.0 0.0 ] in
  let s2 = line_stream [ Vec2.make 10.0 0.0; Vec2.make 0.0 0.0 ] in
  let outcome, stats = Detector.first_meeting ~r:1.0 s1 s2 in
  (match outcome with
  | Detector.Hit t -> check_float "head-on at 4.5" 4.5 t
  | _ -> Alcotest.fail "must hit");
  check_bool "scanned an interval" true (stats.Detector.intervals >= 1)

let test_detector_multi_segment () =
  (* R walks a right angle; R' waits far away then meets it. R' path: waits
     at (5, 5) while R goes (0,0) -> (5,0) -> (5,5). *)
  let s1 = line_stream [ Vec2.zero; Vec2.make 5.0 0.0; Vec2.make 5.0 5.0 ] in
  let s2 = Seq.return (timed_scaled ~t0:0.0 ~dur:10.0 (Segment.wait ~at:(Vec2.make 5.0 5.0) ~dur:10.0)) in
  let outcome, _ = Detector.first_meeting ~r:0.5 s1 s2 in
  match outcome with
  | Detector.Hit t -> check_float "arrives at 9.5" 9.5 t
  | _ -> Alcotest.fail "must hit"

let test_detector_horizon () =
  let s1 = line_stream [ Vec2.zero; Vec2.make 100.0 0.0 ] in
  let s2 = line_stream [ Vec2.make 0.0 50.0; Vec2.make 100.0 50.0 ] in
  let outcome, _ = Detector.first_meeting ~r:1.0 ~horizon:20.0 s1 s2 in
  check_bool "horizon" true (outcome = Detector.Horizon 20.0)

let test_detector_stream_end () =
  let s1 = line_stream [ Vec2.zero; Vec2.make 5.0 0.0 ] in
  let s2 = line_stream [ Vec2.make 0.0 50.0; Vec2.make 5.0 50.0 ] in
  let outcome, _ = Detector.first_meeting ~r:1.0 s1 s2 in
  match outcome with
  | Detector.Stream_end t -> check_float "ends at 5" 5.0 t
  | _ -> Alcotest.fail "finite streams end"

let test_detector_validation () =
  Alcotest.check_raises "bad r"
    (Invalid_argument "Detector.first_meeting: r <= 0") (fun () ->
      ignore (Detector.first_meeting ~r:0.0 Seq.empty Seq.empty))

let test_fold_intervals () =
  let s1 = line_stream [ Vec2.zero; Vec2.make 10.0 0.0 ] in
  let s2 = line_stream [ Vec2.make 0.0 5.0; Vec2.make 10.0 5.0 ] in
  let total =
    Detector.fold_intervals s1 s2 ~init:0.0 ~f:(fun acc ~lo ~hi _ _ ->
        acc +. (hi -. lo))
  in
  check_float "full common span covered" 10.0 total

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_validation () =
  Alcotest.check_raises "zero displacement"
    (Invalid_argument "Engine.instance: robots must start at different locations")
    (fun () ->
      ignore
        (Engine.instance ~attributes:Rvu_core.Attributes.reference
           ~displacement:Vec2.zero ~r:1.0));
  Alcotest.check_raises "bad r"
    (Invalid_argument "Engine.instance: r <= 0") (fun () ->
      ignore
        (Engine.instance ~attributes:Rvu_core.Attributes.reference
           ~displacement:(Vec2.make 1.0 0.0) ~r:0.0))

let test_engine_speed_rendezvous () =
  let inst =
    Engine.instance
      ~attributes:(Rvu_core.Attributes.make ~v:2.0 ())
      ~displacement:(Vec2.make 2.0 1.0) ~r:0.1
  in
  let res = Engine.run ~horizon:1e6 inst in
  match res.Engine.outcome with
  | Detector.Hit t ->
      check_bool "positive" true (t > 0.0);
      (* Against the Algorithm 7 analytic guarantee for this instance. *)
      let bound = Option.get res.Engine.bound.Rvu_core.Universal.time in
      check_bool "within analytic bound" true (t <= bound)
  | _ -> Alcotest.fail "different speeds must rendezvous"

let test_engine_clock_rendezvous () =
  let inst =
    Engine.instance
      ~attributes:(Rvu_core.Attributes.make ~tau:0.5 ())
      ~displacement:(Vec2.make 1.5 0.0) ~r:0.5
  in
  let res = Engine.run ~horizon:1e8 inst in
  match res.Engine.outcome with
  | Detector.Hit t ->
      check_bool "within theorem 3 bound" true
        (t <= Option.get res.Engine.bound.Rvu_core.Universal.time)
  | _ -> Alcotest.fail "different clocks must rendezvous"

let test_engine_infeasible_stays_apart () =
  (* Mirror twins, adversarial displacement: certified separation. *)
  let attrs =
    Rvu_core.Attributes.make ~phi:(Float.pi /. 2.0) ~chi:Rvu_core.Attributes.Opposite ()
  in
  let dhat = Option.get (Rvu_core.Feasibility.adversarial_direction attrs) in
  let inst =
    Engine.instance ~attributes:attrs ~displacement:(Vec2.scale 3.0 dhat) ~r:0.2
  in
  let res = Engine.run ~horizon:5000.0 inst in
  check_bool "no rendezvous" true (res.Engine.outcome = Detector.Horizon 5000.0);
  let sep = Engine.separation_certificate ~resolution:1e-2 ~horizon:1000.0 inst in
  check_bool "certified separation = d" true (sep >= 3.0 -. 0.05)

let test_engine_identical_never_closer () =
  let inst =
    Engine.instance ~attributes:Rvu_core.Attributes.reference
      ~displacement:(Vec2.make 1.0 1.0) ~r:0.5
  in
  let res = Engine.run ~horizon:2000.0 inst in
  check_bool "no rendezvous" true (res.Engine.outcome = Detector.Horizon 2000.0);
  (* Identical robots keep their exact displacement forever. *)
  check_bool "distance constant" true
    (Rvu_numerics.Floats.equal ~tol:1e-6 res.Engine.stats.Detector.min_distance
       (sqrt 2.0))

let test_fold_intervals_horizon_clip () =
  let s1 = line_stream [ Vec2.zero; Vec2.make 10.0 0.0 ] in
  let s2 = line_stream [ Vec2.make 0.0 5.0; Vec2.make 10.0 5.0 ] in
  let total =
    Detector.fold_intervals ~horizon:4.0 s1 s2 ~init:0.0
      ~f:(fun acc ~lo ~hi _ _ -> acc +. (hi -. lo))
  in
  check_float "clipped at horizon" 4.0 total

let test_engine_program_override () =
  (* The ablation hook: run with Algorithm 4 instead of Algorithm 7. *)
  let inst =
    Engine.instance
      ~attributes:(Rvu_core.Attributes.make ~v:2.0 ())
      ~displacement:(Vec2.make 2.0 1.0) ~r:0.1
  in
  let res =
    Engine.run ~horizon:1e6 ~program:(Rvu_search.Algorithm4.program ()) inst
  in
  match res.Engine.outcome with
  | Detector.Hit t ->
      check_bool "theorem 2 bound" true
        (t
        <= Option.get
             (Rvu_core.Bounds.symmetric_clock_time_safe
                (Rvu_core.Attributes.make ~v:2.0 ())
                ~d:(Vec2.norm (Vec2.make 2.0 1.0))
                ~r:0.1))
  | _ -> Alcotest.fail "must rendezvous under Algorithm 4 too"

(* ------------------------------------------------------------------ *)
(* Search engine *)

let test_search_engine_line_hit () =
  (* Target dead ahead on the first outbound line of Search(1). *)
  let program = Rvu_search.Algorithm4.program () in
  let outcome, stats =
    Search_engine.run ~program ~target:(Vec2.make 0.45 0.0) ~r:0.05 ()
  in
  check_bool "walked at least one segment" true
    (stats.Search_engine.segments >= 1);
  match outcome with
  | Search_engine.Found t ->
      (* Outbound line reaches x = 0.4 (within r of target) at t = 0.4. *)
      check_float "contact on the way out" 0.4 t
  | _ -> Alcotest.fail "must find"

let test_search_engine_horizon () =
  let program = Rvu_search.Algorithm4.program () in
  let outcome, _ =
    Search_engine.run ~horizon:10.0 ~program ~target:(Vec2.make 100.0 0.0)
      ~r:0.01 ()
  in
  check_bool "horizon" true (outcome = Search_engine.Horizon 10.0)

let test_search_engine_program_end () =
  let program = Rvu_search.Algorithm4.search_all 1 in
  let outcome, _ =
    Search_engine.run ~program ~target:(Vec2.make 100.0 0.0) ~r:0.01 ()
  in
  match outcome with
  | Search_engine.Program_end t ->
      check_bool "ends at S(1)" true
        (Rvu_numerics.Floats.equal t (Rvu_search.Timing.search_all_time 1))
  | _ -> Alcotest.fail "finite program must end"

let test_search_engine_validation () =
  Alcotest.check_raises "bad r"
    (Invalid_argument "Search_engine.run: r <= 0") (fun () ->
      ignore
        (Search_engine.run ~program:Rvu_trajectory.Program.empty
           ~target:Vec2.zero ~r:0.0 ()))

(* End-to-end soundness: on random continuous multi-segment programs and
   random attributes, the detector's verdict must match a fine brute-force
   sampling of the two realised trajectories. *)

let chained_program_arb = Gen.chained_program_arb

(* Mild ranges shared with the other suites; see test/gen.ml. *)
let attrs_arb = Gen.attrs_mild_arb

let prop_separation_certificate_sound =
  (* The certificate must lower-bound every sampled inter-robot distance. *)
  QCheck.Test.make ~name:"engine: separation certificate below sampled distances"
    ~count:30 attrs_arb (fun attributes ->
      let displacement = Vec2.make 2.0 1.2 in
      let inst = Engine.instance ~attributes ~displacement ~r:0.05 in
      let horizon = 50.0 in
      let sep = Engine.separation_certificate ~resolution:1e-3 ~horizon inst in
      let program = Rvu_core.Universal.program () in
      let clocked_r' = Rvu_core.Frame.clocked attributes ~displacement in
      let ok = ref true in
      for i = 0 to 500 do
        let t = float_of_int i /. 500.0 *. horizon in
        let d =
          Vec2.dist
            (Realize.position Realize.identity program t)
            (Realize.position clocked_r' program t)
        in
        if sep > d +. 1e-6 then ok := false
      done;
      !ok)

let prop_engine_matches_brute_force =
  QCheck.Test.make
    ~name:"engine: verdict and hit time agree with fine trajectory sampling"
    ~count:60
    (QCheck.pair chained_program_arb attrs_arb)
    (fun (segs, attributes) ->
      QCheck.assume (segs <> []);
      let program = Program.of_list segs in
      let displacement = Vec2.make 1.3 0.7 in
      let r = 0.5 in
      let clocked_r = Realize.identity in
      let clocked_r' = Rvu_core.Frame.clocked attributes ~displacement in
      let horizon =
        Float.min
          (Program.duration program)
          (attributes.Rvu_core.Attributes.tau *. Program.duration program)
      in
      QCheck.assume (horizon > 0.1);
      let dist t =
        Vec2.dist
          (Realize.position clocked_r program t)
          (Realize.position clocked_r' program t)
      in
      (* Brute force: first sample within r, on a grid fine enough that the
         relative speed cannot tunnel through the band. *)
      let steps = 4000 in
      let dt = horizon /. float_of_int steps in
      let rec first_below i =
        if i > steps then None
        else
          let t = float_of_int i *. dt in
          if dist t <= r then Some t else first_below (i + 1)
      in
      let brute = first_below 0 in
      let inst = Rvu_sim.Engine.instance ~attributes ~displacement ~r in
      match ((Rvu_sim.Engine.run ~horizon ~program inst).Rvu_sim.Engine.outcome, brute)
      with
      | Rvu_sim.Detector.Hit t, Some tb ->
          (* The detector finds the true first crossing, which can only be
             earlier than the sampled one (within a step). *)
          t <= tb +. 1e-6 && dist t <= r +. 1e-6
      | Rvu_sim.Detector.Hit t, None ->
          (* Sampling missed a brief crossing: the hit must be genuine. *)
          dist t <= r +. 1e-6
      | (Rvu_sim.Detector.Horizon _ | Rvu_sim.Detector.Stream_end _), Some tb ->
          (* The detector may only disagree if the dip is marginal. *)
          dist tb >= r -. 1e-4
      | (Rvu_sim.Detector.Horizon _ | Rvu_sim.Detector.Stream_end _), None -> true)

(* ------------------------------------------------------------------ *)
(* Compiled kernel vs the interpreted oracle.

   The contract is bit-identity, not tolerance: same outcome constructor
   with the same float, same interval count, same min-distance. Anything
   weaker would let the compiled kernel drift from the oracle one ulp at a
   time. *)

let detector_pair_equal (o1, (s1 : Detector.stats)) (o2, (s2 : Detector.stats))
    =
  o1 = o2 && s1 = s2

let prop_compiled_detector_bit_identical =
  QCheck.Test.make
    ~name:
      "detector: compiled kernel bit-identical to interpreted (incl. \
       closed-form ablation)"
    ~count:80
    (QCheck.triple chained_program_arb attrs_arb QCheck.bool)
    (fun (segs, attributes, closed_forms) ->
      QCheck.assume (segs <> []);
      let program = Program.of_list segs in
      let displacement = Vec2.make 1.3 0.7 in
      let clocked_r' = Rvu_core.Frame.clocked attributes ~displacement in
      let s_r = Realize.realize Realize.identity program in
      let s_r' = Realize.realize clocked_r' program in
      let r = 0.35 and horizon = 40.0 in
      let interpreted =
        Detector.first_meeting ~closed_forms ~horizon ~r s_r s_r'
      in
      let compiled =
        Detector.first_meeting_sources ~closed_forms ~horizon ~r
          (Detector.source_of_seq s_r)
          (Detector.source_of_seq s_r')
      in
      detector_pair_equal interpreted compiled)

let prop_compiled_engine_bit_identical =
  QCheck.Test.make
    ~name:"engine: Compiled kernel = Interpreted kernel (bit-identical)"
    ~count:8 Gen.instance_arbitrary
    (fun instances ->
      let horizon = 2e4 in
      Array.for_all
        (fun inst ->
          Gen.result_equal
            (Engine.run ~horizon ~kernel:Engine.Interpreted inst)
            (Engine.run ~horizon ~kernel:Engine.Compiled inst))
        instances)

(* Grazing geometry for the compiled kernel's broad phase, which bounds
   the robots' distance over an interval from below by the gap between
   two annuli: an arc's circle, a line's disc on its chord, a wait's
   point. Each robot waits (the primer, setting the running minimum
   above or below the bound) and then takes one grazing segment; the
   pair is placed so the bound lands at r + delta, with delta a few ulps
   of r, about the 1e-9 relative margin on either side, or well clear
   on either side, and either outside each other or one inside an arc.
   Every tight segment ends the interval at the point that realises the
   bound, so a wrong bound shows as a hit or a minimum the compiled
   kernel skipped and the interpreted walker did not. *)
let grazing_gen st =
  let u lo hi = lo +. Random.State.float st (hi -. lo) in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let r = u 0.01 2.0 in
  let ka = Random.State.int st 3 and kb = Random.State.int st 3 in
  let radius k = if k = 0 then 0.0 else u 0.05 3.0 in
  let ob = radius kb in
  let inside = ka = 2 && Random.State.int st 3 = 0 in
  (* Inside an arc, the centres stay at least 0.3 apart (|delta| <= r/2
     below): a wait near a circle's centre keeps an almost constant
     distance, which no solver settles quickly. *)
  let oa = if inside then ob +. (1.5 *. r) +. u 0.3 2.0 else radius ka in
  let ca = Vec2.make (u (-4.0) 4.0) (u (-4.0) 4.0) in
  let axis = Vec2.of_polar ~radius:1.0 ~angle:(u 0.0 (2.0 *. Float.pi)) in
  (* About the kernel's margin scale: coordinates, radii and r. *)
  let scale =
    Float.abs ca.Vec2.x +. Float.abs ca.Vec2.y +. (2.0 *. (oa +. ob +. r))
  in
  let ulp = Float.succ r -. r in
  let delta =
    (if Random.State.bool st then 1.0 else -1.0)
    *.
    match Random.State.int st 3 with
    | 0 -> float_of_int (1 + Random.State.int st 4) *. ulp
    | 1 -> pick [ 0.5; 0.9; 1.1; 2.0 ] *. 1e-9 *. scale
    | _ -> u 0.01 0.5 *. r
  in
  let dc =
    if inside then oa -. ob -. r -. delta else oa +. ob +. r +. delta
  in
  let cb = Vec2.add ca (Vec2.scale dc axis) in
  (* The direction, from each centre, of the point realising the bound. *)
  let wa = axis and wb = if inside then axis else Vec2.scale (-1.0) axis in
  let dur = u 0.5 5.0 in
  let segment k c rad w =
    let w =
      if Random.State.int st 4 = 0 then
        Vec2.of_polar ~radius:1.0 ~angle:(u 0.0 (2.0 *. Float.pi))
      else w
    in
    let shape =
      match k with
      | 0 -> Segment.wait ~at:c ~dur
      | 1 ->
          Segment.line
            ~src:(Vec2.sub c (Vec2.scale rad w))
            ~dst:(Vec2.add c (Vec2.scale rad w))
      | _ ->
          let sweep =
            pick [ 2.0 *. Float.pi; -2.0 *. Float.pi; Float.pi; -0.3 ]
          in
          Segment.arc ~center:c ~radius:rad
            ~from:(Float.atan2 w.Vec2.y w.Vec2.x -. sweep)
            ~sweep
    in
    timed_scaled ~t0:1.0 ~dur shape
  in
  let d_primer = r *. u 1.001 3.0 in
  let primer at = timed_scaled ~t0:0.0 ~dur:1.0 (Segment.wait ~at ~dur:1.0) in
  let a = [ primer ca; segment ka ca oa wa ]
  and b =
    [
      primer (Vec2.add ca (Vec2.of_polar ~radius:d_primer ~angle:(u 0.0 6.0)));
      segment kb cb ob wb;
    ]
  in
  let a, b = if Random.State.bool st then (a, b) else (b, a) in
  (r, a, b)

let grazing_arb =
  let print (r, a, b) =
    let segs l = String.concat "; " (List.map (Fmt.str "%a" Timed.pp) l) in
    Printf.sprintf "r = %h\na: %s\nb: %s" r (segs a) (segs b)
  in
  QCheck.make ~print grazing_gen

(* The broad phase does not depend on the solver's resolution; a coarser
   one keeps the tangential grazes, which both kernels bisect down to it,
   cheap. *)
let prop_broad_phase_grazing =
  let resolution = 1e-6 in
  QCheck.Test.make
    ~name:"detector: broad phase bit-identical on grazing geometry" ~count:2000
    grazing_arb (fun (r, a, b) ->
      List.for_all
        (fun closed_forms ->
          detector_pair_equal
            (Detector.first_meeting ~closed_forms ~resolution ~r
               (List.to_seq a) (List.to_seq b))
            (Detector.first_meeting_sources ~closed_forms ~resolution ~r
               (Detector.source_of_seq (List.to_seq a))
               (Detector.source_of_seq (List.to_seq b))))
        [ true; false ])

let test_compiled_table_source () =
  (* A precompiled reference prefix + lazy tail must give the same result
     as compiling everything from the stream — the sharing path Batch uses
     via Stream_cache.compiled_source. *)
  let program = Rvu_core.Universal.program () in
  let inst =
    Engine.instance
      ~attributes:(Rvu_core.Attributes.make ~v:1.4 ~tau:0.8 ())
      ~displacement:(Vec2.make 1.7 0.4) ~r:0.3
  in
  let horizon = 5e3 in
  let tbl, tail =
    Compiled.of_seq ~max_segments:100 (Realize.realize Realize.identity program)
  in
  let via_table =
    Engine.run_with_source ~horizon
      ~reference:(Detector.source_of_table tbl ~tail)
      ~program inst
  in
  let plain = Engine.run ~horizon inst in
  check_bool "table-prefix source bit-identical" true
    (Gen.result_equal via_table plain)

let test_compiled_empty_streams () =
  let outcome, (stats : Detector.stats) =
    Detector.first_meeting_sources ~r:1.0
      (Detector.source_of_seq Seq.empty)
      (Detector.source_of_seq Seq.empty)
  in
  check_bool "empty streams end at 0" true (outcome = Detector.Stream_end 0.0);
  check_bool "no intervals scanned" true (stats.Detector.intervals = 0)

let test_compiled_sources_validation () =
  Alcotest.check_raises "r = 0 rejected"
    (Invalid_argument "Detector.first_meeting_sources: r <= 0") (fun () ->
      ignore
        (Detector.first_meeting_sources ~r:0.0
           (Detector.source_of_seq Seq.empty)
           (Detector.source_of_seq Seq.empty)))

(* The engine's compiled path, built by hand so the chunk sizes the
   detector asks for can be recorded: a deriver over the shared reference
   table, wrapped as a chunked source. Universal and Algorithm 4
   instances, shallow and deep, run interleaved against one arena, so
   every run derives into rows another program and frame left behind.
   Each must agree with a single derived table and with the interpreted
   kernel, and the pulls must follow the doubling schedule. *)
let test_chunk_schedule () =
  let horizon = 1e13 in
  let arena = Compiled.arena () in
  let reference program =
    Compiled.of_seq ~max_segments:20_000
      (Realize.realize Realize.identity program)
  in
  let run name program ~tau ~d ~r ~round ~pulls =
    let inst =
      Engine.instance
        ~attributes:(Rvu_core.Attributes.make ~tau ())
        ~displacement:(Vec2.of_polar ~radius:d ~angle:0.7)
        ~r
    in
    let clocked =
      Rvu_core.Frame.clocked inst.Engine.attributes
        ~displacement:inst.Engine.displacement
    in
    let scan displaced =
      let tbl, tail = reference (program ()) in
      Detector.first_meeting_sources ~horizon ~r
        (Detector.source_of_table tbl ~tail)
        displaced
    in
    let requested = ref [] in
    let chunked =
      let tbl, tail = reference (program ()) in
      let d = Compiled.deriver ~arena clocked tbl ~tail in
      scan
        (Detector.source_of_chunks (fun n ->
             requested := n :: !requested;
             Compiled.next_chunk d ~max_segments:n))
    in
    let table =
      let tbl, tail = reference (program ()) in
      let derived, tail = Compiled.derive clocked tbl ~tail in
      scan (Detector.source_of_table derived ~tail)
    in
    let interpreted =
      let res =
        Engine.run ~horizon ~kernel:Engine.Interpreted ~program:(program ())
          inst
      in
      (res.Engine.outcome, res.Engine.stats)
    in
    check_bool (name ^ ": chunked = one table") true
      (detector_pair_equal chunked table);
    check_bool (name ^ ": chunked = interpreted") true
      (detector_pair_equal chunked interpreted);
    (match (round, fst chunked) with
    | Some n, Detector.Hit t ->
        Alcotest.(check (option int))
          (name ^ ": meeting round")
          (Some n)
          (Option.map fst (Rvu_core.Phases.phase_at t))
    | Some _, _ -> Alcotest.failf "%s: no meeting" name
    | None, _ -> ());
    Alcotest.(check (list int))
      (name ^ ": requested sizes")
      (List.init pulls (fun k -> min 16384 (64 lsl k)))
      (List.rev !requested)
  in
  let universal = Rvu_core.Universal.program
  and algorithm4 = Rvu_search.Algorithm4.program in
  run "universal deep" universal ~tau:0.998 ~d:20.0 ~r:0.01 ~round:(Some 5)
    ~pulls:8;
  run "algorithm4 shallow" algorithm4 ~tau:0.5 ~d:1.5 ~r:0.2 ~round:None
    ~pulls:1;
  run "universal shallow" universal ~tau:0.5 ~d:1.5 ~r:0.2 ~round:(Some 1)
    ~pulls:1;
  run "algorithm4 deep" algorithm4 ~tau:0.99 ~d:8.0 ~r:0.05 ~round:None
    ~pulls:10

(* ------------------------------------------------------------------ *)
(* Multi (gathering) *)

let reference_robot =
  { Multi.attributes = Rvu_core.Attributes.reference; start = Vec2.zero }

let test_multi_validation () =
  Alcotest.check_raises "one robot"
    (Invalid_argument "Multi.run: need at least two robots") (fun () ->
      ignore (Multi.run ~r:1.0 [ reference_robot ]));
  Alcotest.check_raises "coincident starts"
    (Invalid_argument "Multi.run: robots must start at distinct positions")
    (fun () ->
      ignore
        (Multi.run ~r:1.0
           [
             reference_robot;
             {
               Multi.attributes = Rvu_core.Attributes.make ~v:2.0 ();
               start = Vec2.zero;
             };
           ]))

let test_multi_two_robots_match_detector () =
  (* With exactly two robots, gathering = pairwise rendezvous. *)
  let attrs = Rvu_core.Attributes.make ~v:2.0 () in
  let start = Vec2.make 2.0 1.0 in
  let robots = [ reference_robot; { Multi.attributes = attrs; start } ] in
  let g =
    match Multi.run ~horizon:1e6 ~r:0.1 robots with
    | Multi.Gathered t, _ -> t
    | _ -> Alcotest.fail "two feasible robots must gather"
  in
  let pairwise =
    let inst = Engine.instance ~attributes:attrs ~displacement:start ~r:0.1 in
    match (Engine.run ~horizon:1e6 inst).Engine.outcome with
    | Detector.Hit t -> t
    | _ -> Alcotest.fail "pairwise must hit"
  in
  Alcotest.(check (float 1e-3)) "same meeting time" pairwise g

let test_multi_gathering_after_pair_bound () =
  (* Gathering can never precede the last pairwise first-meeting. *)
  let attrs = Rvu_core.Attributes.make ~v:2.0 () in
  let twin_start = Vec2.make 2.0 1.0 and twin_start' = Vec2.make 2.05 1.0 in
  let robots =
    [
      reference_robot;
      { Multi.attributes = attrs; start = twin_start };
      { Multi.attributes = attrs; start = twin_start' };
    ]
  in
  match Multi.run ~horizon:1e6 ~r:0.2 robots with
  | Multi.Gathered t, _ ->
      let pair s =
        let inst = Engine.instance ~attributes:attrs ~displacement:s ~r:0.2 in
        match (Engine.run ~horizon:1e6 inst).Engine.outcome with
        | Detector.Hit u -> u
        | _ -> Alcotest.fail "pair must hit"
      in
      check_bool "gathering after both pair meetings" true
        (t >= pair twin_start -. 1e-6 && t >= pair twin_start' -. 1e-6)
  | _ -> Alcotest.fail "twin swarm must gather"

let test_multi_identical_never_gather () =
  let robots =
    [
      reference_robot;
      { Multi.attributes = Rvu_core.Attributes.reference; start = Vec2.make 2.0 0.0 };
      { Multi.attributes = Rvu_core.Attributes.reference; start = Vec2.make 0.0 2.0 };
    ]
  in
  match Multi.run ~horizon:2000.0 ~r:0.5 robots with
  | Multi.Horizon h, stats ->
      Alcotest.(check (float 1e-9)) "horizon" 2000.0 h;
      (* Identical robots translate rigidly: diameter is invariant. *)
      check_bool "diameter constant" true
        (Rvu_numerics.Floats.equal ~tol:1e-6 stats.Multi.min_diameter
           (2.0 *. sqrt 2.0))
  | _ -> Alcotest.fail "identical swarm can never gather"

let test_multi_diameter_at () =
  let clocked =
    [|
      Rvu_core.Frame.reference_clocked;
      Rvu_core.Frame.clocked
        (Rvu_core.Attributes.make ~v:2.0 ())
        ~displacement:(Vec2.make 3.0 0.0);
    |]
  in
  let program =
    Program.of_list [ Segment.wait ~at:Vec2.zero ~dur:10.0 ]
  in
  check_float "static diameter" 3.0 (Multi.diameter_at clocked program 5.0)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_sample () =
  let program =
    Program.of_list [ Segment.line ~src:Vec2.zero ~dst:(Vec2.make 10.0 0.0) ]
  in
  let samples =
    Trace.sample Realize.identity program ~times:[ 0.0; 2.5; 10.0; 15.0 ]
  in
  Alcotest.(check int) "4 samples" 4 (List.length samples);
  let positions = List.map (fun s -> s.Trace.position) samples in
  check_bool "t=0" true (Vec2.equal (List.nth positions 0) Vec2.zero);
  check_bool "t=2.5" true (Vec2.equal (List.nth positions 1) (Vec2.make 2.5 0.0));
  check_bool "t=10" true (Vec2.equal (List.nth positions 2) (Vec2.make 10.0 0.0));
  check_bool "beyond end holds" true
    (Vec2.equal (List.nth positions 3) (Vec2.make 10.0 0.0))

let test_trace_pair_distances () =
  let program =
    Program.of_list [ Segment.line ~src:Vec2.zero ~dst:(Vec2.make 10.0 0.0) ]
  in
  let rows =
    Trace.pair_distances
      (Rvu_core.Attributes.make ~v:2.0 ())
      ~displacement:(Vec2.make 0.0 3.0) program ~times:[ 0.0; 1.0 ]
  in
  (match rows with
  | [ (t0, d0); (t1, d1) ] ->
      check_float "t0" 0.0 t0;
      check_float "initial distance" 3.0 d0;
      check_float "t1" 1.0 t1;
      (* R at (1,0); R' at (0,3) + 2*(1,0) = (2,3): distance sqrt(1+9). *)
      check_float "after 1s" (sqrt 10.0) d1
  | _ -> Alcotest.fail "two rows expected")

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "rvu_sim"
    [
      ( "approach",
        [
          Alcotest.test_case "head-on closed form" `Quick test_approach_head_on;
          Alcotest.test_case "already within" `Quick test_approach_already_within;
          Alcotest.test_case "parallel never" `Quick test_approach_parallel_never;
          Alcotest.test_case "arc vs wait" `Quick test_approach_arc_vs_wait;
          Alcotest.test_case "escapes quick-reject" `Quick test_approach_escapes;
          qc prop_first_within_sound;
          qc prop_min_lower_bound_sound;
        ] );
      ( "detector",
        [
          Alcotest.test_case "hit" `Quick test_detector_hit;
          Alcotest.test_case "multi segment" `Quick test_detector_multi_segment;
          Alcotest.test_case "horizon" `Quick test_detector_horizon;
          Alcotest.test_case "stream end" `Quick test_detector_stream_end;
          Alcotest.test_case "validation" `Quick test_detector_validation;
          Alcotest.test_case "fold_intervals" `Quick test_fold_intervals;
          Alcotest.test_case "fold_intervals horizon clip" `Quick
            test_fold_intervals_horizon_clip;
        ] );
      ( "engine",
        [
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "speed rendezvous" `Quick test_engine_speed_rendezvous;
          Alcotest.test_case "clock rendezvous" `Quick test_engine_clock_rendezvous;
          Alcotest.test_case "infeasible stays apart" `Quick
            test_engine_infeasible_stays_apart;
          Alcotest.test_case "identical robots" `Quick
            test_engine_identical_never_closer;
          Alcotest.test_case "program override" `Quick test_engine_program_override;
          qc prop_engine_matches_brute_force;
          qc prop_separation_certificate_sound;
        ] );
      ( "compiled kernel",
        [
          qc prop_compiled_detector_bit_identical;
          qc prop_compiled_engine_bit_identical;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 0x23; 0x6ea5e |])
            prop_broad_phase_grazing;
          Alcotest.test_case "table-prefix source" `Quick
            test_compiled_table_source;
          Alcotest.test_case "empty streams" `Quick test_compiled_empty_streams;
          Alcotest.test_case "validation" `Quick test_compiled_sources_validation;
          Alcotest.test_case "doubling chunk schedule" `Quick
            test_chunk_schedule;
        ] );
      ( "search engine",
        [
          Alcotest.test_case "line hit" `Quick test_search_engine_line_hit;
          Alcotest.test_case "horizon" `Quick test_search_engine_horizon;
          Alcotest.test_case "program end" `Quick test_search_engine_program_end;
          Alcotest.test_case "validation" `Quick test_search_engine_validation;
        ] );
      ( "multi (gathering)",
        [
          Alcotest.test_case "validation" `Quick test_multi_validation;
          Alcotest.test_case "two robots = detector" `Quick
            test_multi_two_robots_match_detector;
          Alcotest.test_case "after all pair meetings" `Quick
            test_multi_gathering_after_pair_bound;
          Alcotest.test_case "identical swarm stays rigid" `Quick
            test_multi_identical_never_gather;
          Alcotest.test_case "diameter_at" `Quick test_multi_diameter_at;
        ] );
      ( "trace",
        [
          Alcotest.test_case "sample" `Quick test_trace_sample;
          Alcotest.test_case "pair distances" `Quick test_trace_pair_distances;
        ] );
    ]
