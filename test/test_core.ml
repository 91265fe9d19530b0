(* Tests for Rvu_core: attributes, the Lemma 4/5 reductions, Theorem 4
   feasibility, the Lemma 8 schedule, Lemma 9/10 overlaps and the
   Lemma 11-13 / Theorem 2-3 bounds. *)

open Rvu_geom
open Rvu_core

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Shared with every suite; wide ranges, see test/gen.ml. *)
let attrs_arb = Gen.attrs_arb

(* ------------------------------------------------------------------ *)
(* Attributes *)

let test_attributes_defaults () =
  let a = Attributes.reference in
  check_float "v" 1.0 a.Attributes.v;
  check_float "tau" 1.0 a.Attributes.tau;
  check_float "phi" 0.0 a.Attributes.phi;
  check_bool "chi" true (a.Attributes.chi = Attributes.Same);
  check_bool "is_reference" true (Attributes.is_reference a)

let test_attributes_validation () =
  Alcotest.check_raises "bad speed"
    (Invalid_argument "Attributes.make: speed must be positive") (fun () ->
      ignore (Attributes.make ~v:0.0 ()));
  Alcotest.check_raises "bad clock"
    (Invalid_argument "Attributes.make: time unit must be positive") (fun () ->
      ignore (Attributes.make ~tau:(-1.0) ()))

let test_attributes_phi_normalized () =
  let a = Attributes.make ~phi:(-.Float.pi) () in
  check_float "normalized to [0, 2pi)" Float.pi a.Attributes.phi

let test_chi_float () =
  check_float "same" 1.0 (Attributes.chi_float Attributes.reference);
  check_float "opposite" (-1.0)
    (Attributes.chi_float (Attributes.make ~chi:Attributes.Opposite ()))

(* ------------------------------------------------------------------ *)
(* Frame: Lemma 4 *)

let prop_frame_matrix_agree =
  QCheck.Test.make
    ~name:"lemma 4: trajectory matrix = conformal linear part (tau = 1)"
    ~count:300 attrs_arb (fun a ->
      (* The trajectory matrix v R(phi) F(chi) must equal the linear part of
         the realisation frame divided by tau (frame scale is v tau). *)
      let m = Frame.trajectory_matrix a in
      let c = Frame.clocked a ~displacement:Vec2.zero in
      let lin = Conformal.linear c.Rvu_trajectory.Realize.frame in
      Mat2.equal ~tol:1e-9 (Mat2.scale a.Attributes.tau m) lin)

let test_frame_clock () =
  let a = Attributes.make ~tau:0.5 () in
  let c = Frame.clocked a ~displacement:(Vec2.make 1.0 0.0) in
  check_float "time unit" 0.5 c.Rvu_trajectory.Realize.time_unit

let prop_frame_realization =
  (* End-to-end Lemma 4: realise a simple program and compare against the
     matrix form d + v R F S(t / tau) (positions in global frame). *)
  QCheck.Test.make ~name:"lemma 4: realised trajectory matches matrix form"
    ~count:200
    (QCheck.pair attrs_arb (QCheck.float_range 0.0 4.0))
    (fun (a, t_local) ->
      let program =
        Rvu_trajectory.Program.of_list
          [
            Rvu_trajectory.Segment.line ~src:Vec2.zero ~dst:(Vec2.make 2.0 0.0);
            Rvu_trajectory.Segment.arc ~center:Vec2.zero ~radius:2.0 ~from:0.0
              ~sweep:1.0;
          ]
      in
      let d = Vec2.make (-3.0) 7.0 in
      let c = Frame.clocked a ~displacement:d in
      let t_global = a.Attributes.tau *. t_local in
      let s_local = Rvu_trajectory.Program.position_at program t_local in
      let unit = a.Attributes.v *. a.Attributes.tau in
      let expected =
        Vec2.add d
          (Vec2.scale unit
             (Mat2.apply
                (Mat2.mul
                   (Mat2.rotation a.Attributes.phi)
                   (match a.Attributes.chi with
                   | Attributes.Same -> Mat2.identity
                   | Attributes.Opposite -> Mat2.reflect_x))
                s_local))
      in
      Vec2.equal ~tol:1e-6 expected
        (Rvu_trajectory.Realize.position c program t_global))

(* ------------------------------------------------------------------ *)
(* Equivalent: Lemma 5 and Definition 1 *)

let test_mu_formula () =
  check_float "identical robots" 0.0 (Equivalent.mu Attributes.reference);
  check_float "opposite compass, v=1" 2.0
    (Equivalent.mu (Attributes.make ~phi:Float.pi ()));
  check_float "v=2, phi=0" 1.0 (Equivalent.mu (Attributes.make ~v:2.0 ()))

let prop_mu_is_complex_distance =
  QCheck.Test.make ~name:"mu = |1 - v e^{i phi}|" ~count:300 attrs_arb
    (fun a ->
      let v = a.Attributes.v and phi = a.Attributes.phi in
      let re = 1.0 -. (v *. cos phi) and im = -.(v *. sin phi) in
      Rvu_numerics.Floats.equal ~tol:1e-9 (Equivalent.mu a) (Float.hypot re im))

let prop_lemma5_factorisation =
  QCheck.Test.make ~name:"lemma 5: Phi T' = T, Phi in SO(2), T' triangular"
    ~count:300 attrs_arb (fun a ->
      match Equivalent.factor a with
      | None -> Equivalent.mu a <= 1e-9
      | Some (q, r) ->
          Mat2.equal ~tol:1e-6 (Mat2.mul q r) (Equivalent.t_matrix a)
          && Mat2.is_orthogonal ~tol:1e-9 q
          && Rvu_numerics.Floats.equal ~tol:1e-9 (Mat2.det q) 1.0
          && r.Mat2.c = 0.0)

let prop_lemma5_matches_generic_qr =
  QCheck.Test.make ~name:"lemma 5 closed form agrees with numeric QR"
    ~count:300 attrs_arb (fun a ->
      match (Equivalent.factor a, Mat2.qr (Equivalent.t_matrix a)) with
      | None, _ -> true
      | Some (q, r), Some (q', r') ->
          (* Both are QR factorisations with det Q = 1 and r.a >= 0 up to
             sign convention; compare the reconstructions. *)
          Mat2.equal ~tol:1e-6 (Mat2.mul q r) (Mat2.mul q' r')
      | Some _, None -> false)

let test_t_prime_chi_plus () =
  (* chi = +1: T' = mu I (Lemma 6). *)
  let a = Attributes.make ~v:1.5 ~phi:1.2 () in
  match Equivalent.t_prime a with
  | None -> Alcotest.fail "mu > 0 here"
  | Some r ->
      let mu = Equivalent.mu a in
      check_bool "diagonal mu" true
        (Mat2.equal ~tol:1e-9 r (Mat2.scale mu Mat2.identity))

let test_t_prime_chi_minus () =
  (* chi = -1: second row [0, (1 - v^2)/mu] (Lemma 7). *)
  let a = Attributes.make ~v:0.5 ~phi:0.8 ~chi:Attributes.Opposite () in
  match Equivalent.t_prime a with
  | None -> Alcotest.fail "mu > 0 here"
  | Some r ->
      let v = a.Attributes.v in
      let mu = Equivalent.mu a in
      check_float "r.c" 0.0 r.Mat2.c;
      check_float "r.d = (1-v^2)/mu" ((1.0 -. (v *. v)) /. mu) r.Mat2.d;
      check_float "r.a = mu" mu r.Mat2.a

let prop_worst_case_gain =
  QCheck.Test.make
    ~name:"worst-case gain is below the gain of any direction" ~count:200
    (QCheck.pair attrs_arb (QCheck.float_range 0.0 6.28)) (fun (a, theta) ->
      let dhat = Vec2.of_polar ~radius:1.0 ~angle:theta in
      Equivalent.worst_case_gain a <= Equivalent.projection_gain a ~dhat +. 1e-9)

let prop_worst_direction_achieves_gain =
  QCheck.Test.make
    ~name:"worst_direction: its gain equals the smallest singular value"
    ~count:300 attrs_arb (fun a ->
      let dhat = Equivalent.worst_direction a in
      Rvu_numerics.Floats.equal ~tol:1e-6
        (Vec2.norm dhat) 1.0
      && Rvu_numerics.Floats.equal ~tol:1e-6
           (Equivalent.projection_gain a ~dhat)
           (Equivalent.worst_case_gain a))

let test_worst_direction_mirror_twin () =
  (* For the infeasible mirror twin the worst direction is the mirror axis
     (angle phi/2), matching Feasibility.adversarial_direction. *)
  List.iter
    (fun phi ->
      let a = Attributes.make ~phi ~chi:Attributes.Opposite () in
      let w = Equivalent.worst_direction a in
      let adv = Option.get (Feasibility.adversarial_direction a) in
      (* Directions are defined up to sign. *)
      check_bool
        (Printf.sprintf "axis direction at phi=%g" phi)
        true
        (Float.abs (Vec2.cross w adv) < 1e-6))
    [ 0.3; 1.0; 2.5; 5.0 ]

let test_equivalent_instance () =
  let a = Attributes.make ~v:2.0 () in
  (* chi = +1: gain mu = 1, instance unchanged. *)
  (match Equivalent.equivalent_instance a ~d:4.0 ~r:0.5 ~dhat:(Vec2.make 1.0 0.0) with
  | Some (d', r') ->
      check_float "d'" 4.0 d';
      check_float "r'" 0.5 r'
  | None -> Alcotest.fail "feasible instance");
  (* Infeasible direction: mirror twin along the mirror axis. *)
  let m = Attributes.make ~phi:0.0 ~chi:Attributes.Opposite () in
  check_bool "no equivalent instance on the mirror axis" true
    (Equivalent.equivalent_instance m ~d:4.0 ~r:0.5 ~dhat:(Vec2.make 1.0 0.0)
    = None)

(* ------------------------------------------------------------------ *)
(* Feasibility: Theorem 4 *)

let test_classify_cases () =
  let open Feasibility in
  check_bool "identical -> infeasible" true
    (classify Attributes.reference = Infeasible);
  check_bool "mirror twin -> infeasible" true
    (classify (Attributes.make ~phi:1.0 ~chi:Attributes.Opposite ()) = Infeasible);
  check_bool "clock first" true
    (classify (Attributes.make ~tau:0.5 ~v:2.0 ()) = Feasible Different_clocks);
  check_bool "speed" true
    (classify (Attributes.make ~v:2.0 ()) = Feasible Different_speeds);
  check_bool "rotation" true
    (classify (Attributes.make ~phi:1.0 ()) = Feasible Rotated_same_chirality);
  check_bool "mirror + speed feasible" true
    (classify (Attributes.make ~v:0.5 ~chi:Attributes.Opposite ())
    = Feasible Different_speeds)

let test_adversarial_direction () =
  (* For the mirror twin the adversarial direction must be annihilated by
     T_transpose (Lemma 7's projection gain is zero). *)
  List.iter
    (fun phi ->
      let a = Attributes.make ~phi ~chi:Attributes.Opposite () in
      match Feasibility.adversarial_direction a with
      | None -> Alcotest.fail "mirror twin is infeasible"
      | Some dhat ->
          check_bool
            (Printf.sprintf "gain ~ 0 at phi=%g" phi)
            true
            (Equivalent.projection_gain a ~dhat < 1e-9))
    [ 0.0; 0.7; Float.pi; 4.0 ];
  check_bool "feasible has no adversarial direction" true
    (Feasibility.adversarial_direction (Attributes.make ~v:2.0 ()) = None)

let prop_classify_iff =
  QCheck.Test.make ~name:"theorem 4: classifier matches the iff condition"
    ~count:300 attrs_arb (fun a ->
      let eq = Rvu_numerics.Floats.equal in
      let expected =
        (not (eq a.Attributes.tau 1.0))
        || (not (eq a.Attributes.v 1.0))
        || (a.Attributes.chi = Attributes.Same && not (eq a.Attributes.phi 0.0))
      in
      Feasibility.is_feasible a = expected)

(* ------------------------------------------------------------------ *)
(* Phases: Lemma 8, cross-checked against the Algorithm 7 generator *)

let test_phase_closed_forms () =
  check_float "I(1) = 0" 0.0 (Phases.inactive_start 1);
  for n = 1 to 10 do
    check_bool
      (Printf.sprintf "A(%d) = I(%d) + 2S(%d)" n n n)
      true
      (Rvu_numerics.Floats.equal
         (Phases.active_start n)
         (Phases.inactive_start n +. (2.0 *. Phases.s n)));
    check_bool
      (Printf.sprintf "round_end(%d) = A + 2S" n)
      true
      (Rvu_numerics.Floats.equal (Phases.round_end n)
         (Phases.active_start n +. (2.0 *. Phases.s n)))
  done

let test_phase_s_matches_search_all () =
  for n = 1 to 6 do
    check_bool
      (Printf.sprintf "S(%d) = eq (1)" n)
      true
      (Rvu_numerics.Floats.equal (Phases.s n)
         (Rvu_search.Timing.search_all_time n))
  done

let test_algorithm7_round_duration () =
  for n = 1 to 5 do
    check_bool
      (Printf.sprintf "round %d lasts 4 S(n)" n)
      true
      (Rvu_numerics.Floats.equal
         (Rvu_trajectory.Program.duration (Algorithm7.round_program n))
         (Phases.round_duration n))
  done

let test_algorithm7_prefix_duration () =
  for n = 1 to 5 do
    check_bool
      (Printf.sprintf "prefix %d ends at I(%d)" n (n + 1))
      true
      (Rvu_numerics.Floats.equal
         (Rvu_trajectory.Program.duration (Algorithm7.prefix ~rounds:n))
         (Phases.time_to_complete_rounds n))
  done

let test_algorithm7_continuity () =
  check_bool "round program is continuous" true
    (Rvu_trajectory.Program.check_continuity (Algorithm7.round_program 3)
    = Ok ())

let test_phase_at_boundaries () =
  (* Exact boundary times land in the phase they open. *)
  for n = 1 to 10 do
    check_bool
      (Printf.sprintf "I(%d) opens inactive" n)
      true
      (Phases.phase_at (Phases.inactive_start n) = Some (n, Phases.Inactive));
    check_bool
      (Printf.sprintf "A(%d) opens active" n)
      true
      (Phases.phase_at (Phases.active_start n) = Some (n, Phases.Active))
  done

let prop_round_bound_monotone_in_n =
  QCheck.Test.make ~name:"lemma 13: round bound monotone in n" ~count:200
    QCheck.(pair (float_range 0.05 0.95) (int_range 1 14))
    (fun (tau, n) ->
      Bounds.round_bound ~tau ~n <= Bounds.round_bound ~tau ~n:(n + 1))

let prop_symmetric_bound_monotone_in_d =
  QCheck.Test.make ~name:"theorem 2: bound monotone in d (fixed attributes)"
    ~count:200
    QCheck.(pair (float_range 1.2 4.0) (float_range 1.5 10.0))
    (fun (v, d) ->
      let a = Attributes.make ~v () in
      match
        ( Bounds.symmetric_clock_time a ~d ~r:0.1,
          Bounds.symmetric_clock_time a ~d:(d *. 1.5) ~r:0.1 )
      with
      | Some b1, Some b2 -> b1 < b2
      | _ -> false)

let test_phase_at () =
  check_bool "t < 0" true (Phases.phase_at (-1.0) = None);
  check_bool "start is round 1 inactive" true
    (Phases.phase_at 0.0 = Some (1, Phases.Inactive));
  check_bool "after A(1) active" true
    (Phases.phase_at (Phases.active_start 1 +. 1.0) = Some (1, Phases.Active));
  let t = Phases.inactive_start 4 +. 1.0 in
  check_bool "round 4 inactive" true (Phases.phase_at t = Some (4, Phases.Inactive))

(* ------------------------------------------------------------------ *)
(* Overlap: Lemmas 9 and 10 *)

let test_lemma9_overlap () =
  (* Pick a = 0, k = 8; tau in the Lemma 9 window. *)
  let a = 0 and k = 8 in
  let w = Overlap.lemma9_window ~k ~a in
  check_bool "window non-empty" true (w.Overlap.lo < w.Overlap.hi);
  let tau = 0.5 *. (w.Overlap.lo +. w.Overlap.hi) in
  let claimed = Overlap.lemma9_overlap ~tau ~k ~a in
  check_bool "claimed positive" true (claimed > 0.0);
  let exact =
    Overlap.exact_overlap ~tau ~active_round:k ~inactive_round:(k + 1 + a)
  in
  (* The lemma understates the exact overlap (it measures from A(k) to
     tau A(k+1+a) but the active phase may end first). *)
  check_bool "exact >= min(claimed, active length)" true
    (exact
    >= Float.min claimed (2.0 *. Phases.s k) -. 1e-6)

let test_lemma10_overlap () =
  let a = 0 and k = 8 in
  let w = Overlap.lemma10_window ~k ~a in
  check_bool "window non-empty" true (w.Overlap.lo < w.Overlap.hi);
  let tau = 0.5 *. (w.Overlap.lo +. w.Overlap.hi) in
  let claimed = Overlap.lemma10_overlap ~tau ~k ~a in
  check_bool "claimed positive" true (claimed > 0.0);
  let exact =
    Overlap.exact_overlap ~tau ~active_round:(k - 1) ~inactive_round:(k + a)
  in
  check_bool "exact >= min(claimed, active length)" true
    (exact >= Float.min claimed (2.0 *. Phases.s (k - 1)) -. 1e-6)

let test_overlap_windows_interleave () =
  (* Together, lemma 9 and 10 windows tile a neighbourhood of tau = k/(k+1):
     the Lemma 10 upper edge equals the Lemma 9 lower edge scaled by 2. *)
  let k = 10 and a = 0 in
  let w9 = Overlap.lemma9_window ~k ~a and w10 = Overlap.lemma10_window ~k ~a in
  check_float "w10.hi = 2 * w9.lo" (2.0 *. w9.Overlap.lo) w10.Overlap.hi

let test_max_overlap_growth () =
  (* Fix tau = 0.55 (inside the lemma 9 regime for a = 0): the maximal
     active/inactive overlap grows with the round. *)
  let tau = 0.55 in
  let o8, _ = Overlap.max_overlap_with_inactive ~tau ~active_round:8 in
  let o10, _ = Overlap.max_overlap_with_inactive ~tau ~active_round:10 in
  let o12, _ = Overlap.max_overlap_with_inactive ~tau ~active_round:12 in
  check_bool "growing overlap" true (o8 < o10 && o10 < o12)

let test_overlap_validation () =
  Alcotest.check_raises "bad a"
    (Invalid_argument "Overlap.lemma9_window: a < 0") (fun () ->
      ignore (Overlap.lemma9_window ~k:3 ~a:(-1)))

(* ------------------------------------------------------------------ *)
(* Bounds: Lemmas 11-13, Theorems 2-3 *)

let prop_tau_decomposition =
  QCheck.Test.make ~name:"lemma 13: tau = t 2^-a with t in [1/2, 1)"
    ~count:300
    (QCheck.float_range 0.001 0.999)
    (fun tau ->
      let a, t = Bounds.tau_decomposition tau in
      a >= 0
      && t >= 0.5
      && t < 1.0
      && Rvu_numerics.Floats.equal ~tol:1e-12 tau
           (t *. Rvu_search.Procedures.pow2 (-a)))

let test_tau_decomposition_pow2 () =
  let a, t = Bounds.tau_decomposition 0.5 in
  check_int "a for 1/2" 0 a;
  check_float "t for 1/2" 0.5 t;
  let a, t = Bounds.tau_decomposition 0.25 in
  check_int "a for 1/4" 1 a;
  check_float "t for 1/4" 0.5 t

let test_tau_decomposition_validation () =
  Alcotest.check_raises "tau = 1"
    (Invalid_argument "Bounds.tau_decomposition: tau outside (0, 1)")
    (fun () -> ignore (Bounds.tau_decomposition 1.0))

let test_round_bound_values () =
  (* t = 1/2 <= 2/3 branch: k* = max(8(a+1), n + ceil(log(n/(a+1)))) *)
  check_int "tau=0.5, n=1" 8 (Bounds.round_bound ~tau:0.5 ~n:1);
  check_int "tau=0.5, n=20" 25 (Bounds.round_bound ~tau:0.5 ~n:20);
  (* 20 + ceil(log2 20) = 20 + 5 = 25 >= 8 *)
  check_int "tau=0.25 (a=1), n=1" 16 (Bounds.round_bound ~tau:0.25 ~n:1);
  (* t = 0.75 > 2/3 branch: k* = max(ceil((a+1) t/(1-t)), n + ceil(log(n/(1-t)))) *)
  check_int "tau=0.75, n=1" 3 (Bounds.round_bound ~tau:0.75 ~n:1);
  (* Just below 2^-3: a = 3, t ~ 0.99996, so k* = ceil((a+1)t/(1-t)) is
     finite but past 100,000 — k* grows without bound as tau nears a
     power of 1/2 from below. *)
  check_int "tau just below 2^-3, n=6" 104359
    (Bounds.round_bound ~tau:0.124995208985 ~n:6)

(* Finite means an honest int of at least n: a wrapped [int_of_float] of
   an infinite or NaN ceiling fails it. No fixed cap holds (see the
   2^-3 case above). The shrinker keeps n in range, since
   [round_bound] rejects n < 1. *)
let prop_round_bound_finite =
  QCheck.Test.make ~name:"theorem 3: round bound is finite for all tau < 1"
    ~count:300
    QCheck.(
      pair (float_range 0.01 0.99)
        (add_shrink_invariant (fun n -> n >= 1) (int_range 1 12)))
    (fun (tau, n) -> Bounds.round_bound ~tau ~n >= n)

let prop_exact_rounds_below_simplified =
  (* Lemmas 11/12's exact rounds never exceed Lemma 13's simplified k*. *)
  QCheck.Test.make
    ~name:"lemmas 11/12: exact rounds are within the Lemma 13 simplification"
    ~count:300
    QCheck.(pair (float_range 0.05 0.97) (int_range 1 14))
    (fun (tau, n) ->
      let simplified = Bounds.round_bound ~tau ~n in
      match (Bounds.lemma11_round ~tau ~n, Bounds.lemma12_round ~tau ~n) with
      | Some k, None -> k >= 1 && k <= simplified
      | None, Some k -> k >= 1 && k <= simplified
      | Some _, Some _ -> false (* regimes are mutually exclusive *)
      | None, None -> false (* one regime always applies *))

let test_exact_rounds_regimes () =
  (* t <= 2/3 regime: Lemma 11 applies; t > 2/3: Lemma 12. *)
  check_bool "tau=0.5 lemma11" true (Bounds.lemma11_round ~tau:0.5 ~n:4 <> None);
  check_bool "tau=0.5 lemma12 n/a" true (Bounds.lemma12_round ~tau:0.5 ~n:4 = None);
  check_bool "tau=0.8 lemma12" true (Bounds.lemma12_round ~tau:0.8 ~n:4 <> None);
  check_bool "tau=0.8 lemma11 n/a" true (Bounds.lemma11_round ~tau:0.8 ~n:4 = None);
  (* Monotone in n. *)
  let l12 n = Option.get (Bounds.lemma12_round ~tau:0.85 ~n) in
  check_bool "monotone in n" true (l12 2 <= l12 6 && l12 6 <= l12 12)

let test_symmetric_clock_time () =
  (* chi = +1 bound from Lemma 6. *)
  let a = Attributes.make ~v:2.0 () in
  (match Bounds.symmetric_clock_time a ~d:2.0 ~r:0.1 with
  | Some t ->
      let mu = 1.0 in
      let ratio = 4.0 /. (mu *. 0.1) in
      check_float "chi=+1 formula"
        (6.0 *. (Float.pi +. 1.0) *. Rvu_numerics.Floats.log2 ratio *. ratio)
        t
  | None -> Alcotest.fail "feasible");
  (* chi = -1 bound from Lemma 7 with the (1 - v) factor. *)
  let b = Attributes.make ~v:0.5 ~phi:1.0 ~chi:Attributes.Opposite () in
  (match Bounds.symmetric_clock_time b ~d:2.0 ~r:0.1 with
  | Some t ->
      let ratio = 4.0 /. (0.5 *. 0.1) in
      check_float "chi=-1 formula"
        (6.0 *. (Float.pi +. 1.0) *. Rvu_numerics.Floats.log2 ratio *. ratio)
        t
  | None -> Alcotest.fail "feasible");
  (* Infeasible cases yield None. *)
  check_bool "identical" true
    (Bounds.symmetric_clock_time Attributes.reference ~d:1.0 ~r:0.1 = None);
  check_bool "mirror v=1" true
    (Bounds.symmetric_clock_time
       (Attributes.make ~phi:1.0 ~chi:Attributes.Opposite ())
       ~d:1.0 ~r:0.1
    = None)

let test_asymmetric_round_and_time () =
  let a = Attributes.make ~tau:0.5 () in
  let k = Bounds.asymmetric_round a ~d:1.5 ~r:0.5 in
  check_bool "positive round" true (k >= 1);
  let t = Bounds.asymmetric_time a ~d:1.5 ~r:0.5 in
  check_float "time = completion of k rounds" (Phases.time_to_complete_rounds k) t;
  (* Visible at start. *)
  check_int "d <= r" 0 (Bounds.asymmetric_round a ~d:0.3 ~r:0.5)

let test_asymmetric_tau_above_one () =
  (* tau > 1: roles swap; bound is computed in R'-units and stretched. *)
  let a = Attributes.make ~tau:2.0 () in
  let k = Bounds.asymmetric_round a ~d:1.5 ~r:0.5 in
  check_bool "positive round" true (k >= 1);
  let t = Bounds.asymmetric_time a ~d:1.5 ~r:0.5 in
  check_float "stretched by tau" (2.0 *. Phases.time_to_complete_rounds k) t

let test_offline_optimum () =
  check_float "unit speeds" 0.7
    (Bounds.offline_optimum Attributes.reference ~d:1.5 ~r:0.1);
  check_float "fast partner" 0.5
    (Bounds.offline_optimum (Attributes.make ~v:2.0 ()) ~d:1.6 ~r:0.1);
  check_float "visible at start" 0.0
    (Bounds.offline_optimum Attributes.reference ~d:0.5 ~r:1.0)

let prop_offline_optimum_below_measured =
  (* No algorithm can beat the omniscient straight-line meeting. *)
  QCheck.Test.make ~name:"offline optimum lower-bounds any simulated meeting"
    ~count:20
    QCheck.(pair (float_range 1.3 3.0) (float_range 0.15 2.95))
    (fun (v, phi) ->
      let attributes = Attributes.make ~v ~phi () in
      let d = 2.0 and r = 0.3 in
      let inst =
        Rvu_sim.Engine.instance ~attributes
          ~displacement:(Rvu_geom.Vec2.make d 0.0) ~r
      in
      match (Rvu_sim.Engine.run ~horizon:1e8 inst).Rvu_sim.Engine.outcome with
      | Rvu_sim.Detector.Hit t -> t >= Bounds.offline_optimum attributes ~d ~r
      | _ -> false)

let test_searcher_round_validation () =
  Alcotest.check_raises "tau = 1"
    (Invalid_argument "Bounds.searcher_round: tau = 1 (use symmetric_clock_time)")
    (fun () ->
      ignore (Bounds.searcher_round Attributes.reference ~d:1.0 ~r:0.1))

(* ------------------------------------------------------------------ *)
(* Universal *)

let test_universal_guarantee () =
  let open Universal in
  let g = guarantee (Attributes.make ~tau:0.5 ()) ~d:1.5 ~r:0.5 in
  check_bool "clock verdict" true
    (g.verdict = Feasibility.Feasible Feasibility.Different_clocks);
  check_bool "has round" true (g.round <> None);
  check_bool "has time" true (g.time <> None);
  let g2 = guarantee Attributes.reference ~d:1.5 ~r:0.5 in
  check_bool "infeasible verdict" true (g2.verdict = Feasibility.Infeasible);
  check_bool "no bound" true (g2.round = None && g2.time = None);
  let g3 = guarantee (Attributes.make ~v:2.0 ()) ~d:1.5 ~r:0.5 in
  check_bool "speed verdict" true
    (g3.verdict = Feasibility.Feasible Feasibility.Different_speeds);
  (match (g3.round, g3.time) with
  | Some n, Some t ->
      check_bool "round positive" true (n >= 1);
      check_float "time matches schedule" (Phases.time_to_complete_rounds n) t
  | _ -> Alcotest.fail "feasible needs bounds");
  let g4 = guarantee (Attributes.make ~v:2.0 ()) ~d:0.3 ~r:0.5 in
  check_bool "visible at start" true (g4.round = Some 0 && g4.time = Some 0.0)

let prop_universal_guarantee_iff =
  QCheck.Test.make ~name:"universal: bound exists iff feasible" ~count:200
    attrs_arb (fun a ->
      let g = Universal.guarantee a ~d:2.0 ~r:0.25 in
      match g.Universal.verdict with
      | Feasibility.Infeasible ->
          g.Universal.round = None && g.Universal.time = None
      | Feasibility.Feasible _ ->
          g.Universal.round <> None && g.Universal.time <> None)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "rvu_core"
    [
      ( "attributes",
        [
          Alcotest.test_case "defaults" `Quick test_attributes_defaults;
          Alcotest.test_case "validation" `Quick test_attributes_validation;
          Alcotest.test_case "phi normalization" `Quick test_attributes_phi_normalized;
          Alcotest.test_case "chi_float" `Quick test_chi_float;
        ] );
      ( "frame (lemma 4)",
        [
          Alcotest.test_case "clock scaling" `Quick test_frame_clock;
          qc prop_frame_matrix_agree;
          qc prop_frame_realization;
        ] );
      ( "equivalent (lemma 5)",
        [
          Alcotest.test_case "mu values" `Quick test_mu_formula;
          Alcotest.test_case "t' for chi=+1" `Quick test_t_prime_chi_plus;
          Alcotest.test_case "t' for chi=-1" `Quick test_t_prime_chi_minus;
          Alcotest.test_case "equivalent instance" `Quick test_equivalent_instance;
          qc prop_mu_is_complex_distance;
          qc prop_lemma5_factorisation;
          qc prop_lemma5_matches_generic_qr;
          qc prop_worst_case_gain;
          qc prop_worst_direction_achieves_gain;
          Alcotest.test_case "worst direction of mirror twin" `Quick
            test_worst_direction_mirror_twin;
        ] );
      ( "feasibility (theorem 4)",
        [
          Alcotest.test_case "classify cases" `Quick test_classify_cases;
          Alcotest.test_case "adversarial direction" `Quick test_adversarial_direction;
          qc prop_classify_iff;
        ] );
      ( "phases (lemma 8)",
        [
          Alcotest.test_case "closed forms" `Quick test_phase_closed_forms;
          Alcotest.test_case "S matches eq (1)" `Quick test_phase_s_matches_search_all;
          Alcotest.test_case "round duration vs generator" `Quick
            test_algorithm7_round_duration;
          Alcotest.test_case "prefix duration vs generator" `Quick
            test_algorithm7_prefix_duration;
          Alcotest.test_case "continuity" `Quick test_algorithm7_continuity;
          Alcotest.test_case "phase_at" `Quick test_phase_at;
          Alcotest.test_case "phase_at boundaries" `Quick test_phase_at_boundaries;
        ] );
      ( "overlap (lemmas 9, 10)",
        [
          Alcotest.test_case "lemma 9 overlap" `Quick test_lemma9_overlap;
          Alcotest.test_case "lemma 10 overlap" `Quick test_lemma10_overlap;
          Alcotest.test_case "windows interleave" `Quick test_overlap_windows_interleave;
          Alcotest.test_case "overlap grows" `Quick test_max_overlap_growth;
          Alcotest.test_case "validation" `Quick test_overlap_validation;
        ] );
      ( "bounds (lemmas 11-13, theorems 2-3)",
        [
          Alcotest.test_case "tau decomposition powers of two" `Quick
            test_tau_decomposition_pow2;
          Alcotest.test_case "tau decomposition validation" `Quick
            test_tau_decomposition_validation;
          Alcotest.test_case "round bound values" `Quick test_round_bound_values;
          Alcotest.test_case "exact round regimes" `Quick test_exact_rounds_regimes;
          qc prop_exact_rounds_below_simplified;
          Alcotest.test_case "theorem 2 formulas" `Quick test_symmetric_clock_time;
          Alcotest.test_case "asymmetric round/time" `Quick
            test_asymmetric_round_and_time;
          Alcotest.test_case "tau > 1 role swap" `Quick test_asymmetric_tau_above_one;
          Alcotest.test_case "searcher validation" `Quick test_searcher_round_validation;
          Alcotest.test_case "offline optimum" `Quick test_offline_optimum;
          qc prop_offline_optimum_below_measured;
          qc prop_tau_decomposition;
          qc prop_round_bound_finite;
          qc prop_round_bound_monotone_in_n;
          qc prop_symmetric_bound_monotone_in_d;
        ] );
      ( "universal",
        [
          Alcotest.test_case "guarantee cases" `Quick test_universal_guarantee;
          qc prop_universal_guarantee_iff;
        ] );
    ]
