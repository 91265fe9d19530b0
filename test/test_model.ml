(* Tests for Rvu_model: the registry, the rival models' closed-form
   oracles and rescaling laws, the protocol's model axis, and the Zipf
   workload knob.

   The load-bearing contracts:

   - every model's run agrees with its closed-form oracle (the same
     [Model.oracle_agrees] gate the verify campaign and perf-models use);
   - an explicit ["model":"unknown_attributes"] decodes to the exact same
     request — same canonical cache key, same response bytes — as a line
     without the field;
   - canonical keys never collide across models, so the LRU and the
     router's HRW ring can never serve one model's answer for another's
     request. *)

open Rvu_core
module Wire = Rvu_service.Wire
module Proto = Rvu_service.Proto
module Handler = Rvu_service.Handler
module Loadgen = Rvu_service.Loadgen
module Model = Rvu_model.Model
module Registry = Rvu_model.Registry
module Cycle_speed = Rvu_model.Cycle_speed
module Visible_bits = Rvu_model.Visible_bits
module Unknown_attributes = Rvu_model.Unknown_attributes
module Rng = Rvu_workload.Rng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let hit_time = function
  | Model.Hit t -> t
  | Model.Horizon h -> Alcotest.failf "expected a hit, ran to horizon %g" h

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry () =
  check_bool "unknown_attributes first" true
    (List.hd Registry.names = Unknown_attributes.name);
  check_bool "cycle_speed registered" true
    (List.mem Cycle_speed.name Registry.names);
  check_bool "visible_bits registered" true
    (List.mem Visible_bits.name Registry.names);
  check_bool "unknown name rejected" true (Registry.find "nope" = None);
  List.iter
    (fun (e : Registry.entry) ->
      check_bool ("find " ^ e.Registry.name) true
        (match Registry.find e.Registry.name with
        | Some e' -> e'.Registry.name = e.Registry.name
        | None -> false);
      let inst = e.Registry.sweep 1.0 in
      check_string "sweep instance carries the registry name"
        e.Registry.name inst.Model.model;
      check_bool "sweep axis is a key field" true
        (List.mem_assoc e.Registry.sweep_axis inst.Model.key_fields))
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* The oracle-agreement gate itself *)

let test_oracle_agrees_gate () =
  let exact t = { Model.feasible = true; time = Some t; exact = true } in
  let run outcome =
    { Model.outcome; min_distance = 0.0; steps = 1 }
  in
  let agrees o r = Model.oracle_agrees ~horizon:100.0 o r in
  check_bool "exact hit matches" true
    (agrees (exact 5.0) (run (Model.Hit 5.0)) = Ok ());
  check_bool "exact hit off by 1% fails" true
    (Result.is_error (agrees (exact 5.0) (run (Model.Hit 5.05))));
  check_bool "exact infeasible forbids a hit" true
    (Result.is_error
       (agrees
          { Model.feasible = false; time = None; exact = true }
          (run (Model.Hit 5.0))));
  check_bool "prediction past the horizon is vacuous" true
    (agrees (exact 1e9) (run (Model.Horizon 100.0)) = Ok ());
  let bound t = { Model.feasible = true; time = Some t; exact = false } in
  check_bool "bound respected" true
    (agrees (bound 50.0) (run (Model.Hit 5.0)) = Ok ());
  check_bool "bound exceeded fails" true
    (Result.is_error (agrees (bound 5.0) (run (Model.Hit 50.0))))

(* ------------------------------------------------------------------ *)
(* cycle_speed *)

let prop_cycle_speed_oracle =
  QCheck.Test.make ~count:200 ~name:"cycle_speed run agrees with (gap-r)/(c-1)"
    QCheck.(make Gen.(int_bound 1_000_000) ~print:string_of_int)
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let case = Cycle_speed.random rng in
      let inst = case.Model.instance in
      let res = inst.Model.run () in
      (match
         Model.oracle_agrees ~horizon:inst.Model.horizon inst.Model.oracle res
       with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "oracle disagreement: %s" msg);
      (* The rescaling law: every length doubled must double hit times. *)
      let rescaled = (Option.get case.Model.rescaled) 2.0 in
      let res' = rescaled.Model.run () in
      match (res.Model.outcome, res'.Model.outcome) with
      | Model.Hit t, Model.Hit t' ->
          Model.rel_close ~tol:1e-9 t' (case.Model.time_factor 2.0 *. t)
      | Model.Horizon _, Model.Horizon _ -> true
      | _ -> QCheck.Test.fail_reportf "rescaling flipped the outcome kind")

let test_cycle_speed_edges () =
  let p = Cycle_speed.default in
  (* Visible from the start: gap inside the detection radius. *)
  let visible = { p with Cycle_speed.gap = 0.3 } in
  check_bool "gap <= r hits at t = 0" true
    ((Cycle_speed.run visible).Model.outcome = Model.Hit 0.0);
  check_bool "gap <= r oracle is exact 0" true
    ((Cycle_speed.oracle visible).Model.time = Some 0.0);
  (* Equal speeds: provably never meets. *)
  let equal_speeds = { p with Cycle_speed.c = 1.0 } in
  check_bool "c = 1 runs to the horizon" true
    ((Cycle_speed.run equal_speeds).Model.outcome
    = Model.Horizon p.Cycle_speed.horizon);
  check_bool "c = 1 oracle is exactly infeasible" true
    (let o = Cycle_speed.oracle equal_speeds in
     (not o.Model.feasible) && o.Model.exact);
  (* The closed form on the default geometry: (5 - 0.5) / (2 - 1). *)
  check_bool "default hits at 4.5" true
    ((Cycle_speed.run p).Model.outcome = Model.Hit 4.5);
  (* Validation. *)
  let err p =
    match Cycle_speed.validate p with Error e -> e | Ok _ -> "ok"
  in
  check_string "gap out of range" "field \"gap\": must be in [0, length)"
    (err { p with Cycle_speed.gap = 10.0 });
  check_string "r too large" "field \"r\": must be less than length/2"
    (err { p with Cycle_speed.r = 5.0 });
  check_string "c below 1" "field \"c\": must be at least 1 and finite"
    (err { p with Cycle_speed.c = 0.5 })

(* ------------------------------------------------------------------ *)
(* visible_bits *)

let test_visible_bits_table () =
  List.iter
    (fun d ->
      List.iter
        (fun sched ->
          List.iter
            (fun colors ->
              let p =
                { Visible_bits.default with Visible_bits.d; colors; sched }
              in
              let res = Visible_bits.run p in
              let o = Visible_bits.oracle p in
              if Visible_bits.solvable ~sched ~colors then (
                check_bool "solvable case hits" true
                  (res.Model.outcome = Model.Hit (Option.get o.Model.time));
                check_bool "hit closes the gap exactly" true
                  (res.Model.min_distance = 0.0))
              else (
                check_bool "unsolvable case never meets" true
                  (match res.Model.outcome with
                  | Model.Horizon _ -> true
                  | Model.Hit _ -> false);
                (* The float-soundness contract: the halving gap must
                   never collapse to 0.0 through rounding. *)
                check_bool "gap stays positive" true
                  (res.Model.min_distance > 0.0)))
            [ 1; 2; 3; 4; 5 ])
        [ Visible_bits.Fsync; Visible_bits.Ssync ])
    [ 1.0; 0.7; 33.0; 1e-150 ]

let test_visible_bits_floor () =
  (* The worst case the validation bounds allow: the smallest d for the
     longest run still halves inside the normal-float range. *)
  let p =
    {
      Visible_bits.d = 1e-150;
      colors = 1;
      sched = Visible_bits.Ssync;
      rounds = 512;
    }
  in
  check_bool "floor params validate" true (Result.is_ok (Visible_bits.validate p));
  let res = Visible_bits.run p in
  check_bool "512 halvings never meet" true
    (res.Model.outcome = Model.Horizon 512.0);
  check_bool "gap still a positive normal float" true
    (res.Model.min_distance > 0.0);
  (* Below the floor, validation refuses rather than risking underflow. *)
  check_bool "d below the floor rejected" true
    (match Visible_bits.validate { p with Visible_bits.d = 1e-200 } with
    | Error e -> e = "field \"d\": must be at least 1e-150"
    | Ok _ -> false)

let test_visible_bits_rescale () =
  let rng = Rng.create ~seed:77L in
  for _ = 1 to 20 do
    let case = Visible_bits.random rng in
    let res = case.Model.instance.Model.run () in
    let res' = ((Option.get case.Model.rescaled) 3.0).Model.run () in
    (* Rounds are counted, not measured: scaling d never moves the hit
       round ([time_factor] is 1). *)
    check_bool "hit round scale-invariant" true
      (res.Model.outcome = res'.Model.outcome)
  done

(* ------------------------------------------------------------------ *)
(* The protocol's model axis *)

let decode line =
  match Wire.parse line with
  | Error e -> Error (Wire.error_to_string e)
  | Ok w -> Proto.request_of_wire w

let test_model_field_normalises () =
  let bare = {|{"kind":"simulate","tau":0.5,"d":3.0,"horizon":1e4}|} in
  let tagged =
    {|{"kind":"simulate","model":"unknown_attributes","tau":0.5,"d":3.0,"horizon":1e4}|}
  in
  match (decode bare, decode tagged) with
  | Ok a, Ok b ->
      check_string "same canonical key"
        (Proto.canonical_key a.Proto.request)
        (Proto.canonical_key b.Proto.request);
      check_bool "both decode to plain Simulate" true
        (match (a.Proto.request, b.Proto.request) with
        | Proto.Simulate _, Proto.Simulate _ -> true
        | _ -> false);
      check_string "same response bytes"
        (Wire.print (Handler.run a.Proto.request))
        (Wire.print (Handler.run b.Proto.request))
  | Error e, _ | _, Error e -> Alcotest.failf "decode failed: %s" e

let test_model_axis_errors () =
  let err line =
    match decode line with
    | Error e -> e
    | Ok _ -> Alcotest.failf "expected a decode error for %s" line
  in
  check_bool "unknown model names the known ones" true
    (let e = err {|{"kind":"simulate","model":"nope"}|} in
     String.length e > 0
     && e
        = Printf.sprintf "field \"model\": unknown model %S (known: %s)" "nope"
            (String.concat ", " Registry.names));
  check_string "non-string model" "field \"model\": expected a string, got int"
    (err {|{"kind":"simulate","model":42}|});
  check_string "model params validated"
    "field \"gap\": must be in [0, length)"
    (err {|{"kind":"simulate","model":"cycle_speed","gap":99}|});
  check_string "model sched validated"
    "field \"sched\": expected \"fsync\" or \"ssync\", got \"async\""
    (err {|{"kind":"simulate","model":"visible_bits","sched":"async"}|})

let test_model_request_roundtrip () =
  (* Encode/decode inverse along the model axis: a printed Model_run line
     decodes back to the same canonical key and the same payload bytes. *)
  List.iter
    (fun (e : Registry.entry) ->
      if e.Registry.name <> Unknown_attributes.name then begin
        let inst = e.Registry.sweep 1.5 in
        let request =
          Proto.Model_run { model = e.Registry.name; instance = inst }
        in
        let line = Wire.print (Proto.wire_of_request ~id:(Wire.Int 1) request) in
        match decode line with
        | Error err -> Alcotest.failf "%s round trip failed: %s" e.Registry.name err
        | Ok env ->
            check_string "canonical key survives the round trip"
              (Proto.canonical_key request)
              (Proto.canonical_key env.Proto.request);
            check_string "payload bytes survive the round trip"
              (Wire.print (Handler.run request))
              (Wire.print (Handler.run env.Proto.request))
      end)
    (Registry.all ())

let prop_canonical_keys_distinct =
  QCheck.Test.make ~count:100
    ~name:"canonical keys never collide across models"
    QCheck.(make Gen.(float_bound_exclusive 3.0) ~print:string_of_float)
    (fun x ->
      QCheck.assume (x > 0.0);
      (* The same scalar fed to every model's sweep axis — and to the
         paper's model as its distance — must produce pairwise distinct
         cache keys. *)
      let keys =
        Proto.canonical_key
          (Proto.Simulate
             {
               Proto.attrs = Attributes.make ~tau:0.5 ();
               d = x;
               bearing = 0.9;
               r = 0.1;
               horizon = 1e8;
               algorithm4 = false;
               transform = Symmetry.identity;
             })
        :: List.filter_map
             (fun (e : Registry.entry) ->
               if e.Registry.name = Unknown_attributes.name then None
               else
                 Some
                   (Proto.canonical_key
                      (Proto.Model_run
                         { model = e.Registry.name; instance = e.Registry.sweep x })))
             (Registry.all ())
      in
      List.length (List.sort_uniq compare keys) = List.length keys)

(* ------------------------------------------------------------------ *)
(* unknown_attributes through the registry *)

let test_unknown_attributes_rescale_law () =
  (* The regression pinned by the models campaign: rescaling must dilate
     the program along with the geometry, so hit times scale exactly. *)
  let s =
    {
      Unknown_attributes.attrs =
        Attributes.make ~v:1.0 ~tau:0.5 ~phi:0.0 ~chi:Attributes.Same ();
      d = 2.0;
      bearing = 0.9;
      r = 0.1;
      horizon = 1e4;
      algorithm4 = false;
      transform = Symmetry.identity;
    }
  in
  let t = hit_time (Unknown_attributes.run s).Model.outcome in
  let s' = Unknown_attributes.rescale 2.0 s in
  check_bool "rescale composes the scale into the transform" true
    (s'.Unknown_attributes.transform.Symmetry.scale = 2.0);
  let t' = hit_time (Unknown_attributes.run s').Model.outcome in
  check_bool
    (Printf.sprintf "hit time doubles (%.6g vs %.6g)" t' (2.0 *. t))
    true
    (Model.rel_close ~tol:1e-6 t' (2.0 *. t))

let test_unknown_attributes_payload_identity () =
  (* The registry payload is byte-for-byte the service response. *)
  let s =
    {
      Unknown_attributes.attrs = Attributes.make ~tau:0.5 ();
      d = 3.0;
      bearing = 0.9;
      r = 0.1;
      horizon = 1e4;
      algorithm4 = false;
      transform = Symmetry.identity;
    }
  in
  let inst = Unknown_attributes.instance s in
  check_string "instance payload = Handler response"
    (Wire.print (Handler.run (Proto.Simulate s)))
    (Wire.print (inst.Model.payload ()))

(* ------------------------------------------------------------------ *)
(* Zipf workload knob *)

let drive_lines lg =
  let acc = ref [] in
  Loadgen.drive lg ~send:(fun line -> acc := line :: !acc);
  List.rev !acc

let body_key line =
  match decode line with
  | Ok env -> Proto.canonical_key env.Proto.request
  | Error e -> Alcotest.failf "zipf line failed to decode: %s" e

let frequency lines =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun l ->
      let k = body_key l in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    lines;
  let counts = Hashtbl.fold (fun _ c acc -> c :: acc) tbl [] in
  (Hashtbl.length tbl, List.fold_left max 0 counts)

let test_zipf () =
  let requests = 150 in
  let lines s = drive_lines (Loadgen.create ~seed:5 ~zipf:s ~requests ()) in
  (* Deterministic in the seed. *)
  check_bool "same seed, same draw" true (lines 1.2 = lines 1.2);
  check_bool "different seed, different draw" true
    (lines 1.2
    <> drive_lines (Loadgen.create ~seed:6 ~zipf:1.2 ~requests ()));
  (* The skew dial: a steep exponent concentrates traffic, a shallow one
     spreads it. *)
  let distinct_steep, top_steep = frequency (lines 4.0) in
  let distinct_shallow, top_shallow = frequency (lines 0.5) in
  check_bool
    (Printf.sprintf "steep zipf concentrates (top %d/%d)" top_steep requests)
    true
    (top_steep > requests / 2);
  check_bool
    (Printf.sprintf "shallow zipf spreads (top %d/%d)" top_shallow requests)
    true
    (top_shallow < requests / 3);
  check_bool "shallow zipf reaches more of the population" true
    (distinct_shallow > distinct_steep);
  (* Ids stay positional so response matching works unchanged. *)
  let with_ids = lines 2.0 in
  List.iteri
    (fun i line ->
      match Wire.parse line with
      | Ok w ->
          check_bool "ids are 1..n" true
            (Wire.member "id" w = Some (Wire.Int (i + 1)))
      | Error _ -> Alcotest.fail "zipf line is not valid JSON")
    with_ids;
  check_int "every request drawn" requests (List.length with_ids)

(* Past round 28 a schedule's segment count no int holds. A long drive
   never asks for one, and still reaches all 29 distinct requests of the
   population: six schedules with six distinct rounds, five members each
   of the three templates jittered on distance, and the eight templates
   that repeat verbatim. *)
let test_zipf_schedule_rounds () =
  let lines = drive_lines (Loadgen.create ~seed:0 ~zipf:1.0 ~requests:20000 ()) in
  let rounds =
    List.filter_map
      (fun l ->
        match decode l with
        | Ok { Proto.request = Proto.Schedule n; _ } -> Some n
        | _ -> None)
      lines
  in
  check_bool "schedules drawn" true (rounds <> []);
  check_int "schedules past round 28" 0
    (List.length
       (List.filter (fun n -> n > Rvu_search.Timing.max_schedule_round) rounds));
  check_int "distinct schedule rounds" 6
    (List.length (List.sort_uniq compare rounds));
  check_int "distinct requests" 29 (fst (frequency lines))

let test_zipf_validation () =
  let invalid f =
    match f () with
    | (_ : Loadgen.t) -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "zipf must be positive" true
    (invalid (fun () -> Loadgen.create ~zipf:0.0 ~requests:5 ()));
  check_bool "zipf must be finite" true
    (invalid (fun () -> Loadgen.create ~zipf:Float.infinity ~requests:5 ()));
  check_bool "zipf excludes explicit lines" true
    (invalid (fun () ->
         Loadgen.create ~zipf:1.0 ~lines:[| "{}" |] ~requests:1 ()))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "model"
    [
      ( "registry",
        [
          Alcotest.test_case "names and lookup" `Quick test_registry;
          Alcotest.test_case "oracle-agreement gate" `Quick
            test_oracle_agrees_gate;
        ] );
      ( "cycle_speed",
        [
          QCheck_alcotest.to_alcotest prop_cycle_speed_oracle;
          Alcotest.test_case "edges and validation" `Quick
            test_cycle_speed_edges;
        ] );
      ( "visible_bits",
        [
          Alcotest.test_case "solvability table" `Quick test_visible_bits_table;
          Alcotest.test_case "float-soundness floor" `Quick
            test_visible_bits_floor;
          Alcotest.test_case "rescale invariance" `Quick
            test_visible_bits_rescale;
        ] );
      ( "protocol model axis",
        [
          Alcotest.test_case "explicit unknown_attributes normalises" `Quick
            test_model_field_normalises;
          Alcotest.test_case "error paths" `Quick test_model_axis_errors;
          Alcotest.test_case "model request round trip" `Quick
            test_model_request_roundtrip;
          QCheck_alcotest.to_alcotest prop_canonical_keys_distinct;
        ] );
      ( "unknown_attributes",
        [
          Alcotest.test_case "rescale law" `Quick
            test_unknown_attributes_rescale_law;
          Alcotest.test_case "payload identity" `Quick
            test_unknown_attributes_payload_identity;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "determinism and skew" `Quick test_zipf;
          Alcotest.test_case "validation" `Quick test_zipf_validation;
          Alcotest.test_case "schedules stop at round 28" `Quick
            test_zipf_schedule_rounds;
        ] );
    ]
