(* The paper's own model — rendezvous by robots with unknown attributes —
   packaged behind the registry interface.

   This module owns what used to live inline in the service layer: the
   wire-field parsers for attribute/geometry/transform objects, the
   shared reference-trajectory source, and the simulate response
   document. [Proto] re-exports [args] as its [simulate] record and
   [Handler] delegates to [response], so registering the model changed
   no bytes of the serving path: the canonical request keys and the
   response JSON are the ones pinned by the cram suites since the first
   PR. *)

open Rvu_geom
open Rvu_core
module Wire = Rvu_obs.Wire
module Rng = Rvu_workload.Rng
module Scenario = Rvu_workload.Scenario
open Model

let name = "unknown_attributes"

type args = {
  attrs : Attributes.t;
  d : float;
  bearing : float;
  r : float;
  horizon : float;
  algorithm4 : bool;
  transform : Symmetry.t;
}

(* ------------------------------------------------------------------ *)
(* Reference trajectory source (moved verbatim from Handler) *)

let algorithm4_key = "rvu.service.algorithm4.reference"

let reference_source ~algorithm4 =
  let key, make =
    if algorithm4 then (algorithm4_key, Rvu_search.Algorithm4.program)
    else (Rvu_exec.Batch.universal_key, Universal.program)
  in
  let cache = Rvu_trajectory.Stream_cache.find_or_create ~key make in
  (* The compiled prefix is realised and flattened once per process and
     shared by every request; the engine's compiled kernel then derives
     the displaced robot's table from it instead of re-realising. *)
  let tbl, tail = Rvu_trajectory.Stream_cache.compiled_source cache in
  Rvu_sim.Detector.source_of_table tbl ~tail

(* ------------------------------------------------------------------ *)
(* JSON shapes (moved verbatim from Handler) *)

let opt_int = function Some i -> Wire.Int i | None -> Wire.Null
let finite_or_null x = if Float.is_finite x then Wire.Float x else Wire.Null

(* Close enough to τ = 1, Theorem 3's round count is so large that the
   time it guarantees overflows a double: the time is then [null] (no
   wire carries an infinity), next to its exact round. *)
let time_json = function Some x -> finite_or_null x | None -> Wire.Null

let verdict_json v =
  let feasible, reason =
    match v with
    | Feasibility.Feasible Feasibility.Different_clocks ->
        (true, Wire.String "different_clocks")
    | Feasibility.Feasible Feasibility.Different_speeds ->
        (true, Wire.String "different_speeds")
    | Feasibility.Feasible Feasibility.Rotated_same_chirality ->
        (true, Wire.String "rotated_same_chirality")
    | Feasibility.Infeasible -> (false, Wire.Null)
  in
  Wire.Obj [ ("feasible", Wire.Bool feasible); ("reason", reason) ]

let detector_outcome_json outcome =
  let kind, t =
    match outcome with
    | Rvu_sim.Detector.Hit t -> ("hit", t)
    | Rvu_sim.Detector.Horizon h -> ("horizon", h)
    | Rvu_sim.Detector.Stream_end t -> ("stream_end", t)
  in
  Wire.Obj [ ("kind", Wire.String kind); ("t", Wire.Float t) ]

let guarantee_json (g : Universal.guarantee) =
  Wire.Obj
    [
      ("round", opt_int g.Universal.round);
      ("time", time_json g.Universal.time);
    ]

let detector_stats_json (s : Rvu_sim.Detector.stats) =
  Wire.Obj
    [
      ("intervals", Wire.Int s.Rvu_sim.Detector.intervals);
      ("min_distance", finite_or_null s.Rvu_sim.Detector.min_distance);
    ]

(* ------------------------------------------------------------------ *)
(* The simulate computation (moved verbatim from Handler.simulate) *)

let engine_result (s : args) =
  let displacement = Vec2.of_polar ~radius:s.d ~angle:s.bearing in
  let inst = Rvu_sim.Engine.instance ~attributes:s.attrs ~displacement ~r:s.r in
  let base_program () =
    if s.algorithm4 then Rvu_search.Algorithm4.program ()
    else Universal.program ()
  in
  let identity = Symmetry.is_identity s.transform in
  let res =
    if identity then
      (* The shared reference table is only valid for the untransformed
         program; keep that fast path exactly as before. *)
      Rvu_sim.Engine.run_with_source ~horizon:s.horizon
        ~reference:(reference_source ~algorithm4:s.algorithm4)
        ~program:(base_program ()) inst
    else
      Rvu_sim.Engine.run ~horizon:s.horizon
        ~program:(Symmetry.map_program s.transform (base_program ()))
        inst
  in
  (identity, res)

let response (s : args) =
  let identity, res = engine_result s in
  let phase =
    match res.Rvu_sim.Engine.outcome with
    | Rvu_sim.Detector.Hit t when (not s.algorithm4) && identity -> (
        match Phases.phase_at t with
        | Some (n, p) ->
            Wire.Obj
              [
                ("round", Wire.Int n);
                ( "phase",
                  Wire.String
                    (match p with
                    | Phases.Active -> "active"
                    | Phases.Inactive -> "inactive") );
              ]
        | None -> Wire.Null)
    | _ -> Wire.Null
  in
  Wire.Obj
    [
      ("verdict", verdict_json (Feasibility.classify s.attrs));
      ("outcome", detector_outcome_json res.Rvu_sim.Engine.outcome);
      ("phase", phase);
      ("bound", guarantee_json res.Rvu_sim.Engine.bound);
      ("stats", detector_stats_json res.Rvu_sim.Engine.stats);
    ]

let run (s : args) =
  let _, res = engine_result s in
  let outcome =
    match res.Rvu_sim.Engine.outcome with
    | Rvu_sim.Detector.Hit t -> Hit t
    | Rvu_sim.Detector.Horizon h -> Horizon h
    | Rvu_sim.Detector.Stream_end t -> Horizon t
  in
  {
    outcome;
    min_distance = res.Rvu_sim.Engine.stats.Rvu_sim.Detector.min_distance;
    steps = res.Rvu_sim.Engine.stats.Rvu_sim.Detector.intervals;
  }

(* The closest thing this model has to a closed form is Theorem 5's
   universal guarantee: an upper bound on the universal program's meeting
   time, never the time itself. Infeasibility here means "no algorithm
   can guarantee rendezvous", not "this run cannot meet" (d <= r hits at
   t = 0 even for identical robots), so it is not exact either. *)
let oracle (s : args) =
  let g = Universal.guarantee s.attrs ~d:s.d ~r:s.r in
  match g.Universal.verdict with
  | Feasibility.Infeasible -> { feasible = false; time = None; exact = false }
  | Feasibility.Feasible _ ->
      if s.algorithm4 || not (Symmetry.is_identity s.transform) then
        (* The guarantee is stated for the untransformed universal
           program only. *)
        { feasible = true; time = None; exact = false }
      else { feasible = true; time = g.Universal.time; exact = false }

(* ------------------------------------------------------------------ *)
(* Wire parsing (moved verbatim from Proto) *)

let attrs_of w =
  let* v = positive "v" (opt w "v" float_field ~default:1.0) in
  let* tau = positive "tau" (opt w "tau" float_field ~default:1.0) in
  let* phi = opt w "phi" float_field ~default:0.0 in
  let* mirror = opt w "mirror" bool_field ~default:false in
  if not (Float.is_finite phi) then Error "field \"phi\": must be finite"
  else
    Ok
      (Attributes.make ~v ~tau ~phi
         ~chi:(if mirror then Attributes.Opposite else Attributes.Same)
         ())

let geometry_of w =
  let* d = positive "d" (opt w "d" float_field ~default:2.0) in
  let* bearing = opt w "bearing" float_field ~default:0.9 in
  let* r = positive "r" (opt w "r" float_field ~default:0.1) in
  let* horizon = positive "horizon" (opt w "horizon" float_field ~default:1e8) in
  if not (Float.is_finite bearing) then Error "field \"bearing\": must be finite"
  else Ok (d, bearing, r, horizon)

let transform_of w =
  match Wire.member "transform" w with
  | None | Some Wire.Null -> Ok Symmetry.identity
  | Some (Wire.Obj _ as tw) ->
      let* rotate = opt tw "rotate" float_field ~default:0.0 in
      let* mirror = opt tw "mirror" bool_field ~default:false in
      let* scale =
        positive "transform.scale" (opt tw "scale" float_field ~default:1.0)
      in
      if not (Float.is_finite rotate) then
        Error "field \"transform.rotate\": must be finite"
      else Ok (Symmetry.make ~rotate ~mirror ~scale ())
  | Some v -> typed "transform" "an object" v

let args_of_wire w =
  let* attrs = attrs_of w in
  let* d, bearing, r, horizon = geometry_of w in
  let* algorithm4 = opt w "algorithm4" bool_field ~default:false in
  let* transform = transform_of w in
  Ok { attrs; d; bearing; r; horizon; algorithm4; transform }

(* ------------------------------------------------------------------ *)
(* Wire encoding (moved verbatim from Proto) *)

let attrs_fields (a : Attributes.t) =
  [
    ("v", Wire.Float a.Attributes.v);
    ("tau", Wire.Float a.Attributes.tau);
    ("phi", Wire.Float a.Attributes.phi);
    ("mirror", Wire.Bool (a.Attributes.chi = Attributes.Opposite));
  ]

let key_fields (s : args) =
  attrs_fields s.attrs
  @ [
      ("d", Wire.Float s.d);
      ("bearing", Wire.Float s.bearing);
      ("r", Wire.Float s.r);
      ("horizon", Wire.Float s.horizon);
      ("algorithm4", Wire.Bool s.algorithm4);
    ]
  @
  (* Identity transforms are omitted so pre-transform request lines
     keep their exact canonical cache keys. *)
  if Symmetry.is_identity s.transform then []
  else
    [
      ( "transform",
        Wire.Obj
          [
            ("rotate", Wire.Float s.transform.Symmetry.rotate);
            ("mirror", Wire.Bool s.transform.Symmetry.mirror);
            ("scale", Wire.Float s.transform.Symmetry.scale);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Registry packaging *)

let instance (s : args) =
  {
    model = name;
    key_fields = key_fields s;
    horizon = s.horizon;
    run = (fun () -> run s);
    payload = (fun () -> response s);
    oracle = oracle s;
  }

let of_wire w =
  let* s = args_of_wire w in
  Ok (instance s)

let rescale sigma (s : args) =
  (* The pure-dilation subgroup of the paper's symmetry group: distance,
     radius and the horizon scale by sigma, attributes are fixed, and the
     program is dilated through the frame transform — scaling only the
     geometry would leave the (scale-sensitive) universal program behind
     and break the time law. *)
  {
    s with
    d = s.d *. sigma;
    r = s.r *. sigma;
    horizon = s.horizon *. sigma;
    transform =
      Symmetry.make ~rotate:s.transform.Symmetry.rotate
        ~mirror:s.transform.Symmetry.mirror
        ~scale:(s.transform.Symmetry.scale *. sigma) ();
  }

let random rng =
  let families = Scenario.families in
  let family = List.nth families (Rng.int rng ~bound:(List.length families)) in
  let sc = Scenario.random_of_family family rng in
  let s =
    {
      attrs = sc.Scenario.attributes;
      d = sc.Scenario.d;
      bearing = sc.Scenario.bearing;
      r = sc.Scenario.r;
      horizon = 2e4;
      algorithm4 = false;
      transform = Symmetry.identity;
    }
  in
  {
    instance = instance s;
    rescaled = Some (fun sigma -> instance (rescale sigma s));
    time_factor = (fun sigma -> sigma);
  }

(* The CLI demo geometry (tau 0.5 is the different-clocks feasible case),
   swept along the initial distance. *)
let sweep d =
  instance
    {
      attrs = Attributes.make ~v:1.0 ~tau:0.5 ~phi:0.0 ~chi:Attributes.Same ();
      d;
      bearing = 0.9;
      r = 0.1;
      horizon = 1e8;
      algorithm4 = false;
      transform = Symmetry.identity;
    }
