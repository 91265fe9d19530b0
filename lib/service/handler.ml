open Rvu_geom
open Rvu_core

(* The simulate computation, its JSON shapes and the shared reference
   source moved to {!Rvu_model.Unknown_attributes} when the paper's model
   became registry entry zero; the service re-exports them unchanged. *)

let algorithm4_key = Rvu_model.Unknown_attributes.algorithm4_key
let time_json = Rvu_model.Unknown_attributes.time_json
let verdict_json = Rvu_model.Unknown_attributes.verdict_json
let outcome_json = Rvu_model.Unknown_attributes.detector_outcome_json
let guarantee_json = Rvu_model.Unknown_attributes.guarantee_json

(* ------------------------------------------------------------------ *)
(* Handlers — each mirrors the like-named CLI subcommand in bin/rvu.ml. *)

let simulate (s : Proto.simulate) = Rvu_model.Unknown_attributes.response s

let search (s : Proto.search) =
  let target = Vec2.of_polar ~radius:s.Proto.d ~angle:s.Proto.bearing in
  let outcome, stats =
    Rvu_sim.Search_engine.run ~horizon:s.Proto.horizon
      ~program:(Rvu_search.Algorithm4.program ())
      ~target ~r:s.Proto.r ()
  in
  let kind, t =
    match outcome with
    | Rvu_sim.Search_engine.Found t -> ("found", t)
    | Rvu_sim.Search_engine.Horizon h -> ("horizon", h)
    | Rvu_sim.Search_engine.Program_end t -> ("program_end", t)
  in
  let prediction =
    match outcome with
    | Rvu_sim.Search_engine.Found _ ->
        let round =
          Rvu_search.Predict.discovery_round ~d:s.Proto.d ~r:s.Proto.r
        in
        Wire.Obj
          [
            ("round", Wire.Int round);
            ( "completion_time",
              Wire.Float (Rvu_search.Bounds.time_through_round round) );
            ( "theorem1_bound",
              Wire.Float (Rvu_search.Bounds.search_time ~d:s.Proto.d ~r:s.Proto.r)
            );
            ( "theorem1_bound_safe",
              Wire.Float
                (Rvu_search.Bounds.search_time_safe ~d:s.Proto.d ~r:s.Proto.r)
            );
          ]
    | _ -> Wire.Null
  in
  Wire.Obj
    [
      ("outcome", Wire.Obj [ ("kind", Wire.String kind); ("t", Wire.Float t) ]);
      ("segments", Wire.Int stats.Rvu_sim.Search_engine.segments);
      ("prediction", prediction);
    ]

let feasibility attrs =
  let direction =
    match Feasibility.adversarial_direction attrs with
    | Some dir ->
        Wire.Obj
          [ ("x", Wire.Float dir.Vec2.x); ("y", Wire.Float dir.Vec2.y) ]
    | None -> Wire.Null
  in
  Wire.Obj
    [
      ("verdict", verdict_json (Feasibility.classify attrs));
      ("adversarial_direction", direction);
    ]

let bound (b : Proto.bound_query) =
  let attrs = b.Proto.attrs and d = b.Proto.d and r = b.Proto.r in
  let g = Universal.guarantee attrs ~d ~r in
  let theorem2 =
    match Bounds.symmetric_clock_time attrs ~d ~r with
    | Some t ->
        Wire.Obj
          [
            ("as_printed", Wire.Float t);
            ( "repaired",
              Wire.Float (Option.get (Bounds.symmetric_clock_time_safe attrs ~d ~r))
            );
          ]
    | None -> Wire.Null
  in
  let theorem3 =
    if Rvu_numerics.Floats.equal attrs.Attributes.tau 1.0 then Wire.Null
    else
      Wire.Obj
        [
          ("round", Wire.Int (Bounds.asymmetric_round attrs ~d ~r));
          ("time", time_json (Some (Bounds.asymmetric_time attrs ~d ~r)));
        ]
  in
  Wire.Obj
    [
      ("verdict", verdict_json g.Universal.verdict);
      ("universal", guarantee_json g);
      ("theorem2", theorem2);
      ("theorem3", theorem3);
      ("offline_optimum", Wire.Float (Bounds.offline_optimum attrs ~d ~r));
    ]

let schedule rounds =
  let row n =
    Wire.Obj
      [
        ("n", Wire.Int n);
        ("s", Wire.Float (Phases.s n));
        ("inactive_start", Wire.Float (Phases.inactive_start n));
        ("active_start", Wire.Float (Phases.active_start n));
        ("round_end", Wire.Float (Phases.round_end n));
        ( "segments",
          Wire.Int ((2 * Rvu_search.Timing.search_all_segments n) + 1) );
      ]
  in
  Wire.Obj [ ("rounds", Wire.List (List.init rounds (fun i -> row (i + 1)))) ]

let batch (b : Proto.batch) =
  let ds =
    Rvu_workload.Sweep.linspace ~lo:b.Proto.d_lo ~hi:b.Proto.d_hi
      ~n:b.Proto.points
  in
  let instances =
    Array.of_list
      (List.map
         (fun d ->
           Rvu_sim.Engine.instance ~attributes:b.Proto.attrs
             ~displacement:(Vec2.of_polar ~radius:d ~angle:b.Proto.bearing)
             ~r:b.Proto.r)
         ds)
  in
  (* jobs:1 — request-level parallelism is the scheduler's job; nesting
     domains inside a worker would oversubscribe the machine. *)
  let results = Rvu_exec.Batch.run ~horizon:b.Proto.horizon ~jobs:1 instances in
  let rows =
    List.mapi
      (fun i d ->
        let res = results.(i) in
        Wire.Obj
          [
            ("d", Wire.Float d);
            ("outcome", outcome_json res.Rvu_sim.Engine.outcome);
            ("bound", time_json res.Rvu_sim.Engine.bound.Universal.time);
            ( "intervals",
              Wire.Int
                res.Rvu_sim.Engine.stats.Rvu_sim.Detector.intervals );
          ])
      ds
  in
  Wire.Obj [ ("points", Wire.Int (List.length ds)); ("rows", Wire.List rows) ]

let run = function
  | Proto.Simulate s -> simulate s
  | Proto.Model_run { instance; _ } -> instance.Rvu_model.Model.payload ()
  | Proto.Search s -> search s
  | Proto.Feasibility attrs -> feasibility attrs
  | Proto.Bound b -> bound b
  | Proto.Schedule rounds -> schedule rounds
  | Proto.Batch b -> batch b
  | Proto.Stats -> invalid_arg "Handler.run: stats is answered by the server"
  | Proto.Metrics _ ->
      invalid_arg "Handler.run: metrics is answered by the server"
  | Proto.Health -> invalid_arg "Handler.run: health is answered by the server"
  | Proto.Hello _ -> invalid_arg "Handler.run: hello is answered by the server"
