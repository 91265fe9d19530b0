(* PERF-MODELS — the model registry as a serving workload.

   Three probes over every registry entry:

     cold/warm   32 distinct request lines per model, replayed twice
                 against the same in-process server; the second pass is
                 all LRU hits. The warm-beats-cold gate is asserted only
                 for unknown_attributes — the rival models' runs are
                 microsecond-cheap, so their warm speedup is reported but
                 not gated.
     oracle      200 random cases per model, each run checked against the
                 model's closed-form oracle with the same
                 [Model.oracle_agrees] gate the verify campaign and the
                 QCheck suite use; any disagreement fails the bench.
     identity    the first 4 request lines of each model answered by the
                 live server must be byte-identical to the instance's own
                 payload — the registry and the serving stack may never
                 drift apart.

   Emits BENCH_8.json. *)

module Wire = Rvu_service.Wire
module Loadgen = Rvu_service.Loadgen
module Server = Rvu_service.Server
module Proto = Rvu_service.Proto
module Model = Rvu_model.Model
module Registry = Rvu_model.Registry
module Unknown_attributes = Rvu_model.Unknown_attributes
module Rng = Rvu_workload.Rng

let requests_per_model = 32
let oracle_cases = 200
let identity_probes = 4

(* The cold-pass workload must be distinct requests with non-trivial
   compute for the cached-replay gate to mean anything, so the paper's
   own model gets the perf-serve workload's scenarios; the rivals use
   their registry generators (their runs are cheap by construction, which
   is exactly what the ungated speedup column documents). *)
let instances_for (e : Registry.entry) =
  if e.Registry.name = Unknown_attributes.name then
    Array.init requests_per_model (fun i ->
        Unknown_attributes.instance
          (Util.scenario ~n:requests_per_model ~d:8.0 ~r:0.01 i))
  else
    let rng = Rng.create ~seed:(Int64.of_int (0xbe11 + String.length e.Registry.name)) in
    Array.init requests_per_model (fun _ ->
        (e.Registry.random rng).Model.instance)

let line_of_instance ~id (inst : Model.instance) =
  Wire.print
    (Proto.wire_of_request ~id:(Wire.Int id)
       (Proto.Model_run { model = inst.Model.model; instance = inst }))

let run_pass server lines =
  Util.drive ~name:"perf-models" (Server.handle_line server) lines

(* Cold and warm passes for one model against its own fresh server. *)
let serve_probe (e : Registry.entry) instances =
  let lines =
    Array.mapi (fun i inst -> line_of_instance ~id:(i + 1) inst) instances
  in
  let config =
    {
      Server.default_config with
      Server.jobs = !Util.jobs;
      queue_depth = 2 * Array.length lines;
      cache_entries = 256;
      timeout_ms = None;
    }
  in
  let server = Server.create ~config () in
  let cold = run_pass server lines in
  let warm = run_pass server lines in
  Server.stop server;
  if cold.Loadgen.ok <> cold.Loadgen.requests then
    Printf.ksprintf failwith "perf-models: %s cold pass had non-ok responses"
      e.Registry.name;
  if warm.Loadgen.ok <> warm.Loadgen.requests then
    Printf.ksprintf failwith "perf-models: %s warm pass had non-ok responses"
      e.Registry.name;
  let warm_speedup =
    cold.Loadgen.wall_s /. Float.max 1e-9 warm.Loadgen.wall_s
  in
  if e.Registry.name = Unknown_attributes.name && warm_speedup <= 1.0 then
    Printf.ksprintf failwith
      "perf-models: cached replay of %s not faster than cold run (speedup %.3f)"
      e.Registry.name warm_speedup;
  (cold, warm, warm_speedup)

(* Every model run must agree with its closed-form oracle. *)
let oracle_probe (e : Registry.entry) =
  let rng = Rng.create ~seed:(Int64.of_int (0xacc0 + String.length e.Registry.name)) in
  let disagreements = ref 0 in
  for _ = 1 to oracle_cases do
    let inst = (e.Registry.random rng).Model.instance in
    let res = inst.Model.run () in
    match
      Model.oracle_agrees ~horizon:inst.Model.horizon inst.Model.oracle res
    with
    | Ok () -> ()
    | Error msg ->
        incr disagreements;
        Util.note "perf-models: %s oracle disagreement: %s" e.Registry.name msg
  done;
  !disagreements

(* Registry payload vs live-server response, byte for byte. *)
let identity_probe (e : Registry.entry) instances =
  let server =
    Server.create
      ~config:{ Server.default_config with Server.jobs = 1; timeout_ms = None }
      ()
  in
  let mismatches = ref 0 in
  for i = 0 to identity_probes - 1 do
    let inst = instances.(i) in
    let resp = Server.handle_sync server (line_of_instance ~id:(i + 1) inst) in
    let expected = Wire.print (inst.Model.payload ()) in
    let got =
      match Wire.parse resp with
      | Ok w -> (
          match Wire.member "ok" w with
          | Some ok -> Wire.print ok
          | None -> resp)
      | Error _ -> resp
    in
    if got <> expected then (
      incr mismatches;
      Util.note "perf-models: %s response differs from registry payload"
        e.Registry.name)
  done;
  Server.stop server;
  !mismatches

let run () =
  let jobs = !Util.jobs in
  Util.banner "PERF-MODELS"
    (Printf.sprintf "Model registry as a serving workload (--jobs %d)" jobs);
  let entries = Registry.all () in
  let t =
    Rvu_report.Table.create
      ~columns:
        (List.map Rvu_report.Table.column
           [ "model"; "cold wall (s)"; "warm wall (s)"; "warm speedup"; "oracle"; ])
  in
  let model_sections = ref [] in
  let total_disagreements = ref 0 in
  let total_mismatches = ref 0 in
  List.iter
    (fun (e : Registry.entry) ->
      let instances = instances_for e in
      let cold, warm, warm_speedup = serve_probe e instances in
      let disagreements = oracle_probe e in
      total_disagreements := !total_disagreements + disagreements;
      total_mismatches := !total_mismatches + identity_probe e instances;
      Rvu_report.Table.add_row t
        [
          e.Registry.name;
          Rvu_report.Table.fstr cold.Loadgen.wall_s;
          Rvu_report.Table.fstr warm.Loadgen.wall_s;
          Rvu_report.Table.fstr warm_speedup;
          Printf.sprintf "%d/%d ok" (oracle_cases - disagreements) oracle_cases;
        ];
      model_sections :=
        ( e.Registry.name,
          Wire.Obj
            [
              ("cold", Loadgen.summary_json cold);
              ("warm", Loadgen.summary_json warm);
              ("warm_speedup", Wire.Float warm_speedup);
            ] )
        :: !model_sections)
    entries;
  Util.table ~id:"perf-models" t;
  if !total_disagreements > 0 then
    Printf.ksprintf failwith
      "perf-models: %d oracle disagreement(s) across the registry"
      !total_disagreements;
  if !total_mismatches > 0 then
    Printf.ksprintf failwith
      "perf-models: %d registry/server payload mismatch(es)" !total_mismatches;
  Util.note
    "all %d models: %d oracle cases each in agreement; %d identity probes \
     each byte-identical."
    (List.length entries) oracle_cases identity_probes;
  let json =
    Wire.Obj
      [
        ("experiment", Wire.String "perf-models");
        ("requests_per_model", Wire.Int requests_per_model);
        ("jobs", Wire.Int jobs);
        ("models", Wire.Obj (List.rev !model_sections));
        ( "oracle",
          Wire.Obj
            [
              ("cases_per_model", Wire.Int oracle_cases);
              ("disagreements", Wire.Int !total_disagreements);
            ] );
        ("agreement_ok", Wire.Bool (!total_disagreements = 0));
      ]
  in
  Util.write_artifact 8 json
