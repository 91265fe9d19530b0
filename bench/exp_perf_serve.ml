(* PERF-SERVE — evaluation-server latency, result-cache speedup, and
   backpressure.

   Three probes against in-process servers (the same handle_line path the
   socket transport serves, minus the kernel):

     cold      a fixed workload of distinct simulate requests, replayed
               flat-out through the scheduler's worker pool
     warm      the identical workload against the same server: every
               request is now an LRU hit and never reaches a worker, so
               warm wall must beat cold wall (asserted)
     overload  a 1-worker, depth-2 server flooded with un-cacheable
               requests must shed with `overloaded`, not hang (asserted)

   Emits BENCH_2.json. *)

open Rvu_core
module Wire = Rvu_service.Wire
module Loadgen = Rvu_service.Loadgen
module Server = Rvu_service.Server

(* The cold/warm workload: 24 distinct scenarios of the family (all
   reach round ~5-6 of the schedule), built as request lines with ids
   1..n. Distinct on purpose — the cold pass must not hit its own cache. *)
let workload =
  let n = 24 in
  Array.init n (fun i ->
      Util.line ~id:(i + 1) (Util.scenario ~n ~d:8.0 ~r:0.01 i))

let run_pass server lines =
  Util.drive ~name:"perf-serve" (Server.handle_line server) lines

(* Un-cacheable flood for the overload probe: every request distinct. *)
let flood_lines n =
  Array.init n (fun i ->
      Util.line ~id:(i + 1)
        {
          attrs = Attributes.make ~tau:0.99 ();
          d = 6.0 +. (0.01 *. float_of_int i);
          bearing = 0.7;
          r = 0.01;
          horizon = 1e13;
          algorithm4 = false;
          transform = Rvu_core.Symmetry.identity;
        })

let run () =
  let jobs = !Util.jobs in
  Util.banner "PERF-SERVE"
    (Printf.sprintf "Server latency and cache speedup (--jobs %d)" jobs);

  (* Cold, then warm, against the same server. *)
  let config =
    {
      Server.default_config with
      Server.jobs;
      queue_depth = 2 * Array.length workload;
      cache_entries = 256;
      timeout_ms = None;
    }
  in
  let server = Server.create ~config () in
  let cold = run_pass server workload in
  let warm = run_pass server workload in
  let stats = Server.stats_json server in
  Server.stop server;
  if cold.Loadgen.ok <> cold.Loadgen.requests then
    failwith "perf-serve: cold pass had non-ok responses";
  if warm.Loadgen.ok <> warm.Loadgen.requests then
    failwith "perf-serve: warm pass had non-ok responses";
  let warm_speedup =
    cold.Loadgen.wall_s /. Float.max 1e-9 warm.Loadgen.wall_s
  in
  if warm_speedup <= 1.0 then
    failwith
      (Printf.sprintf
         "perf-serve: cached replay not faster than cold run (speedup %.3f)"
         warm_speedup);

  (* Overload probe: one worker, depth 2, 12 distinct requests at once. *)
  let overload_config =
    { Server.default_config with Server.jobs = 1; queue_depth = 2; cache_entries = 0; timeout_ms = None }
  in
  let overload_server = Server.create ~config:overload_config () in
  let overload = run_pass overload_server (flood_lines 12) in
  Server.stop overload_server;
  if overload.Loadgen.overloaded = 0 then
    failwith "perf-serve: flood past the queue depth shed nothing";
  if overload.Loadgen.completed <> overload.Loadgen.requests then
    failwith "perf-serve: overloaded server dropped responses";

  Util.summary_table ~id:"perf-serve" ~key:"pass"
    [ ("cold", cold); ("warm", warm) ];
  Util.note
    "warm speedup %.1fx; overload probe shed %d of %d (0 dropped, 0 hung)."
    warm_speedup overload.Loadgen.overloaded overload.Loadgen.requests;

  let json =
    Wire.Obj
      [
        ("experiment", Wire.String "perf-serve");
        ("requests", Wire.Int (Array.length workload));
        ("jobs", Wire.Int jobs);
        ("cold", Loadgen.summary_json cold);
        ("warm", Loadgen.summary_json warm);
        ("warm_speedup", Wire.Float warm_speedup);
        ("server_stats", stats);
        ( "overload",
          Wire.Obj
            [
              ("requests", Wire.Int overload.Loadgen.requests);
              ("ok", Wire.Int overload.Loadgen.ok);
              ("overloaded", Wire.Int overload.Loadgen.overloaded);
              ("completed", Wire.Int overload.Loadgen.completed);
            ] );
      ]
  in
  Util.write_artifact 2 json
