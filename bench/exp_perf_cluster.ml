(* PERF-CLUSTER — warm-cache throughput scaling across worker shards.

   The cluster exists to scale the warm path: once every shard's LRU holds
   its slice of the keyspace, adding shards should multiply throughput
   until the router (one process, byte-splicing only) or the core count
   saturates. Two probes against real spawned `rvu serve` worker
   processes behind a Router:

     1 shard   the whole keyspace on one worker — the single-process
               ceiling the cluster is measured against (BENCH_2's warm
               pass, plus the routing hop)
     4 shards  the same workload consistent-hash-spread over four workers

   Both passes replay the same fixed mix of distinct simulate scenarios
   (caches pre-warmed by a cold pass), so the measured delta is routing +
   parallelism, nothing else. Also asserted:

     - every routed response is bit-identical to a direct in-process
       server's answer for the same line (the router splices bytes, never
       re-prints bodies);
     - zero non-ok responses in every pass.

   The scaling floor (2.5x) is enforced only when the machine has enough
   cores to run 4 workers and the router concurrently (>= 5); below that
   the run still reports honest numbers but only warns, since process
   parallelism cannot exceed the core count.

   Emits BENCH_7.json. *)

module Wire = Rvu_service.Wire
module Loadgen = Rvu_service.Loadgen
module Server = Rvu_service.Server
module Router = Rvu_cluster.Router

let scenarios = 32
let warm_requests = 3_000
let base_port = 7610

(* The scenario mix: distinct scenarios of the family (the perf-serve
   workload's d and r, so the single-shard pass is comparable to BENCH_2).
   [line ~id i] prints scenario [i mod scenarios] under the given envelope
   id; the router masks the id out of the routing key, so every copy of a
   scenario lands on the same shard. *)
let line ~id i =
  Util.line ~id (Util.scenario ~n:scenarios ~d:8.0 ~r:0.01 (i mod scenarios))

(* One cluster pass: spawn, cold-run every scenario once (returns the
   responses for the bit-identity check and warms every shard's cache),
   then replay the warm mix flat-out and summarize. *)
let bench_cluster ~shards ~bin =
  let endpoints =
    List.init shards (fun i -> Util.worker ~bin (base_port + i))
  in
  let config = { Router.default_config with connect_timeout_ms = 20_000. } in
  let router = Router.create ~config ~endpoints () in
  Fun.protect ~finally:(fun () -> Router.stop router) @@ fun () ->
  let cold =
    Array.init scenarios (fun i ->
        Router.handle_sync router (line ~id:(i + 1) i))
  in
  let s =
    Util.drive ~name:"perf-cluster" (Router.handle_line router)
      (Array.init warm_requests (fun k -> line ~id:(k + 1) k))
  in
  if s.Loadgen.ok <> s.Loadgen.requests then
    failwith
      (Printf.sprintf "perf-cluster: %d of %d warm requests not ok on %d shard(s)"
         (s.Loadgen.requests - s.Loadgen.ok)
         s.Loadgen.requests shards);
  (cold, s)

let run () =
  let cores = Domain.recommended_domain_count () in
  Util.banner "PERF-CLUSTER"
    (Printf.sprintf "Warm-cache scaling: 1 vs 4 worker shards (%d core(s))"
       cores);
  let bin = Util.rvu_bin ~name:"perf-cluster" in

  (* The bit-identity reference: the same scenarios through an in-process
     server with the workers' effective config. *)
  let direct_server =
    Server.create
      ~config:{ Server.default_config with jobs = 1; cache_entries = 256 }
      ()
  in
  let direct =
    Array.init scenarios (fun i ->
        Server.handle_sync direct_server (line ~id:(i + 1) i))
  in
  Server.stop direct_server;

  let cold1, warm1 = bench_cluster ~shards:1 ~bin in
  let cold4, warm4 = bench_cluster ~shards:4 ~bin in
  Array.iteri
    (fun i d ->
      if cold1.(i) <> d || cold4.(i) <> d then
        failwith
          (Printf.sprintf
             "perf-cluster: routed response for scenario %d differs from the \
              direct server's"
             i))
    direct;

  let scaling =
    warm4.Loadgen.throughput_rps /. Float.max 1e-9 warm1.Loadgen.throughput_rps
  in
  let floor = if cores >= 5 then 2.5 else 0.0 in
  let enforced = floor > 0.0 in
  if enforced && scaling < floor then
    failwith
      (Printf.sprintf
         "perf-cluster: 4-shard warm throughput only %.2fx the 1-shard run \
          (floor %.2fx)"
         scaling floor);

  Util.summary_table ~id:"perf-cluster" ~key:"shards"
    [ ("1", warm1); ("4", warm4) ];
  Util.note
    "scaling %.2fx over %d warm requests (%d scenarios); bit-identical to a \
     direct server; floor %s."
    scaling warm_requests scenarios
    (if enforced then Printf.sprintf "%.2fx enforced" floor
     else
       Printf.sprintf
         "not enforced (%d core(s) cannot parallelize 4 workers + router)"
         cores);

  (* The router's own health counters, cumulative over both passes. A
     clean run leaves all three at zero, so the committed baseline pins
     them there and bench-diff's gated-series check turns any retry,
     shed or stale-response leak into a regression. *)
  let router_counter name =
    Rvu_obs.Metrics.counter_value (Rvu_obs.Metrics.counter name)
  in
  let router_json =
    Wire.Obj
      [
        ( "rvu_router_retried_total",
          Wire.Int (router_counter "rvu_router_retried_total") );
        ( "rvu_router_shed_total",
          Wire.Int (router_counter "rvu_router_shed_total") );
        ( "rvu_router_stale_total",
          Wire.Int (router_counter "rvu_router_stale_total") );
      ]
  in
  let json =
    Wire.Obj
      [
        ("experiment", Wire.String "perf-cluster");
        ("scenarios", Wire.Int scenarios);
        ("warm_requests", Wire.Int warm_requests);
        ("cores", Wire.Int cores);
        ("shard1", Wire.Obj [ ("warm", Loadgen.summary_json warm1) ]);
        ("shard4", Wire.Obj [ ("warm", Loadgen.summary_json warm4) ]);
        ("scaling_x", Wire.Float scaling);
        ("scaling_floor", Wire.Float floor);
        ("scaling_floor_enforced", Wire.Bool enforced);
        ("bit_identical_to_direct", Wire.Bool true);
        ("router", router_json);
      ]
  in
  Util.write_artifact 7 json
