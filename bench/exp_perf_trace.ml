(* PERF-TRACE — the cost and the integrity of cross-process tracing.

   Two phases.

   Overhead: the same warm serve workload, 32 000 requests per unit of
   work with every request line built before the clock starts, runs
   against an in-process server with tracing off and on (a span context
   minted per request, serve/encode records into the ring) through the
   A/B driver, so the timed work is the server's alone. The median
   per-round overhead must stay within 5%: tracing is designed to be
   cheap enough to leave on. The per-request cost (the median per-round
   traced minus untraced wall, per request) is reported beside the
   percentage: a faster untraced path raises the percentage of the same
   absolute cost.

   Integrity: a router over two spawned `rvu serve --trace` workers, the
   router itself tracing, drives a cold + warm load, stops the cluster
   (Router.stop SIGTERMs and reaps the workers, which flush their rings
   on the way out), and stitches the three per-process files with
   {!Rvu_obs.Trace_merge}. The merged timeline must show at least one
   cross-process trace id, at least one shard serve span re-parented
   under a router forward span, at least one trace id reaching a GC
   lane, and every exemplar trace id recorded by the router's latency
   histogram (rvu_router_request_seconds) must appear in the merged
   file — the histogram-to-timeline round trip a latency investigation
   follows.

   Emits BENCH_10.json. *)

module Wire = Rvu_service.Wire
module Server = Rvu_service.Server
module Loadgen = Rvu_service.Loadgen
module Router = Rvu_cluster.Router
module Metrics = Rvu_obs.Metrics
module Trace = Rvu_obs.Trace
module Trace_merge = Rvu_obs.Trace_merge

let scenarios = 32
let warm_requests = 32_000
let cluster_requests = 600
let shards = 2
let base_port = 7650

let serve_trace_path = "perf_trace.serve.json"
let router_trace_path = "perf_trace.router.trace"
let worker_trace_path i = Printf.sprintf "perf_trace.worker%d.trace" i
let merged_path = "perf_trace.merged.json"

(* The same scenario mix as perf-cluster, so the serve walls here are
   comparable to BENCH_7's workers. *)
let line ~id i =
  Util.line ~id (Util.scenario ~n:scenarios ~d:8.0 ~r:0.01 (i mod scenarios))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let exemplar_ids h = List.map (fun (_, t, _) -> t) (Metrics.exemplars h)

(* ------------------------------------------------------------------ *)
(* Phase 1: tracing overhead on the serve path *)

let bench_overhead () =
  let server =
    Server.create
      ~config:{ Server.default_config with jobs = 1; cache_entries = 256 }
      ()
  in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let lines = Array.init warm_requests (fun k -> line ~id:(k + 1) (k + 1)) in
  let requests () =
    Array.iter (fun l -> ignore (Server.handle_sync server l : string)) lines
  in
  (* Each traced unit opens the trace file afresh (truncating the last
     one) and writes it on close, both off the clock; the ring holds a
     whole unit, so no event of the last unit is dropped. *)
  let last_traced_since = ref 0.0 in
  let timings =
    Util.ab ~id:"perf-trace"
      [
        (* The first warm-up unit fills every scenario's cache entry. *)
        Util.config "off" requests;
        Util.config "traced"
          ~setup:(fun () ->
            Trace.enable ~capacity:(2 * warm_requests) ~path:serve_trace_path
              ();
            last_traced_since := Unix.gettimeofday ())
          ~finish:(fun () -> Trace.close ())
          requests;
      ]
  in
  (* Exemplars land only during traced units (no ambient span context
     exists with tracing off), latest per bucket, so those stamped since
     the last traced unit began belong to spans in the file it left. *)
  let serve_ids =
    Metrics.histogram
      ~labels:[ ("kind", "simulate") ]
      "rvu_server_request_seconds"
    |> Metrics.exemplars
    |> List.filter_map (fun (_, t, ts) ->
           if ts >= !last_traced_since then Some t else None)
  in
  if serve_ids = [] then
    failwith "perf-trace: the last traced serve unit attached no exemplars";
  let trace = read_file serve_trace_path in
  List.iter
    (fun t ->
      if not (contains ~needle:t trace) then
        failwith
          (Printf.sprintf
             "perf-trace: exemplar trace id %s missing from %s" t
             serve_trace_path))
    serve_ids;
  (timings.(0), timings.(1), List.length serve_ids)

(* ------------------------------------------------------------------ *)
(* Phase 2: router + traced workers, stitched *)

let bench_cluster ~bin =
  Trace.enable ~path:router_trace_path ();
  let endpoints =
    List.init shards (fun i ->
        Util.worker ~bin
          ~args:[ "--trace"; worker_trace_path i ]
          (base_port + i))
  in
  let config = { Router.default_config with connect_timeout_ms = 20_000. } in
  let router = Router.create ~config ~endpoints () in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      Router.stop router
    end
  in
  Fun.protect ~finally:stop @@ fun () ->
  (* Cold pass: every scenario once — engine work inside traced serve
     spans, which is what gives the workers' GC lanes something to
     overlap. *)
  Array.iteri
    (fun i r ->
      if not (contains ~needle:"\"ok\"" r) then
        failwith (Printf.sprintf "perf-trace: cold request %d not ok" i))
    (Array.init scenarios (fun i -> Router.handle_sync router (line ~id:(i + 1) i)));
  let s =
    Util.drive ~name:"perf-trace" (Router.handle_line router)
      (Array.init cluster_requests (fun k -> line ~id:(k + 1) k))
  in
  if s.Loadgen.ok <> s.Loadgen.requests then
    failwith
      (Printf.sprintf "perf-trace: %d of %d routed requests not ok"
         (s.Loadgen.requests - s.Loadgen.ok)
         s.Loadgen.requests);
  (* Let the workers' runtime-events pollers (50 ms cadence) drain the
     last GC pauses into their rings before the SIGTERM flush. *)
  Unix.sleepf 0.15;
  stop ();
  let forward_ids =
    exemplar_ids (Metrics.histogram "rvu_router_request_seconds")
  in
  Trace.close ();
  if forward_ids = [] then
    failwith "perf-trace: router latency histogram attached no exemplars";
  let inputs =
    ("router", router_trace_path)
    :: List.init shards (fun i ->
           (Printf.sprintf "worker%d" i, worker_trace_path i))
  in
  match Trace_merge.merge ~inputs ~out:merged_path with
  | Error e -> failwith ("perf-trace: trace-merge failed: " ^ e)
  | Ok sum ->
      if sum.Trace_merge.cross_process < 1 then
        failwith "perf-trace: no trace id crosses a process boundary";
      if sum.Trace_merge.reparented < 1 then
        failwith
          "perf-trace: no shard serve span re-parented under a router \
           forward span";
      if sum.Trace_merge.three_lane < 1 then
        failwith "perf-trace: no trace id reaches a GC lane";
      let merged = read_file merged_path in
      List.iter
        (fun t ->
          if not (contains ~needle:t merged) then
            failwith
              (Printf.sprintf
                 "perf-trace: forward exemplar trace id %s missing from %s" t
                 merged_path))
        forward_ids;
      (sum, List.length forward_ids, s)

(* ------------------------------------------------------------------ *)

let run () =
  if Trace.enabled () then
    failwith
      "perf-trace: manages its own trace sinks; run it without --trace";
  Util.banner "PERF-TRACE"
    (Printf.sprintf
       "Tracing overhead (%d warm requests per unit, %d off/traced rounds) \
        + stitched router/%d-worker timeline (%d requests)"
       warm_requests Util.rounds shards cluster_requests);
  let off, traced, serve_exemplars = bench_overhead () in
  let pct ratio = 100.0 *. (ratio -. 1.0) in
  let overhead = pct traced.ratio in
  let per_req_us wall = 1e6 *. wall /. float_of_int warm_requests in
  let cost_us = per_req_us traced.cost in
  let bin = Util.rvu_bin ~name:"perf-trace" in
  let sum, forward_exemplars, warm = bench_cluster ~bin in
  Util.note
    "%.2f us per untraced request, %.2f us traced; tracing cost %.2f us per \
     request (median), overhead %.2f%% (quartiles %.2f%% to %.2f%%)."
    (per_req_us off.wall) (per_req_us traced.wall) cost_us overhead
    (pct traced.ratio_q1) (pct traced.ratio_q3);
  Util.note
    "stitched %d file(s), %d event(s): %d trace id(s), %d cross-process, %d \
     on 3+ lanes, %d re-parented; %d serve + %d forward exemplar(s) \
     round-tripped; merged timeline in %s."
    sum.Trace_merge.files sum.Trace_merge.events sum.Trace_merge.trace_ids
    sum.Trace_merge.cross_process sum.Trace_merge.three_lane
    sum.Trace_merge.reparented serve_exemplars forward_exemplars merged_path;
  let json =
    Wire.Obj
      [
        ("experiment", Wire.String "perf-trace");
        ("scenarios", Wire.Int scenarios);
        ("warm_requests", Wire.Int warm_requests);
        ("rounds", Wire.Int Util.rounds);
        ("wall_s_off", Wire.Float off.wall);
        ("wall_s_traced", Wire.Float traced.wall);
        ("overhead_traced_pct", Wire.Float overhead);
        ("overhead_traced_pct_q1", Wire.Float (pct traced.ratio_q1));
        ("overhead_traced_pct_q3", Wire.Float (pct traced.ratio_q3));
        ("overhead_traced_us_per_request", Wire.Float cost_us);
        ("serve_exemplars", Wire.Int serve_exemplars);
        ("serve_exemplars_in_trace", Wire.Bool true);
        ( "cluster",
          Wire.Obj
            [
              ("shards", Wire.Int shards);
              ("requests", Wire.Int (scenarios + cluster_requests));
              ("throughput_rps", Wire.Float warm.Loadgen.throughput_rps);
              ("trace_ids", Wire.Int sum.Trace_merge.trace_ids);
              ("cross_process", Wire.Int sum.Trace_merge.cross_process);
              ("three_lane", Wire.Int sum.Trace_merge.three_lane);
              ("reparented", Wire.Int sum.Trace_merge.reparented);
              ("forward_exemplars", Wire.Int forward_exemplars);
              ("exemplars_in_merged", Wire.Bool true);
            ] );
      ]
  in
  Util.write_artifact 10 json;
  (* Gated after the JSON is written, so a failing run leaves its rounds'
     quartiles behind. The median of alternating rounds keeps one slow
     round from deciding the gate. A negative overhead just means the gap
     is below noise. *)
  if Float.is_finite overhead && overhead > 5.0 then
    failwith
      (Printf.sprintf
         "perf-trace: median tracing-on overhead %.2f%% exceeds the 5%% \
          budget"
         overhead)
