(* PERF-OBS — the cost of the observability layer itself.

   The same batch workload runs in three modes:

     off     metrics kill-switched off (Rvu_obs.Metrics.set_enabled false)
             — every instrumentation site reduced to a single branch, the
             closest the instrumented binary gets to the pre-observability
             code;
     on      the production default — metrics recording on, tracing off;
     traced  metrics on and span tracing on, events into a ring buffer
             flushed to perf_obs.trace.json.

   Each mode takes the minimum of several runs (minimum, not mean: the
   quantity of interest is the cost floor, and every source of noise only
   ever adds time). The "on − off" gap is the overhead the registry imposes
   on an untraced run; the acceptance bar is that it stays within noise
   (≤ 5% here, ≤ 2% expected). Emits BENCH_3.json. Also reconciles the
   rvu_engine_runs_total counter delta against the number of engine runs
   actually dispatched, so the numbers the metrics endpoint serves are
   pinned to ground truth. *)

open Rvu_report

let repeats = 5

(* Same family as perf-batch, shallower (larger r, smaller d) so that
   3 modes x 3 repeats plus warmup stay in seconds. The instrumentation
   cost is per engine run, so many small runs — not a few deep ones — is
   the adversarial shape for this measurement. *)
let instances = Util.instances ~n:24 ~d:6.0 ~r:0.01

let run_batch jobs =
  ignore (Rvu_exec.Batch.run ~horizon:Util.horizon ~jobs instances : _ array)

let min_wall jobs =
  let best = ref Float.infinity in
  for _ = 1 to repeats do
    let (), wall = Util.wall_clock (fun () -> run_batch jobs) in
    best := Float.min !best wall
  done;
  !best

let trace_path = "perf_obs.trace.json"

let write_json ~jobs ~wall_off ~wall_on ~wall_traced ~overhead_on
    ~overhead_traced ~runs_delta =
  let json =
    Rvu_service.Wire.Obj
      [
        ("experiment", Rvu_service.Wire.String "perf-obs");
        ("instances", Rvu_service.Wire.Int (Array.length instances));
        ("repeats", Rvu_service.Wire.Int repeats);
        ("jobs", Rvu_service.Wire.Int jobs);
        ("wall_s_off", Rvu_service.Wire.Float wall_off);
        ("wall_s_on", Rvu_service.Wire.Float wall_on);
        ("wall_s_traced", Rvu_service.Wire.Float wall_traced);
        ("overhead_on_pct", Rvu_service.Wire.Float overhead_on);
        ("overhead_traced_pct", Rvu_service.Wire.Float overhead_traced);
        ("engine_runs_delta", Rvu_service.Wire.Int runs_delta);
      ]
  in
  Util.write_artifact 3 json

let engine_runs () =
  Rvu_obs.Metrics.(counter_value (counter "rvu_engine_runs_total"))

let run () =
  let jobs = !Util.jobs in
  Util.banner "PERF-OBS"
    (Printf.sprintf "Observability overhead, %d instances x %d repeats, %d \
                     job(s)"
       (Array.length instances) repeats jobs);
  (* Warm up: realize the shared reference stream and fault in the code
     paths once, outside every timed window. *)
  run_batch jobs;

  Rvu_obs.Metrics.set_enabled false;
  let wall_off = min_wall jobs in
  Rvu_obs.Metrics.set_enabled true;

  let runs_before = engine_runs () in
  let wall_on = min_wall jobs in
  let runs_delta = engine_runs () - runs_before in

  (* Tracing may already be on if bench/main.exe ran with --trace; reuse
     the caller's sink in that case instead of fighting over it. *)
  let own_trace = not (Rvu_obs.Trace.enabled ()) in
  if own_trace then Rvu_obs.Trace.enable ~path:trace_path ();
  let wall_traced = min_wall jobs in
  if own_trace then Rvu_obs.Trace.close ();

  let pct w = 100.0 *. ((w /. Float.max 1e-9 wall_off) -. 1.0) in
  let overhead_on = pct wall_on and overhead_traced = pct wall_traced in
  let t =
    Table.create
      ~columns:
        (List.map Table.column [ "mode"; "wall (s)"; "overhead (%)" ])
  in
  Table.add_row t [ "off"; Table.fstr wall_off; Table.fstr 0.0 ];
  Table.add_row t [ "on"; Table.fstr wall_on; Table.fstr overhead_on ];
  Table.add_row t
    [ "traced"; Table.fstr wall_traced; Table.fstr overhead_traced ];
  Util.table ~id:"perf-obs" t;
  let expected = repeats * Array.length instances in
  if runs_delta <> expected then
    failwith
      (Printf.sprintf
         "perf-obs: rvu_engine_runs_total moved by %d, expected %d \
          (instrumentation and ground truth disagree)"
         runs_delta expected);
  Util.note
    "engine-runs counter reconciled: +%d over %d timed batches%s." runs_delta
    repeats
    (if own_trace then Printf.sprintf "; trace written to %s" trace_path
     else "");
  (* Generous bar — CI machines are noisy; the expectation is ~0-2%. A
     negative overhead just means the gap is below noise. *)
  if Float.is_finite overhead_on && overhead_on > 5.0 then
    failwith
      (Printf.sprintf
         "perf-obs: metrics-on overhead %.2f%% exceeds the 5%% budget"
         overhead_on);
  write_json ~jobs ~wall_off ~wall_on ~wall_traced ~overhead_on
    ~overhead_traced ~runs_delta
