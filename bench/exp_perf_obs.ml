(* PERF-OBS — the cost of the observability layer itself.

   The same batch workload, one 24-instance batch per unit of work, runs
   through the A/B driver in three modes, interleaved batch by batch:

     off     metrics kill-switched off (Rvu_obs.Metrics.set_enabled false)
             — every instrumentation site reduced to a single branch, the
             closest the instrumented binary gets to the pre-observability
             code;
     on      the production default — metrics recording on, tracing off;
     traced  metrics on and span tracing on, events into a ring buffer
             flushed to perf_obs.trace.json.

   The median per-round on/off ratio is the overhead the registry imposes
   on an untraced run; the acceptance bar is that it stays within noise
   (≤ 5% here, ≤ 2% expected). Emits BENCH_3.json. Also reconciles the
   rvu_engine_runs_total counter against the engine runs each "on" batch
   actually dispatched, so the numbers the metrics endpoint serves are
   pinned to ground truth. *)

(* Same family as perf-batch, shallower (larger r, smaller d). The
   instrumentation cost is per engine run, so many small runs — not a few
   deep ones — is the adversarial shape for this measurement. *)
let instances = Util.instances ~n:24 ~d:6.0 ~r:0.01

let trace_path = "perf_obs.trace.json"

let engine_runs () =
  Rvu_obs.Metrics.(counter_value (counter "rvu_engine_runs_total"))

let run () =
  let jobs = !Util.jobs in
  let n = Array.length instances in
  Util.banner "PERF-OBS"
    (Printf.sprintf "Observability overhead, %d instances, %d job(s)" n jobs);
  let batch ?setup ?finish name =
    Util.config ?setup ?finish name (fun () ->
        ignore
          (Rvu_exec.Batch.run ~horizon:Util.horizon ~jobs instances : _ array))
  in
  (* Every "on" unit must move the counter by exactly its batch's runs;
     the moves are summed over every "on" unit, the warm-up's included. *)
  let runs_before = ref 0 and on_units = ref 0 and runs_delta = ref 0 in
  let reconcile () =
    let moved = engine_runs () - !runs_before in
    if moved <> n then
      Printf.ksprintf failwith
        "perf-obs: rvu_engine_runs_total moved by %d, expected %d \
         (instrumentation and ground truth disagree)"
        moved n;
    runs_delta := !runs_delta + moved;
    incr on_units
  in
  (* Tracing may already be on if bench/main.exe ran with --trace; reuse
     the caller's sink in that case instead of fighting over it. *)
  let own_trace = not (Rvu_obs.Trace.enabled ()) in
  let timings =
    Util.ab ~id:"perf-obs"
      [
        batch "off"
          ~setup:(fun () -> Rvu_obs.Metrics.set_enabled false)
          ~finish:(fun _ -> Rvu_obs.Metrics.set_enabled true);
        batch "on"
          ~setup:(fun () -> runs_before := engine_runs ())
          ~finish:reconcile;
        batch "traced"
          ~setup:(fun () ->
            if own_trace then Rvu_obs.Trace.enable ~path:trace_path ())
          ~finish:(fun _ -> if own_trace then Rvu_obs.Trace.close ());
      ]
  in
  let off = timings.(0) and on = timings.(1) and traced = timings.(2) in
  let pct ratio = 100.0 *. (ratio -. 1.0) in
  let overhead_on = pct on.ratio and overhead_traced = pct traced.ratio in
  Util.note
    "engine-runs counter reconciled unit by unit: +%d over %d \"on\" \
     batches%s."
    !runs_delta !on_units
    (if own_trace then Printf.sprintf "; trace written to %s" trace_path
     else "");
  let module W = Rvu_service.Wire in
  Util.write_artifact 3
    (W.Obj
       [
         ("experiment", W.String "perf-obs");
         ("instances", W.Int n);
         ("rounds", W.Int Util.rounds);
         ("batches_per_round", W.Int on.units);
         ("jobs", W.Int jobs);
         ("wall_s_off", W.Float off.wall);
         ("wall_s_on", W.Float on.wall);
         ("wall_s_traced", W.Float traced.wall);
         ("overhead_on_pct", W.Float overhead_on);
         ("overhead_on_pct_q1", W.Float (pct on.ratio_q1));
         ("overhead_on_pct_q3", W.Float (pct on.ratio_q3));
         ("overhead_traced_pct", W.Float overhead_traced);
         ("engine_runs_delta", W.Int !runs_delta);
       ]);
  (* Generous bar — CI machines are noisy; the expectation is ~0-2%. A
     negative overhead just means the gap is below noise. *)
  if Float.is_finite overhead_on && overhead_on > 5.0 then
    failwith
      (Printf.sprintf
         "perf-obs: median metrics-on overhead %.2f%% exceeds the 5%% budget"
         overhead_on)
