(* Experiment and benchmark harness.

   Usage:
     dune exec bench/main.exe                   # everything
     dune exec bench/main.exe -- e1 e4 f3       # a selection
     dune exec bench/main.exe -- --csv results  # also write results/<id>.csv
     dune exec bench/main.exe -- --jobs 4 ...   # domains for batch layers
                                                # (default: all cores)

   Experiment ids (see DESIGN.md section 3 and EXPERIMENTS.md):
     e1  Theorem 1  — search time vs bound
     e2  Theorem 2  — symmetric clocks, chi = +1
     e3  Theorem 2  — symmetric clocks, chi = -1 (mirror)
     e4  Theorem 3  — asymmetric clocks / Lemma 13
     e5  Theorem 4  — feasibility atlas + boundary probes (parallel, --jobs)
     e6  Lemmas 2/8 — closed forms vs generators
     e7  baselines  — spiral search & asymmetric wait-for-mommy
     e8  extension  — multi-robot gathering (open problem probe)
     e9  extension  — drifting clock rates
     e10 analysis   — competitive ratio vs the omniscient optimum
     f1 f2 f3       — the paper's figures, regenerated
     ablate         — design-choice ablations (A1-A3)
     stress         — deep-schedule throughput, batched over --jobs domains
     perf           — Bechamel kernel micro-benchmarks
     perf-batch     — batch-layer speedup vs --jobs 1; writes BENCH_1.json
     perf-compile   — interpreted vs compiled detector kernel, minor
                      words/run, sweep-resume byte-identity;
                      writes BENCH_6.json
     perf-serve     — server latency, cache speedup, backpressure;
                      writes BENCH_2.json
     perf-cluster   — warm-cache throughput scaling, 1 vs 4 router
                      shards; writes BENCH_7.json
     perf-models    — model registry serving: cold/warm per model,
                      closed-form oracle agreement, registry/server
                      byte-identity; writes BENCH_8.json
     perf-obs       — observability overhead (metrics off/on/traced);
                      writes BENCH_3.json
     perf-verify    — verification campaign throughput (symmetry + faults);
                      writes BENCH_4.json
     perf-log       — structured-logging overhead (off/info/debug+flight);
                      writes BENCH_5.json
     perf-wire      — binary wire codec vs JSON: encode/decode ns/op,
                      bytes/op, warm-serve minor words per request;
                      writes BENCH_9.json
     perf-trace     — tracing overhead on the serve path + a stitched
                      router/2-worker timeline (cross-process trace ids,
                      re-parenting, GC lanes, exemplar round-trip);
                      writes BENCH_10.json

   The perf-* experiments share one harness (Util): one scenario family,
   one A/B driver for timed configurations, one loadgen pass driver and
   one artifact writer. Each writes its
   BENCH_<n>.json to the working directory; perf-cluster and perf-trace
   spawn ../bin/rvu.exe next to this executable (RVU_BIN overrides).

   --trace FILE records Chrome trace-event spans for the whole run. *)

let all : (string * (unit -> unit)) list =
  [
    ("e1", Exp_search.run);
    ("e2", Exp_symmetric.run_e2);
    ("e3", Exp_symmetric.run_e3);
    ("e4", Exp_clocks.run);
    ("e5", Exp_atlas.run);
    ("e6", Exp_closedforms.run);
    ("e7", Exp_baselines.run);
    ("e8", Exp_extensions.run_gathering);
    ("e9", Exp_extensions.run_drift);
    ("e10", Exp_competitive.run);
    ("f1", Exp_figures.run_f1);
    ("f2", Exp_figures.run_f2);
    ("f3", Exp_figures.run_f3);
    ("ablate", Exp_ablation.run);
    ("stress", Exp_stress.run);
    ("perf", Perf.run);
    ("perf-batch", Exp_perf_batch.run);
    ("perf-compile", Exp_perf_compile.run);
    ("perf-serve", Exp_perf_serve.run);
    ("perf-cluster", Exp_perf_cluster.run);
    ("perf-models", Exp_perf_models.run);
    ("perf-obs", Exp_perf_obs.run);
    ("perf-verify", Exp_perf_verify.run);
    ("perf-log", Exp_perf_log.run);
    ("perf-wire", Exp_perf_wire.run);
    ("perf-trace", Exp_perf_trace.run);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  (* --csv DIR also mirrors every table to DIR/<id>.csv; --jobs N sets the
     batch-layer domain count. *)
  let rec extract acc = function
    | "--csv" :: dir :: rest ->
        Util.csv_dir := Some dir;
        extract acc rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> Util.jobs := n
        | _ ->
            Printf.eprintf "--jobs expects a positive integer, got %S\n" n;
            exit 2);
        extract acc rest
    | "--trace" :: path :: rest ->
        (try Rvu_obs.Trace.enable ~path ()
         with Sys_error msg ->
           Printf.eprintf "--trace: cannot open trace file: %s\n" msg;
           exit 2);
        extract acc rest
    | x :: rest -> extract (x :: acc) rest
    | [] -> List.rev acc
  in
  let requested =
    match extract [] args with [] -> List.map fst all | ids -> ids
  in
  let t0 = Util.now_s () in
  List.iter
    (fun id ->
      match List.assoc_opt (String.lowercase_ascii id) all with
      | Some run -> run ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" id
            (String.concat " " (List.map fst all));
          exit 2)
    requested;
  Printf.printf "\nAll requested experiments completed in %.1f s.\n"
    (Util.now_s () -. t0)
