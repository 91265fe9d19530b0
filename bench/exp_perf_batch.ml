(* PERF-BATCH — throughput and multicore speedup of the batch layer.

   One workload, one 24-instance batch per unit of work, timed through
   the A/B driver at --jobs 1 (sequential baseline) and --jobs N (the
   harness's domain pool with the shared reference-stream cache). Every
   timed unit's results must be bit-identical — the pool preserves order
   and the cache replays the exact floats a fresh realization would
   produce — and the speedup is the inverse of the median per-round
   --jobs N / --jobs 1 wall ratio. The warm-up passes fill the shared
   cache, so no timed unit pays first-touch realization and the ratio is
   a parallel speedup only. Emits BENCH_1.json so the perf trajectory is
   machine-readable. *)

(* A moderately deep slice of the family (round ~6-8 of the schedule):
   enough work per instance to dwarf pool overhead, small enough that the
   whole batch stays in seconds. Bearings and clocks vary so the tasks
   are heterogeneous, exercising the chunked distribution. *)
let instances = Util.instances ~n:24 ~d:10.0 ~r:0.005

let run () =
  let jobs_requested = !Util.jobs in
  (* Never spawn past the hardware: domains beyond
     [recommended_domain_count] only contend for the same cores, which is
     how the seed's jobs=2 run ended up ~2x slower than sequential on a
     single-core box. A capped request is reported, not honoured. *)
  let jobs = max 1 (min jobs_requested (Domain.recommended_domain_count ())) in
  Util.banner "PERF-BATCH"
    (Printf.sprintf "Batch throughput: --jobs 1 vs --jobs %d%s" jobs
       (if jobs < jobs_requested then
          Printf.sprintf " (requested %d, capped to hardware)" jobs_requested
        else ""));
  let batch jobs =
    Util.config (Printf.sprintf "--jobs %d" jobs) (fun () ->
        Rvu_exec.Batch.run ~horizon:Util.horizon ~jobs instances)
  in
  let timings =
    Util.ab ~id:"perf-batch"
      (batch 1 :: (if jobs > 1 then [ batch jobs ] else []))
  in
  Util.check_identical ~name:"perf-batch" timings;
  let seq = timings.(0) and par = timings.(Array.length timings - 1) in
  let intervals = Util.total_intervals seq.results.(0).(0) in
  let speedup = 1.0 /. par.ratio in
  let parallel_wins = jobs > 1 && speedup > 1.0 in
  let warning =
    if jobs < jobs_requested then
      Some
        (Printf.sprintf
           "requested --jobs %d capped to %d (hardware parallelism); use \
            --jobs 1 numbers for comparisons on this machine"
           jobs_requested jobs)
    else if jobs > 1 && not parallel_wins then
      Some
        (Printf.sprintf
           "parallel run lost to sequential (speedup %.3f); prefer --jobs 1 \
            on this machine"
           speedup)
    else None
  in
  Option.iter (fun w -> Util.note "WARNING: %s" w) warning;
  let mi wall = float_of_int intervals /. Float.max 1e-9 wall /. 1e6 in
  Util.note
    "%d instances, %d segment-pair intervals; %.3g vs %.3g Mintervals/s; \
     speedup %.3fx; every timed unit bit-identical."
    (Array.length instances) intervals (mi seq.wall) (mi par.wall) speedup;
  let module W = Rvu_service.Wire in
  Util.write_artifact 1
    (W.Obj
       ([
          ("experiment", W.String "perf-batch");
          ("instances", W.Int (Array.length instances));
          ("intervals", W.Int intervals);
          ("jobs_requested", W.Int jobs_requested);
          ("jobs", W.Int jobs);
          ("recommended_domains", W.Int (Domain.recommended_domain_count ()));
          ("recommended_jobs", W.Int (if parallel_wins then jobs else 1));
          ("parallel_wins", W.Bool parallel_wins);
          ("rounds", W.Int Util.rounds);
          ("wall_s_jobs1", W.Float seq.wall);
          ("wall_s_jobsN", W.Float par.wall);
          ("mintervals_per_s_jobs1", W.Float (mi seq.wall));
          ("mintervals_per_s_jobsN", W.Float (mi par.wall));
          ("speedup", W.Float speedup);
          ("speedup_q1", W.Float (1.0 /. par.ratio_q3));
          ("speedup_q3", W.Float (1.0 /. par.ratio_q1));
        ]
       @
       match warning with None -> [] | Some w -> [ ("warning", W.String w) ]))
