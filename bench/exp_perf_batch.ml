(* PERF-BATCH — throughput and multicore speedup of the batch layer.

   One workload, run twice: --jobs 1 (sequential baseline) and --jobs N
   (the harness's domain pool with the shared reference-stream cache). The
   batch results must be bit-identical between the two runs — the pool
   preserves order and the cache replays the exact floats a fresh
   realization would produce — and the ratio of monotonic wall times is
   the speedup. An untimed pass warms the shared cache first, so neither
   timed pass pays first-touch realization and the ratio is a parallel
   speedup only. Emits BENCH_1.json so the perf trajectory is
   machine-readable. *)

open Rvu_report

(* A moderately deep slice of the family (round ~6-8 of the schedule):
   enough work per instance to dwarf pool overhead, small enough that the
   whole batch stays in seconds. Bearings and clocks vary so the tasks
   are heterogeneous, exercising the chunked distribution. *)
let instances = Util.instances ~n:24 ~d:10.0 ~r:0.005

let write_json ~jobs_requested ~jobs ~intervals ~wall1 ~walln ~speedup
    ~parallel_wins ~warning =
  let mi wall = float_of_int intervals /. Float.max 1e-9 wall /. 1e6 in
  let json =
    Rvu_service.Wire.Obj
      ([
         ("experiment", Rvu_service.Wire.String "perf-batch");
         ("instances", Rvu_service.Wire.Int (Array.length instances));
         ("intervals", Rvu_service.Wire.Int intervals);
         ("jobs_requested", Rvu_service.Wire.Int jobs_requested);
         ("jobs", Rvu_service.Wire.Int jobs);
         ( "recommended_domains",
           Rvu_service.Wire.Int (Domain.recommended_domain_count ()) );
         ( "recommended_jobs",
           Rvu_service.Wire.Int (if parallel_wins then jobs else 1) );
         ("parallel_wins", Rvu_service.Wire.Bool parallel_wins);
         ("wall_s_jobs1", Rvu_service.Wire.Float wall1);
         ("wall_s_jobsN", Rvu_service.Wire.Float walln);
         ("mintervals_per_s_jobs1", Rvu_service.Wire.Float (mi wall1));
         ("mintervals_per_s_jobsN", Rvu_service.Wire.Float (mi walln));
         ("speedup", Rvu_service.Wire.Float speedup);
       ]
      @
      match warning with
      | None -> []
      | Some w -> [ ("warning", Rvu_service.Wire.String w) ])
  in
  Util.write_artifact 1 json

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
  ignore (Rvu_exec.Batch.run ~horizon:Util.horizon ~jobs:1 instances);
  let seq_results, wall1 =
    Util.wall_clock (fun () ->
        Rvu_exec.Batch.run ~horizon:Util.horizon ~jobs:1 instances)
  in
  let par_results, walln =
    if jobs <= 1 then (seq_results, wall1)
    else
      Util.wall_clock (fun () ->
          Rvu_exec.Batch.run ~horizon:Util.horizon ~jobs instances)
  in
  if not (Util.identical seq_results par_results) then
    failwith "perf-batch: parallel results diverge from sequential";
  let intervals = Util.total_intervals seq_results in
  let speedup = wall1 /. Float.max 1e-9 walln in
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
  let t =
    Table.create
      ~columns:
        (List.map Table.column
           [ "jobs"; "wall (s)"; "Mintervals/s"; "speedup" ])
  in
  let mi wall = float_of_int intervals /. Float.max 1e-9 wall /. 1e6 in
  Table.add_row t
    [ Table.istr 1; Table.fstr wall1; Table.fstr (mi wall1); Table.fstr 1.0 ];
  Table.add_row t
    [
      Table.istr jobs; Table.fstr walln; Table.fstr (mi walln);
      Table.fstr speedup;
    ];
  Util.table ~id:"perf-batch" t;
  Util.note
    "%d instances, %d segment-pair intervals; parallel results bit-identical \
     to sequential."
    (Array.length instances) intervals;
  write_json ~jobs_requested ~jobs ~intervals ~wall1 ~walln ~speedup
    ~parallel_wins ~warning
