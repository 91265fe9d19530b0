(* PERF-COMPILE — interpreted vs compiled detector kernel.

   Same 24-instance family as perf-batch, one batch per unit of work,
   run through Batch.run three ways by the A/B driver: compiled kernel at
   --jobs 1 (the reference), interpreted kernel at --jobs 1 (the
   headline throughput ratio), compiled kernel at --jobs N (the parallel
   sanity probe). The speedup is the median per-round interpreted /
   compiled wall ratio, which one slow unit cannot decide. Every timed
   unit's results must be bit-identical to the first compiled unit's —
   the compiled kernel's whole contract is that it changes the clock,
   never the floats. Also samples Gc minor words per run for both kernels
   (the compiled path's reason to exist is allocation elimination) and
   replays a small checkpointed sweep atlas to verify interrupted-run
   resume is byte-identical. Emits BENCH_6.json.

   Gate: the run fails if any unit's results diverge, if the resume
   atlas differs from the full-run atlas, or if the median
   compiled/interpreted speedup falls below 2.0x. *)

open Rvu_geom
open Rvu_core

let instances = Util.instances ~n:24 ~d:10.0 ~r:0.005
let horizon = Util.horizon

(* Minor-heap words allocated by one engine run (single-instance, so the
   measurement is not smeared over pool workers on other domains), through
   the same shared-cache reference source the batch hot path uses — a bare
   [Engine.run] realises its reference stream from scratch and would
   charge both kernels for it. *)
let minor_words_per_run ~kernel inst =
  let cache =
    Rvu_trajectory.Stream_cache.find_or_create
      ~key:Rvu_exec.Batch.universal_key (fun () -> Universal.program ())
  in
  let reference () =
    match kernel with
    | Rvu_sim.Engine.Interpreted ->
        Rvu_sim.Detector.source_of_seq (Rvu_trajectory.Stream_cache.stream cache)
    | Rvu_sim.Engine.Compiled ->
        let tbl, tail = Rvu_trajectory.Stream_cache.compiled_source cache in
        Rvu_sim.Detector.source_of_table tbl ~tail
  in
  let before = Gc.minor_words () in
  let (_ : Rvu_sim.Engine.result) =
    Rvu_sim.Engine.run_with_source ~horizon ~kernel ~reference:(reference ())
      ~program:(Universal.program ()) inst
  in
  Gc.minor_words () -. before

(* ------------------------------------------------------------------ *)
(* Sweep-atlas resume: a full run and an interrupted-then-resumed run
   must produce byte-identical atlas files. *)

let resume_roundtrip () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rvu-perf-compile-%d" (Unix.getpid ()))
  in
  let cells = 24 and shards = 6 in
  let eval_calls = ref 0 in
  let eval start stop =
    incr eval_calls;
    Array.init (stop - start) (fun k ->
        let i = start + k in
        let d = 1.0 +. (0.1 *. float_of_int i) in
        let inst =
          Rvu_sim.Engine.instance
            ~attributes:(Attributes.make ~v:1.3 ())
            ~displacement:(Vec2.make d 0.0) ~r:0.25
        in
        let res = Rvu_sim.Engine.run ~horizon:100.0 inst in
        Rvu_service.Wire.Obj
          [
            ("cell", Rvu_service.Wire.Int i);
            ("d", Rvu_service.Wire.Float d);
            ( "intervals",
              Rvu_service.Wire.Int
                res.Rvu_sim.Engine.stats.Rvu_sim.Detector.intervals );
          ])
  in
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let atlas = Rvu_workload.Checkpoint.run ~dir ~shards ~cells ~eval () in
  let full = read atlas in
  (* "Interrupt": drop two shards and the assembled atlas, keep the rest. *)
  Sys.remove atlas;
  Sys.remove (Rvu_workload.Checkpoint.shard_file ~dir 1);
  Sys.remove (Rvu_workload.Checkpoint.shard_file ~dir 4);
  eval_calls := 0;
  let atlas' =
    Rvu_workload.Checkpoint.run ~dir ~shards ~resume:true ~cells ~eval ()
  in
  let resumed = read atlas' in
  let recomputed = !eval_calls in
  (* Clean up the scratch directory. *)
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Sys.rmdir dir;
  (full = resumed, recomputed)

(* ------------------------------------------------------------------ *)

let run () =
  let jobs_requested = !Util.jobs in
  let recommended = Domain.recommended_domain_count () in
  (* Never oversubscribe: asking the pool for more domains than cores is
     exactly the BENCH_1 regression this series fixes. *)
  let jobs = max 1 (min jobs_requested recommended) in
  Util.banner "PERF-COMPILE"
    (Printf.sprintf "Detector kernels: interpreted vs compiled (--jobs %d)"
       jobs);
  let batch name ~jobs kernel =
    Util.config name (fun () ->
        Rvu_exec.Batch.run ~horizon ~kernel ~jobs instances)
  in
  let timings =
    Util.ab ~id:"perf-compile"
      ([
         batch "compiled" ~jobs:1 Rvu_sim.Engine.Compiled;
         batch "interpreted" ~jobs:1 Rvu_sim.Engine.Interpreted;
       ]
      @
      if jobs > 1 then
        [
          batch (Printf.sprintf "compiled --jobs %d" jobs) ~jobs
            Rvu_sim.Engine.Compiled;
        ]
      else [])
  in
  Util.check_identical ~name:"perf-compile" timings;
  let comp = timings.(0) and interp = timings.(1) in
  let par = if jobs > 1 then timings.(2) else comp in
  let wall_c = comp.wall and wall_i = interp.wall and wall_p = par.wall in
  let speedup = interp.ratio in
  let par_speedup = 1.0 /. par.ratio in
  let intervals = Util.total_intervals comp.results.(0).(0) in
  let mi wall = float_of_int intervals /. Float.max 1e-9 wall /. 1e6 in
  let minor_i = minor_words_per_run ~kernel:Rvu_sim.Engine.Interpreted instances.(0) in
  let minor_c = minor_words_per_run ~kernel:Rvu_sim.Engine.Compiled instances.(0) in
  let resume_ok, resumed_shards = resume_roundtrip () in
  Util.note
    "%d instances, %d intervals; %.3g vs %.3g Mintervals/s; \
     compiled/interpreted speedup %.2fx (quartiles %.2fx to %.2fx); \
     minor words/run %.3g -> %.3g (%.1fx less); resume atlas %s \
     (%d shard(s) recomputed)."
    (Array.length instances) intervals (mi wall_i) (mi wall_c) speedup
    interp.ratio_q1 interp.ratio_q3 minor_i minor_c
    (minor_i /. Float.max 1.0 minor_c)
    (if resume_ok then "byte-identical" else "DIVERGED")
    resumed_shards;
  let json =
    Rvu_service.Wire.Obj
      [
        ("experiment", Rvu_service.Wire.String "perf-compile");
        ("instances", Rvu_service.Wire.Int (Array.length instances));
        ("intervals", Rvu_service.Wire.Int intervals);
        ("jobs", Rvu_service.Wire.Int jobs);
        ("jobs_requested", Rvu_service.Wire.Int jobs_requested);
        ("recommended_domains", Rvu_service.Wire.Int recommended);
        ("wall_s_interpreted", Rvu_service.Wire.Float wall_i);
        ("wall_s_compiled", Rvu_service.Wire.Float wall_c);
        ("wall_s_compiled_jobsN", Rvu_service.Wire.Float wall_p);
        ("mintervals_per_s_interpreted", Rvu_service.Wire.Float (mi wall_i));
        ("mintervals_per_s_compiled", Rvu_service.Wire.Float (mi wall_c));
        ("rounds", Rvu_service.Wire.Int Util.rounds);
        ("speedup_compiled_vs_interpreted", Rvu_service.Wire.Float speedup);
        ( "speedup_compiled_vs_interpreted_q1",
          Rvu_service.Wire.Float interp.ratio_q1 );
        ( "speedup_compiled_vs_interpreted_q3",
          Rvu_service.Wire.Float interp.ratio_q3 );
        ("parallel_speedup", Rvu_service.Wire.Float par_speedup);
        ("parallel_wins", Rvu_service.Wire.Bool (par_speedup >= 1.0));
        ("minor_words_per_run_interpreted", Rvu_service.Wire.Float minor_i);
        ("minor_words_per_run_compiled", Rvu_service.Wire.Float minor_c);
        ("resume_byte_identical", Rvu_service.Wire.Bool resume_ok);
        ("resume_shards_recomputed", Rvu_service.Wire.Int resumed_shards);
      ]
  in
  Util.write_artifact 6 json;
  if not resume_ok then
    failwith "perf-compile: resumed atlas is not byte-identical";
  let floor = 2.0 in
  if speedup < floor then
    Printf.ksprintf failwith
      "perf-compile: median compiled kernel speedup %.2fx below the %.2fx \
       gate"
      speedup floor
