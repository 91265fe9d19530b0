open Rvu_geom
open Rvu_core

type instance = {
  attributes : Attributes.t;
  displacement : Vec2.t;
  r : float;
}

let instance ~attributes ~displacement ~r =
  if r <= 0.0 then invalid_arg "Engine.instance: r <= 0";
  if Vec2.norm displacement = 0.0 then
    invalid_arg "Engine.instance: robots must start at different locations";
  { attributes; displacement; r }

type result = {
  outcome : Detector.outcome;
  stats : Detector.stats;
  bound : Universal.guarantee;
}

(* Observability: one counter bump and one histogram sample per engine
   run (never per interval — the detector's inner loop stays untouched),
   plus realize/detect/bound spans when tracing is on. *)
let m_runs =
  Rvu_obs.Metrics.counter ~help:"Two-robot engine runs" "rvu_engine_runs_total"

let m_intervals =
  Rvu_obs.Metrics.counter
    ~help:"Segment-pair intervals scanned by the detector"
    "rvu_engine_intervals_total"

(* Derived over scanned is the derive layer's waste ratio: rows a run
   paid for but never reached. *)
let m_derived =
  Rvu_obs.Metrics.counter
    ~help:"Segments the displaced robot's derived chunks handed the detector"
    "rvu_engine_derived_segments_total"

let m_detect =
  Rvu_obs.Metrics.histogram ~help:"Wall seconds per detector pass"
    "rvu_engine_detect_seconds"

let streams ?program inst =
  let program =
    match program with Some p -> p | None -> Universal.program ()
  in
  let s_r =
    Rvu_trajectory.Realize.realize Frame.reference_clocked program
  in
  let s_r' =
    Rvu_trajectory.Realize.realize
      (Frame.clocked inst.attributes ~displacement:inst.displacement)
      program
  in
  (s_r, s_r')

type kernel = Interpreted | Compiled

(* One derive arena per domain: batch tasks run sequentially within a
   domain and no run outlives the next derive, so the aliasing contract
   of [Compiled.derive ?arena] holds. *)
let derive_arena = Domain.DLS.new_key Rvu_trajectory.Compiled.arena

(* A complete span from [t0] lasting [dt] seconds, recorded when its step
   returns: a run that raises leaves no span for the step it raised in,
   nor for any step after it. *)
let span name t0 dt =
  if Rvu_obs.Trace.enabled () then
    Rvu_obs.Trace.complete ~ts_us:(t0 *. 1e6) ~dur_us:(dt *. 1e6) name

(* Realize the displaced robot's whole stream; one reading of the clock
   feeds both the realize phase and its span. *)
let realize_displaced clocked program =
  let t0 = Rvu_obs.Clock.now_s () in
  let s = Rvu_trajectory.Realize.realize clocked program in
  let dt = Rvu_obs.Clock.now_s () -. t0 in
  Rvu_obs.Phase.observe "realize" dt;
  span "engine.realize" t0 dt;
  s

let run_with_source ?closed_forms ?resolution ?horizon ?(kernel = Compiled)
    ~reference ~program inst =
  let clocked = Frame.clocked inst.attributes ~displacement:inst.displacement in
  let t0 = Rvu_obs.Clock.now_s () in
  let derived = ref 0 in
  let outcome, stats =
    match kernel with
    | Compiled -> (
        match Detector.table_of_source reference with
        | Some (tbl, rtail) ->
            (* The reference source is a shared compiled table of the
               same program: derive the displaced robot's table from it
               chunk by chunk with flat array passes instead of
               re-realising the whole stream — this is where the compiled
               path stops paying the lazy-realisation cost the
               interpreted path is stuck with. The detector asks for
               doubling chunk sizes (64 up to 16384), so a run that meets
               at segment k derives fewer than 2k + 64 segments. *)
            let d =
              Rvu_trajectory.Compiled.deriver
                ~arena:(Domain.DLS.get derive_arena)
                clocked tbl ~tail:rtail
            in
            Detector.first_meeting_sources ?closed_forms ?resolution ?horizon
              ~r:inst.r reference
              (Detector.source_of_chunks (fun n ->
                   let chunk =
                     Rvu_trajectory.Compiled.next_chunk d ~max_segments:n
                   in
                   derived := !derived + chunk.Rvu_trajectory.Compiled.n;
                   chunk))
        | None ->
            Detector.first_meeting_sources ?closed_forms ?resolution ?horizon
              ~r:inst.r reference
              (Detector.source_of_seq (realize_displaced clocked program)))
    | Interpreted ->
        Detector.first_meeting ?closed_forms ?resolution ?horizon ~r:inst.r
          (Detector.seq_of_source reference)
          (realize_displaced clocked program)
  in
  let detect_s = Rvu_obs.Clock.now_s () -. t0 in
  Rvu_obs.Metrics.observe m_detect detect_s;
  (* Attribution, not a partition: detect contains realize (and, on the
     compiled path, the streamed derivation). *)
  Rvu_obs.Phase.observe "detect" detect_s;
  span "engine.detect" t0 detect_s;
  Rvu_obs.Metrics.incr m_runs;
  Rvu_obs.Metrics.incr ~by:stats.Detector.intervals m_intervals;
  Rvu_obs.Metrics.incr ~by:!derived m_derived;
  let d = Vec2.norm inst.displacement in
  let bound =
    if Rvu_obs.Trace.enabled () then begin
      let t1 = Rvu_obs.Clock.now_s () in
      let bound = Universal.guarantee inst.attributes ~d ~r:inst.r in
      span "engine.bound" t1 (Rvu_obs.Clock.now_s () -. t1);
      bound
    end
    else Universal.guarantee inst.attributes ~d ~r:inst.r
  in
  { outcome; stats; bound }

let run_with_reference ?closed_forms ?resolution ?horizon ?kernel ~reference
    ~program inst =
  run_with_source ?closed_forms ?resolution ?horizon ?kernel
    ~reference:(Detector.source_of_seq reference)
    ~program inst

let run ?closed_forms ?resolution ?horizon ?kernel ?program inst =
  let program =
    match program with Some p -> p | None -> Universal.program ()
  in
  let reference =
    Rvu_trajectory.Realize.realize Frame.reference_clocked program
  in
  run_with_reference ?closed_forms ?resolution ?horizon ?kernel ~reference
    ~program inst

let run_two ?closed_forms ?resolution ?horizon ~program_r ~program_r' inst =
  let s_r = Rvu_trajectory.Realize.realize Frame.reference_clocked program_r in
  let s_r' =
    Rvu_trajectory.Realize.realize
      (Frame.clocked inst.attributes ~displacement:inst.displacement)
      program_r'
  in
  Detector.first_meeting ?closed_forms ?resolution ?horizon ~r:inst.r s_r s_r'

let separation_certificate ?(resolution = 1e-6) ~horizon ?program inst =
  let s_r, s_r' = streams ?program inst in
  Detector.fold_intervals ~horizon s_r s_r' ~init:Float.infinity
    ~f:(fun acc ~lo ~hi a b ->
      Float.min acc (Approach.min_distance_lower_bound ~resolution ~lo ~hi a b))
