(* rvu — command-line front end for the rendezvous library.

   Subcommands:
     simulate     run a two-robot rendezvous instance
     search       run the single-robot search problem (Section 2)
     feasibility  classify an attribute vector (Theorem 4)
     schedule     print the Algorithm 7 phase schedule (Lemma 8)
     bound        print every applicable analytic bound for an instance
     sweep        run a distance sweep as a parallel batch (--jobs)
     gather       simulate multi-robot gathering
     serve        long-running evaluation server (NDJSON over stdio or TCP)
     loadgen      replay a scenario mix against the server; report latency *)

open Cmdliner
open Rvu_geom
open Rvu_core

(* ------------------------------------------------------------------ *)
(* Shared argument bundles *)

(* Count-like flags (--points, --jobs, --rounds, --requests, ...) share one
   validated converter so every subcommand rejects zero and negatives the
   same way, at parse time. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n ->
        Error (`Msg (Printf.sprintf "expected a positive integer, got %d" n))
    | None ->
        Error
          (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let v_arg =
  Arg.(value & opt float 1.0 & info [ "speed" ] ~docv:"V" ~doc:"Speed of robot R'.")

let tau_arg =
  Arg.(value & opt float 1.0 & info [ "tau"; "clock" ] ~docv:"TAU" ~doc:"Time unit of robot R'.")

let phi_arg =
  Arg.(
    value
    & opt float 0.0
    & info [ "phi"; "rotation" ] ~docv:"PHI"
        ~doc:"Compass rotation of R' in radians.")

let mirror_arg =
  Arg.(
    value & flag
    & info [ "mirror"; "opposite-chirality" ]
        ~doc:"R' disagrees with R on the +y direction (chi = -1).")

let d_arg =
  Arg.(value & opt float 2.0 & info [ "d"; "distance" ] ~docv:"D" ~doc:"Initial distance.")

let bearing_arg =
  Arg.(
    value & opt float 0.9
    & info [ "bearing" ] ~docv:"THETA" ~doc:"Direction of R' as seen from R (radians).")

let r_arg =
  Arg.(value & opt float 0.1 & info [ "r"; "visibility" ] ~docv:"R" ~doc:"Visibility radius.")

let horizon_arg =
  Arg.(
    value & opt float 1e8
    & info [ "horizon" ] ~docv:"T"
        ~doc:"Give up after this much global time (infeasible instances never meet).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record per-phase tracing spans into $(i,FILE) in Chrome \
           trace-event format (open it in chrome://tracing or \
           ui.perfetto.dev).")

let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      (try Rvu_obs.Trace.enable ~path () with
      | Sys_error msg ->
          Format.eprintf "rvu: cannot open trace file: %s@." msg;
          exit 1);
      Fun.protect ~finally:Rvu_obs.Trace.close f

(* Structured-logging flags, shared by the long-running subcommands
   (serve, loadgen, verify). Logging is off unless --log is given; an
   unwritable file is rejected up front, like an unwritable --trace. *)
let log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Write NDJSON structured log records to $(docv) (one JSON object \
           per line; $(b,-) means stderr). Off unless given.")

let log_level_conv =
  let parse s =
    match Rvu_obs.Log.level_of_string s with
    | Some l -> Ok l
    | None ->
        Error
          (`Msg
            (Printf.sprintf
               "expected debug, info, warn or error, got %S" s))
  in
  Arg.conv ~docv:"LEVEL"
    ( parse,
      fun ppf l -> Format.pp_print_string ppf (Rvu_obs.Log.string_of_level l)
    )

let log_level_arg =
  Arg.(
    value
    & opt log_level_conv Rvu_obs.Log.Info
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Lowest record level written to the $(b,--log) sink: debug, info \
           (default), warn or error.")

let flight_recorder_arg =
  Arg.(
    value & opt int 0
    & info [ "flight-recorder" ] ~docv:"N"
        ~doc:
          "Keep the last $(docv) log records of every level (including \
           below $(b,--log-level)) in memory, and dump them to the log \
           sink when an error record is emitted or an armed fault fires. \
           0 (default) disables the recorder. Needs $(b,--log).")

let logging_term =
  Term.(
    const (fun log level flight -> (log, level, flight))
    $ log_arg $ log_level_arg $ flight_recorder_arg)

let with_logging (log, level, flight) f =
  match log with
  | None -> f ()
  | Some path ->
      let sink =
        if path = "-" then Rvu_obs.Log.Stderr else Rvu_obs.Log.File path
      in
      (try Rvu_obs.Log.configure ~level ~flight_recorder:(max 0 flight) sink
       with Sys_error msg ->
         Format.eprintf "rvu: cannot open log file: %s@." msg;
         exit 1);
      Fun.protect ~finally:Rvu_obs.Log.close f

let attributes v tau phi mirror =
  Attributes.make ~v ~tau ~phi
    ~chi:(if mirror then Attributes.Opposite else Attributes.Same)
    ()

let attrs_term = Term.(const attributes $ v_arg $ tau_arg $ phi_arg $ mirror_arg)

let describe_verdict = function
  | Feasibility.Feasible Feasibility.Different_clocks ->
      "feasible: the clocks differ (Theorem 3 applies)"
  | Feasibility.Feasible Feasibility.Different_speeds ->
      "feasible: the speeds differ (Theorem 2 applies)"
  | Feasibility.Feasible Feasibility.Rotated_same_chirality ->
      "feasible: equal chirality with rotated compasses (Theorem 2 applies)"
  | Feasibility.Infeasible ->
      "infeasible: no symmetric deterministic algorithm can guarantee rendezvous"

(* ------------------------------------------------------------------ *)
(* simulate *)

let draw_svg ~file ~program ~attrs ~displacement ~r ~t_end ~meeting =
  let until stream =
    List.of_seq
      (Seq.take_while
         (fun (seg : Rvu_trajectory.Timed.t) -> seg.Rvu_trajectory.Timed.t0 < t_end)
         stream)
  in
  let r_segs =
    until (Rvu_trajectory.Realize.realize Rvu_trajectory.Realize.identity program)
  in
  let r'_segs =
    until (Rvu_trajectory.Realize.realize (Frame.clocked attrs ~displacement) program)
  in
  let marker p color =
    Rvu_report.Svg.Disc
      { center = (p.Vec2.x, p.Vec2.y); radius = 0.04 *. Vec2.norm displacement; color }
  in
  let shapes =
    [
      Rvu_report.Svg.of_timed ~color:"#1f77b4" r_segs;
      Rvu_report.Svg.of_timed ~color:"#d62728" r'_segs;
      marker Vec2.zero "#1f77b4";
      marker displacement "#d62728";
    ]
    @
    match meeting with
    | None -> []
    | Some p ->
        [
          marker p "#2ca02c";
          Rvu_report.Svg.Ring { center = (p.Vec2.x, p.Vec2.y); radius = r; color = "#2ca02c" };
        ]
  in
  Rvu_report.Svg.write ~path:file shapes;
  Format.printf "trajectories written to %s@." file

(* --set FIELD=VALUE carries untyped strings; each value takes the most
   specific JSON form it parses as, and the model's own [of_wire] does
   the real validation with the protocol's error messages. *)
let set_value s =
  match s with
  | "true" -> Rvu_obs.Wire.Bool true
  | "false" -> Rvu_obs.Wire.Bool false
  | _ -> (
      match int_of_string_opt s with
      | Some i -> Rvu_obs.Wire.Int i
      | None -> (
          match float_of_string_opt s with
          | Some f when Float.is_finite f -> Rvu_obs.Wire.Float f
          | _ -> Rvu_obs.Wire.String s))

let registry_entry name =
  match Rvu_model.Registry.find name with
  | Some e -> e
  | None ->
      Format.eprintf "rvu: unknown model %S (known: %s)@." name
        (String.concat ", " Rvu_model.Registry.names);
      exit 1

let simulate_model name sets =
  let e = registry_entry name in
  let fields = List.map (fun (k, v) -> (k, set_value v)) sets in
  match e.Rvu_model.Registry.of_wire (Rvu_obs.Wire.Obj fields) with
  | Error msg ->
      Format.eprintf "rvu: %s@." msg;
      exit 1
  | Ok inst ->
      print_string (Rvu_obs.Wire.print_hum (inst.Rvu_model.Model.payload ()))

let simulate attrs d bearing r horizon use_alg4 svg_file model sets =
  match model with
  | Some name -> simulate_model name sets
  | None ->
  if sets <> [] then begin
    Format.eprintf "rvu: --set needs --model@.";
    exit 1
  end;
  let displacement = Vec2.of_polar ~radius:d ~angle:bearing in
  let inst = Rvu_sim.Engine.instance ~attributes:attrs ~displacement ~r in
  let program =
    if use_alg4 then Rvu_search.Algorithm4.program () else Universal.program ()
  in
  Format.printf "R' attributes: %a@." Attributes.pp attrs;
  Format.printf "%s@." (describe_verdict (Feasibility.classify attrs));
  let res = Rvu_sim.Engine.run ~horizon ~program inst in
  (match res.Rvu_sim.Engine.outcome with
  | Rvu_sim.Detector.Hit t ->
      Format.printf "rendezvous at t = %.6g@." t;
      (match Phases.phase_at t with
      | Some (n, p) when not use_alg4 ->
          Format.printf "  (during schedule round %d, %s phase)@." n
            (match p with Phases.Active -> "active" | Phases.Inactive -> "inactive")
      | _ -> ())
  | Rvu_sim.Detector.Horizon h -> Format.printf "no rendezvous by t = %g@." h
  | Rvu_sim.Detector.Stream_end t -> Format.printf "program ended at t = %g@." t);
  (match (res.Rvu_sim.Engine.bound.Universal.round, res.Rvu_sim.Engine.bound.Universal.time) with
  | Some k, Some b ->
      Format.printf "analytic guarantee: round %d, time %.6g@." k b
  | _ -> ());
  Format.printf "segment-pair intervals scanned: %d; closest sampled approach: %.6g@."
    res.Rvu_sim.Engine.stats.Rvu_sim.Detector.intervals
    res.Rvu_sim.Engine.stats.Rvu_sim.Detector.min_distance;
  match svg_file with
  | None -> ()
  | Some file ->
      let t_end, meeting =
        match res.Rvu_sim.Engine.outcome with
        | Rvu_sim.Detector.Hit t ->
            (t, Some (Rvu_trajectory.Realize.position Rvu_trajectory.Realize.identity program t))
        | Rvu_sim.Detector.Horizon h -> (Float.min h 5000.0, None)
        | Rvu_sim.Detector.Stream_end t -> (t, None)
      in
      draw_svg ~file ~program ~attrs ~displacement ~r ~t_end ~meeting

let simulate_cmd =
  let alg4 =
    Arg.(
      value & flag
      & info [ "algorithm4" ]
          ~doc:"Run Algorithm 4 (no waiting phases) instead of the universal Algorithm 7.")
  in
  let svg =
    Arg.(
      value
      & opt (some string) None
      & info [ "svg" ] ~docv:"FILE"
          ~doc:"Write both robots' trajectories (up to the meeting) as an SVG figure.")
  in
  let model =
    Arg.(
      value
      & opt (some string) None
      & info [ "model" ] ~docv:"NAME"
          ~doc:
            "Simulate a registered rendezvous model instead of the paper's \
             (one of: unknown_attributes, cycle_speed, visible_bits). The \
             run prints the model's response document; parameters come \
             from $(b,--set).")
  in
  let sets =
    Arg.(
      value
      & opt_all (pair ~sep:'=' string string) []
      & info [ "set" ] ~docv:"FIELD=VALUE"
          ~doc:
            "Set a model parameter field (repeatable), e.g. \
             $(b,--set c=1.5 --set gap=3). Needs $(b,--model).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Simulate a two-robot rendezvous instance.")
    Term.(
      const simulate $ attrs_term $ d_arg $ bearing_arg $ r_arg $ horizon_arg
      $ alg4 $ svg $ model $ sets)

(* ------------------------------------------------------------------ *)
(* search *)

let search d bearing r horizon =
  let target = Vec2.of_polar ~radius:d ~angle:bearing in
  Format.printf "searching for a target at distance %g, visibility %g@." d r;
  match
    Rvu_sim.Search_engine.run ~horizon
      ~program:(Rvu_search.Algorithm4.program ())
      ~target ~r ()
  with
  | Rvu_sim.Search_engine.Found t, stats ->
      Format.printf "found at t = %.6g (%d segments walked)@." t
        stats.Rvu_sim.Search_engine.segments;
      let round = Rvu_search.Predict.discovery_round ~d ~r in
      Format.printf "predicted discovery round: %d (completion time %.6g)@."
        round
        (Rvu_search.Bounds.time_through_round round);
      Format.printf "Theorem 1 bound (as printed): %.6g; repaired: %.6g@."
        (Rvu_search.Bounds.search_time ~d ~r)
        (Rvu_search.Bounds.search_time_safe ~d ~r)
  | Rvu_sim.Search_engine.Horizon h, _ ->
      Format.printf "not found by t = %g@." h
  | Rvu_sim.Search_engine.Program_end t, _ ->
      Format.printf "program ended at t = %g@." t

let search_cmd =
  Cmd.v
    (Cmd.info "search" ~doc:"Run the Section 2 search problem (Algorithm 4).")
    Term.(const search $ d_arg $ bearing_arg $ r_arg $ horizon_arg)

(* ------------------------------------------------------------------ *)
(* feasibility *)

let feasibility attrs =
  Format.printf "R' attributes: %a@." Attributes.pp attrs;
  Format.printf "%s@." (describe_verdict (Feasibility.classify attrs));
  match Feasibility.adversarial_direction attrs with
  | Some dir ->
      Format.printf
        "adversarial displacement direction (never approached): %a@." Vec2.pp
        dir
  | None -> ()

let feasibility_cmd =
  Cmd.v
    (Cmd.info "feasibility" ~doc:"Classify an attribute vector per Theorem 4.")
    Term.(const feasibility $ attrs_term)

(* ------------------------------------------------------------------ *)
(* schedule *)

let schedule rounds =
  let t = Rvu_report.Table.create
      ~columns:
        (List.map Rvu_report.Table.column
           [ "round n"; "S(n)"; "I(n)"; "A(n)"; "round end"; "segments" ])
  in
  for n = 1 to rounds do
    Rvu_report.Table.add_row t
      [
        Rvu_report.Table.istr n;
        Rvu_report.Table.fstr (Phases.s n);
        Rvu_report.Table.fstr (Phases.inactive_start n);
        Rvu_report.Table.fstr (Phases.active_start n);
        Rvu_report.Table.fstr (Phases.round_end n);
        Rvu_report.Table.istr (2 * Rvu_search.Timing.search_all_segments n + 1);
      ]
  done;
  Rvu_report.Table.print t

let schedule_cmd =
  let cap = Rvu_search.Timing.max_schedule_round in
  let parse s =
    match Arg.conv_parser positive_int s with
    | Ok n when n > cap ->
        Error (`Msg (Printf.sprintf "expected at most %d rounds, got %d" cap n))
    | r -> r
  in
  let rounds =
    Arg.(
      value
      & opt (conv ~docv:"N" (parse, Format.pp_print_int)) 8
      & info [ "rounds" ] ~docv:"N"
          ~doc:(Printf.sprintf "Rounds to list, at most %d." cap))
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Print the Algorithm 7 phase schedule closed forms (Lemma 8).")
    Term.(const schedule $ rounds)

(* ------------------------------------------------------------------ *)
(* bound *)

let bound attrs d r =
  Format.printf "R' attributes: %a; d = %g, r = %g@." Attributes.pp attrs d r;
  let g = Universal.guarantee attrs ~d ~r in
  Format.printf "%s@." (describe_verdict g.Universal.verdict);
  (match (g.Universal.round, g.Universal.time) with
  | Some k, Some t ->
      Format.printf "universal (Algorithm 7) guarantee: round %d, time %.6g@." k t
  | _ -> ());
  (match Bounds.symmetric_clock_time attrs ~d ~r with
  | Some t ->
      Format.printf
        "Theorem 2 bound for Algorithm 4 (as printed): %.6g; repaired: %.6g@."
        t
        (Option.get (Bounds.symmetric_clock_time_safe attrs ~d ~r))
  | None -> ());
  if not (Rvu_numerics.Floats.equal attrs.Attributes.tau 1.0) then begin
    let k = Bounds.asymmetric_round attrs ~d ~r in
    Format.printf "Theorem 3 / Lemma 13 bound: round k* = %d, time %.6g@." k
      (Bounds.asymmetric_time attrs ~d ~r)
  end

let bound_cmd =
  Cmd.v
    (Cmd.info "bound" ~doc:"Print every applicable analytic bound.")
    Term.(const bound $ attrs_term $ d_arg $ r_arg)

(* ------------------------------------------------------------------ *)
(* sweep *)

let sweep_model name ~lo ~hi ~points ~out ~shards ~resume =
  (* The checkpointed-atlas flags all belong to the paper model's d-sweep;
     each is rejected by name so the message says which flag to drop. *)
  List.iter
    (fun (given, flag) ->
      if given then begin
        Format.eprintf "rvu: --model sweeps do not support %s@." flag;
        exit 1
      end)
    [
      (out <> None, "--out");
      (shards <> None, "--shards");
      (resume, "--resume");
    ];
  let e = registry_entry name in
  let axis = e.Rvu_model.Registry.sweep_axis in
  let xs = Rvu_workload.Sweep.linspace ~lo ~hi ~n:points in
  Format.printf "sweeping %s's %s over %d point(s) in [%g, %g]@." name axis
    (List.length xs) lo hi;
  let t =
    Rvu_report.Table.create
      ~columns:
        (List.map Rvu_report.Table.column
           [ axis; "outcome"; "t"; "steps"; "min_distance" ])
  in
  List.iter
    (fun x ->
      let inst = e.Rvu_model.Registry.sweep x in
      let res = inst.Rvu_model.Model.run () in
      let outcome, time =
        match res.Rvu_model.Model.outcome with
        | Rvu_model.Model.Hit t -> ("hit", Rvu_report.Table.fstr t)
        | Rvu_model.Model.Horizon h -> ("horizon", Rvu_report.Table.fstr h)
      in
      Rvu_report.Table.add_row t
        [
          Rvu_report.Table.fstr x; outcome; time;
          Rvu_report.Table.istr res.Rvu_model.Model.steps;
          Rvu_report.Table.fstr res.Rvu_model.Model.min_distance;
        ])
    xs;
  Rvu_report.Table.print t

let sweep attrs d_lo d_hi points bearing r horizon jobs out shards resume
    trace model =
  with_trace trace @@ fun () ->
  match model with
  | Some name -> sweep_model name ~lo:d_lo ~hi:d_hi ~points ~out ~shards ~resume
  | None ->
  let shards = Option.value shards ~default:8 in
  if resume && out = None then begin
    Format.eprintf "rvu: --resume requires --out DIR@.";
    exit 1
  end;
  let ds = Rvu_workload.Sweep.linspace ~lo:d_lo ~hi:d_hi ~n:points in
  let darr = Array.of_list ds in
  let instance_of d =
    Rvu_sim.Engine.instance ~attributes:attrs
      ~displacement:(Vec2.of_polar ~radius:d ~angle:bearing)
      ~r
  in
  Format.printf "R' attributes: %a@." Attributes.pp attrs;
  Format.printf "sweeping d over %d point(s) in [%g, %g], r = %g@."
    (List.length ds) d_lo d_hi r;
  match out with
  | None ->
      let instances = Array.map instance_of darr in
      let results = Rvu_exec.Batch.run ~horizon ~jobs instances in
      let t =
        Rvu_report.Table.create
          ~columns:
            (List.map Rvu_report.Table.column
               [ "d"; "outcome"; "t"; "bound"; "intervals" ])
      in
      Array.iteri
        (fun i res ->
          let d = darr.(i) in
          let outcome, time =
            match res.Rvu_sim.Engine.outcome with
            | Rvu_sim.Detector.Hit t -> ("hit", Rvu_report.Table.fstr t)
            | Rvu_sim.Detector.Horizon h ->
                ("horizon", Rvu_report.Table.fstr h)
            | Rvu_sim.Detector.Stream_end t ->
                ("stream end", Rvu_report.Table.fstr t)
          in
          let bound =
            match res.Rvu_sim.Engine.bound.Universal.time with
            | Some b -> Rvu_report.Table.fstr b
            | None -> "-"
          in
          Rvu_report.Table.add_row t
            [
              Rvu_report.Table.fstr d; outcome; time; bound;
              Rvu_report.Table.istr
                res.Rvu_sim.Engine.stats.Rvu_sim.Detector.intervals;
            ])
        results;
      Rvu_report.Table.print t
  | Some dir ->
      (* Checkpointed atlas mode: every row is a deterministic function of
         its cell (no timestamps, no machine state), so a resumed run's
         atlas is byte-identical to an uninterrupted one. *)
      let eval start stop =
        let insts =
          Array.init (stop - start) (fun k -> instance_of darr.(start + k))
        in
        let results = Rvu_exec.Batch.run ~horizon ~jobs insts in
        Array.mapi
          (fun k (res : Rvu_sim.Engine.result) ->
            let i = start + k in
            let kind, time =
              match res.Rvu_sim.Engine.outcome with
              | Rvu_sim.Detector.Hit t -> ("hit", t)
              | Rvu_sim.Detector.Horizon h -> ("horizon", h)
              | Rvu_sim.Detector.Stream_end t -> ("stream_end", t)
            in
            Rvu_obs.Wire.Obj
              [
                ("cell", Rvu_obs.Wire.Int i);
                ("d", Rvu_obs.Wire.Float darr.(i));
                ("outcome", Rvu_obs.Wire.String kind);
                ("t", Rvu_obs.Wire.Float time);
                ( "bound",
                  match res.Rvu_sim.Engine.bound.Universal.time with
                  | Some b -> Rvu_obs.Wire.Float b
                  | None -> Rvu_obs.Wire.Null );
                ( "intervals",
                  Rvu_obs.Wire.Int
                    res.Rvu_sim.Engine.stats.Rvu_sim.Detector.intervals );
              ])
          results
      in
      let on_shard (p : Rvu_workload.Checkpoint.progress) =
        Format.printf "shard %d: %d cell(s)%s@." p.Rvu_workload.Checkpoint.shard
          p.Rvu_workload.Checkpoint.cells
          (if p.Rvu_workload.Checkpoint.skipped then " (checkpoint reused)"
           else "")
      in
      let atlas =
        Rvu_workload.Checkpoint.run ~dir ~shards ~resume ~on_shard
          ~cells:(Array.length darr) ~eval ()
      in
      Format.printf "atlas written to %s@." atlas

let sweep_cmd =
  let d_lo =
    Arg.(value & opt float 1.0 & info [ "d-lo" ] ~docv:"D" ~doc:"Smallest initial distance.")
  in
  let d_hi =
    Arg.(value & opt float 4.0 & info [ "d-hi" ] ~docv:"D" ~doc:"Largest initial distance.")
  in
  let points =
    Arg.(
      value & opt positive_int 8
      & info [ "points" ] ~docv:"N" ~doc:"Number of sweep points.")
  in
  let jobs =
    Arg.(
      value
      & opt positive_int (Rvu_exec.Pool.recommended_jobs ())
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Domains to run the batch on (default: all cores). Results are \
             bit-identical for every job count.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write the sweep as a checkpointed NDJSON atlas under $(docv) \
             (one shard file per cell block, then an assembled \
             atlas.ndjson) instead of printing a table.")
  in
  let shards =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "shards" ] ~docv:"N"
          ~doc:"Checkpoint granularity for --out (default 8).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Reuse existing shard checkpoints under --out instead of \
             recomputing them; the assembled atlas is byte-identical to an \
             uninterrupted run's.")
  in
  let model =
    Arg.(
      value
      & opt (some string) None
      & info [ "model" ] ~docv:"NAME"
          ~doc:
            "Sweep a registered rendezvous model's own axis (gap for \
             cycle_speed, d for visible_bits and unknown_attributes) over \
             [$(b,--d-lo), $(b,--d-hi)] with $(b,--points) points; other \
             parameters stay at the model's defaults. Not combinable with \
             the atlas flags ($(b,--out), $(b,--shards), $(b,--resume)).")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a batch of rendezvous instances over a distance sweep, in \
          parallel — optionally as a checkpointed, resumable NDJSON atlas \
          (--out, --resume) — or a registered model's one-axis sweep \
          (--model).")
    Term.(
      const sweep $ attrs_term $ d_lo $ d_hi $ points $ bearing_arg $ r_arg
      $ horizon_arg $ jobs $ out $ shards $ resume $ trace_arg $ model)

(* ------------------------------------------------------------------ *)
(* gather *)

let parse_robot spec =
  (* v,x,y — a robot with speed v starting at (x, y). *)
  match String.split_on_char ',' spec with
  | [ v; x; y ] -> begin
      match (float_of_string_opt v, float_of_string_opt x, float_of_string_opt y) with
      | Some v, Some x, Some y ->
          Ok { Rvu_sim.Multi.attributes = Attributes.make ~v (); start = Vec2.make x y }
      | _ -> Error (`Msg (Printf.sprintf "bad robot %S (want v,x,y)" spec))
    end
  | _ -> Error (`Msg (Printf.sprintf "bad robot %S (want v,x,y)" spec))

let robot_conv =
  Arg.conv
    ( parse_robot,
      fun ppf robot ->
        Format.fprintf ppf "%g,%a"
          robot.Rvu_sim.Multi.attributes.Attributes.v Vec2.pp
          robot.Rvu_sim.Multi.start )

let gather robots r horizon =
  let robots =
    { Rvu_sim.Multi.attributes = Attributes.reference; start = Vec2.zero }
    :: robots
  in
  Format.printf "swarm of %d robots (reference at the origin), r = %g@."
    (List.length robots) r;
  match Rvu_sim.Multi.run ~horizon ~r robots with
  | Rvu_sim.Multi.Gathered t, stats ->
      Format.printf "gathered at t = %.6g (%d intervals scanned)@." t
        stats.Rvu_sim.Multi.intervals
  | Rvu_sim.Multi.Horizon h, stats ->
      Format.printf "not gathered by t = %g; smallest diameter seen %.6g@." h
        stats.Rvu_sim.Multi.min_diameter
  | Rvu_sim.Multi.Stream_end t, _ -> Format.printf "program ended at %g@." t

let gather_cmd =
  let robots =
    Arg.(
      value
      & opt_all robot_conv
          [
            { Rvu_sim.Multi.attributes = Attributes.make ~v:2.0 (); start = Vec2.make 1.5 0.5 };
            { Rvu_sim.Multi.attributes = Attributes.make ~v:3.0 (); start = Vec2.make (-1.0) 1.0 };
          ]
      & info [ "robot" ] ~docv:"V,X,Y"
          ~doc:"Add a robot with speed $(i,V) starting at ($(i,X), $(i,Y)). Repeatable.")
  in
  let horizon =
    Arg.(
      value & opt float 2e5
      & info [ "horizon" ] ~docv:"T" ~doc:"Give up after this much global time.")
  in
  Cmd.v
    (Cmd.info "gather"
       ~doc:"Simulate multi-robot gathering (the paper's open problem).")
    Term.(const gather $ robots $ r_arg $ horizon)

(* ------------------------------------------------------------------ *)
(* serve / loadgen *)

let service_jobs_arg =
  Arg.(
    value
    & opt positive_int (Rvu_exec.Pool.recommended_jobs ())
    & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains evaluating requests.")

let queue_depth_arg =
  Arg.(
    value & opt positive_int 64
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:
          "Admission bound: requests beyond this many in flight are shed \
           with an $(i,overloaded) error instead of queueing.")

let cache_entries_arg =
  Arg.(
    value & opt int 256
    & info [ "cache-entries" ] ~docv:"N"
        ~doc:"Result-cache capacity (LRU). 0 disables result caching.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"MS"
        ~doc:
          "Default per-request queue-wait budget in milliseconds; requests \
           still queued past it fail with a $(i,timeout) error. Values <= 0 \
           or absent mean no default timeout.")

let max_request_bytes_arg =
  Arg.(
    value
    & opt positive_int Rvu_service.Server.default_config.max_request_bytes
    & info
        [ "max-request-bytes" ]
        ~docv:"N"
        ~doc:
          "Reject request lines longer than this many bytes with a \
           structured $(i,invalid_request) error (they are never parsed).")

let service_config jobs queue_depth cache_entries timeout_ms max_request_bytes
    =
  {
    Rvu_service.Server.jobs;
    queue_depth;
    cache_entries = max 0 cache_entries;
    timeout_ms =
      (match timeout_ms with Some ms when ms > 0.0 -> Some ms | _ -> None);
    max_request_bytes;
    slow_ms = None;
  }

let config_term =
  Term.(
    const service_config $ service_jobs_arg $ queue_depth_arg
    $ cache_entries_arg $ timeout_arg $ max_request_bytes_arg)

let resolve_or_exit host =
  try Rvu_service.Conn.resolve host
  with Invalid_argument _ ->
    Format.eprintf "rvu: cannot resolve host %S@." host;
    exit 1

let hostport_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i -> begin
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 && host <> "" -> Ok (host, p)
        | _ ->
            Error (`Msg (Printf.sprintf "bad address %S (want HOST:PORT)" s))
      end
    | None -> Error (`Msg (Printf.sprintf "bad address %S (want HOST:PORT)" s))
  in
  Arg.conv ~docv:"HOST:PORT"
    (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let inject_conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i when i > 0 -> (
        let site = String.sub s 0 i in
        let prob = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt prob with
        | Some p when p >= 0.0 && p <= 1.0 -> Ok (site, p)
        | _ ->
            Error
              (`Msg
                (Printf.sprintf
                   "expected SITE=PROB with PROB in [0, 1], got %S" s)))
    | _ -> Error (`Msg (Printf.sprintf "expected SITE=PROB, got %S" s))
  in
  Arg.conv ~docv:"SITE=PROB"
    (parse, fun ppf (s, p) -> Format.fprintf ppf "%s=%g" s p)

let inject_arg =
  Arg.(
    value & opt_all inject_conv []
    & info [ "inject" ] ~docv:"SITE=PROB"
        ~doc:
          "Arm the deterministic fault injector: fire the named injection \
           site (e.g. $(i,server.torn_frame), $(i,handler.crash)) with the \
           given probability. Repeatable. Off unless given.")

let inject_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "inject-seed" ] ~docv:"N"
        ~doc:"Seed for the fault injector's deterministic decisions.")

(* The wire-codec enum (--wire json|binary), shared by serve, loadgen,
   router and verify — one converter so every subcommand rejects a bad
   codec name the same way, at parse time. *)
let wire_conv =
  let parse s =
    match Rvu_service.Wire_bin.mode_of_string s with
    | Some m -> Ok m
    | None ->
        Error
          (`Msg (Printf.sprintf "expected \"json\" or \"binary\", got %S" s))
  in
  Arg.conv ~docv:"WIRE"
    ( parse,
      fun ppf m ->
        Format.pp_print_string ppf (Rvu_service.Wire_bin.mode_string m) )

let wire_arg ~doc =
  Arg.(
    value
    & opt wire_conv Rvu_service.Wire_bin.Json
    & info [ "wire" ] ~docv:"WIRE" ~doc)

let serve config tcp_port host connections wire trace logging inject inject_seed
    slow_ms =
  (* A router-owned worker is stopped with SIGTERM, which would skip
     [at_exit] and lose the trace file's final flush — convert it to a
     clean exit while tracing so {!Rvu_obs.Trace.close} runs. Without
     --trace the default termination semantics are kept. *)
  (if trace <> None && Sys.os_type = "Unix" then
     try Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 0))
     with _ -> ());
  (* Side-by-side servers (a router's workers, --connect shards) listen on
     distinct ports: seeding the generated ids from the port keeps their
     sequences apart. Stdio serve keeps the default, cram-pinned seed. *)
  Option.iter Rvu_obs.Ctx.set_seed tcp_port;
  let config =
    {
      config with
      Rvu_service.Server.slow_ms =
        (match slow_ms with Some ms when ms > 0.0 -> Some ms | _ -> None);
    }
  in
  with_trace trace @@ fun () ->
  with_logging logging @@ fun () ->
  if inject <> [] then Rvu_obs.Fault.arm ~seed:inject_seed inject;
  Rvu_obs.Runtime.start ();
  let server = Rvu_service.Server.create ~config () in
  Fun.protect ~finally:Rvu_obs.Runtime.stop @@ fun () ->
  (match tcp_port with
  | Some port ->
      Rvu_service.Server.serve_tcp ~wire server ~host ~port ?connections ()
  | None -> Rvu_service.Server.serve_channels ~wire server stdin stdout);
  Rvu_service.Server.stop server

let serve_cmd =
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:
            "Listen on a TCP port instead of serving newline-delimited JSON \
             over stdin/stdout. Generated correlation ids (for requests \
             without an id) are then seeded from $(docv), so processes \
             listening side by side never share an id sequence.")
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind (with $(b,--tcp)).")
  in
  let connections =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "connections" ] ~docv:"N"
          ~doc:
            "Exit after serving this many TCP connections (default: serve \
             forever). Useful for smoke tests.")
  in
  let wire =
    wire_arg
      ~doc:
        "Starting wire codec for every connection: $(i,json) (default, \
         NDJSON; a $(i,hello) record can still upgrade a connection to \
         binary) or $(i,binary) (length-prefixed frames from byte zero, \
         for peers pinned with the same flag)."
  in
  let slow_ms =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-request trigger (with $(b,--trace)): a request slower \
             than $(docv) milliseconds gets its trace spans force-retained \
             past ring wrap-around, and a $(i,warn) log record with its \
             trace id.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the evaluation server: one JSON request per line in, one JSON \
          response per line out (see DESIGN.md for the protocol).")
    Term.(
      const serve $ config_term $ tcp $ host $ connections $ wire $ trace_arg
      $ logging_term $ inject_arg $ inject_seed_arg $ slow_ms)

(* Client-side binary shims: [Loadgen] itself is transport-agnostic and
   speaks JSON lines, so driving a binary connection means transcoding at
   the edges — encode each generated line into a frame payload on the way
   out, print each decoded response back to its canonical JSON line for
   [note_response] on the way in. Both codecs are canonical over the same
   value domain, so the latency/ok accounting sees exactly the lines a
   JSON connection would. *)
let record_of_line wire line =
  match wire with
  | Rvu_service.Wire_bin.Json -> line
  | Rvu_service.Wire_bin.Binary -> (
      match Rvu_service.Wire.parse line with
      | Ok w -> Rvu_service.Wire_bin.encode w
      | Error _ ->
          (* Loadgen only emits well-formed scenario lines. *)
          invalid_arg "loadgen: cannot encode scenario line")

let line_of_record wire record =
  match wire with
  | Rvu_service.Wire_bin.Json -> record
  | Rvu_service.Wire_bin.Binary -> (
      match Rvu_service.Wire_bin.decode record with
      | Ok w -> Rvu_service.Wire.print w
      | Error _ -> "{\"error\":{\"code\":\"internal\"}}")

let loadgen_tcp lg ~host ~port ~rate ~connections ~wire =
  (* [Loadgen.drive] sends from one thread, so round-robin over the
     connection pool is a bare counter — no lock. [note_response] is
     domain-safe, so each connection gets its own reader domain and
     responses interleave freely; percentile reporting stays exact
     because every sample still lands in the one retained-samples
     histogram. *)
  let addr = Unix.ADDR_INET (resolve_or_exit host, port) in
  let conns =
    Array.init connections (fun _ ->
        match Rvu_service.Conn.connect wire addr with
        | c -> c
        | exception Unix.Unix_error (e, _, _) ->
            Format.eprintf "rvu: cannot connect to %s:%d: %s@." host port
              (Unix.error_message e);
            exit 1
        | exception Failure _ ->
            Format.eprintf "rvu: server rejected the binary wire upgrade@.";
            exit 1)
  in
  let readers =
    Array.map
      (fun (c : Rvu_service.Conn.client) ->
        Domain.spawn (fun () ->
            try
              Rvu_service.Conn.read_records wire c.ic (fun record ->
                  Rvu_service.Loadgen.note_response lg
                    (line_of_record wire record))
            with _ -> ()))
      conns
  in
  let next = ref 0 in
  Rvu_service.Loadgen.drive ~rate lg ~send:(fun line ->
      let c = conns.(!next) in
      next := (!next + 1) mod connections;
      Rvu_service.Conn.write wire c.oc (record_of_line wire line));
  let complete = Rvu_service.Loadgen.wait lg in
  Array.iter
    (fun (c : Rvu_service.Conn.client) ->
      try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ())
    conns;
  Array.iter Domain.join readers;
  Array.iter (fun (c : Rvu_service.Conn.client) -> close_out_noerr c.oc) conns;
  complete

let loadgen_local lg ~config ~rate ~wire =
  let server = Rvu_service.Server.create ~config () in
  (* The binary mode goes through the same transcode shims as the TCP
     path, so the local mode still exercises the server's binary
     decode/encode/frame-cache path end to end. *)
  let handle =
    match wire with
    | Rvu_service.Wire_bin.Json -> Rvu_service.Server.handle_line server
    | Rvu_service.Wire_bin.Binary -> Rvu_service.Server.handle_payload server
  in
  Rvu_service.Loadgen.drive ~rate lg ~send:(fun line ->
      handle (record_of_line wire line) ~respond:(fun record ->
          Rvu_service.Loadgen.note_response lg (line_of_record wire record)));
  let complete = Rvu_service.Loadgen.wait lg in
  Rvu_service.Server.stop server;
  complete

let loadgen connect connections requests rate seed slow_ms zipf wire config
    logging fail_on_error =
  with_logging logging @@ fun () ->
  let lg = Rvu_service.Loadgen.create ~seed ?slow_ms ?zipf ~requests () in
  let complete =
    match connect with
    | Some (host, port) -> loadgen_tcp lg ~host ~port ~rate ~connections ~wire
    | None ->
        if connections > 1 then begin
          Format.eprintf "rvu: --connections needs --connect@.";
          exit 1
        end;
        loadgen_local lg ~config ~rate ~wire
  in
  let s = Rvu_service.Loadgen.summary lg in
  Rvu_service.Loadgen.print_summary s;
  if not complete then
    Format.eprintf "rvu: %d of %d responses never arrived@."
      (requests - s.Rvu_service.Loadgen.completed)
      requests;
  if fail_on_error && (not complete || s.Rvu_service.Loadgen.ok < requests)
  then exit 1

let loadgen_cmd =
  let connect =
    Arg.(
      value
      & opt (some hostport_conv) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:
            "Drive a running $(b,rvu serve --tcp) instance. Without this the \
             generator runs against an in-process server built from the \
             $(b,serve) flags below.")
  in
  let requests =
    Arg.(
      value & opt positive_int 200
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to send.")
  in
  let connections =
    Arg.(
      value & opt positive_int 1
      & info [ "connections" ] ~docv:"N"
          ~doc:
            "Drive the target over this many concurrent TCP connections, \
             round-robining the scenario mix across them — a single \
             closed-loop connection under-drives a multi-shard router. \
             Needs $(b,--connect).")
  in
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Target request rate per second. 0 (default) sends flat out.")
  in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"SEED" ~doc:"Scenario-mix derivation seed.")
  in
  let slow_ms =
    let positive_float =
      let parse s =
        match float_of_string_opt s with
        | Some x when Float.is_finite x && x > 0.0 -> Ok x
        | _ ->
            Error
              (`Msg
                (Printf.sprintf "expected a positive number of ms, got %S" s))
      in
      Arg.conv ~docv:"MS" (parse, fun ppf x -> Format.fprintf ppf "%g" x)
    in
    Arg.(
      value
      & opt (some positive_float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Log a $(i,warn) record — under the request's correlation id, \
             so it joins the server's own log — for every response slower \
             than $(docv) milliseconds (e.g. a p99 objective). Needs \
             $(b,--log).")
  in
  let zipf =
    let positive_float =
      let parse s =
        match float_of_string_opt s with
        | Some x when Float.is_finite x && x > 0.0 -> Ok x
        | _ ->
            Error
              (`Msg (Printf.sprintf "expected a positive exponent, got %S" s))
      in
      Arg.conv ~docv:"S" (parse, fun ppf x -> Format.fprintf ppf "%g" x)
    in
    Arg.(
      value
      & opt (some positive_float) None
      & info [ "zipf" ] ~docv:"S"
          ~doc:
            "Draw requests from a Zipf-skewed popularity distribution with \
             exponent $(docv) over a fixed scenario population (instead of \
             cycling the uniform mix): rank k is sent with probability \
             proportional to 1/k^$(docv). Higher exponents concentrate \
             traffic on fewer distinct requests — a cache-friendliness \
             dial. Pacing ($(b,--rate)) is unchanged.")
  in
  let fail_on_error =
    Arg.(
      value & flag
      & info [ "fail-on-error" ]
          ~doc:
            "Exit non-zero unless every request completed with an $(i,ok) \
             response.")
  in
  let wire =
    wire_arg
      ~doc:
        "Wire codec to drive the target with: $(i,json) (default, NDJSON) \
         or $(i,binary) (upgrade each connection with a $(i,hello) \
         handshake, then length-prefixed frames both ways). Latency and \
         ok/error accounting are codec-independent."
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Replay a deterministic scenario mix against the evaluation server \
          and report throughput and latency percentiles.")
    Term.(
      const loadgen $ connect $ connections $ requests $ rate $ seed $ slow_ms
      $ zipf $ wire $ config_term $ logging_term $ fail_on_error)

(* ------------------------------------------------------------------ *)
(* router *)

let worker_argv ?worker_trace ~index config port inject inject_seed =
  let open Rvu_service.Server in
  Array.of_list
    ([
       Sys.executable_name;
       "serve";
       "--tcp";
       string_of_int port;
       "--jobs";
       string_of_int config.jobs;
       "--queue-depth";
       string_of_int config.queue_depth;
       "--cache-entries";
       string_of_int config.cache_entries;
       "--max-request-bytes";
       string_of_int config.max_request_bytes;
     ]
    @ (match worker_trace with
      | Some prefix ->
          [ "--trace"; Printf.sprintf "%s%d.trace" prefix index ]
      | None -> [])
    @ (match config.timeout_ms with
      | Some ms -> [ "--timeout"; Printf.sprintf "%g" ms ]
      | None -> [])
    @ List.concat_map
        (fun (site, prob) ->
          [ "--inject"; Printf.sprintf "%s=%g" site prob ])
        inject
    @
    if inject = [] then [] else [ "--inject-seed"; string_of_int inject_seed ])

(* SIGTERM and SIGINT end a long-running command through [stop] instead
   of the default kill, which skips every cleanup. The OCaml handler may
   run on any domain, so it only writes a byte to a pipe; a dedicated
   domain blocked on the other end runs [stop], then exits (the [at_exit]
   backstops close the trace file). *)
let on_termination stop =
  if Sys.os_type = "Unix" then begin
    let r, w = Unix.pipe ~cloexec:true () in
    let wake _ = ignore (Unix.write_substring w "x" 0 1) in
    List.iter
      (fun s -> Sys.set_signal s (Sys.Signal_handle wake))
      [ Sys.sigterm; Sys.sigint ];
    ignore
      (Domain.spawn (fun () ->
           ignore (Unix.read r (Bytes.create 1) 0 1);
           stop ();
           exit 0))
  end

let router config workers connect worker_base_port tcp_port host connections
    probe_interval_ms restart_backoff_ms route_timeout_ms wire trace logging
    inject inject_seed worker_trace =
  Option.iter Rvu_obs.Ctx.set_seed tcp_port;
  with_trace trace @@ fun () ->
  with_logging logging @@ fun () ->
  let endpoints =
    match (workers, connect) with
    | Some _, _ :: _ ->
        Format.eprintf "rvu: --workers and --connect are mutually exclusive@.";
        exit 1
    | None, [] ->
        Format.eprintf "rvu: router needs --workers N or --connect HOST:PORT@.";
        exit 1
    | None, eps ->
        List.map
          (fun (host, port) ->
            { Rvu_cluster.Router.host; port; spawn = None })
          eps
    | Some n, [] ->
        (* Spawned workers inherit the serve-config flags and the fault
           injection setup; the router itself never fires faults. *)
        List.init n (fun i ->
            let port = worker_base_port + i in
            {
              Rvu_cluster.Router.host = "127.0.0.1";
              port;
              spawn =
                Some
                  (worker_argv ?worker_trace ~index:i config port inject
                     inject_seed);
            })
  in
  Rvu_obs.Runtime.start ();
  let rconfig =
    {
      Rvu_cluster.Router.default_config with
      probe_interval_ms = float_of_int probe_interval_ms;
      restart_backoff_ms = float_of_int restart_backoff_ms;
      route_timeout_ms = float_of_int route_timeout_ms;
      max_request_bytes = config.Rvu_service.Server.max_request_bytes;
      wire;
    }
  in
  let rt = Rvu_cluster.Router.create ~config:rconfig ~endpoints () in
  (* Whichever of the signal watcher and the normal return gets here
     second waits for the first to finish stopping. *)
  let lock = Mutex.create () and stopped = ref false in
  let stop () =
    Mutex.protect lock (fun () ->
        if not !stopped then begin
          stopped := true;
          Rvu_cluster.Router.stop rt;
          Rvu_obs.Runtime.stop ()
        end)
  in
  on_termination stop;
  Fun.protect ~finally:stop @@ fun () ->
  match tcp_port with
  | Some port -> Rvu_cluster.Router.serve_tcp rt ~host ~port ?connections ()
  | None -> Rvu_cluster.Router.serve_channels rt stdin stdout

let router_cmd =
  let workers =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Spawn $(docv) worker $(b,rvu serve --tcp) processes on \
             consecutive ports from $(b,--worker-base-port) and route over \
             them. The router owns these workers: it restarts any that die \
             and re-admits them once their health probe reports ready.")
  in
  let connect =
    Arg.(
      value & opt_all hostport_conv []
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:
            "Route over an externally managed worker (repeatable). The \
             router reconnects with backoff but never spawns or restarts \
             these. Mutually exclusive with $(b,--workers).")
  in
  let worker_base_port =
    Arg.(
      value & opt positive_int 7800
      & info [ "worker-base-port" ] ~docv:"PORT"
          ~doc:"First worker port with $(b,--workers) (worker $(i,i) gets \
                port + $(i,i)).")
  in
  let tcp =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:
            "Listen on a TCP port instead of serving newline-delimited JSON \
             over stdin/stdout. Generated correlation ids (for requests \
             without an id) are then seeded from $(docv), so processes \
             listening side by side never share an id sequence.")
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Address to bind (with $(b,--tcp)).")
  in
  let connections =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "connections" ] ~docv:"N"
          ~doc:
            "Exit after serving this many TCP connections (default: serve \
             forever). Useful for smoke tests.")
  in
  let probe_interval =
    Arg.(
      value & opt positive_int 250
      & info [ "probe-interval-ms" ] ~docv:"MS"
          ~doc:
            "Health-probe period per shard. A shard that reports degraded \
             or misses a probe is evicted from the routing ring until a \
             probe reports it ready again.")
  in
  let restart_backoff =
    Arg.(
      value & opt positive_int 500
      & info [ "restart-backoff-ms" ] ~docv:"MS"
          ~doc:
            "Delay before reconnecting to (and, for spawned workers, \
             restarting) a downed shard.")
  in
  let route_timeout =
    Arg.(
      value & opt positive_int 30000
      & info [ "route-timeout-ms" ] ~docv:"MS"
          ~doc:
            "Budget for one shard to answer a routed request. Past it the \
             router sends the request again, to a shard picked afresh from \
             the ready ones, which may be the shard that timed out; after \
             the retry budget it is shed with an $(i,overloaded) error.")
  in
  let wire =
    wire_arg
      ~doc:
        "Shard-side wire codec: $(i,json) (default) or $(i,binary) \
         (upgrade every worker connection with a $(i,hello) handshake and \
         route length-prefixed frames). Client connections negotiate \
         their own codec per connection regardless; the router transcodes \
         when the two sides differ."
  in
  let worker_trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "worker-trace" ] ~docv:"PREFIX"
          ~doc:
            "With $(b,--workers), give each spawned worker \
             $(b,--trace) $(docv)$(i,i)$(b,.trace) (worker $(i,i)'s own \
             trace file). Combine with the router's $(b,--trace) and \
             $(b,rvu trace-merge) for one cross-process timeline.")
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:
         "Front a cluster of $(b,rvu serve) worker shards: consistent-hash \
          route requests on their canonical cache key, evict and restart \
          unhealthy shards, and serve merged $(i,stats)/$(i,metrics)/\
          $(i,health) aggregates. Speaks exactly the single-server protocol.")
    Term.(
      const router $ config_term $ workers $ connect $ worker_base_port $ tcp
      $ host $ connections $ probe_interval $ restart_backoff $ route_timeout
      $ wire $ trace_arg $ logging_term $ inject_arg $ inject_seed_arg
      $ worker_trace)

(* ------------------------------------------------------------------ *)
(* verify *)

let verify campaign seed cases wire report_path logging =
  with_logging logging @@ fun () ->
  match Rvu_verify.Campaign.of_name campaign with
  | None ->
      Format.eprintf "rvu verify: unknown campaign %S (known: %s)@." campaign
        (String.concat ", " Rvu_verify.Campaign.names);
      exit 2
  | Some run ->
      let report = run ~wire ~seed ~cases () in
      print_string (Rvu_verify.Campaign.summary report);
      (match report_path with
      | None -> ()
      | Some path ->
          let oc = open_out path in
          output_string oc
            (Rvu_service.Wire.print_hum report.Rvu_verify.Campaign.json);
          close_out oc;
          Printf.printf "(report written to %s)\n" path);
      if report.Rvu_verify.Campaign.violations <> [] then exit 1

let verify_cmd =
  let campaign =
    Arg.(
      value & opt string "all"
      & info [ "campaign" ] ~docv:"NAME"
          ~doc:
            "Which campaign to run: $(i,symmetry) (metamorphic oracles \
             through engine, batch and server), $(i,faults) (deterministic \
             fault injection across the service stack), or $(i,all).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Campaign seed. The case list and every injection decision are \
             a pure function of the seed and case count.")
  in
  let cases =
    Arg.(
      value & opt positive_int 100
      & info [ "cases" ] ~docv:"N" ~doc:"Cases per campaign.")
  in
  let wire =
    wire_arg
      ~doc:
        "Wire codec for every live-server round trip in the campaigns: \
         $(i,json) (default) or $(i,binary) (requests and responses \
         travel the binary frame path; the oracles compared against are \
         unchanged)."
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Also write the full JSON report to $(docv).")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run verification campaigns: metamorphic symmetry oracles and \
          deterministic fault injection. Exits non-zero on any invariant \
          violation.")
    Term.(
      const verify $ campaign $ seed $ cases $ wire $ report $ logging_term)

(* ------------------------------------------------------------------ *)
(* health *)

let health connect =
  let host, port = connect in
  let addr = Unix.ADDR_INET (resolve_or_exit host, port) in
  (* The server may still be binding (smoke tests fork it just before the
     probe): retry the connection briefly before giving up. *)
  let rec connect_retry tries =
    match Rvu_service.Conn.connect Rvu_service.Wire_bin.Json addr with
    | c -> c
    | exception Unix.Unix_error (e, _, _) ->
        if tries <= 1 then begin
          Format.eprintf "rvu: cannot connect to %s:%d: %s@." host port
            (Unix.error_message e);
          exit 1
        end;
        Unix.sleepf 0.1;
        connect_retry (tries - 1)
  in
  let c = connect_retry 50 in
  Rvu_service.Conn.write Rvu_service.Wire_bin.Json c.oc
    "{\"id\":0,\"kind\":\"health\"}";
  let line =
    match input_line c.ic with
    | line -> line
    | exception End_of_file ->
        Format.eprintf "rvu: server closed the connection without answering@.";
        exit 1
  in
  (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ());
  close_in_noerr c.ic;
  let bad reason =
    Format.eprintf "rvu: malformed health response (%s): %s@." reason line;
    exit 1
  in
  let open Rvu_service in
  match Wire.parse line with
  | Error _ -> bad "not JSON"
  | Ok response -> (
      match Wire.member "ok" response with
      | None -> bad "no ok payload"
      | Some payload -> (
          let int_field obj name =
            match Option.bind obj (Wire.member name) with
            | Some (Wire.Int n) -> n
            | _ -> bad (Printf.sprintf "missing %s" name)
          in
          match Wire.member "status" payload with
          | Some (Wire.String status) ->
              let queue = Wire.member "queue" payload in
              Printf.printf
                "%s: %d in flight (depth %d), %d shed since last probe\n"
                status
                (int_field queue "in_flight")
                (int_field queue "depth")
                (int_field (Some payload) "shed_since_last_probe");
              if status = "ready" then exit 0 else exit 2
          | _ -> bad "missing status"))

let health_cmd =
  let connect =
    Arg.(
      required
      & opt (some hostport_conv) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"The $(b,rvu serve --tcp) instance to probe.")
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:
         "Probe a running server's health endpoint. Exits 0 when ready, 2 \
          when degraded (admission saturated or recent shedding), 1 when \
          the probe itself fails.")
    Term.(const health $ connect)

(* ------------------------------------------------------------------ *)
(* bench-diff *)

(* Numeric leaves of a bench artifact as dotted paths: {"cold":{"wall_s":
   1.2}} becomes ("cold.wall_s", 1.2). List elements get their index as a
   path segment. *)
let rec flatten_numeric prefix v acc =
  let child k v acc =
    flatten_numeric (if prefix = "" then k else prefix ^ "." ^ k) v acc
  in
  match v with
  | Rvu_service.Wire.Obj fields ->
      List.fold_left (fun acc (k, v) -> child k v acc) acc fields
  | Rvu_service.Wire.List items ->
      List.fold_left
        (fun (i, acc) v -> (i + 1, child (string_of_int i) v acc))
        (0, acc) items
      |> snd
  | Rvu_service.Wire.Int n -> (prefix, float_of_int n) :: acc
  | Rvu_service.Wire.Float f -> (prefix, f) :: acc
  | _ -> acc

let contains path needle =
  let n = String.length path and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub path i m = needle || scan (i + 1)) in
  scan 0

let gated_series path =
  (* Compare wall-clock series plus the router's self-metrics: most
     counters and derived ratios move for benign reasons (cache sizes,
     request mixes), but walls are the latency contract and the router
     counters are a reliability one — a retry, shed or stale-epoch count
     rising above its zero baseline is an infinite delta, i.e. an
     automatic regression. *)
  contains path "wall" || contains path "router_"

let bench_diff old_file new_file threshold =
  let load path =
    let contents =
      try In_channel.with_open_bin path In_channel.input_all
      with Sys_error msg ->
        Format.eprintf "rvu: cannot read %s: %s@." path msg;
        exit 1
    in
    match Rvu_service.Wire.parse contents with
    | Ok v -> v
    | Error e ->
        Format.eprintf "rvu: %s is not valid JSON: %s@." path
          (Rvu_service.Wire.error_to_string e);
        exit 1
  in
  let olds = flatten_numeric "" (load old_file) [] in
  let news = flatten_numeric "" (load new_file) [] in
  (* Every gated series of the baseline, with its fresh value if the new
     artifact still has it: a series that disappears fails the diff, or a
     refactor that drops one would pass unnoticed. *)
  let gated =
    List.filter_map
      (fun (path, old_v) ->
        if gated_series path then Some (path, old_v, List.assoc_opt path news)
        else None)
      olds
    |> List.sort compare
  in
  if not (List.exists (fun (_, _, new_v) -> new_v <> None) gated) then begin
    Format.eprintf
      "rvu: no shared gated series between %s and %s — nothing to compare@."
      old_file new_file;
    exit 1
  end;
  let regressions = ref 0 and missing = ref 0 in
  List.iter
    (fun (path, old_v, new_v) ->
      match new_v with
      | None ->
          incr missing;
          Printf.printf "%-40s %12.6g %12s %9s  MISSING\n" path old_v "-" "-"
      | Some new_v ->
          let delta_pct =
            if old_v > 0.0 then (new_v -. old_v) /. old_v *. 100.0
            else if new_v > 0.0 then Float.infinity
            else 0.0
          in
          let regressed = delta_pct > threshold in
          if regressed then incr regressions;
          Printf.printf "%-40s %12.6g %12.6g %+8.1f%%%s\n" path old_v new_v
            delta_pct
            (if regressed then "  REGRESSION" else ""))
    gated;
  flush stdout;
  if !missing > 0 then
    Format.eprintf "rvu: %d gated series missing from %s@." !missing new_file;
  if !regressions > 0 then
    Format.eprintf "rvu: %d gated series regressed by more than %g%%@."
      !regressions threshold;
  if !missing > 0 || !regressions > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* trace-merge *)

let trace_merge inputs out =
  let inputs =
    List.map
      (fun path ->
        (Filename.remove_extension (Filename.basename path), path))
      inputs
  in
  match Rvu_obs.Trace_merge.merge ~inputs ~out with
  | Error msg ->
      Format.eprintf "rvu trace-merge: %s@." msg;
      exit 1
  | Ok s ->
      Format.printf "merged %d file(s), %d event(s) into %s@."
        s.Rvu_obs.Trace_merge.files s.Rvu_obs.Trace_merge.events out;
      Format.printf "trace ids: %d@." s.Rvu_obs.Trace_merge.trace_ids;
      Format.printf "cross-process trace ids: %d@."
        s.Rvu_obs.Trace_merge.cross_process;
      Format.printf "trace ids spanning 3+ lanes: %d@."
        s.Rvu_obs.Trace_merge.three_lane;
      Format.printf "re-parented serve spans: %d@."
        s.Rvu_obs.Trace_merge.reparented

let trace_merge_cmd =
  let inputs =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Per-process trace files ($(b,--trace)/$(b,--worker-trace) \
             outputs). Conventionally the router's file first; each becomes \
             a process lane named after its basename.")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the merged timeline to $(docv).")
  in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:
         "Stitch per-process trace files (router + worker shards) into one \
          Perfetto-loadable timeline: named process lanes, GC lanes \
          annotated with the requests they interrupted, and shard serve \
          spans linked under the router forward spans that carried them \
          (matched on the propagated trace context).")
    Term.(const trace_merge $ inputs $ out)

let bench_diff_cmd =
  let file n doc = Arg.(required & pos n (some string) None & info [] ~docv:"FILE" ~doc) in
  let threshold =
    Arg.(
      value & opt float 20.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Fail when any shared gated series is more than $(docv) percent \
             higher in the new artifact.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two bench JSON artifacts (e.g. bench/baselines/BENCH_4.json \
          against a fresh run) on the baseline's gated series — wall-time \
          numbers plus the router's self-metric counters — and exit non-zero \
          on a regression beyond the threshold or when a gated series is \
          missing from the fresh artifact.")
    Term.(
      const bench_diff
      $ file 0 "Baseline bench artifact."
      $ file 1 "Fresh bench artifact."
      $ threshold)

(* ------------------------------------------------------------------ *)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "rvu" ~version:"1.0.0"
             ~doc:
               "Rendezvous by robots with unknown attributes (PODC 2019) - \
                simulator and analytic bounds.")
          [
            simulate_cmd; search_cmd; feasibility_cmd; schedule_cmd; bound_cmd;
            sweep_cmd; gather_cmd; serve_cmd; router_cmd; loadgen_cmd;
            verify_cmd; health_cmd; bench_diff_cmd; trace_merge_cmd;
          ]))
