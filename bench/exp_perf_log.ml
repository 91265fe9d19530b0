(* PERF-LOG — structured-logging overhead on the serving path.

   Three configurations of the perf-serve cold workload (distinct
   simulate requests, caching off so every drive does identical work),
   one 384-request drive per unit of work, each against a fresh
   in-process server, interleaved drive by drive by the A/B driver:

     off           logging unconfigured — the one-branch gate
     info          File sink at Info: one `response` record per request
     debug+flight  File sink at Debug with a 64-record flight recorder:
                   `request` + `response` records per request, every
                   record also rendered into the ring

   The acceptance gate: info-level logging must cost < 5% of the serve
   wall. The gated number is the measured marginal cost of one record (a
   tight-loop microbench of the server's own record shape, its fastest
   round) times the records per drive, as a share of the fastest
   un-logged pass's wall per drive (each drive's loadgen wall, first
   send to last response) — end-to-end wall differences on a shared
   machine carry scheduler noise well above the true effect, so they are
   reported (and the fastest passes sanity-bounded at 1.5x) but not
   differenced for the gate. Also
   reconciles record counts three ways per logged drive: the logger's own
   emitted counter, the NDJSON line count of the sink file, and the
   expected records-per-request times the request count — every line must
   parse with Wire. Emits BENCH_5.json. *)

module Wire = Rvu_service.Wire
module Loadgen = Rvu_service.Loadgen
module Server = Rvu_service.Server
module Log = Rvu_obs.Log

let requests = 384

(* Distinct scenarios (ids 1..n) of the family at the perf-serve cold
   workload's d and r. *)
let workload =
  Array.init requests (fun i ->
      Util.line ~id:(i + 1) (Util.scenario ~n:requests ~d:8.0 ~r:0.01 i))

let count_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       let line = input_line ic in
       (match Wire.parse line with
       | Ok _ -> ()
       | Error e ->
           Printf.ksprintf failwith "perf-log: unparseable log line %S: %s"
             line (Wire.error_to_string e));
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

(* A configuration: each drive gets a fresh server (cache off — identical
   work per drive) and, when [logging] is [Some (level, flight, k)], a
   sink at [level] with a [flight]-record flight recorder, producing [k]
   records per request. Each drive is reconciled on the spot: the
   logger's emitted counter, the sink's NDJSON line count (each line
   must parse), and the expected records must all agree, and every
   response must be ok. *)
let drive ~jobs ~log_file name logging =
  let config =
    {
      Server.default_config with
      Server.jobs;
      queue_depth = 2 * requests;
      cache_entries = 0;
      timeout_ms = None;
    }
  in
  let server = ref None and emitted0 = ref 0 in
  let expected =
    match logging with None -> 0 | Some (_, _, k) -> k * requests
  in
  Util.config name
    ~setup:(fun () ->
      emitted0 := Log.emitted_records ();
      Option.iter
        (fun (level, flight_recorder, _) ->
          Log.configure ~level ~flight_recorder (Log.File log_file))
        logging;
      server := Some (Server.create ~config ()))
    ~finish:(fun s ->
      Server.stop (Option.get !server);
      if logging <> None then begin
        Log.close ();
        let lines = count_lines log_file in
        if lines <> expected then
          Printf.ksprintf failwith
            "perf-log: drive %s expected %d sink lines, found %d" name
            expected lines
      end;
      let emitted = Log.emitted_records () - !emitted0 in
      if emitted <> expected then
        Printf.ksprintf failwith
          "perf-log: drive %s logger counted %d records, expected %d" name
          emitted expected;
      if s.Loadgen.ok <> requests then
        failwith "perf-log: drive had non-ok responses")
    (fun () ->
      Util.drive ~name:"perf-log"
        (Server.handle_line (Option.get !server))
        workload)

(* The fastest pass's wall per drive: a configuration's pass is its
   drives in one round, and each drive's wall is the loadgen's own, first
   send to last response. The driver's wall of the same drive also holds
   the loadgen's creation, its completion wait and its summary, none of
   which is logging cost. *)
let fastest_pass (t : Loadgen.summary Util.timing) =
  Array.fold_left
    (fun m drives ->
      let sum = Array.fold_left (fun a s -> a +. s.Loadgen.wall_s) 0.0 drives in
      Float.min m (sum /. float_of_int (Array.length drives)))
    Float.infinity t.results

(* The marginal cost of one info record to a File sink, measured directly:
   a tight loop of the server's own `response` record shape with a
   correlation id ambient (the server installs the id whether or not
   logging is on, so it is not part of the marginal cost), the fastest
   round's per-record seconds. The end-to-end walls carry run-to-run
   scheduler noise on a shared machine — more than the few milliseconds
   384 records cost — so the overhead gate multiplies this per-record
   cost by the records per drive instead of differencing two noisy
   walls. *)
let per_record_cost ~log_file =
  let n = 20_000 in
  Rvu_obs.Ctx.with_ctx { cid = "req-bench"; span = None } (fun () ->
      let t =
        Util.ab ~id:"perf-log-record"
          [
            Util.config
              (Printf.sprintf "%d info records" n)
              ~setup:(fun () ->
                Log.configure ~level:Log.Info (Log.File log_file))
              ~finish:(fun _ -> Log.close ())
              (fun () ->
                for i = 1 to n do
                  Log.info
                    ~fields:
                      [
                        ("kind", Wire.String "simulate");
                        ("ms", Wire.Float (0.25 *. float_of_int i));
                        ("outcome", Wire.String "ok");
                      ]
                    "response"
                done);
          ]
      in
      Array.fold_left Float.min Float.infinity t.(0).walls /. float_of_int n)

let run () =
  (* Pin the worker count: the subject is per-record logging cost, not
     scaling, and high domain counts add scheduler noise that swamps a
     sub-millisecond effect. *)
  let jobs = min !Util.jobs 2 in
  Util.banner "PERF-LOG"
    (Printf.sprintf "Structured-logging overhead on the serve path (--jobs %d)"
       jobs);
  let log_file = Filename.temp_file "rvu-perf-log" ".ndjson" in
  Fun.protect ~finally:(fun () -> try Sys.remove log_file with Sys_error _ -> ())
  @@ fun () ->
  let drive = drive ~jobs ~log_file in
  let timings =
    Util.ab ~id:"perf-log"
      [
        drive "off" None;
        drive "info" (Some (Log.Info, 0, 1));
        drive "debug+flight" (Some (Log.Debug, 64, 2));
      ]
  in
  let off_wall = fastest_pass timings.(0)
  and info_wall = fastest_pass timings.(1)
  and debug_wall = fastest_pass timings.(2) in
  let info_records = requests and debug_records = 2 * requests in
  let per_record_s = per_record_cost ~log_file in
  (* The gated number: what the info drive's records cost, as a share of
     the fastest un-logged pass's wall per drive. *)
  let share records =
    float_of_int records *. per_record_s /. Float.max 1e-9 off_wall *. 100.0
  in
  let info_overhead = share info_records in
  let overhead w = (w -. off_wall) /. Float.max 1e-9 off_wall *. 100.0 in
  Util.note
    "per record %.2f us -> info drive %.2f%% of serve wall (gate < 5%%); \
     record counts reconciled against the sink and the request counter."
    (per_record_s *. 1e6) info_overhead;
  let pass_json w records =
    Wire.Obj [ ("wall_s", Wire.Float w); ("records_per_run", Wire.Int records) ]
  in
  Util.write_artifact 5
    (Wire.Obj
       [
         ("experiment", Wire.String "perf-log");
         ("requests", Wire.Int requests);
         ("rounds", Wire.Int Util.rounds);
         ("drives_per_round", Wire.Int timings.(0).units);
         ("jobs", Wire.Int jobs);
         ("off", pass_json off_wall 0);
         ("info", pass_json info_wall info_records);
         ("debug_flight", pass_json debug_wall debug_records);
         ("per_record_us", Wire.Float (per_record_s *. 1e6));
         ("info_overhead_pct", Wire.Float info_overhead);
         ("debug_overhead_pct", Wire.Float (share debug_records));
         ("info_e2e_delta_pct", Wire.Float (overhead info_wall));
         ("debug_e2e_delta_pct", Wire.Float (overhead debug_wall));
       ]);
  if info_overhead >= 5.0 then
    Printf.ksprintf failwith
      "perf-log: info-level logging costs %.2f%% of the serve wall (%d \
       records x %.2f us; gate: < 5%%)"
      info_overhead info_records (per_record_s *. 1e6);
  (* Loose end-to-end sanity net: the marginal gate above cannot see a
     regression that only bites under domain contention (e.g. an fsync per
     line), so a logged wall grossly above the un-logged one still fails. *)
  if info_wall > off_wall *. 1.5 then
    Printf.ksprintf failwith
      "perf-log: fastest info pass %.3f s per drive is >1.5x the un-logged \
       %.3f s"
      info_wall off_wall
