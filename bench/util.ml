(* Shared helpers for the experiment harness. *)

open Rvu_geom
open Rvu_core

(* When set (via bench/main.exe's --csv flag), every experiment table is
   also written as <dir>/<id>.csv. *)
let csv_dir : string option ref = ref None

let table ~id t =
  Rvu_report.Table.print t;
  match !csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (id ^ ".csv") in
      Rvu_report.Csv.write ~path
        ~header:(Rvu_report.Table.headers t)
        (Rvu_report.Table.rows t);
      Printf.printf "(table written to %s)\n%!" path

let banner id title =
  Printf.printf "\n=============================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "=============================================================\n%!"

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* Domain count for the parallel batch layer; set by bench/main.exe's
   --jobs flag, defaults to the hardware parallelism. *)
let jobs = ref (Domain.recommended_domain_count ())

(* All harness timing is monotonic (bechamel's CLOCK_MONOTONIC stub), not
   Unix.gettimeofday: wall-clock adjustments (NTP slew, manual changes)
   must not skew speedup ratios. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let wall_clock f =
  let t0 = now_s () in
  let result = f () in
  (result, now_s () -. t0)

(* Run a rendezvous instance with the given program; fail loudly if it does
   not meet (experiments pick parameters that must meet). *)
let hit_time ?closed_forms ?resolution ?(horizon = 1e10) ~program ~attributes
    ~displacement ~r () =
  let inst = Rvu_sim.Engine.instance ~attributes ~displacement ~r in
  let res =
    Rvu_sim.Engine.run ?closed_forms ?resolution ~horizon ~program inst
  in
  match res.Rvu_sim.Engine.outcome with
  | Rvu_sim.Detector.Hit t -> (t, res)
  | Rvu_sim.Detector.Horizon h ->
      Printf.ksprintf failwith "instance unexpectedly hit the horizon %g" h
  | Rvu_sim.Detector.Stream_end t ->
      Printf.ksprintf failwith "program unexpectedly ended at %g" t

let search_time ~d ~r ~bearing =
  let target = Vec2.of_polar ~radius:d ~angle:bearing in
  match
    Rvu_sim.Search_engine.run
      ~program:(Rvu_search.Algorithm4.program ())
      ~target ~r ()
  with
  | Rvu_sim.Search_engine.Found t, stats ->
      (t, stats.Rvu_sim.Search_engine.segments)
  | _ -> failwith "search must succeed"

let describe_attrs (a : Attributes.t) =
  Format.asprintf "%a" Attributes.pp a

let verdict_string = function
  | Feasibility.Feasible Feasibility.Different_clocks -> "feasible/clocks"
  | Feasibility.Feasible Feasibility.Different_speeds -> "feasible/speeds"
  | Feasibility.Feasible Feasibility.Rotated_same_chirality -> "feasible/rotation"
  | Feasibility.Infeasible -> "infeasible"

(* ------------------------------------------------------------------ *)
(* The perf experiments' shared harness *)

module Wire = Rvu_service.Wire
module Proto = Rvu_service.Proto
module Loadgen = Rvu_service.Loadgen

(* Far past every family scenario's meeting time. *)
let horizon = 1e13

(* The scenario family behind the perf numbers: distinct Algorithm 7
   instances with asymmetric clocks, tau in [0.980, 0.990] (Theorem 3's
   regime), that meet in schedule rounds ~5-8. Scenario [i] of [n] varies
   only the bearing and tau; straying in [d] or [r] risks instances that
   run to the horizon. Experiments that share [d] and [r] serve the same
   requests, so their numbers are comparable. *)
let scenario ~n ~d ~r i : Proto.simulate =
  let bearing = 0.2 +. (2.4 *. float_of_int i /. float_of_int n) in
  let tau = 0.980 +. (0.002 *. float_of_int (i mod 6)) in
  {
    attrs = Attributes.make ~tau ();
    d;
    bearing;
    r;
    horizon;
    algorithm4 = false;
    transform = Symmetry.identity;
  }

(* The family as engine instances, for the batch-layer experiments. *)
let instances ~n ~d ~r =
  Array.init n (fun i ->
      let s = scenario ~n ~d ~r i in
      Rvu_sim.Engine.instance ~attributes:s.attrs
        ~displacement:(Vec2.of_polar ~radius:s.d ~angle:s.bearing)
        ~r:s.r)

(* A scenario as a simulate request line under envelope id [id]. *)
let line ~id s =
  Wire.print (Proto.wire_of_request ~id:(Wire.Int id) (Proto.Simulate s))

let total_intervals results =
  Array.fold_left
    (fun acc (res : Rvu_sim.Engine.result) ->
      acc + res.Rvu_sim.Engine.stats.Rvu_sim.Detector.intervals)
    0 results

let identical (a : Rvu_sim.Engine.result array)
    (b : Rvu_sim.Engine.result array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (x : Rvu_sim.Engine.result) (y : Rvu_sim.Engine.result) ->
         x.Rvu_sim.Engine.outcome = y.Rvu_sim.Engine.outcome
         && x.Rvu_sim.Engine.stats = y.Rvu_sim.Engine.stats)
       a b

(* One loadgen pass: send every line through [handle] flat out and
   summarize once every response is back. [name] prefixes the failure. *)
let drive ~name handle lines =
  let lg = Loadgen.create ~lines ~requests:(Array.length lines) () in
  Loadgen.drive lg ~send:(fun l ->
      handle l ~respond:(Loadgen.note_response lg));
  if not (Loadgen.wait lg) then
    Printf.ksprintf failwith "%s: responses missing after 120 s" name;
  Loadgen.summary lg

(* Pass summaries side by side; [key] heads the column naming each pass. *)
let summary_table ~id ~key passes =
  let module T = Rvu_report.Table in
  let t =
    T.create
      ~columns:
        (List.map T.column
           [ key; "wall (s)"; "req/s"; "p50 ms"; "p95 ms"; "p99 ms" ])
  in
  List.iter
    (fun (name, (s : Loadgen.summary)) ->
      T.add_row t
        [
          name; T.fstr s.wall_s; T.fstr s.throughput_rps; T.fstr s.p50_ms;
          T.fstr s.p95_ms; T.fstr s.p99_ms;
        ])
    passes;
  table ~id t

(* Experiment artifacts go to BENCH_<n>.json in the working directory,
   where CI's bench-diff step reads them. *)
let write_artifact n json =
  let path = Printf.sprintf "BENCH_%d.json" n in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Wire.print_hum json));
  note "(json written to %s)" path

(* Spawned workers run the real binary: resolve it next to this bench
   executable (_build/default/bench/main.exe -> ../bin/rvu.exe), or take
   RVU_BIN. *)
let rvu_bin ~name =
  match Sys.getenv_opt "RVU_BIN" with
  | Some p -> p
  | None ->
      let p =
        Filename.concat
          (Filename.dirname (Filename.dirname Sys.executable_name))
          "bin/rvu.exe"
      in
      if Sys.file_exists p then p
      else
        Printf.ksprintf failwith
          "%s: worker binary not found at %s (set RVU_BIN)" name p

(* A router endpoint that spawns `rvu serve` on [port], one job and a
   256-entry cache, plus [args]. *)
let worker ~bin ?(args = []) port =
  {
    Rvu_cluster.Router.host = "127.0.0.1";
    port;
    spawn =
      Some
        (Array.of_list
           ([
              bin; "serve"; "--tcp"; string_of_int port; "--jobs"; "1";
              "--cache-entries"; "256";
            ]
           @ args));
  }
