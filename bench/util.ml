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

(* All harness timing is monotonic, not Unix.gettimeofday: wall-clock
   adjustments (NTP slew, manual changes) must not skew speedup ratios. *)
let now_s = Rvu_obs.Clock.now_s

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

(* ------------------------------------------------------------------ *)
(* The A/B driver: every experiment that compares timed configurations
   of one workload runs them through [ab]. *)

let rounds = 10

(* The least wall each configuration's units add up to in a round: long
   enough that one scheduler hiccup is a small share of it, whatever one
   unit of work costs on the machine at hand. *)
let floor_s = 0.25

(* One configuration: [setup] before each unit of work [run] and [finish]
   after it, both off the clock; [finish] sees the unit's result. *)
type 'a config = {
  name : string;
  setup : unit -> unit;
  run : unit -> 'a;
  finish : 'a -> unit;
}

let config ?(setup = ignore) ?(finish = ignore) name run =
  { name; setup; run; finish }

(* A configuration's timing. Walls and costs are per unit of work;
   ratios and costs are to the first configuration, round by round. *)
type 'a timing = {
  name : string;
  units : int;  (* median units per round *)
  walls : float array;  (* one per round *)
  wall : float;  (* median of [walls] *)
  ratio : float;  (* median per-round ratio, with its quartiles *)
  ratio_q1 : float;
  ratio_q3 : float;
  cost : float;  (* median per-round wall minus the first's *)
  results : 'a array array;  (* every timed unit's, round by round *)
}

let quartiles xs =
  let p q = Rvu_numerics.Stats.percentile q (Array.to_list xs) in
  (p 25.0, p 50.0, p 75.0)

(* Round [r]: turns of one unit per configuration, in reversed order on
   every other turn, each unit from a collected heap; a configuration
   sits out once its units add up to [floor_s], and the round ends when
   every one has. Interleaving unit by unit lands a drift in the host's
   speed on every configuration alike. Returns each configuration's
   summed wall and its units' results. *)
let round configs r =
  let n = Array.length configs in
  let sums = Array.make n 0.0 and results = Array.make n [] in
  let turn = ref r in
  while Array.exists (fun s -> s < floor_s) sums do
    for k = 0 to n - 1 do
      let i = if !turn mod 2 = 0 then k else n - 1 - k in
      if sums.(i) < floor_s then begin
        let c = configs.(i) in
        c.setup ();
        Gc.full_major ();
        let t0 = now_s () in
        let x = c.run () in
        sums.(i) <- sums.(i) +. (now_s () -. t0);
        c.finish x;
        results.(i) <- x :: results.(i)
      end
    done;
    incr turn
  done;
  (sums, Array.map (fun xs -> Array.of_list (List.rev xs)) results)

(* A configuration's untimed warm-up pass repeats its unit, at least
   twice, until the pass reaches [floor_s]: the first units pay
   first-touch costs the others do not. *)
let warm_up c =
  let t0 = now_s () in
  let rec go k =
    if k < 2 || now_s () -. t0 < floor_s then begin
      c.setup ();
      c.finish (c.run ());
      go (k + 1)
    end
  in
  go 0

(* Every configuration's warm-up pass, one after another, then [rounds]
   timed rounds. The warm-up's shape carries into the timed rounds: a
   warm-up interleaved like them read perf-compile's ratio at 4.4-5.3x
   where this one reads 3.3-3.7x, as the earlier alternating pairs did.
   Prints one table under [id]. *)
let ab ~id configs =
  let configs = Array.of_list configs in
  Array.iter warm_up configs;
  let timed = Array.init rounds (round configs) in
  let per_round f i =
    Array.map (fun (sums, results) -> f sums.(i) results.(i)) timed
  in
  let results = per_round (fun _ xs -> xs) in
  let units = per_round (fun _ xs -> float_of_int (Array.length xs)) in
  let walls = per_round (fun s xs -> s /. float_of_int (Array.length xs)) in
  let module T = Rvu_report.Table in
  let t =
    T.create
      ~columns:
        (List.map T.column
           [
             "config"; "units/round"; "wall/unit (s)"; "ratio p50";
             "ratio p25-p75"; "cost/unit (s)";
           ])
  in
  let ratios i = Array.map2 ( /. ) (walls i) (walls 0) in
  let timings =
    Array.mapi
      (fun i (c : _ config) ->
        let _, units, _ = quartiles (units i) in
        let units = int_of_float (Float.round units) in
        let ratio_q1, ratio, ratio_q3 = quartiles (ratios i) in
        let _, wall, _ = quartiles (walls i) in
        let _, cost, _ = quartiles (Array.map2 ( -. ) (walls i) (walls 0)) in
        T.add_row t
          [
            c.name; T.istr units; T.fstr wall; T.fstr ratio;
            Printf.sprintf "%.3f to %.3f" ratio_q1 ratio_q3; T.fstr cost;
          ];
        {
          name = c.name; units; walls = walls i; wall; ratio; ratio_q1;
          ratio_q3; cost; results = results i;
        })
      configs
  in
  table ~id t;
  for i = 1 to Array.length configs - 1 do
    note "per-round %s/%s ratio: %s" configs.(i).name configs.(0).name
      (String.concat " "
         (Array.to_list (Array.map (Printf.sprintf "%.3f") (ratios i))))
  done;
  timings

(* Every timed unit's batch results, in every configuration, must be
   bit-identical (outcomes and stats) to the first configuration's first.
   [name] prefixes the failure, which names the configuration that
   diverged. *)
let check_identical ~name (timings : Rvu_sim.Engine.result array timing array)
    =
  let reference = timings.(0).results.(0).(0) in
  let same (results : Rvu_sim.Engine.result array) =
    Array.length results = Array.length reference
    && Array.for_all2
         (fun (x : Rvu_sim.Engine.result) (y : Rvu_sim.Engine.result) ->
           x.outcome = y.outcome && x.stats = y.stats)
         reference results
  in
  Array.iter
    (fun t ->
      if not (Array.for_all (Array.for_all same) t.results) then
        Printf.ksprintf failwith "%s: %s results diverge from %s's" name
          t.name timings.(0).name)
    timings

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
