(* The benchmark driver: perfbench --workload NAME --seed N --seconds S
   --trace 0|1 --rvu PATH. See README.md for what each workload measures
   and why it exists. *)

open Rvu_service

let now = Rvu_obs.Clock.now_s

(* ------------------------------------------------------------------ *)
(* Arguments *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let rvu = ref "_build/default/bin/rvu.exe"

(* Span files of traced runs, inside the checkout (git ignores it). *)
let out_dir = ".perfbench_out"

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "warm-json | cold-sim | routed-zipf");
      ("--seed", Arg.Set_int seed, "request-stream seed");
      ("--seconds", Arg.Set_int seconds, "length of the timed phase");
      ("--trace", Arg.Set_int trace, "1: report per-layer metrics from a replay");
      ("--rvu", Arg.Set_string rvu, "the rvu binary under test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1"

(* ------------------------------------------------------------------ *)
(* Workload configuration *)

(* A run is a sequence of rounds, each on fresh serving processes. *)
type rounds =
  | Slices of int  (** this many rounds, each timed for seconds / n *)
  | Cycles of int
      (** rounds of exactly this many timed requests (one pass over the
          cold-sim pool, so every round has the same mix of instance
          costs) until the timed wall time reaches the run's seconds *)

type config = {
  wire : Wire_bin.mode;
  window : int;  (** closed-loop requests outstanding *)
  routed : bool;
  replay_timed : int;  (** timed requests the traced replay covers *)
  check_every : int;  (** output-check sample: 1 checks every response *)
  rounds : rounds;
  client_cpus : string option;  (** [taskset -c] list for the client *)
  server_cpus : string option;  (** and for the serving processes *)
}

let config_of = function
  | "warm-json" ->
      {
        wire = Wire_bin.Json;
        window = 8;
        routed = false;
        replay_timed = 2000;
        check_every = 1;
        rounds = Slices 20;
        client_cpus = Some "0";
        server_cpus = Some "1";
      }
  | "cold-sim" ->
      (* One request at a time: client and server share one CPU, where a
         second outstanding request only wakes the server's I/O domain
         in the middle of the worker's computation. Against a window of
         2 in three interleaved pairs, the server was busy 98% of the
         time instead of 95%, throughput rose 3-7% and p99 fell from
         5.2-5.7 to 3.3-3.5 ms, now the instances' own cost rather than
         which instance happened to run ahead. *)
      {
        wire = Wire_bin.Json;
        window = 1;
        routed = false;
        replay_timed = 1000;
        check_every = 8;
        rounds = Cycles Gen.cold_pool;
        client_cpus = Some "1";
        server_cpus = Some "1";
      }
  | "routed-zipf" ->
      {
        wire = Wire_bin.Binary;
        window = 8;
        routed = true;
        replay_timed = 1000;
        check_every = 1;
        rounds = Slices 10;
        client_cpus = Some "0";
        server_cpus = Some "0-1";
      }
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

(* ------------------------------------------------------------------ *)
(* Small helpers *)

(* A fixed loop owned by the benchmark, timed at the start of each run so
   host drift shows in the record. Never used to scale or drop a run. *)
let calibrate () =
  let t0 = now () in
  let x = ref 0 in
  for i = 1 to 20_000_000 do
    x := (!x * 1103515245) + i land 0xffff
  done;
  ignore (Sys.opaque_identity !x);
  (now () -. t0) *. 1000.0

let rec at w = function
  | [] -> Some w
  | k :: rest -> Option.bind (Wire.member k w) (fun v -> at v rest)

let num w path =
  match at w path with
  | Some (Wire.Int n) -> float_of_int n
  | Some (Wire.Float f) -> f
  | _ -> nan

let ok_body w =
  match Wire.member "ok" w with
  | Some b -> b
  | None -> failwith ("request failed: " ^ Wire.print w)

(* ------------------------------------------------------------------ *)
(* The serving processes *)

type round = {
  setup_s : float;  (** spawn to the last warm-up response *)
  ok : int;
  lats : float array;  (** sorted send-to-response seconds *)
  wall : float;  (** timed part, first send to last response *)
  cpu : float;  (** serving processes' CPU seconds in the timed part *)
  rss : float;  (** serving processes' summed VmHWM, MiB *)
  before : Wire.t;  (** stats around the timed part *)
  after : Wire.t;
  warm : string array;  (** set-up responses *)
  argv : string array;
}

(* CPU placement on a 2-CPU host, chosen per workload from interleaved
   runs. warm-json: the client on CPU 0 and rvu serve alone on CPU 1,
   where it is busy about 90% of the time; both on one CPU cost two
   context switches per request and moved throughput by 25% across
   seeds where this placement moved it by 1%, and unpinned processes
   let the host's vCPU stalls into p99. cold-sim: the client and rvu
   serve both on CPU 1; the client is almost always idle, and with only
   one busy vCPU p99 was lower and steadier than with the client on
   CPU 0. routed-zipf: the client on CPU 0, the router and its workers
   on both CPUs so the shards compute in parallel; an unpinned client
   moved p50 by 13% between runs, a pinned one by 1%. *)
let on_path name =
  List.find_map
    (fun dir ->
      let f = Filename.concat dir name in
      if Sys.file_exists f then Some f else None)
    (String.split_on_char ':' (Option.value (Sys.getenv_opt "PATH") ~default:""))

let taskset = on_path "taskset"
let chrt = on_path "chrt"
let setpriv = on_path "setpriv"

(* Read before the client pins itself, which narrows what the runtime
   sees. *)
let nproc = Domain.recommended_domain_count ()

let pinned cpus =
  match (taskset, cpus) with
  | Some t, Some c when nproc >= 2 -> Some (t, c)
  | _ -> None

(* Set this process's CPUs (all its threads). The replay widens them
   back to every CPU, so its in-process servers and schedulers do not
   share the client's one CPU. *)
let pin_client cpus =
  match pinned cpus with
  | Some (t, c) ->
      let p = Proc.spawn [| t; "-a"; "-p"; "-c"; c; string_of_int (Unix.getpid ()) |] in
      if not (Proc.reap p) then failwith "taskset could not set the client's CPUs"
  | None -> ()

(* A halted vCPU of this VM waits for the host to schedule it again when
   a process on the other CPU wakes one on it, and under host load that
   wait dominated warm-json: in four interleaved pairs of runs, throughput
   fell to 10-12k/s and p99 rose to 9-11 ms without the loops below,
   against 30-33k/s and 0.6-0.7 ms with them. So while a run measures,
   a workload whose client and servers sit on different CPUs runs a
   shell busy loop at SCHED_IDLE priority on each of those CPUs, as
   idle=poll would: the CPU never halts, and any other process preempts
   the loop as soon as it wakes. cold-sim, all on one CPU, wakes nothing
   across CPUs, and a loop there raised its p99 in three of four pairs.
   The loop gets SIGKILL when the benchmark dies, however it dies. *)
let keep_busy cfg =
  (* The CPUs in "0", "1" and "0-1", the lists placements use. *)
  let cpus spec =
    match List.map int_of_string (String.split_on_char '-' spec) with
    | [ a; b ] -> List.init (b - a + 1) (fun i -> a + i)
    | l -> l
  in
  match (taskset, chrt, setpriv) with
  | Some t, Some c, Some s when nproc >= 2 && cfg.client_cpus <> cfg.server_cpus ->
      List.concat_map cpus (List.filter_map Fun.id [ cfg.client_cpus; cfg.server_cpus ])
      |> List.sort_uniq compare
      |> List.map (fun cpu ->
             let cpu = string_of_int cpu in
             ( cpu,
               Proc.spawn
                 [|
                   t; "-c"; cpu; c; "-i"; "0"; s; "--pdeathsig"; "KILL"; "sh"; "-c"; "while :; do :; done";
                 |] ))
  | _ -> []

let argv_of cfg ports =
  let p = string_of_int in
  Array.of_list
    ((match pinned cfg.server_cpus with Some (t, c) -> [ t; "-c"; c ] | None -> [])
    @
    if cfg.routed then
      [
        !rvu; "router"; "--tcp"; p ports; "--workers"; "2"; "--worker-base-port";
        p (ports + 1); "--jobs"; "1"; "--wire"; "binary"; "--connections"; "1";
      ]
    else [ !rvu; "serve"; "--tcp"; p ports; "--jobs"; "1"; "--connections"; "1" ])

(* ------------------------------------------------------------------ *)
(* Expected answers: the library's own result for each request *)

let payload_of cache (w : Gen.t) i =
  match cache.(i) with
  | Some p -> p
  | None ->
      let p = Payload.of_wire (Handler.run w.Gen.requests.(i)) in
      cache.(i) <- Some p;
      p

let expected_bytes ~wire p id =
  let ctx = Rvu_obs.Ctx.derive (Wire.Int id) in
  match wire with
  | Wire_bin.Json -> Payload.ok_json p ~ctx ~id:(Wire.Int id)
  | Wire_bin.Binary -> Payload.ok_bin p ~ctx ~id:(Wire.Int id)

(* Is this an ok response for [id]? A prefix test on JSON; binary
   responses are decoded (they are all checked in full anyway). *)
let is_ok ~wire id resp =
  match wire with
  | Wire_bin.Json ->
      let pre = Printf.sprintf "{\"id\":%d,\"ctx\":\"req-%d\",\"ok\":" id id in
      String.length resp > String.length pre
      && String.sub resp 0 (String.length pre) = pre
  | Wire_bin.Binary -> (
      match Client.decode ~wire resp with
      | Ok v -> Wire.member "ok" v <> None
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* One run *)

let () =
  let cfg = config_of !workload in
  let wire = cfg.wire in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  pin_client cfg.client_cpus;
  let calib_ms = calibrate () in
  let w = Gen.make !workload ~seed:!seed ~seconds:!seconds in
  (* Determinism self-check of the request stream. *)
  let digest_n = 4096 in
  let d1 = Gen.digest w digest_n in
  let d2 = Gen.digest (Gen.make !workload ~seed:!seed ~seconds:!seconds) digest_n in
  let d3 = Gen.digest (Gen.make !workload ~seed:(!seed + 1) ~seconds:!seconds) digest_n in
  if d1 <> d2 then fail "same seed gave a different request stream";
  if d1 = d3 then fail "a different seed gave the same request stream";
  let templates = Array.map (Client.template ~wire) w.Gen.requests in
  let payloads = Array.make (Array.length w.Gen.requests) None in
  let nwarm = Array.length w.Gen.warmup in
  (* Expected answers outside every timed phase: all of them where every
     response is checked, the set-up ones otherwise. *)
  if cfg.check_every = 1 then
    Array.iteri (fun i _ -> ignore (payload_of payloads w i)) w.Gen.requests
  else Array.iter (fun i -> ignore (payload_of payloads w i)) w.Gen.warmup;
  let mismatches = ref 0 and failed = ref 0 in
  let check ~idx ~id resp =
    if not (String.equal resp (expected_bytes ~wire (payload_of payloads w idx) id))
    then
      if is_ok ~wire id resp then incr mismatches else incr failed
  in
  let lat = ref (Array.make 4096 0.0) and nlat = ref 0 in
  let record_latency dt =
    if !nlat >= Array.length !lat then begin
      let a = Array.make (2 * !nlat) 0.0 in
      Array.blit !lat 0 a 0 !nlat;
      lat := a
    end;
    !lat.(!nlat) <- dt;
    incr nlat
  in
  (* The current round's latencies, sorted. *)
  let take_latencies () =
    let a = Array.sub !lat 0 !nlat in
    nlat := 0;
    Array.sort compare a;
    a
  in
  let keep = Array.make cfg.replay_timed "" in
  let cold_sample = ref [] in
  let sent = ref 0 in
  (* One round: a fresh serving process, set up, timed, then torn down.
     The timed stream continues across rounds. *)
  let round () =
    let port = Proc.free_ports (if cfg.routed then 3 else 1) in
    let argv = argv_of cfg port in
    let proc = Proc.spawn argv in
    Proc.await_listening proc;
    let conn = Client.connect ~port ~wire in
    let workers = if cfg.routed then Proc.adopt_children proc.Proc.pid else [] in
    let pids = proc.Proc.pid :: workers in
    let warm = Array.make nwarm "" in
    ignore
      (Client.closed_loop conn ~window:cfg.window ~first_id:1 ~count:nwarm
         ~request:(fun k -> Client.bytes ~wire templates.(w.Gen.warmup.(k)) (k + 1))
         ~on_response:(fun k resp _ -> warm.(k) <- resp)
         ());
    let setup_s = now () -. proc.Proc.spawned_at in
    Array.iteri (fun k resp -> check ~idx:w.Gen.warmup.(k) ~id:(k + 1) resp) warm;
    let stats () =
      ok_body (Client.call conn (Wire.Obj [ ("id", Wire.Int (-1)); ("kind", Wire.String "stats") ]))
    in
    let before = stats () in
    let cpu0 = List.fold_left (fun a p -> a +. Proc.cpu_s p) 0.0 pids in
    let k0 = !sent and failed0 = !failed in
    let first_id = nwarm + 1 + k0 in
    let t_last = ref 0.0 in
    let t0 = now () in
    let deadline, count =
      match cfg.rounds with
      | Slices n -> (Some (t0 +. (float_of_int !seconds /. float_of_int n)), w.Gen.timed_cap - k0)
      | Cycles c -> (None, min c (w.Gen.timed_cap - k0))
    in
    let n =
      Client.closed_loop conn ~window:cfg.window ~first_id ?deadline ~count
        ~request:(fun k -> Client.bytes ~wire templates.(w.Gen.timed (k0 + k)) (first_id + k))
        ~on_response:(fun k resp dt ->
          t_last := now ();
          record_latency dt;
          let k = k0 + k and id = first_id + k in
          if k < cfg.replay_timed then keep.(k) <- resp;
          if cfg.check_every = 1 then check ~idx:(w.Gen.timed k) ~id resp
          else begin
            if not (is_ok ~wire id resp) then incr failed;
            if Hashtbl.hash (!seed, k) mod cfg.check_every = 0 then
              cold_sample := (k, resp) :: !cold_sample
          end)
        ()
    in
    sent := k0 + n;
    let wall = !t_last -. t0 in
    let cpu = List.fold_left (fun a p -> a +. Proc.cpu_s p) 0.0 pids -. cpu0 in
    let after = stats () in
    let rss = List.fold_left (fun a p -> a +. Proc.peak_rss_mb p) 0.0 pids in
    (* Process hygiene: close the only connection, reap, and fail the run
       if any process this round started is still alive. *)
    Client.close conn;
    if not (Proc.reap proc) then
      fail "%s did not exit cleanly" (String.concat " " (Array.to_list argv));
    let n_left = Proc.kill_survivors pids in
    if n_left > 0 then fail "%d rvu process(es) outlived the run" n_left;
    let ok = n - (!failed - failed0) in
    { setup_s; ok; lats = take_latencies (); wall; cpu; rss; before; after; warm; argv }
  in
  let keepers = keep_busy cfg in
  let rounds =
    match cfg.rounds with
    | Slices n -> List.init n (fun _ -> round ())
    | Cycles _ ->
        let rec go acc timed =
          if timed >= float_of_int !seconds || !sent >= w.Gen.timed_cap then List.rev acc
          else
            let r = round () in
            go (r :: acc) (timed +. r.wall)
        in
        go [] 0.0
  in
  List.iter (fun (_, p) -> ignore (Proc.reap ~timeout_s:0.0 p)) keepers;
  let sent = !sent in
  (* Sampled output check, computed after the timed phase. *)
  List.iter
    (fun (k, resp) -> check ~idx:(w.Gen.timed k) ~id:(nwarm + 1 + k) resp)
    !cold_sample;
  let checked = if cfg.check_every = 1 then sent else List.length !cold_sample in
  let sum f = List.fold_left (fun a r -> a +. f r) 0.0 rounds in
  let agg v = Option.value (Wire.member "aggregate" v) ~default:v in
  let d path = sum (fun r -> num (agg r.after) path -. num (agg r.before) path) in
  let shards field v =
    match at v [ "router"; "shards" ] with
    | Some (Wire.List l) -> List.map (fun sh -> num sh [ field ]) l
    | _ -> []
  in
  let d_router f = sum (fun r -> f r.after -. f r.before) in
  let total l = List.fold_left ( +. ) 0.0 l in
  let shed = d [ "process"; "sched_shed" ] in
  let timeouts = d [ "process"; "sched_timeouts" ] in
  let retried, evicted =
    if cfg.routed then
      ( d_router (fun v -> num v [ "router"; "requests"; "retried" ]),
        d_router (fun v -> total (shards "evicted" v)) )
    else (0.0, 0.0)
  in
  (* Run-validity counters count as failed requests. *)
  let invalid = int_of_float (shed +. timeouts +. retried +. evicted) in
  let failed_total = !failed + invalid in
  let ok = sent - !failed in
  let nreq = float_of_int sent in
  let wall = sum (fun r -> r.wall) in
  let hit_ratio = 1.0 -. (d [ "process"; "sched_admitted" ] /. nreq) in
  (match !workload with
  | "warm-json" when hit_ratio <> 1.0 -> fail "warm-json hit ratio %g, not 1" hit_ratio
  | "cold-sim" when hit_ratio <> 0.0 -> fail "cold-sim hit ratio %g, not 0" hit_ratio
  | _ -> ());
  if !mismatches > 0 then fail "%d response(s) differ from the library's answer" !mismatches;
  (* Timings are per round (one set of serving processes) and the run
     reports their median over rounds, so one slow phase of the shared
     host moves one round, not the run. Every round has over a thousand
     latency samples, so its p99 has ten or more beyond it. Peak RSS is
     no timing: it spreads over 20-24 MB from one serve process to the
     next, so the run reports its mean over rounds, which a median would
     flip between the ends of. *)
  let med f = Report.median (List.map f rounds) in
  let e2e =
    [
      ("setup_s", med (fun r -> r.setup_s), "s");
      ("throughput_per_s", med (fun r -> float_of_int r.ok /. r.wall), "1/s");
      ("latency_p50_ms", 1000.0 *. med (fun r -> Report.percentile r.lats 0.5), "ms");
      ("latency_p99_ms", 1000.0 *. med (fun r -> Report.percentile r.lats 0.99), "ms");
      ("alloc_words_per_req", d [ "runtime"; "minor_words" ] /. nreq, "words");
      ("peak_rss_mb", sum (fun r -> r.rss) /. float_of_int (List.length rounds), "MB");
    ]
  in
  let routed_share =
    if cfg.routed then
      let per_shard =
        List.fold_left
          (fun acc r -> List.map2 ( +. ) acc (List.map2 ( -. ) (shards "routed" r.after) (shards "routed" r.before)))
          [ 0.0; 0.0 ] rounds
      in
      Some (List.fold_left max 0.0 per_shard /. total per_shard)
    else None
  in
  let live =
    {
      Report.hit_ratio;
      evictions_per_kreq = 1000.0 *. d [ "cache"; "evictions" ] /. nreq;
      util = sum (fun r -> r.cpu) /. wall;
      shed;
      timeouts;
      retried;
      evicted;
      routed_share;
      minor_per_kreq = 1000.0 *. d [ "runtime"; "minor_collections" ] /. nreq;
      major_per_kreq = 1000.0 *. d [ "runtime"; "major_collections" ] /. nreq;
      top_heap_mb = med (fun r -> num (agg r.after) [ "runtime"; "top_heap_words" ]) *. 8.0 /. 1048576.0;
      realized = med (fun r -> num (agg r.after) [ "streams"; "universal"; "realized" ]);
    }
  in
  let first = List.hd rounds in
  let layer =
    if !trace = 0 then None
    else begin
      (* The replay covers the first round's set-up and the run's first
         timed requests, compared byte for byte with what was served. *)
      let ntimed = min sent cfg.replay_timed in
      let seq =
        Array.append
          (Array.mapi (fun k i -> (i, k + 1)) w.Gen.warmup)
          (Array.init ntimed (fun k -> (w.Gen.timed k, nwarm + 1 + k)))
      in
      let live_bytes = Array.append first.warm (Array.sub keep 0 ntimed) in
      if cfg.client_cpus <> None then pin_client (Some (Printf.sprintf "0-%d" (nproc - 1)));
      if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
      let span_file =
        Filename.concat out_dir (Printf.sprintf "spans-%s-%d.json" !workload !seed)
      in
      let r =
        Replay.run ~wire ~routed:cfg.routed ~requests:w.Gen.requests ~seq ~live:live_bytes
          ~counts:live ~span_file
      in
      if r.Replay.mismatches > 0 then
        fail "%d replayed response(s) differ from the served bytes" r.Replay.mismatches;
      Some r
    end
  in
  Report.print_record
    ([
       ("workload", Wire.String !workload);
       ("seed", Wire.Int !seed);
       ("seconds", Wire.Int !seconds);
       ("nproc", Wire.Int nproc);
       ("ocaml", Wire.String Sys.ocaml_version);
       ("rvu_argv", Wire.List (List.map (fun a -> Wire.String a) (Array.to_list first.argv)));
       ("window", Wire.Int cfg.window);
       ( "cpus",
         Wire.Obj
           (List.map
              (fun (who, cpus) ->
                (who, match pinned cpus with Some (_, c) -> Wire.String c | None -> Wire.Null))
              [ ("client", cfg.client_cpus); ("server", cfg.server_cpus) ]) );
       ("cpus_kept_busy", Wire.List (List.map (fun (c, _) -> Wire.String c) keepers));
       ("rounds", Wire.Int (List.length rounds));
       ("host.calib_ms", Wire.Float calib_ms);
       ("stream_digest", Wire.String d1);
       ("setup_s_each", Wire.List (List.map (fun r -> Wire.Float r.setup_s) rounds));
       ( "throughput_each",
         Wire.List (List.map (fun r -> Wire.Float (float_of_int r.ok /. r.wall)) rounds) );
       ( "requests",
         Wire.Obj [ ("sent", Wire.Int sent); ("ok", Wire.Int ok); ("failed", Wire.Int failed_total) ] );
       ("latency_samples_each", Wire.List (List.map (fun r -> Wire.Int (Array.length r.lats)) rounds));
       ( "p50_each",
         Wire.List (List.map (fun r -> Wire.Float (1000.0 *. Report.percentile r.lats 0.5)) rounds) );
       ( "p99_each",
         Wire.List (List.map (fun r -> Wire.Float (1000.0 *. Report.percentile r.lats 0.99)) rounds) );
       ("checked_responses", Wire.Int checked);
       ("mismatches", Wire.Int !mismatches);
       ("sched.shed", Wire.Float shed);
       ("sched.timeouts", Wire.Float timeouts);
       ("router.retried", Wire.Float retried);
       ("router.evicted", Wire.Float evicted);
       ("lru.hit_ratio", Wire.Float hit_ratio);
       ("server.util", Wire.Float live.Report.util);
     ]
    @ (match layer with
      | Some r ->
          [
            ("span_file", Wire.String r.Replay.span_file);
            ( "layer_samples",
              Wire.Obj (List.map (fun (n, c) -> (n, Wire.Int c)) r.Replay.samples) );
          ]
      | None -> [])
    @ [ ("failures", Wire.List (List.rev_map (fun s -> Wire.String s) !failures)) ]);
  let metrics = match layer with Some r -> r.Replay.metrics | None -> e2e in
  Report.print_result ~correct:(!failures = []) ~attempted:sent ~failed:failed_total metrics
