(* The traced replay: the benchmark calls each layer's public functions
   itself, in the order the server composes them, on the requests the
   live run served, and records one span per call. The program under test
   is not instrumented; these spans measure the benchmark's own calls.

   Per request, in order:
   + Wire.parse on the JSON line; Wire_bin.scan_request and Wire_bin.decode
     on the binary payload;
   + Frame.bin_routing_parts, Ring.pick, Frame.bin_forward_parts (the
     router's half; on an unrouted workload the pick is ignored);
   + Proto.request_of_wire, Proto.canonical_key, Lru.find on the picked
     shard's cache;
   + on a miss, Handler.run, then its stages called directly:
     Unknown_attributes.reference_source (Stream_cache.compiled_source)
     and Engine.run_with_source for the paper's model, and the registry
     instance's run for every simulate;
   + Payload.ok_json and Payload.ok_bin, then Frame.bin_splice_response
     on the worker-shaped binary response;
   + Server.handle_sync / handle_payload_sync and Sched.submit on
     in-process instances with the served configuration, one per shard.

   Every layer is called on every workload, so each per-layer metric has
   samples everywhere; the served path decides which composed bytes are
   compared with the live response. *)

open Rvu_service
module Frame = Rvu_cluster.Frame
module Ring = Rvu_cluster.Ring

(* ------------------------------------------------------------------ *)
(* Spans *)

type span = {
  name : string;
  kind : string;  (** request kind, on request and handler.run spans *)
  req : int;  (** client request id *)
  parent : int;  (** index of the enclosing span; -1 for a request *)
  mutable t0 : float;  (** monotonic microseconds *)
  mutable t1 : float;
  mutable words : float;  (** minor words allocated on this domain *)
}

let recording = ref false
let spans = ref [||]
let nspans = ref 0

(* Words the measurement itself allocates, subtracted from every span. *)
let words_overhead = ref 0.0

let push s =
  if !nspans >= Array.length !spans then begin
    let a = Array.make (max 1024 (2 * !nspans)) s in
    Array.blit !spans 0 a 0 !nspans;
    spans := a
  end;
  !spans.(!nspans) <- s;
  incr nspans;
  !nspans - 1

let now_us = Rvu_obs.Clock.now_us

(* [timed name ~parent ~req f] runs [f] and, while recording, stores its
   span. *)
let timed ?(kind = "") name ~parent ~req f =
  if not !recording then f ()
  else begin
    let w0 = Gc.minor_words () in
    let t0 = now_us () in
    let r = f () in
    let t1 = now_us () in
    let w1 = Gc.minor_words () in
    ignore
      (push { name; kind; req; parent; t0; t1; words = w1 -. w0 -. !words_overhead });
    r
  end

let calibrate_words () =
  recording := true;
  let best = ref infinity in
  for _ = 1 to 1000 do
    let w0 = Gc.minor_words () in
    let t0 = now_us () in
    let t1 = now_us () in
    let w1 = Gc.minor_words () in
    ignore (Sys.opaque_identity (t1 -. t0));
    best := Float.min !best (w1 -. w0)
  done;
  words_overhead := !best;
  recording := false

(* Chrome trace-event JSON (Perfetto and chrome://tracing load it). *)
let write_spans path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  for i = 0 to !nspans - 1 do
    let s = !spans.(i) in
    let args =
      [ ("req", Wire.Int s.req); ("parent", Wire.Int s.parent); ("words", Wire.Float s.words) ]
      @ if s.kind = "" then [] else [ ("kind", Wire.String s.kind) ]
    in
    output_string oc
      (Wire.print
         (Wire.Obj
            [
              ("name", Wire.String s.name);
              ("cat", Wire.String (if s.parent < 0 then "request" else "layer"));
              ("ph", Wire.String "X");
              ("ts", Wire.Float s.t0);
              ("dur", Wire.Float (s.t1 -. s.t0));
              ("pid", Wire.Int 1);
              ("tid", Wire.Int 1);
              ("args", Wire.Obj args);
            ]));
    output_string oc (if i = !nspans - 1 then "\n" else ",\n")
  done;
  output_string oc "]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* One pass over the requests *)

type engine_acc = {
  mutable runs : int;
  mutable intervals : int;
  mutable engine_us : float;
  mutable past_guarantee : int;
  mutable shallow : int list;  (** engine.run span indices, meeting rounds 1-2 *)
  mutable deep : int list;  (** rounds 4-5 *)
  mutable handoff_us : float list;
  mutable handoff_words : float list;
  mutable picks : int array;
}

let kind_label = function
  | Proto.Model_run { model; _ } -> model
  | r -> Proto.kind_string r

type pass = {
  wall_s : float;
  mismatches : int;
  acc : engine_acc;
}

let run_pass ~wire ~routed ~(requests : Proto.request array) ~seq ~live =
  let shards = if routed then 2 else 1 in
  let live_shards = Array.make 2 true in
  let config = { Server.default_config with Server.jobs = 1 } in
  let servers = Array.init shards (fun _ -> Server.create ~config ()) in
  let scheds =
    Array.init shards (fun _ ->
        Sched.create ~jobs:1 ~queue_depth:config.Server.queue_depth
          ~cache_entries:config.Server.cache_entries ())
  in
  let lrus = Array.init shards (fun _ -> Lru.create ~capacity:config.Server.cache_entries) in
  let tjson = Hashtbl.create 64 and tbin = Hashtbl.create 64 in
  let template tbl wire idx =
    match Hashtbl.find_opt tbl idx with
    | Some t -> t
    | None ->
        let t = Client.template ~wire requests.(idx) in
        Hashtbl.add tbl idx t;
        t
  in
  let acc =
    {
      runs = 0;
      intervals = 0;
      engine_us = 0.0;
      past_guarantee = 0;
      shallow = [];
      deep = [];
      handoff_us = [];
      handoff_words = [];
      picks = Array.make 2 0;
    }
  in
  let mismatches = ref 0 in
  let lock = Mutex.create () and fired = Condition.create () in
  let t_start = now_us () in
  Array.iteri
    (fun n (idx, id) ->
      let request = requests.(idx) in
      let kind = kind_label request in
      let line = Client.bytes ~wire:Wire_bin.Json (template tjson Wire_bin.Json idx) id in
      let bin = Client.bytes ~wire:Wire_bin.Binary (template tbin Wire_bin.Binary idx) id in
      let rid = n + 1 in
      let rid_bytes = Wire_bin.encode (Wire.Int rid) in
      let root =
        if !recording then
          push { name = "request"; kind; req = id; parent = -1; t0 = now_us (); t1 = 0.0; words = 0.0 }
        else -1
      in
      let sp ?kind name f = timed ?kind name ~parent:root ~req:id f in
      (* wire *)
      let w_json = sp "wire.parse" (fun () -> Wire.parse line) in
      ignore (sp "wire_bin.scan" (fun () -> Wire_bin.scan_request bin));
      let w_bin = sp "wire_bin.decode" (fun () -> Wire_bin.decode bin) in
      let w =
        match (wire, w_json, w_bin) with
        | Wire_bin.Json, Ok w, _ | Wire_bin.Binary, _, Ok w -> w
        | _ -> failwith "replay: request did not decode"
      in
      (* router, front half *)
      let parts = sp "frame.route" (fun () -> Frame.bin_routing_parts bin) in
      let pick = sp "ring.pick" (fun () -> Ring.pick ~live:live_shards ~parts) in
      let pre, post = sp "frame.forward" (fun () -> Frame.bin_forward_parts bin) in
      let pick = Option.value pick ~default:0 in
      acc.picks.(pick) <- acc.picks.(pick) + 1;
      let shard = if routed then pick else 0 in
      (* decode, key, cache *)
      let env =
        match sp "proto.decode" (fun () -> Proto.request_of_wire w) with
        | Ok env -> env
        | Error e -> failwith ("replay: " ^ e)
      in
      let key = sp "proto.key" (fun () -> Proto.canonical_key env.Proto.request) in
      let cached = sp "lru.find" (fun () -> Lru.find lrus.(shard) key) in
      let p =
        match cached with
        | Some p -> p
        | None ->
            let v = sp ~kind "handler.run" (fun () -> Handler.run env.Proto.request) in
            (match env.Proto.request with
            | Proto.Simulate s when Rvu_core.Symmetry.is_identity s.Proto.transform ->
                let reference =
                  sp "stream_cache.compiled_source" (fun () ->
                      Rvu_model.Unknown_attributes.reference_source
                        ~algorithm4:s.Proto.algorithm4)
                in
                let inst =
                  Rvu_sim.Engine.instance ~attributes:s.Proto.attrs
                    ~displacement:(Rvu_geom.Vec2.of_polar ~radius:s.Proto.d ~angle:s.Proto.bearing)
                    ~r:s.Proto.r
                in
                let program =
                  if s.Proto.algorithm4 then Rvu_search.Algorithm4.program ()
                  else Rvu_core.Universal.program ()
                in
                let i = !nspans in
                let e0 = now_us () in
                let res =
                  sp "engine.run" (fun () ->
                      Rvu_sim.Engine.run_with_source ~horizon:s.Proto.horizon ~reference
                        ~program inst)
                in
                acc.engine_us <- acc.engine_us +. (now_us () -. e0);
                acc.runs <- acc.runs + 1;
                acc.intervals <- acc.intervals + res.Rvu_sim.Engine.stats.Rvu_sim.Detector.intervals;
                (match res.Rvu_sim.Engine.outcome with
                | Rvu_sim.Detector.Hit t -> (
                    (match res.Rvu_sim.Engine.bound.Rvu_core.Universal.time with
                    | Some bt when t > bt -> acc.past_guarantee <- acc.past_guarantee + 1
                    | _ -> ());
                    match Rvu_core.Phases.phase_at t with
                    | Some (r, _) when r <= 2 -> acc.shallow <- i :: acc.shallow
                    | Some (r, _) when r >= 4 -> acc.deep <- i :: acc.deep
                    | _ -> ())
                | _ -> ())
            | _ -> ());
            (match env.Proto.request with
            | Proto.Simulate s ->
                ignore (sp "model.run" (fun () -> Rvu_model.Unknown_attributes.run s))
            | Proto.Model_run { instance; _ } ->
                ignore (sp "model.run" (fun () -> instance.Rvu_model.Model.run ()))
            | _ -> ());
            let p = Payload.of_wire v in
            Lru.add lrus.(shard) key p;
            p
      in
      (* encode, then the router's splice of a worker-shaped response *)
      let ctx = Rvu_obs.Ctx.derive (Wire.Int id) in
      let ok_json = sp "payload.ok_json" (fun () -> Payload.ok_json p ~ctx ~id:(Wire.Int id)) in
      let ok_bin = sp "payload.ok_bin" (fun () -> Payload.ok_bin p ~ctx ~id:(Wire.Int id)) in
      let id_bytes = Wire_bin.encode (Wire.Int id) in
      let ctx_bytes = Wire_bin.encode (Wire.String ctx) in
      let splice worker =
        match Frame.bin_response_spans worker with
        | Some (_, id_span, ctx_span) ->
            Frame.bin_splice_response worker ~id_span ~ctx_span ~id:id_bytes ~ctx:ctx_bytes
        | None -> failwith "replay: worker response has no id/ctx spans"
      in
      let worker =
        Payload.ok_bin p ~ctx:(Rvu_obs.Ctx.derive (Wire.Int rid)) ~id:(Wire.Int rid)
      in
      let spliced = sp "frame.splice" (fun () -> splice worker) in
      let composed =
        if routed then spliced
        else match wire with Wire_bin.Json -> ok_json | Wire_bin.Binary -> ok_bin
      in
      (* the in-process server and scheduler *)
      let handled =
        match wire with
        | Wire_bin.Json -> sp "server.handle" (fun () -> Server.handle_sync servers.(shard) line)
        | Wire_bin.Binary ->
            let forwarded = String.concat "" [ pre; rid_bytes; post ] in
            splice
              (sp "server.handle" (fun () ->
                   Server.handle_payload_sync servers.(shard) forwarded))
      in
      let k_at = ref nan in
      let w0 = Gc.minor_words () in
      let s0 = now_us () in
      sp "sched.submit" (fun () ->
          Sched.submit scheds.(shard) env ~k:(fun _ ->
              Mutex.lock lock;
              k_at := now_us ();
              Condition.signal fired;
              Mutex.unlock lock));
      let submitted_at = now_us () in
      let words = Gc.minor_words () -. w0 in
      Mutex.lock lock;
      while Float.is_nan !k_at do
        Condition.wait fired lock
      done;
      Mutex.unlock lock;
      (* A miss hands off to a worker domain; a hit completes in submit.
         The handoff subtracts the handler's own time, measured by running
         the same request again right after, as warm as the scheduler's
         run (the first handler.run above is colder). *)
      if !k_at > submitted_at then begin
        let h0 = now_us () in
        ignore (Handler.run env.Proto.request);
        let handler_us = now_us () -. h0 in
        acc.handoff_us <- (!k_at -. s0 -. handler_us) :: acc.handoff_us;
        acc.handoff_words <- words :: acc.handoff_words
      end;
      let live = live.(n) in
      if not (String.equal composed live) then incr mismatches;
      if not (String.equal handled live) then incr mismatches;
      if root >= 0 then !spans.(root).t1 <- now_us ())
    seq;
  let wall_s = (now_us () -. t_start) *. 1e-6 in
  Array.iter Server.stop servers;
  Array.iter Sched.stop scheds;
  { wall_s; mismatches = !mismatches; acc }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics *)

let layers =
  [
    "wire.parse"; "proto.decode"; "proto.key"; "lru.find"; "payload.ok_json";
    "payload.ok_bin"; "server.handle"; "server.self"; "sched.submit";
    "sched.handoff"; "stream_cache.compiled_source"; "engine.run";
    "engine.run.shallow"; "engine.run.deep"; "handler.run"; "model.run";
    "wire_bin.scan"; "wire_bin.decode"; "frame.route"; "ring.pick";
    "frame.forward"; "frame.splice";
  ]

(* The replayed children of server.handle on each wire: what the server
   itself does for the request. *)
let server_children = function
  | Wire_bin.Json ->
      [ "wire.parse"; "proto.decode"; "proto.key"; "lru.find"; "handler.run"; "payload.ok_json" ]
  | Wire_bin.Binary ->
      [
        "wire_bin.scan"; "wire_bin.decode"; "proto.decode"; "proto.key"; "lru.find";
        "handler.run"; "payload.ok_bin";
      ]

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let mean l = match l with [] -> nan | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

type result = {
  metrics : (string * float * string) list;
  samples : (string * int) list;  (** sample count behind each layer's percentiles *)
  mismatches : int;
  span_file : string;
}

let run ~wire ~routed ~requests ~seq ~live ~(counts : Report.live) ~span_file =
  calibrate_words ();
  let untraced = run_pass ~wire ~routed ~requests ~seq ~live in
  nspans := 0;
  recording := true;
  let traced = run_pass ~wire ~routed ~requests ~seq ~live in
  recording := false;
  let by_name = Hashtbl.create 32 in
  let add name dur words =
    let d, w = Option.value (Hashtbl.find_opt by_name name) ~default:([], []) in
    Hashtbl.replace by_name name (dur :: d, words :: w)
  in
  (* server.self: server.handle minus the replayed children of the same
     request. Time subtracts every child; words subtract only the children
     the server runs on the calling domain (on a miss, the handler and the
     encode run on a worker domain, whose allocation the calling domain's
     counter does not see). *)
  let children = server_children wire in
  let child_us = Hashtbl.create 1024 and child_words = Hashtbl.create 1024 in
  let missed = Hashtbl.create 1024 in
  let handle = ref [] in
  let bump tbl req x =
    Hashtbl.replace tbl req (x +. Option.value (Hashtbl.find_opt tbl req) ~default:0.0)
  in
  for i = 0 to !nspans - 1 do
    let s = !spans.(i) in
    let dur = s.t1 -. s.t0 in
    if s.parent >= 0 then add s.name dur s.words;
    if s.name = "handler.run" then Hashtbl.replace missed s.req ();
    if s.name = "server.handle" then handle := (s.req, dur, s.words) :: !handle
  done;
  for i = 0 to !nspans - 1 do
    let s = !spans.(i) in
    if List.mem s.name children then begin
      bump child_us s.req (s.t1 -. s.t0);
      let on_worker =
        Hashtbl.mem missed s.req
        && (s.name = "handler.run" || String.starts_with ~prefix:"payload." s.name)
      in
      if not on_worker then bump child_words s.req s.words
    end
  done;
  List.iter
    (fun (req, dur, words) ->
      add "server.self"
        (dur -. Option.value (Hashtbl.find_opt child_us req) ~default:0.0)
        (words -. Option.value (Hashtbl.find_opt child_words req) ~default:0.0))
    !handle;
  let acc = traced.acc in
  List.iter
    (fun (name, l) ->
      List.iter
        (fun i ->
          let s = !spans.(i) in
          add name (s.t1 -. s.t0) s.words)
        l)
    [ ("engine.run.shallow", acc.shallow); ("engine.run.deep", acc.deep) ];
  List.iter2 (fun d w -> add "sched.handoff" d w) acc.handoff_us acc.handoff_words;
  let layer_metrics =
    List.concat_map
      (fun name ->
        let d, w = Option.value (Hashtbl.find_opt by_name name) ~default:([], []) in
        let d = sorted d in
        [
          (name ^ ".p50_us", Report.percentile d 0.5, "us");
          (name ^ ".p99_us", Report.percentile d 0.99, "us");
          (name ^ ".words", mean w, "words");
        ])
      layers
  in
  let samples =
    List.map
      (fun name ->
        (name, List.length (fst (Option.value (Hashtbl.find_opt by_name name) ~default:([], [])))))
      layers
  in
  let nreq = Array.length seq in
  let picks = acc.picks in
  let max_share =
    match counts.Report.routed_share with
    | Some s -> s
    | None -> float_of_int (max picks.(0) picks.(1)) /. float_of_int (picks.(0) + picks.(1))
  in
  let c = counts in
  let metrics =
    layer_metrics
    @ [
        ("lru.hit_ratio", c.Report.hit_ratio, "ratio");
        ("lru.evictions_per_kreq", c.evictions_per_kreq, "1/kreq");
        ("server.util", c.util, "cpu_s/s");
        ("sched.shed", c.shed, "count");
        ("sched.timeouts", c.timeouts, "count");
        ("stream_cache.realized_segments", c.realized, "segments");
        ("engine.intervals_per_run", float_of_int acc.intervals /. float_of_int acc.runs, "intervals");
        ("engine.ns_per_interval", 1000.0 *. acc.engine_us /. float_of_int acc.intervals, "ns");
        ("engine.past_guarantee", float_of_int acc.past_guarantee, "count");
        ("router.retried", c.retried, "count");
        ("router.evicted", c.evicted, "count");
        ("ring.max_share", max_share, "ratio");
        ("gc.minor_per_kreq", c.minor_per_kreq, "1/kreq");
        ("gc.major_per_kreq", c.major_per_kreq, "1/kreq");
        ("gc.top_heap_mb", c.top_heap_mb, "MB");
        ( "trace.overhead_pct",
          100.0 *. (traced.wall_s -. untraced.wall_s) /. untraced.wall_s,
          "%" );
        ("replay.requests", float_of_int nreq, "count");
      ]
  in
  write_spans span_file;
  {
    metrics;
    samples;
    mismatches = untraced.mismatches + traced.mismatches;
    span_file;
  }
