type config = {
  jobs : int;
  queue_depth : int;
  cache_entries : int;
  timeout_ms : float option;
  max_request_bytes : int;
  slow_ms : float option;
}

let default_config =
  {
    jobs = Rvu_exec.Pool.recommended_jobs ();
    queue_depth = 64;
    cache_entries = 256;
    timeout_ms = None;
    max_request_bytes = 1_048_576;
    slow_ms = None;
  }

(* Injection point (Rvu_obs.Fault): a torn NDJSON frame must surface as a
   structured parse error. *)
let fault_torn_frame = Rvu_obs.Fault.site "server.torn_frame"

(* A frame-cache entry: where the answer lives (the request's canonical
   key in the scheduler's result cache) plus what the hit path files
   under (the kind label and its latency histogram), since a hit never
   decodes the request. *)
type cached_frame = {
  f_kind : string;
  f_key : string;
  f_seconds : Rvu_obs.Metrics.histogram;
}

type t = {
  sched : Sched.t;
  frames : cached_frame Lru.t;
      (* keyed on the request bytes with the id and trace values excised
         ({!Envelope.key}), on both wires; filled when the slow path was
         answered from the result cache. A hit splices the response from
         memoized bytes without decoding the request. *)
  config : config;
  lock : Mutex.t;
  idle : Condition.t;
  mutable outstanding : int;
  mutable ok : int;
  mutable errors : int;
  mutable overloaded : int;
  mutable last_shed_seen : int;
      (* cumulative shed counter at the previous health probe *)
}

let create ?(config = default_config) () =
  {
    sched =
      Sched.create ~jobs:config.jobs ~queue_depth:config.queue_depth
        ~cache_entries:config.cache_entries ?timeout_ms:config.timeout_ms ();
    frames = Lru.create_private ~capacity:config.cache_entries;
    config;
    lock = Mutex.create ();
    idle = Condition.create ();
    outstanding = 0;
    ok = 0;
    errors = 0;
    overloaded = 0;
    last_shed_seen =
      Rvu_obs.Metrics.(counter_value (counter "rvu_sched_shed_total"));
  }

(* In-flight from the transport's point of view: accepted and not yet
   responded (cache hits and shed requests flash through it too, unlike the
   scheduler's admission counter). *)
let m_in_flight =
  Rvu_obs.Metrics.gauge ~help:"Requests accepted and not yet responded"
    "rvu_server_in_flight"

(* One histogram per request kind, registered on first use. Registration is
   idempotent, so looking the handle up through the registry on every
   request would also work — the memo table just skips the registry lock on
   the hot path. *)
let request_seconds =
  let lock = Mutex.create () in
  let table = Hashtbl.create 8 in
  fun kind ->
    Mutex.lock lock;
    let h =
      match Hashtbl.find_opt table kind with
      | Some h -> h
      | None ->
          let h =
            Rvu_obs.Metrics.histogram
              ~help:"Wall seconds from accept to response"
              ~labels:[ ("kind", kind) ]
              "rvu_server_request_seconds"
          in
          Hashtbl.add table kind h;
          h
    in
    Mutex.unlock lock;
    h

let count t outcome =
  Mutex.lock t.lock;
  (match outcome with
  | `Ok -> t.ok <- t.ok + 1
  | `Error -> t.errors <- t.errors + 1
  | `Overloaded -> t.overloaded <- t.overloaded + 1);
  Mutex.unlock t.lock

let enter t =
  Mutex.lock t.lock;
  t.outstanding <- t.outstanding + 1;
  Rvu_obs.Metrics.gauge_add m_in_flight 1.0;
  Mutex.unlock t.lock

let leave t =
  Mutex.lock t.lock;
  t.outstanding <- t.outstanding - 1;
  Rvu_obs.Metrics.gauge_add m_in_flight (-1.0);
  if t.outstanding = 0 then Condition.broadcast t.idle;
  Mutex.unlock t.lock

let wait_idle t =
  Mutex.lock t.lock;
  while t.outstanding > 0 do
    Condition.wait t.idle t.lock
  done;
  Mutex.unlock t.lock

(* ------------------------------------------------------------------ *)
(* Stats *)

let stream_cache_json key =
  match Rvu_trajectory.Stream_cache.find_opt ~key with
  | None -> Wire.Null
  | Some c ->
      let s = Rvu_trajectory.Stream_cache.stats c in
      Wire.Obj
        [
          ("realized", Wire.Int (Rvu_trajectory.Stream_cache.realized c));
          ("hits", Wire.Int s.Rvu_trajectory.Stream_cache.hits);
          ("misses", Wire.Int s.Rvu_trajectory.Stream_cache.misses);
          ("evictions", Wire.Int s.Rvu_trajectory.Stream_cache.evictions);
        ]

(* Cumulative process-wide counters (since process start, never reset),
   read back out of the metrics registry. Registration is idempotent, so
   this resolves the handles the instrumented modules created at startup. *)
let process_json () =
  let cv name = Wire.Int (Rvu_obs.Metrics.(counter_value (counter name))) in
  Wire.Obj
    [
      ("engine_runs", cv "rvu_engine_runs_total");
      ("engine_intervals", cv "rvu_engine_intervals_total");
      ("engine_derived_segments", cv "rvu_engine_derived_segments_total");
      ("engine_pruned_intervals", cv "rvu_engine_pruned_intervals_total");
      ("sched_admitted", cv "rvu_sched_admitted_total");
      ("sched_shed", cv "rvu_sched_shed_total");
      ("sched_timeouts", cv "rvu_sched_timeout_total");
      ("stream_cache_hits", cv "rvu_stream_cache_hits_total");
      ("stream_cache_misses", cv "rvu_stream_cache_misses_total");
      ("result_cache_hits", cv "rvu_result_cache_hits_total");
      ("result_cache_misses", cv "rvu_result_cache_misses_total");
    ]

let stats_json t =
  Mutex.lock t.lock;
  let ok = t.ok
  and errors = t.errors
  and overloaded = t.overloaded
  and outstanding = t.outstanding in
  Mutex.unlock t.lock;
  let c = Sched.cache_stats t.sched in
  Wire.Obj
    [
      ( "requests",
        Wire.Obj
          [
            ("ok", Wire.Int ok);
            ("errors", Wire.Int errors);
            ("overloaded", Wire.Int overloaded);
            ("in_flight", Wire.Int outstanding);
          ] );
      ( "cache",
        Wire.Obj
          [
            ("hits", Wire.Int c.Lru.hits);
            ("misses", Wire.Int c.Lru.misses);
            ("evictions", Wire.Int c.Lru.evictions);
            ("entries", Wire.Int c.Lru.entries);
            ("capacity", Wire.Int c.Lru.capacity);
          ] );
      ( "streams",
        Wire.Obj
          [
            ("universal", stream_cache_json Rvu_exec.Batch.universal_key);
            ("algorithm4", stream_cache_json Handler.algorithm4_key);
          ] );
      ("process", process_json ());
      ("runtime", Rvu_obs.Runtime.json ());
      ( "config",
        Wire.Obj
          [
            ("jobs", Wire.Int (Sched.jobs t.sched));
            ("queue_depth", Wire.Int t.config.queue_depth);
            ("cache_entries", Wire.Int t.config.cache_entries);
            ( "timeout_ms",
              match t.config.timeout_ms with
              | Some ms -> Wire.Float ms
              | None -> Wire.Null );
          ] );
    ]

(* Degraded when the admission queue is saturated right now, or requests
   were shed since the previous probe — both mean a load balancer should
   prefer another replica until the next probe. The shed delta is per
   probe: each health request advances [last_shed_seen]. *)
let health_json t =
  let in_flight = Sched.in_flight t.sched in
  let depth = t.config.queue_depth in
  let shed_now =
    Rvu_obs.Metrics.(counter_value (counter "rvu_sched_shed_total"))
  in
  Mutex.lock t.lock;
  let shed_recent = max 0 (shed_now - t.last_shed_seen) in
  t.last_shed_seen <- shed_now;
  Mutex.unlock t.lock;
  let degraded = in_flight >= depth || shed_recent > 0 in
  Wire.Obj
    [
      ("status", Wire.String (if degraded then "degraded" else "ready"));
      ( "queue",
        Wire.Obj
          [ ("in_flight", Wire.Int in_flight); ("depth", Wire.Int depth) ] );
      ("shed_since_last_probe", Wire.Int shed_recent);
    ]

(* ------------------------------------------------------------------ *)
(* Request path *)

let log_response ~kind ~t0 outcome =
  if Rvu_obs.Log.enabled Rvu_obs.Log.Info then begin
    let ms = (Rvu_obs.Clock.now_s () -. t0) *. 1000.0 in
    let fields label =
      [
        ("kind", Wire.String kind);
        ("outcome", Wire.String label);
        ("ms", Wire.Float ms);
      ]
    in
    match outcome with
    | Ok _ -> Rvu_obs.Log.info ~fields:(fields "ok") "response"
    | Error (code, msg) ->
        let f =
          fields (Proto.code_string code) @ [ ("message", Wire.String msg) ]
        in
        (* Internal errors are true faults (they trigger a flight-recorder
           dump); degraded-path outcomes are expected under load. *)
        (match code with
        | Proto.Internal -> Rvu_obs.Log.error ~fields:f "response"
        | _ -> Rvu_obs.Log.warn ~fields:f "response")
  end

(* Response rendering, parameterized by the connection's wire codec.
   The JSON spellings are byte-for-byte what [Wire.print] always
   produced (the {!Payload} splice is pinned identical), so negotiating
   the codec per connection never moved a JSON byte. *)

let render_ok_payload ~wire ~ctx ~id p =
  match wire with
  | Wire_bin.Json -> Payload.ok_json p ~ctx ~id
  | Wire_bin.Binary -> Payload.ok_bin p ~ctx ~id

let encode_ok_payload ~wire ~ctx ~id p =
  Rvu_obs.Phase.time "encode" (fun () -> render_ok_payload ~wire ~ctx ~id p)

let encode_ok_body ~wire ~ctx ~id body =
  Rvu_obs.Phase.time "encode" (fun () ->
      Conn.encode wire (Proto.ok_response ~ctx ~id body))

let render_error ~wire ~ctx ~id code msg =
  Conn.encode wire (Proto.error_response ~ctx ~id code msg)

let respond_error ~wire t ~ctx ~id (code, msg) ~respond =
  count t (match code with Proto.Overloaded -> `Overloaded | _ -> `Error);
  try respond (render_error ~wire ~ctx ~id code msg) with _ -> ()

(* A refusal: the answer to a record the server does not accept — one
   that does not parse, an invalid request, a mid-stream hello or an
   oversized record. It is counted as an error and logged under its own
   context ([fields] default to the message), never timed: the record
   never became a request. *)
let refuse ~wire t ~id code msg ?(fields = [ ("error", Wire.String msg) ]) log
    ~respond =
  let ctx = Rvu_obs.Ctx.derive id in
  Rvu_obs.Ctx.with_ctx { cid = ctx; span = None } (fun () ->
      count t `Error;
      Rvu_obs.Log.warn ~fields log;
      respond (render_error ~wire ~ctx ~id code msg))

let refuse_oversized ~wire t bytes ~respond =
  refuse ~wire t ~id:Wire.Null Proto.Invalid_request
    (Conn.too_large wire bytes ~limit:t.config.max_request_bytes)
    ~fields:[ ("bytes", Wire.Int bytes) ]
    "request rejected: oversized" ~respond

(* Count and answer an ok result, rendered by [render]; the outcome is
   returned for the log. A result no wire can carry (a non-finite float a
   handler let through) is answered [internal]: the renderers raise, and
   the exception would otherwise escape into the scheduler or the session
   and leave the request unanswered. *)
let respond_ok ~wire t ~ctx ~id render x ~respond =
  match render ~wire ~ctx ~id x with
  | response ->
      count t `Ok;
      (try respond response with _ -> ());
      Ok ()
  | exception e ->
      let err =
        (Proto.Internal, "unrenderable result: " ^ Printexc.to_string e)
      in
      respond_error ~wire t ~ctx ~id err ~respond;
      Error err

(* The request context for envelope id [id] that propagated [trace]: a
   child span of the sender's when the member parsed, a fresh root
   otherwise, no span with tracing off. Malformed contexts are discarded
   (never an error) per the W3C traceparent rule. *)
let request_context id trace =
  {
    Rvu_obs.Ctx.cid = Rvu_obs.Ctx.derive id;
    span =
      (if Rvu_obs.Trace.enabled () then
         Some
           (match Option.bind trace Rvu_obs.Ctx.of_traceparent with
           | Some parent -> Rvu_obs.Ctx.child_of parent
           | None -> Rvu_obs.Ctx.new_root ())
       else None);
  }

let phase_cache = lazy (Rvu_obs.Phase.seconds "cache")

(* Close out a request under its context: file its wall time (the span
   context makes the observation exemplar-bearing), emit the per-request
   "serve" complete span, and — when the request blew the [--slow-ms]
   budget — force-retain its trace id so the evidence survives ring
   wrap. A frame-cache hit is all cache phase, and its span says so. *)
let finish_request t ~kind ~seconds ~frame ~(ctx : Rvu_obs.Ctx.t) ~t0 =
  let dt = Rvu_obs.Clock.now_s () -. t0 in
  Rvu_obs.Metrics.observe seconds dt;
  if frame then Rvu_obs.Metrics.observe (Lazy.force phase_cache) dt;
  if Rvu_obs.Trace.enabled () then
    Rvu_obs.Trace.complete
      ~args:
        (("kind", Wire.String kind)
        :: (if frame then [ ("cache", Wire.String "frame") ] else []))
      ~ts_us:(t0 *. 1e6) ~dur_us:(dt *. 1e6) "serve";
  match (t.config.slow_ms, ctx.span) with
  | Some budget, Some sc when dt *. 1000.0 > budget ->
      Rvu_obs.Trace.retain ~trace_id:sc.Rvu_obs.Ctx.trace_id;
      Rvu_obs.Log.warn
        ~fields:
          [
            ("kind", Wire.String kind);
            ("ms", Wire.Float (dt *. 1000.0));
            ("trace_id", Wire.String sc.Rvu_obs.Ctx.trace_id);
          ]
        "slow request: trace retained"
  | _ -> ()

let log_request kind =
  if Rvu_obs.Log.enabled Rvu_obs.Log.Debug then
    Rvu_obs.Log.debug ~fields:[ ("kind", Wire.String kind) ] "request"

(* The shared post-decode path: sync kinds are answered in place, the
   rest go through the scheduler. The request context is installed once,
   here: the scheduler's continuation runs either on this domain (cache
   hits, sheds) or on a pool worker, which re-installs the same context.
   [fill] (set when the request could be a frame-cache hit next time)
   yields its frame key; when the result cache answers, the key is filed
   in the frame cache with the canonical key, so the next request with
   the same bytes outside its id and trace skips decoding. *)
let handle_env ?fill ~wire t env ~respond =
  let c = request_context env.Proto.id env.Proto.trace in
  let ctx = c.Rvu_obs.Ctx.cid in
  let kind = Proto.kind_string env.Proto.request in
  let seconds = request_seconds kind in
  Rvu_obs.Ctx.with_ctx c (fun () ->
      let t0 = Rvu_obs.Clock.now_s () in
      log_request kind;
      let sync body =
        log_response ~kind ~t0
          (respond_ok ~wire t ~ctx ~id:env.Proto.id encode_ok_body body
             ~respond);
        finish_request t ~kind ~seconds ~frame:false ~ctx:c ~t0
      in
      match env.Proto.request with
      | Proto.Stats -> sync (stats_json t)
      | Proto.Health -> sync (health_json t)
      | Proto.Metrics fmt ->
          sync
            (match fmt with
            | Proto.Metrics_json -> Rvu_obs.Metrics.json ()
            | Proto.Metrics_prometheus ->
                Wire.String (Rvu_obs.Metrics.expose ()))
      | _ ->
          enter t;
          let on_hit =
            Option.map
              (fun fill key ->
                Lru.add t.frames (fill ())
                  { f_kind = kind; f_key = key; f_seconds = seconds })
              fill
          in
          Sched.submit ?on_hit t.sched env ~k:(fun outcome ->
              let id = env.Proto.id in
              log_response ~kind ~t0
                (match outcome with
                | Ok p ->
                    respond_ok ~wire t ~ctx ~id encode_ok_payload p ~respond
                | Error err ->
                    respond_error ~wire t ~ctx ~id err ~respond;
                    Error err);
              finish_request t ~kind ~seconds ~frame:false ~ctx:c ~t0;
              leave t))

(* Decoded but not yet validated: refuse with the id salvaged if the
   envelope carried a usable one, so even a refused request can be
   matched by its client. A hello is connection state: the session
   ({!Conn.serve}) answers a first-record one before it reaches this
   path, so one seen here arrived mid-stream (or through the in-process
   entry). *)
let handle_wire ?fill ~wire t w ~respond =
  match Proto.request_of_wire w with
  | Error msg ->
      let id = Result.value (Proto.envelope_id w) ~default:Wire.Null in
      refuse ~wire t ~id Proto.Invalid_request msg "request invalid" ~respond
  | Ok { Proto.request = Proto.Hello _; id; _ } ->
      refuse ~wire t ~id Proto.Invalid_request
        "hello must be the first record on a connection" "request invalid"
        ~respond
  | Ok env -> handle_env ?fill ~wire t env ~respond

let handle_slow ?fill ~wire t bytes ~respond =
  match Conn.decode wire bytes with
  | Error msg ->
      refuse ~wire t ~id:Wire.Null Proto.Parse_error msg "request parse error"
        ~respond
  | Ok w -> handle_wire ?fill ~wire t w ~respond

(* The excised id and trace of a frame-cache hit, read as the slow path
   would read them: [None] when the slow path would reject either (it
   then answers the request itself, with the exact error). An id must
   pass {!Proto.valid_id}; a trace of any other shape than a string is
   valid and ignored. *)
let excised ~wire bytes (scan : Envelope.scan) =
  let value ((start, stop) as span) =
    match wire with
    | Wire_bin.Json -> Envelope.json_value bytes span
    | Wire_bin.Binary ->
        Result.to_option
          (Wire_bin.decode_span bytes ~pos:start ~len:(stop - start))
  in
  match
    match scan.Envelope.id_value with
    | None -> Some Wire.Null
    | Some span -> value span
  with
  | Some id when Proto.valid_id id -> (
      match scan.Envelope.trace_value with
      | None -> Some (id, None)
      | Some span -> (
          match value span with
          | Some (Wire.String tp) -> Some (id, Some tp)
          | Some _ -> Some (id, None)
          | None -> None))
  | Some _ | None -> None

(* A frame-cache hit: the answer is spliced from the result cache's
   memoized body bytes, with the id re-rendered from its parsed value
   (so [007] answers as [7], as the slow path answers it). *)
let serve_hit ~wire t f p ~id ~trace ~respond =
  let c = request_context id trace in
  let ctx = c.Rvu_obs.Ctx.cid in
  Rvu_obs.Ctx.with_ctx c (fun () ->
      let t0 = Rvu_obs.Clock.now_s () in
      log_request f.f_kind;
      log_response ~kind:f.f_kind ~t0
        (respond_ok ~wire t ~ctx ~id render_ok_payload p ~respond);
      finish_request t ~kind:f.f_kind ~seconds:f.f_seconds ~frame:true ~ctx:c
        ~t0)

(* Both wires take one path. The envelope scan finds the id, trace and
   timeout spans; a request with a [timeout_ms] member, or one the scan
   gives up on, takes the slow path and never enters the frame cache.
   While the frame cache is empty, as it stays under a stream of one-shot
   requests, nothing more is done before the slow path. Otherwise the
   excised values are read first (a request the slow path would reject
   goes there without a lookup), then the frame key is looked up; a hit
   whose result is still cached is answered without decoding, and
   anything else decodes with the frame-cache fill armed. *)
let handle_request ~wire t bytes ~respond =
  match
    match wire with
    | Wire_bin.Json -> Envelope.json bytes
    | Wire_bin.Binary -> Envelope.binary bytes
  with
  | Some ({ Envelope.timeout_value = None; _ } as scan) ->
      if Lru.length t.frames = 0 then
        handle_slow ~fill:(fun () -> Envelope.key bytes scan) ~wire t bytes
          ~respond
      else begin
        match excised ~wire bytes scan with
        | None -> handle_slow ~wire t bytes ~respond
        | Some (id, trace) -> (
            let key = Envelope.key bytes scan in
            match Lru.find t.frames key with
            | None -> handle_slow ~fill:(fun () -> key) ~wire t bytes ~respond
            | Some f -> (
                match Sched.cached t.sched f.f_key with
                | Some p -> serve_hit ~wire t f p ~id ~trace ~respond
                | None ->
                    handle_slow ~fill:(fun () -> key) ~wire t bytes ~respond))
      end
  | Some _ | None -> handle_slow ~wire t bytes ~respond

let handle ~wire t bytes ~respond =
  let bytes =
    (* Injected torn frame: the transport delivered only a prefix of the
       request. A strict prefix of a JSON object is invalid, and a prefix
       of a binary value promises bytes that never come, so this must
       fall into the parse-error path, never crash, hang or desync. *)
    if Rvu_obs.Fault.fire fault_torn_frame then
      String.sub bytes 0 (String.length bytes / 2)
    else bytes
  in
  if String.length bytes > t.config.max_request_bytes then
    refuse_oversized ~wire t (String.length bytes) ~respond
  else handle_request ~wire t bytes ~respond

let handle_line t line ~respond = handle ~wire:Wire_bin.Json t line ~respond

let handle_payload t payload ~respond =
  handle ~wire:Wire_bin.Binary t payload ~respond

let await handle =
  let lock = Mutex.create () in
  let done_ = Condition.create () in
  let result = ref None in
  handle ~respond:(fun resp ->
      Mutex.lock lock;
      result := Some resp;
      Condition.signal done_;
      Mutex.unlock lock);
  Mutex.lock lock;
  while !result = None do
    Condition.wait done_ lock
  done;
  Mutex.unlock lock;
  Option.get !result

let handle_sync t line = await (handle_line t line)
let handle_payload_sync t payload = await (handle_payload t payload)
let frame_cache_stats t = Lru.stats t.frames

(* ------------------------------------------------------------------ *)
(* Transports *)

let serve_channels t =
  Conn.serve ~max_bytes:t.config.max_request_bytes
    ~on_hello:(fun ~t0 ->
      count t `Ok;
      log_response ~kind:"hello" ~t0 (Ok ());
      Rvu_obs.Metrics.observe (request_seconds "hello")
        (Rvu_obs.Clock.now_s () -. t0))
    ~handle:(fun wire bytes ~respond -> handle ~wire t bytes ~respond)
    ~oversized:(fun wire bytes ~respond -> refuse_oversized ~wire t bytes ~respond)

let serve_tcp t ~host ~port ?connections () =
  Conn.listen ~name:"rvu serve" ~host ~port ?connections
    ~run:(fun job -> job ())
    (serve_channels t)

let stop t = Sched.stop t.sched
