(* The cluster router. See router.mli for the contract; frame.ml for why
   requests and responses are byte-spliced rather than re-printed.

   Locking order (always taken in this order, never reversed):
     router lock (t.lock)  — reader registry
     shard lock (sh.lock)  — status, connection, pending table
   Log/Metrics have their own internal locks and never call back here.
   Callbacks (respond, fan-out delivery, probe verdicts) are always
   invoked with no lock held. *)

module Wire = Rvu_service.Wire
module Wb = Rvu_service.Wire_bin
module Proto = Rvu_service.Proto
module Conn = Rvu_service.Conn
module Metrics = Rvu_obs.Metrics
module Log = Rvu_obs.Log
module Ctx = Rvu_obs.Ctx
module Clock = Rvu_obs.Clock
module Trace = Rvu_obs.Trace

type endpoint = { host : string; port : int; spawn : string array option }

type config = {
  probe_interval_ms : float;
  restart_backoff_ms : float;
  route_timeout_ms : float;
  max_retries : int;
  max_request_bytes : int;
  connect_timeout_ms : float;
  wire : Wb.mode;
}

let default_config =
  {
    probe_interval_ms = 250.0;
    restart_backoff_ms = 500.0;
    route_timeout_ms = 30_000.0;
    max_retries = 3;
    max_request_bytes = 1_048_576;
    connect_timeout_ms = 10_000.0;
    wire = Wb.Json;
  }

type status = Ready | Degraded | Down

let status_string = function
  | Ready -> "ready"
  | Degraded -> "degraded"
  | Down -> "down"

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  gen : int;  (** connection generation; stale events are ignored *)
}

(* A routed client request. [r_pre ^ rid ^ r_post] is the worker line (or
   binary frame payload), so a retry is one string concatenation away.
   [r_id_bytes]/[r_ctx_bytes] are spelled in the {e shard} codec — the
   splice fast path is only taken when the client connection speaks the
   same codec as the shards; mismatched codecs transcode through the
   parsed tree instead. *)
type routed = {
  r_pre : string;
  r_post : string;
  r_parts : string list;
  r_client : Wb.mode;
  r_id : Wire.t;
  r_id_bytes : string;
  r_ctx : Ctx.t;
      (** the request context: the correlation id echoed to the client,
          plus the root span context minted when tracing is on —
          serialized into the forwarded frame's ["trace"] member and
          stamped on the forward span; retries reuse it *)
  r_ctx_bytes : string;
  r_kind : string;
  r_t0 : float;
  r_retries : int;
  r_respond : string -> unit;
}

type pending =
  | Routed of routed
  | Internal of { deliver : Wire.t option -> unit }
      (** probes and fan-out sub-requests; [deliver None] on timeout,
          connection loss or an unreadable reply, [Some w] on a decoded
          reply (codec-independent — the reader parses before
          delivering) *)

type shard = {
  index : int;
  endpoint : endpoint;
  lock : Mutex.t;
  mutable status : status;
  mutable conn : conn option;
  mutable gen : int;
  mutable pid : int option;
  pending : (int, pending * float) Hashtbl.t;  (* rid -> entry, deadline *)
  mutable probe_rid : int option;
  mutable probe_misses : int;
  mutable next_attempt : float;
  mutable was_connected : bool;
  m_in_flight : Metrics.gauge;
  m_routed : Metrics.counter;
  m_evicted : Metrics.counter;
  m_restarts : Metrics.counter;
}

type t = {
  config : config;
  shards : shard array;
  rid : int Atomic.t;
  lock : Mutex.t;
  mutable stopping : bool;
  mutable stopped : bool;
  mutable supervisor : unit Domain.t option;
  mutable readers : (bool Atomic.t * unit Domain.t) list;
      (** shard readers, each with its finished flag *)
  m_retried : Metrics.counter;
  m_shed : Metrics.counter;
  m_stale : Metrics.counter;
  m_fanout : Metrics.counter;
  m_latency : Metrics.histogram;
}

let interval_s t = t.config.probe_interval_ms /. 1000.0

(* A probe is only declared missed well past the next probe tick: the
   point is catching shards that swallow responses ([server.drop_conn])
   or hang, not shards whose transport thread lost the CPU for a tick
   under full load — a spurious eviction strands and re-routes every
   pending request on the shard, which is far costlier than waiting two
   more ticks. *)
let probe_deadline_s t = Float.max (3.0 *. interval_s t) 1.0
let backoff_s t = t.config.restart_backoff_ms /. 1000.0
let route_timeout_s t = t.config.route_timeout_ms /. 1000.0

let endpoint_string ep = Printf.sprintf "%s:%d" ep.host ep.port

let shard_fields sh =
  [
    ("shard", Wire.Int sh.index);
    ("endpoint", Wire.String (endpoint_string sh.endpoint));
  ]

(* One breakdown entry per shard: its identity and status, then [extra]. *)
let shard_list t extra =
  let entry (sh : shard) =
    Wire.Obj
      (shard_fields sh
      @ (("status", Wire.String (status_string sh.status)) :: extra sh))
  in
  Wire.List (List.map entry (Array.to_list t.shards))

let next_rid t = Atomic.fetch_and_add t.rid 1

(* The ready shards, less [avoid] (the shard a retry timed out on)
   unless no other shard is ready. Racy by design: a stale [Ready] just
   means one failed dispatch and a retry; a stale [Down] costs cache
   locality for one request. The ring itself is pure, so no lock is
   worth taking here. *)
let live ?avoid t =
  let live = Array.map (fun (sh : shard) -> sh.status = Ready) t.shards in
  (match avoid with
  | Some i when live.(i) ->
      live.(i) <- false;
      if not (Array.mem true live) then live.(i) <- true
  | _ -> ());
  live

let shard_statuses t = Array.map (fun (sh : shard) -> status_string sh.status) t.shards

(* Must hold [sh.lock]. *)
let set_status_locked sh status ~reason =
  if sh.status <> status then begin
    let was = sh.status in
    sh.status <- status;
    let fields =
      shard_fields sh
      @ [
          ("from", Wire.String (status_string was));
          ("to", Wire.String (status_string status));
          ("reason", Wire.String reason);
        ]
    in
    if was = Ready then begin
      Metrics.incr sh.m_evicted;
      Log.warn ~fields "shard evicted"
    end
    else if status = Ready then Log.info ~fields "shard ready"
    else Log.warn ~fields "shard state"
  end

(* ------------------------------------------------------------------ *)
(* The pending-request lifecycle: file and write ([send]), take back
   ([take_locked]), answer ([complete]); a routed request is re-routed
   ([redispatch]) until its retries run out and it is shed. *)

(* Remove [rid]'s pending entry and return it, if it is still there.
   Must hold [sh.lock]. *)
let take_locked (sh : shard) rid =
  match Hashtbl.find_opt sh.pending rid with
  | None -> None
  | Some (p, _) ->
      Hashtbl.remove sh.pending rid;
      (match p with
      | Routed _ -> Metrics.gauge_add sh.m_in_flight (-1.0)
      | Internal _ -> ());
      if sh.probe_rid = Some rid then sh.probe_rid <- None;
      Some p

(* Warn about a routed request under its own context, as the server logs
   its requests, so the record carries the request's correlation id. *)
let warn_about (r : routed) ~fields msg =
  Ctx.with_ctx r.r_ctx (fun () -> Log.warn ~fields msg)

(* Answer a routed request and close it out under its context, so the
   latency observation's exemplar points at the trace that produced it.
   With tracing on it also emits the forward span, which begins on the
   client connection's domain and resolves on the shard reader's. The
   shard's serve span is parented under this span's id, which is the
   join [rvu trace-merge] re-parents on. *)
let complete t ?shard (r : routed) response =
  r.r_respond response;
  let dt = Clock.now_s () -. r.r_t0 in
  Ctx.with_ctx r.r_ctx (fun () ->
      Metrics.observe t.m_latency dt;
      if r.r_ctx.span <> None then
        Trace.complete
          ~args:
            (("kind", Wire.String r.r_kind)
            ::
            (match shard with
            | Some i -> [ ("shard", Wire.Int i) ]
            | None -> []))
          ~ts_us:(r.r_t0 *. 1e6) ~dur_us:(dt *. 1e6) "forward")

(* File [entry] under [rid] on [sh] and write [payload] in the shard
   codec. [false] when the shard has no connection or the write fails;
   on a write error the entry is taken back and the connection marked
   down, so the caller alone re-routes or fails the request. *)
let rec send t (sh : shard) ~rid ~deadline entry payload =
  Mutex.lock sh.lock;
  match sh.conn with
  | None ->
      Mutex.unlock sh.lock;
      false
  | Some c -> (
      Hashtbl.replace sh.pending rid (entry, deadline);
      (match entry with
      | Routed _ ->
          Metrics.gauge_add sh.m_in_flight 1.0;
          Metrics.incr sh.m_routed
      | Internal _ -> ());
      match Conn.write t.config.wire c.oc payload with
      | () ->
          Mutex.unlock sh.lock;
          true
      | exception _ ->
          ignore (take_locked sh rid);
          Mutex.unlock sh.lock;
          mark_down t sh ~gen:c.gen ~reason:"write error";
          false)

(* Each attempt gets the whole route timeout, counted from its own
   dispatch. *)
and dispatch ?avoid t (r : routed) =
  match Ring.pick ~live:(live ?avoid t) ~parts:r.r_parts with
  | None -> shed t r "no live shard"
  | Some i ->
      let rid = next_rid t in
      if
        not
          (send t t.shards.(i) ~rid
             ~deadline:(Clock.now_s () +. route_timeout_s t)
             (Routed r)
             (r.r_pre ^ Conn.encode t.config.wire (Wire.Int rid) ^ r.r_post))
      then redispatch t { r with r_retries = r.r_retries + 1 }

and redispatch ?avoid t (r : routed) =
  if r.r_retries > t.config.max_retries then shed t r "shard retries exhausted"
  else begin
    Metrics.incr t.m_retried;
    warn_about r ~fields:[ ("retries", Wire.Int r.r_retries) ] "request rerouted";
    dispatch ?avoid t r
  end

and shed t (r : routed) reason =
  Metrics.incr t.m_shed;
  warn_about r ~fields:[ ("reason", Wire.String reason) ] "request shed";
  complete t r
    (Conn.encode r.r_client
       (Proto.error_response ~ctx:r.r_ctx.cid ~id:r.r_id Proto.Overloaded
          reason))

(* Tear down a shard connection (if it is still the [gen] one), strand its
   pending requests onto the surviving shards, and schedule a reconnect.
   Idempotent per generation: the reader, a failed writer, the probe
   supervisor and [stop] can all race into it. *)
and mark_down t (sh : shard) ~gen ~reason =
  Mutex.lock sh.lock;
  match sh.conn with
  | Some c when c.gen = gen ->
      sh.conn <- None;
      (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with _ -> ());
      set_status_locked sh Down ~reason;
      sh.probe_rid <- None;
      sh.probe_misses <- 0;
      sh.next_attempt <- Clock.now_s () +. backoff_s t;
      let stranded =
        Hashtbl.fold (fun _rid (p, _) acc -> p :: acc) sh.pending []
      in
      Hashtbl.reset sh.pending;
      Metrics.gauge_set sh.m_in_flight 0.0;
      Mutex.unlock sh.lock;
      List.iter
        (function
          | Routed r -> redispatch t { r with r_retries = r.r_retries + 1 }
          | Internal i -> i.deliver None)
        stranded
  | _ -> Mutex.unlock sh.lock

(* ------------------------------------------------------------------ *)
(* Shard lines / frames coming back *)

(* Substitute the client's id and ctx into a parsed worker response — the
   transcoding fallback when the splice fast path does not apply (client
   and shard codecs differ, or the response is not span-shaped). *)
let substitute_envelope w (r : routed) =
  match w with
  | Wire.Obj fields ->
      Wire.Obj
        (List.map
           (fun (k, v) ->
             match k with
             | "id" -> (k, r.r_id)
             | "ctx" -> (k, Wire.String r.r_ctx.cid)
             | _ -> (k, v))
           fields)
  | w -> w

(* Match a shard reply back to its pending entry and finish it. [build]
   renders the client response for a routed request; [parsed] decodes the
   reply for internal (probe/fan-out) delivery. *)
let resolve_shard t (sh : shard) rid_opt ~build ~parsed =
  match rid_opt with
  | None ->
      Metrics.incr t.m_stale;
      Log.debug ~fields:(shard_fields sh) "unmatched shard line"
  | Some rid -> (
      Mutex.lock sh.lock;
      let entry = take_locked sh rid in
      Mutex.unlock sh.lock;
      match entry with
      | None ->
          Metrics.incr t.m_stale;
          Log.debug ~fields:(shard_fields sh) "stale shard response"
      | Some (Routed r) -> complete t ~shard:sh.index r (build r)
      | Some (Internal i) -> i.deliver (parsed ()))

(* One shard reply, a record in the shard codec [t.config.wire]. The
   fast path scans the reply's id and ctx value spans and, when the client
   speaks the shard codec too, splices the client's in; a client on the
   other codec gets the decoded reply with them substituted. A reply the
   scan cannot read is matched on its decoded ["id"] instead. *)
let handle_shard_record t (sh : shard) record =
  let wire = t.config.wire in
  let parsed = lazy (Conn.decode wire record) in
  let substituted (r : routed) =
    Conn.encode r.r_client
      (match Lazy.force parsed with
      | Ok w -> substitute_envelope w r
      | Error _ ->
          Proto.error_response ~ctx:r.r_ctx.cid ~id:r.r_id Proto.Internal
            "unreadable shard response")
  in
  let spliced =
    match wire with
    | Wb.Json ->
        Option.map
          (fun (rid, id_span, ctx_span) ->
            (rid, Frame.splice_response record ~id_span ~ctx_span))
          (Frame.response_spans record)
    | Wb.Binary ->
        Option.map
          (fun (rid, id_span, ctx_span) ->
            (rid, Frame.bin_splice_response record ~id_span ~ctx_span))
          (Frame.bin_response_spans record)
  in
  let rid_opt, build =
    match spliced with
    | Some (rid, splice) ->
        ( Some rid,
          fun (r : routed) ->
            if r.r_client <> wire then substituted r
            else splice ~id:r.r_id_bytes ~ctx:r.r_ctx_bytes )
    | None -> (
        match Lazy.force parsed with
        | Ok w -> (
            match Wire.member "id" w with
            | Some (Wire.Int rid) -> (Some rid, substituted)
            | _ -> (None, fun _ -> record))
        | Error _ -> (None, fun _ -> record))
  in
  resolve_shard t sh rid_opt ~build ~parsed:(fun () ->
      Result.to_option (Lazy.force parsed))

let spawn_reader t (sh : shard) conn =
  let finished = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        (try
           Conn.read_records ~max_bytes:t.config.max_request_bytes
             t.config.wire conn.ic (handle_shard_record t sh)
         with _ -> ());
        mark_down t sh ~gen:conn.gen ~reason:"connection closed";
        (* Single closer: the reader owns the descriptor's lifetime. The
           writer stops at [mark_down] (conn is gone before we get here),
           so closing cannot race a write. *)
        close_in_noerr conn.ic;
        Atomic.set finished true)
  in
  Mutex.lock t.lock;
  t.readers <- (finished, d) :: t.readers;
  Mutex.unlock t.lock

let reap_readers t ~all =
  Mutex.lock t.lock;
  let finished, running =
    List.partition (fun (finished, _) -> all || Atomic.get finished) t.readers
  in
  t.readers <- running;
  Mutex.unlock t.lock;
  List.iter (fun (_, d) -> Domain.join d) finished

(* ------------------------------------------------------------------ *)
(* Internal sub-requests (probes, fan-out) *)

(* Send an internal sub-request ([health]/[stats]/[metrics]) under
   [rid]; [deliver None] at once when it cannot be sent. *)
let ask t (sh : shard) ~rid ~deadline ~deliver kind =
  let payload =
    Conn.encode t.config.wire
      (Wire.Obj [ ("id", Wire.Int rid); ("kind", Wire.String kind) ])
  in
  if not (send t sh ~rid ~deadline (Internal { deliver }) payload) then
    deliver None

let probe_deliver t (sh : shard) = function
  | Some w ->
      let ready =
        match Option.bind (Wire.member "ok" w) (Wire.member "status") with
        | Some (Wire.String "ready") -> true
        | _ -> false
      in
      Mutex.lock sh.lock;
      sh.probe_misses <- 0;
      if sh.conn <> None then
        set_status_locked sh
          (if ready then Ready else Degraded)
          ~reason:(if ready then "probe ready" else "probe degraded");
      Mutex.unlock sh.lock
  | None ->
      (* Timed out, or the connection died under it. Degrade on the first
         miss; force a reconnect cycle on the second — [server.drop_conn]
         swallows responses without closing the socket, so a silent shard
         must be torn down actively. *)
      let force = ref None in
      Mutex.lock sh.lock;
      (match sh.conn with
      | Some c ->
          sh.probe_misses <- sh.probe_misses + 1;
          set_status_locked sh Degraded ~reason:"probe timeout";
          if sh.probe_misses >= 2 then force := Some c.gen
      | None -> ());
      Mutex.unlock sh.lock;
      (match !force with
      | Some gen -> mark_down t sh ~gen ~reason:"probe timeouts"
      | None -> ())

(* One probe in flight per shard: [probe_rid] marks it until it is
   taken back. *)
let send_probe t (sh : shard) now =
  Mutex.lock sh.lock;
  let rid =
    if sh.conn <> None && sh.probe_rid = None then Some (next_rid t) else None
  in
  if rid <> None then sh.probe_rid <- rid;
  Mutex.unlock sh.lock;
  Option.iter
    (fun rid ->
      ask t sh ~rid
        ~deadline:(now +. probe_deadline_s t)
        ~deliver:(probe_deliver t sh) "health")
    rid

(* ------------------------------------------------------------------ *)
(* Worker processes and connections *)

let ensure_process (sh : shard) ~initial =
  match sh.endpoint.spawn with
  | None -> ()
  | Some argv ->
      let alive =
        match sh.pid with
        | None -> false
        | Some pid -> (
            match Unix.waitpid [ Unix.WNOHANG ] pid with
            | 0, _ -> true
            | _ -> false
            | exception Unix.Unix_error _ -> false)
      in
      if not alive then begin
        let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
        let pid = Unix.create_process argv.(0) argv devnull devnull devnull in
        Unix.close devnull;
        sh.pid <- Some pid;
        if initial then
          Log.info
            ~fields:(shard_fields sh @ [ ("pid", Wire.Int pid) ])
            "shard spawned"
        else begin
          Metrics.incr sh.m_restarts;
          Log.warn
            ~fields:(shard_fields sh @ [ ("pid", Wire.Int pid) ])
            "shard restarted"
        end
      end

let attempt_connect t (sh : shard) ~initial =
  ensure_process sh ~initial;
  (* The reader is spawned only after the binary upgrade (whose hello
     takes request id 0: [t.rid] starts at 1, so its reply can never
     collide with a pending request). *)
  match
    Conn.connect
      ~timeout_s:(Float.max 1.0 (t.config.connect_timeout_ms /. 1000.0))
      t.config.wire
      (Unix.ADDR_INET (Conn.resolve sh.endpoint.host, sh.endpoint.port))
  with
  | exception e ->
      (match e with
      | Failure _ -> Log.warn ~fields:(shard_fields sh) "shard hello rejected"
      | _ -> ());
      Mutex.lock sh.lock;
      sh.next_attempt <- Clock.now_s () +. backoff_s t;
      Mutex.unlock sh.lock;
      false
  | { Conn.fd; ic; oc } ->
      Mutex.lock sh.lock;
      sh.gen <- sh.gen + 1;
      let conn = { fd; ic; oc; gen = sh.gen } in
      sh.conn <- Some conn;
      sh.probe_misses <- 0;
      sh.probe_rid <- None;
      let readmit = sh.was_connected in
      sh.was_connected <- true;
      (* First connection is admitted optimistically (nothing is pending
         yet and the alternative is shedding the first requests); after a
         restart the shard re-enters the ring only on a ready probe. *)
      set_status_locked sh
        (if readmit then Degraded else Ready)
        ~reason:(if readmit then "reconnected, awaiting probe" else "connected");
      Mutex.unlock sh.lock;
      spawn_reader t sh conn;
      Log.info ~fields:(shard_fields sh) "shard connected";
      if readmit then send_probe t sh (Clock.now_s ());
      true

(* ------------------------------------------------------------------ *)
(* Supervisor *)

let supervisor_loop t =
  let tick = Float.max 0.005 (Float.min 0.05 (interval_s t /. 4.0)) in
  let next_probe = ref 0.0 in
  while not t.stopping do
    let now = Clock.now_s () in
    (* Expired pending entries: re-route requests, fail probes/fan-outs. *)
    Array.iter
      (fun (sh : shard) ->
        Mutex.lock sh.lock;
        let expired =
          Hashtbl.fold
            (fun rid (_, deadline) acc ->
              if now > deadline then rid :: acc else acc)
            sh.pending []
          |> List.filter_map (take_locked sh)
        in
        Mutex.unlock sh.lock;
        List.iter
          (function
            | Routed r ->
                warn_about r ~fields:(shard_fields sh)
                  "request timed out on shard";
                redispatch ~avoid:sh.index t
                  { r with r_retries = r.r_retries + 1 }
            | Internal i -> i.deliver None)
          expired)
      t.shards;
    (* Probes. *)
    if now >= !next_probe then begin
      next_probe := now +. interval_s t;
      Array.iter (fun (sh : shard) -> send_probe t sh now) t.shards
    end;
    (* Reconnect / respawn downed shards. *)
    Array.iter
      (fun (sh : shard) ->
        if sh.conn = None && now >= sh.next_attempt then
          ignore (attempt_connect t sh ~initial:false))
      t.shards;
    reap_readers t ~all:false;
    Unix.sleepf tick
  done

(* ------------------------------------------------------------------ *)
(* Fan-out requests *)

let router_stats t =
  let sum f = Array.fold_left (fun acc sh -> acc + f sh) 0 t.shards in
  Wire.Obj
    [
      ( "requests",
        Wire.Obj
          [
            ("routed", Wire.Int (sum (fun (sh : shard) -> Metrics.counter_value sh.m_routed)));
            ("fanout", Wire.Int (Metrics.counter_value t.m_fanout));
            ("retried", Wire.Int (Metrics.counter_value t.m_retried));
            ("shed", Wire.Int (Metrics.counter_value t.m_shed));
            ("stale", Wire.Int (Metrics.counter_value t.m_stale));
          ] );
      ( "shards",
        shard_list t (fun (sh : shard) ->
            [
              ( "in_flight",
                Wire.Int (int_of_float (Metrics.gauge_value sh.m_in_flight)) );
              ("routed", Wire.Int (Metrics.counter_value sh.m_routed));
              ("evicted", Wire.Int (Metrics.counter_value sh.m_evicted));
              ("restarts", Wire.Int (Metrics.counter_value sh.m_restarts));
            ]) );
    ]

let int_at path w =
  let rec go path w =
    match path with
    | [] -> ( match w with Wire.Int n -> n | _ -> 0)
    | k :: rest -> (
        match Wire.member k w with Some v -> go rest v | None -> 0)
  in
  go path w

let handle_fanout t ~client env ~respond =
  Metrics.incr t.m_fanout;
  let ctx = Ctx.derive env.Proto.id in
  let t0 = Clock.now_s () in
  let n_shards = Array.length t.shards in
  let results : Wire.t option array = Array.make n_shards None in
  let finalize () =
    let oks = Array.to_list results |> List.filter_map Fun.id in
    let per_shard extra =
      shard_list t (fun (sh : shard) ->
          match results.(sh.index) with
          | Some ok -> [ (extra, ok) ]
          | None -> [])
    in
    let payload =
      match env.Proto.request with
      | Proto.Stats ->
          Wire.Obj
            [
              ("aggregate", Merge.sum_json oks);
              ("router", router_stats t);
              ("shards", per_shard "stats");
            ]
      | Proto.Health ->
          let agg = Merge.sum_json oks in
          let all_ready =
            Array.for_all (fun (sh : shard) -> sh.status = Ready) t.shards
            && List.length oks = n_shards
            && List.for_all
                 (fun ok ->
                   match Wire.member "status" ok with
                   | Some (Wire.String "ready") -> true
                   | _ -> false)
                 oks
          in
          Wire.Obj
            [
              ( "status",
                Wire.String (if all_ready then "ready" else "degraded") );
              ( "queue",
                Wire.Obj
                  [
                    ("in_flight", Wire.Int (int_at [ "queue"; "in_flight" ] agg));
                    ("depth", Wire.Int (int_at [ "queue"; "depth" ] agg));
                  ] );
              ( "shed_since_last_probe",
                Wire.Int (int_at [ "shed_since_last_probe" ] agg) );
              ("shards", per_shard "health");
            ]
      | Proto.Metrics fmt -> (
          let merged =
            Metrics.merge (Metrics.snapshot () :: List.map Metrics.of_json oks)
          in
          match fmt with
          | Proto.Metrics_json -> Metrics.to_json merged
          | Proto.Metrics_prometheus ->
              Wire.String (Metrics.to_prometheus merged))
      | _ -> Wire.Null
    in
    respond
      (Conn.encode client (Proto.ok_response ~ctx ~id:env.Proto.id payload));
    Metrics.observe t.m_latency (Clock.now_s () -. t0)
  in
  let targets =
    Array.to_list t.shards |> List.filter (fun (sh : shard) -> sh.conn <> None)
  in
  match targets with
  | [] -> finalize ()
  | _ ->
      (* Each reply lands in its own slot; the last one to count down
         finalizes. *)
      let remaining = Atomic.make (List.length targets) in
      List.iter
        (fun (sh : shard) ->
          ask t sh ~rid:(next_rid t)
            ~deadline:(t0 +. route_timeout_s t)
            ~deliver:(fun w_opt ->
              results.(sh.index) <- Option.bind w_opt (Wire.member "ok");
              if Atomic.fetch_and_add remaining (-1) = 1 then finalize ())
            (Proto.kind_string env.Proto.request))
        targets

(* ------------------------------------------------------------------ *)
(* Client records *)

(* The most a forward adds to a record in the shard codec: the router's
   id member ahead of the client's (25 bytes as JSON with a 19-digit id,
   15 as binary) and, with tracing on, the trace member (66 bytes as
   JSON, 69 as binary). *)
let envelope_bytes = 91

(* The router's one size limit, on a record in the shard codec: under it,
   the forward fits a shard's [max_request_bytes]. *)
let limit t = max 0 (t.config.max_request_bytes - envelope_bytes)

(* A refusal: the answer to a client record the router does not route —
   one that does not parse, is not a valid request or is a mid-stream
   hello (each logged as [log], under the correlation id its answer
   carries), or one past the size limit. [id] is the record's own, when
   it carried a usable one. *)
let refuse ~client ~respond ?(id = Wire.Null) ?log code msg =
  let ctx = Ctx.derive id in
  Option.iter
    (fun log ->
      Ctx.with_ctx { cid = ctx; span = None } (fun () ->
          Log.warn ~fields:[ ("error", Wire.String msg) ] log))
    log;
  respond (Conn.encode client (Proto.error_response ~ctx ~id code msg))

(* A record of [bytes] bytes in [mode] past the size limit. *)
let refuse_oversized t ~client ~respond ?id mode bytes =
  refuse ~client ~respond ?id Proto.Invalid_request
    (Conn.too_large mode bytes ~limit:(limit t))

(* A client request that passed its codec's parse as an object. [bytes]
   is the request in the client's codec: forwarded verbatim when the
   shards speak the same codec, re-rendered into the shard codec
   otherwise (a transcode per request — the price of bridging a JSON
   client onto binary shards or vice versa), and measured again, since
   a transcode can outgrow the limit. *)
let route_parsed t ~client ~bytes w ~respond =
  match Proto.envelope_id w with
  | Error msg ->
      (* A bad id is refused here, by the server's own rule and message:
         a forwarded bad id would come back unmatchable. *)
      refuse ~client ~respond ~log:"request rejected" Proto.Invalid_request msg
  | Ok id -> (
      match Wire.member "kind" w with
      | Some (Wire.String "hello") ->
          (* Transport negotiation never reaches a shard; past the first
             record (the session answers that one) it is an error, with
             the server's message. *)
          refuse ~client ~respond ~id ~log:"request rejected"
            Proto.Invalid_request
            "hello must be the first record on a connection"
      | Some (Wire.String ("stats" | "metrics" | "health")) -> (
          (* Fan-out kinds are decoded fully so malformed envelopes
             (bad timeout, bad format) get the server's messages. *)
          match Proto.request_of_wire w with
          | Error msg ->
              refuse ~client ~respond ~id ~log:"request rejected"
                Proto.Invalid_request msg
          | Ok env -> handle_fanout t ~client env ~respond)
      | kind ->
          let shard_bytes =
            if client = t.config.wire then bytes
            else Conn.encode t.config.wire w
          in
          if String.length shard_bytes > limit t then
            refuse_oversized t ~client ~respond ~id t.config.wire
              (String.length shard_bytes)
          else
            let kind = match kind with Some (Wire.String k) -> k | _ -> "?" in
            let ctx = Ctx.derive id in
            (* The root span context for this routed request, serialized
               as a traceparent into the forwarded frame. The shard serves
               under a child of it, so router and shard spans share one
               trace id. Minted once; retries reuse it. *)
            let span =
              if Trace.enabled () then Some (Ctx.new_root ()) else None
            in
            let trace = Option.map Ctx.to_traceparent span in
            let pre, post =
              match t.config.wire with
              | Wb.Json -> Frame.forward_parts ?trace shard_bytes
              | Wb.Binary -> Frame.bin_forward_parts ?trace shard_bytes
            in
            let parts =
              match t.config.wire with
              | Wb.Json -> Frame.routing_parts shard_bytes
              | Wb.Binary -> Frame.bin_routing_parts shard_bytes
            in
            let id_bytes = Conn.encode t.config.wire id in
            let ctx_bytes = Conn.encode t.config.wire (Wire.String ctx) in
            let c = { Ctx.cid = ctx; span } in
            if Log.enabled Log.Debug then
              Ctx.with_ctx c (fun () ->
                  Log.debug ~fields:[ ("kind", Wire.String kind) ]
                    "request accepted");
            dispatch t
              {
                r_pre = pre;
                r_post = post;
                r_parts = parts;
                r_client = client;
                r_id = id;
                r_id_bytes = id_bytes;
                r_ctx = c;
                r_ctx_bytes = ctx_bytes;
                r_kind = kind;
                r_t0 = Clock.now_s ();
                r_retries = 0;
                r_respond = respond;
              })

(* The client entry for both codecs: [client] decodes the request and
   renders every local answer. *)
let handle_client t ~client bytes ~respond =
  if String.length bytes > limit t then
    refuse_oversized t ~client ~respond client (String.length bytes)
  else
    match Conn.decode client bytes with
    | Error msg ->
        refuse ~client ~respond ~log:"request parse error" Proto.Parse_error msg
    | Ok (Wire.Obj _ as w) -> route_parsed t ~client ~bytes w ~respond
    | Ok v ->
        refuse ~client ~respond ~log:"request rejected" Proto.Invalid_request
          (Printf.sprintf "expected a request object, got %s" (Wire.kind_name v))

let handle_line t = handle_client t ~client:Wb.Json
let handle_payload t = handle_client t ~client:Wb.Binary

let handle_sync t line = Rvu_service.Server.await (handle_line t line)

let handle_payload_sync t payload =
  Rvu_service.Server.await (handle_payload t payload)

(* ------------------------------------------------------------------ *)
(* Transports *)

let serve_channels t ic oc =
  Conn.serve ~max_bytes:(limit t)
    ~handle:(fun client bytes ~respond -> handle_client t ~client bytes ~respond)
    ~oversized:(fun client bytes ~respond ->
      refuse_oversized t ~client ~respond client bytes)
    ic oc

(* A domain per connection: the router is the process clients share. *)
let serve_tcp t ~host ~port ?connections () =
  let sessions = ref [] in
  Conn.listen ~name:"rvu router" ~host ~port ?connections
    ~run:(fun job -> sessions := Domain.spawn job :: !sessions)
    (serve_channels t);
  List.iter Domain.join !sessions

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let create ?(config = default_config) ~endpoints () =
  if endpoints = [] then invalid_arg "Router.create: no endpoints";
  let mk index endpoint =
    let labels = [ ("shard", string_of_int index) ] in
    {
      index;
      endpoint;
      lock = Mutex.create ();
      status = Down;
      conn = None;
      gen = 0;
      pid = None;
      pending = Hashtbl.create 64;
      probe_rid = None;
      probe_misses = 0;
      next_attempt = 0.0;
      was_connected = false;
      m_in_flight =
        Metrics.gauge ~labels ~help:"Requests in flight on this shard"
          "rvu_router_shard_in_flight";
      m_routed =
        Metrics.counter ~labels ~help:"Requests routed to this shard"
          "rvu_router_routed_total";
      m_evicted =
        Metrics.counter ~labels ~help:"Times this shard left the ring"
          "rvu_router_evicted_total";
      m_restarts =
        Metrics.counter ~labels ~help:"Worker processes (re)started"
          "rvu_router_restarts_total";
    }
  in
  let t =
    {
      config;
      shards = Array.of_list (List.mapi mk endpoints);
      rid = Atomic.make 1;
      lock = Mutex.create ();
      stopping = false;
      stopped = false;
      supervisor = None;
      readers = [];
      m_retried =
        Metrics.counter ~help:"Requests re-routed after a shard failure"
          "rvu_router_retried_total";
      m_shed =
        Metrics.counter ~help:"Requests shed with overloaded"
          "rvu_router_shed_total";
      m_stale =
        Metrics.counter ~help:"Shard lines that matched no pending request"
          "rvu_router_stale_total";
      m_fanout =
        Metrics.counter ~help:"Fan-out requests (stats/metrics/health)"
          "rvu_router_fanout_total";
      m_latency =
        Metrics.histogram ~help:"Wall seconds from accept to response"
          "rvu_router_request_seconds";
    }
  in
  Array.iter (fun (sh : shard) -> ensure_process sh ~initial:true) t.shards;
  let deadline = Clock.now_s () +. (config.connect_timeout_ms /. 1000.0) in
  let rec wait () =
    Array.iter
      (fun (sh : shard) ->
        if sh.conn = None then ignore (attempt_connect t sh ~initial:true))
      t.shards;
    if
      Array.exists (fun (sh : shard) -> sh.conn = None) t.shards
      && Clock.now_s () < deadline
    then begin
      Unix.sleepf 0.05;
      wait ()
    end
  in
  wait ();
  t.supervisor <- Some (Domain.spawn (fun () -> supervisor_loop t));
  Log.info
    ~fields:
      [
        ("shards", Wire.Int (Array.length t.shards));
        ( "live",
          Wire.Int
            (Array.fold_left
               (fun acc sh -> if sh.status = Ready then acc + 1 else acc)
               0 t.shards) );
      ]
    "router started";
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Mutex.lock t.lock;
    t.stopping <- true;
    Mutex.unlock t.lock;
    (match t.supervisor with Some d -> Domain.join d | None -> ());
    t.supervisor <- None;
    Array.iter
      (fun (sh : shard) ->
        let gen = match sh.conn with Some c -> c.gen | None -> -1 in
        if gen >= 0 then mark_down t sh ~gen ~reason:"router stopping")
      t.shards;
    reap_readers t ~all:true;
    Array.iter
      (fun (sh : shard) ->
        match sh.pid with
        | Some pid ->
            (try Unix.kill pid Sys.sigterm with _ -> ());
            (try ignore (Unix.waitpid [] pid) with _ -> ());
            sh.pid <- None
        | None -> ())
      t.shards;
    Log.info "router stopped"
  end
