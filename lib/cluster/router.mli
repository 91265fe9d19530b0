(** The cluster front-end: N worker [rvu serve] shards behind one
    NDJSON endpoint.

    The router speaks exactly the {!Rvu_service.Proto} protocol a single
    server speaks — same request lines, same response lines, same error
    messages for malformed input — so clients (and [Loadgen]) cannot tell
    one process from a cluster. Internally:

    - every evaluation request is routed by rendezvous hashing ({!Ring})
      on its canonical routing key ({!Frame.routing_parts}), keeping each
      shard's result/stream caches hot for its slice of the keyspace;
    - lines are pipelined to shards with router-assigned integer ids and
      matched out-of-order on the way back; the client's own id and the
      request's [Ctx] correlation id are restored by byte splicing
      ({!Frame}), so response bodies are bit-identical to a direct
      server's;
    - a supervisor domain probes every shard with the [health] request
      each [probe_interval_ms]. A shard that reports degraded, misses a
      probe, or drops its connection is {e evicted} from the ring
      (in-flight requests are re-routed to the surviving shards, up to
      [max_retries], then shed with [overloaded]), and a request that
      outlives [route_timeout_ms] on a shard is re-routed away from it;
      spawned workers are
      restarted with [restart_backoff_ms] backoff; a returning shard is
      re-admitted only after a probe reports it ready;
    - [stats], [metrics] and [health] requests fan out to every connected
      shard and return merged aggregates ({!Merge} for [stats] and
      [health], {!Rvu_obs.Metrics.merge} for [metrics]) with the
      per-shard breakdown retained.

    Router-side observability lands in the process registry as
    [rvu_router_*]: per-shard in-flight gauges and routed/evicted/restart
    counters, cluster-wide retried/shed/fanout/stale counters, and an
    end-to-end latency histogram, [rvu_router_request_seconds], observed
    once per answer. A routed or shed request is observed under its own
    context, so with tracing on each bucket's exemplar names the trace of
    a request that landed there. *)

type endpoint = {
  host : string;
  port : int;
  spawn : string array option;
      (** [Some argv] for workers the router owns: spawned at startup
          (stdio on [/dev/null]) and respawned with backoff whenever the
          process dies. [None] for externally managed workers — the
          router only (re)connects. *)
}

type config = {
  probe_interval_ms : float;  (** health-probe period per shard *)
  restart_backoff_ms : float;  (** delay before reconnect/respawn *)
  route_timeout_ms : float;
      (** per-dispatch budget on one shard before the router re-routes
          the request: each attempt, retries included, gets the whole
          budget from its own dispatch (also the fan-out collection
          budget). The retry goes to another ready shard: the one that
          timed out is left out of the pick unless it is the only ready
          one. *)
  max_retries : int;  (** re-route attempts before shedding *)
  max_request_bytes : int;
      (** the shards' limit on a request record. The router's own limit
          is [max_request_bytes - envelope_bytes], on a record measured
          in the shard codec: the client's record itself when the codecs
          match, its transcoded form when they differ. Under it, no
          forward exceeds [max_request_bytes], router id and trace
          member included. A record past it is refused at once with
          [invalid_request], naming that limit ({!Rvu_service.Conn.too_large});
          a record refused for its transcoded size is named in the shard
          codec and keeps its id. A client line is never held whole past
          the limit, and a client frame past it closes the connection,
          as on a server. *)
  connect_timeout_ms : float;
      (** how long {!create} waits for the initial shard connections;
          shards still unreachable stay down and keep being retried by
          the supervisor *)
  wire : Rvu_service.Wire_bin.mode;
      (** the {e shard-side} codec. [Binary] upgrades every worker
          connection with a [hello] handshake right after connect and
          then speaks length-prefixed frames both ways; requests and
          responses are byte-spliced exactly like the JSON path
          ({!Frame}), so routed binary responses stay byte-identical to
          a direct binary server's. Client connections always start in
          JSON and negotiate their own codec per connection regardless
          ({!serve_channels}), with a transcode at the router when the
          two sides differ. *)
}

val envelope_bytes : int
(** The most a forward adds to a record in the shard codec: 91 bytes,
    the router's id member (25 bytes as JSON with a 19-digit id, 15 as
    binary) and the trace member tracing adds (66 bytes as JSON, 69 as
    binary). *)

val default_config : config
(** [{probe_interval_ms = 250.; restart_backoff_ms = 500.;
    route_timeout_ms = 30_000.; max_retries = 3;
    max_request_bytes = 1_048_576; connect_timeout_ms = 10_000.;
    wire = Json}]. *)

type t

val create : ?config:config -> endpoints:endpoint list -> unit -> t
(** Spawn owned workers, connect to every endpoint (within
    [connect_timeout_ms]; stragglers stay down and are retried in the
    background), and start the supervisor. *)

val handle_line : t -> string -> respond:(string -> unit) -> unit
(** Process one client line. [respond] is called exactly once with the
    response line — synchronously for local rejections, from a shard
    reader or supervisor domain otherwise. Same contract as
    {!Rvu_service.Server.handle_line}: [respond] must be domain-safe and
    must not raise. *)

val handle_sync : t -> string -> string
(** [handle_line] plus blocking until the response arrives. *)

val handle_payload : t -> string -> respond:(string -> unit) -> unit
(** The binary-path analogue of {!handle_line}: process one decoded
    frame payload from a binary-mode client ({!Rvu_service.Wire_bin},
    length prefix already stripped); [respond] receives the response
    payload (unframed). Works against shards of either codec — verbatim
    forwarding when they match the client, a per-request transcode when
    they do not. *)

val handle_payload_sync : t -> string -> string
(** [handle_payload] plus blocking until the response arrives. *)

val shard_statuses : t -> string array
(** Current per-shard supervisor state, ["ready"]/["degraded"]/["down"] —
    the ring admits exactly the ["ready"] ones. For tests and stats. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** One {!Rvu_service.Conn.serve} session over {!handle_line}/
    {!handle_payload} — the session loop a direct server runs: serve
    until end-of-input, then flush and wait for this session's own
    answers only, however long other clients' requests take. Connections
    start as NDJSON; a first-record [hello] with ["wire":"binary"]
    upgrades the connection to length-prefixed binary frames. *)

val serve_tcp : t -> host:string -> port:int -> ?connections:int -> unit -> unit
(** {!Rvu_service.Conn.listen} as ["rvu router"], serving each accepted
    connection on its own domain (concurrent, unlike the single-shard
    server — the router is the process clients share); the domains are
    joined before returning. [connections] bounds how many connections
    to accept before returning (default: forever). *)

val stop : t -> unit
(** Stop the supervisor, close shard connections (in-flight requests are
    shed), terminate owned workers, and join every domain. *)
