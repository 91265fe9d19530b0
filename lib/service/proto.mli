(** The request/response protocol of the evaluation server.

    One request per line, one response per line, both JSON ({!Wire}).
    A request is an object with a ["kind"] field selecting the operation
    and optional parameter fields; every omitted parameter takes the same
    default as the corresponding [rvu] CLI flag, so
    [{"kind":"simulate","tau":0.5}] means exactly [rvu simulate --tau 0.5].

    Envelope fields (never part of the cache key):
    - ["id"] — echoed verbatim in the response, so clients can pipeline
      requests and match out-of-order completions. Integer or string (or
      omitted, echoed as [null]).
    - ["timeout_ms"] — per-request queue-wait budget, overriding the
      server's [--timeout] default.

    Responses are [{"id":…,"ok":…}] or
    [{"id":…,"error":{"code":…,"message":…}}]. *)

type error_code =
  | Parse_error  (** the line was not valid JSON *)
  | Invalid_request  (** valid JSON, but not a valid request *)
  | Overloaded  (** shed by admission control: the pending queue is full *)
  | Timeout  (** spent longer than its budget waiting in the queue *)
  | Internal  (** the handler raised; the message carries the exception *)

val code_string : error_code -> string
(** Stable wire identifiers: ["parse_error"], ["invalid_request"],
    ["overloaded"], ["timeout"], ["internal"]. *)

type simulate = Rvu_model.Unknown_attributes.args = {
  attrs : Rvu_core.Attributes.t;
  d : float;
  bearing : float;
  r : float;
  horizon : float;
  algorithm4 : bool;
  transform : Rvu_core.Symmetry.t;
      (** frame transform applied to the {e program} (the geometry fields
          above are taken as already transformed). Wire form: optional
          nested object [{"transform":{"rotate":ψ,"mirror":m,"scale":σ}}],
          default identity; identity is omitted on encode so existing
          request lines keep their canonical cache keys. The verify
          campaigns use this to push metamorphic cases through a live
          server. *)
}

type search = { d : float; bearing : float; r : float; horizon : float }

type bound_query = { attrs : Rvu_core.Attributes.t; d : float; r : float }

type batch = {
  attrs : Rvu_core.Attributes.t;
  d_lo : float;
  d_hi : float;
  points : int;
  bearing : float;
  r : float;
  horizon : float;
}

type metrics_format =
  | Metrics_json  (** the {!Rvu_obs.Metrics.json} snapshot *)
  | Metrics_prometheus
      (** {!Rvu_obs.Metrics.expose} text, delivered as one JSON string *)

type request =
  | Simulate of simulate
  | Model_run of { model : string; instance : Rvu_model.Model.instance }
      (** a rival model's simulate request, selected by the wire field
          ["model"] on a ["simulate"] line (absent means the paper's
          model, and an explicit ["unknown_attributes"] normalises to
          plain [Simulate]). The decoded {!Rvu_model.Model.instance} is
          self-contained, so handlers never branch on the model name. *)
  | Search of search
  | Feasibility of Rvu_core.Attributes.t
  | Bound of bound_query
  | Schedule of int  (** rounds to list *)
  | Batch of batch
  | Stats  (** server counters; answered by the server itself, uncached *)
  | Metrics of metrics_format
      (** process-wide metrics registry; answered by the server itself,
          uncached (selected by the optional ["format"] field, default
          ["json"]) *)
  | Health
      (** readiness probe for load balancers; answered by the server
          itself, synchronously and uncached, as
          [{"status":"ready"|"degraded",…}] — degraded while the queue is
          saturated or requests were shed since the previous probe *)
  | Hello of Wire_bin.mode
      (** wire-codec negotiation (the optional ["wire"] field, default
          ["json"]); answered by the server itself, synchronously and
          uncached, with [{"ok":{"wire":…}}]. Only honoured as the
          {e first} record on a connection — see DESIGN.md section 17 *)

type envelope = {
  id : Wire.t;  (** [Null], [Int] or [String] *)
  timeout_ms : float option;
  trace : string option;
      (** the optional ["trace"] member: a W3C traceparent string
          ([00-<32 hex>-<16 hex>-01]) carrying the sender's span context
          — spliced in by the router on routed requests. Any malformed
          shape reads as [None] (tracing never fails a request); the
          member is ignored by {!canonical_key}, so it never splits the
          cache. *)
  request : request;
}

val valid_id : Wire.t -> bool
(** Whether a value may stand as an envelope ["id"]: [Null], [Int] or
    [String]. *)

val envelope_id : Wire.t -> (Wire.t, string) result
(** The ["id"] member of a request object, [Null] when absent, or the
    error {!request_of_wire} answers for an id of any other shape: the
    one id rule, so every front end accepts and rejects the same ids with
    the same message. *)

val request_of_wire : Wire.t -> (envelope, string) result
(** Decode a parsed request line. [Error] messages name the offending
    field and the type found, e.g.
    ["field \"v\": expected a number, got string"]. All numeric parameters
    are validated here (positive, finite; [points]/[rounds] at least 1) so
    handlers never see nonsense. *)

val wire_of_request : ?id:Wire.t -> ?timeout_ms:float -> request -> Wire.t
(** Encode — the load generator builds its scenario mix with this, which
    keeps it round-trip-consistent with {!request_of_wire} by
    construction. *)

val kind_string : request -> string
(** The wire ["kind"] of a request (["simulate"], ["stats"], …) — the label
    the server files per-kind latency metrics under. *)

val canonical_key : request -> string
(** The cache key: the request printed compactly with fixed field order and
    the envelope ([id], [timeout_ms]) stripped. Two textually different
    request lines that decode to the same request share one key. *)

val ok_response : ?ctx:string -> id:Wire.t -> Wire.t -> Wire.t
val error_response : ?ctx:string -> id:Wire.t -> error_code -> string -> Wire.t
(** [ctx] is the request's {!Rvu_obs.Ctx} correlation id, echoed as an
    envelope-level ["ctx"] field ([{"id":…,"ctx":…,"ok":…}]) so responses,
    log records and trace spans can be joined on one string. *)
