(** The request context: one ambient value per domain naming the request
    being served.

    A context pairs a correlation id — ["req-<id>"] derived from the wire
    envelope, or a generated ["c<hex>"] when the envelope has none — with
    an optional W3C-shaped span context that tracing propagates across
    processes. [Server] installs it once per request and
    [Pool.Persistent.submit] carries the submitter's context to the worker
    domain. Everything emitted while it is installed reads this one slot:
    {!Log} records carry the id as ["ctx"], {!Trace} events carry the id
    and the span ids, registry {!Metrics} histograms take the trace id as
    their exemplar, and the response envelope echoes the id — so one grep
    joins a log line, a trace lane, a metric exemplar and a response.

    The slot is domain-local ([Domain.DLS]): {!with_ctx} installs a
    context on the calling domain only, for the dynamic extent of a
    callback. *)

type span = {
  trace_id : string;  (** 32 lowercase hex chars *)
  span_id : string;  (** 16 lowercase hex chars *)
  parent_id : string option;  (** parent span, [None] at a trace root *)
}

type t = {
  cid : string;  (** the correlation id *)
  span : span option;  (** the span context; [None] with tracing off *)
}

val with_ctx : t -> (unit -> 'a) -> 'a
(** [with_ctx c f] runs [f] with [c] as the ambient context on this
    domain, restoring the previous one (if any) afterwards, exceptions
    included. *)

val current : unit -> t option
(** The context installed by the innermost {!with_ctx} on this domain. *)

(** {1 Correlation ids} *)

val derive : Wire.t -> string
(** The correlation id for a request envelope id: ["req-<n>"] for
    [Int n], ["req-<s>"] for [String s], and for any other shape
    (including [Null]) a fresh id ["c<16 hex digits>"]: the next output
    of a process-global SplitMix64 stream. Under the default seed the
    sequence is identical in every process, which keeps ids pinnable in
    cram tests. Processes that run side by side must not share a
    sequence — identical [c<hex>] strings would name different requests
    in a merged log or trace — so [rvu serve --tcp P] and
    [rvu router --tcp P] call [set_seed P]: ports are distinct per host,
    which separates spawned workers and [--connect] shards alike. *)

val set_seed : int -> unit
(** Reseed the correlation-id stream and reset its counter. *)

(** {1 Span contexts} *)

val new_root : unit -> span
(** A fresh trace: new trace id, new span id, no parent. Span ids come
    from their own stream, seeded from the pid and the monotonic clock so
    that processes started together never collide; tracing therefore
    never shifts the generated correlation-id sequence. *)

val child_of : span -> span
(** Same trace id, fresh span id, parented under [parent]'s span. *)

val to_traceparent : span -> string
(** ["00-<trace_id>-<span_id>-01"] — the W3C traceparent rendering
    carried in the wire frames' ["trace"] member. *)

val of_traceparent : string -> span option
(** Parse a traceparent string. [None] on anything malformed (wrong
    length, non-hex, all-zero ids) — per the W3C rule, a bad context is
    discarded, never an error. The result's [span_id] is the {e sender's}
    span; serve under {!child_of} of it. *)
