(** The connection layer: how a record travels between a peer and a
    front end ({!Server}, or the cluster router).

    A record is one JSON line (its newline stripped) or one
    length-prefixed {!Wire_bin} frame payload, by the connection's
    {!Wire_bin.mode}. This module owns both front ends' sessions, their
    TCP listener, and the client side of the binary upgrade; the front
    ends pass in only their request handler, their refusal of an
    oversized record, an accounting hook and their accept policy.

    The handshake: every connection starts in JSON line discipline. A
    [hello] record with ["wire":"binary"] as the {e first} record flips
    both directions to frames; the hello response is still a JSON line,
    so the peer reads it before switching its own codec. A hello anywhere
    else reaches the front end's handler, which refuses it. No peer
    starts framing at byte zero: a frame sent before the hello reads as
    one garbage line. *)

val encode : Wire_bin.mode -> Wire.t -> string
(** A value as a record of [mode] ({!Wire.print} or {!Wire_bin.encode});
    raises [Invalid_argument] on a non-finite float. *)

val decode : Wire_bin.mode -> string -> (Wire.t, string) result
(** A record of [mode] as a value, with the codec's error message. *)

val too_large : Wire_bin.mode -> int -> limit:int -> string
(** [too_large mode bytes ~limit] refuses a request record of [bytes]
    bytes past [limit]: the one spelling of every size refusal, whether
    the session or the front end measured the record. *)

val write : Wire_bin.mode -> out_channel -> string -> unit
(** Write one record (a line and its newline, or a frame) and flush it:
    the client side's send and the router's forward to a shard. A
    session's own answers leave in batches instead ({!serve}). *)

val read_records :
  ?max_bytes:int -> Wire_bin.mode -> in_channel -> (string -> unit) -> unit
(** Call [f] on each record until the stream ends — at end of input, or
    for frames at a truncated one or one whose length prefix exceeds
    [max_bytes] (default: no limit). Lines are read whole, whatever their
    length: they come from a peer the caller connected to. Records are
    cut from one buffer per call, refilled with [input] (at most one
    read(2), and only when the channel's own buffer is empty); I/O
    errors propagate. *)

val serve :
  ?on_hello:(t0:float -> unit) ->
  max_bytes:int ->
  handle:(Wire_bin.mode -> string -> respond:(string -> unit) -> unit) ->
  oversized:(Wire_bin.mode -> int -> respond:(string -> unit) -> unit) ->
  in_channel ->
  out_channel ->
  unit
(** Serve one session until end of input, then flush and wait for the
    answers to this session's own records (each leaves at once). Records
    of other sessions on the same front end are not waited for.

    The session reads through one buffer of its own, refilled with
    [input] (at most one read(2), and only when the channel's own buffer
    is empty), and cuts records from it across refills. Each record goes
    to [handle mode record] (blank lines are skipped) with a [respond]
    that writes the answer in the record's own mode, under the
    connection's output lock; a failed write is swallowed, and so is one
    the [server.drop_conn] fault site drops. [respond] must be called
    once per record: the session counts the records it hands over and
    the answers they get, without allocating, and a handler that raises
    leaves its record uncounted (the exception then ends the session).
    Answers leave in batches: one written while the session dispatches
    records it already holds stays in [oc] until the session flushes,
    just before a read that may block and at its end; one written while
    the session waits for input (a pool worker's, a shard reader's) is
    flushed at once.

    A first-record hello is answered here, under its request context, and
    then [on_hello ~t0] runs (the answer's start time); the rest of the
    buffer is then cut into frames. A record past [max_bytes] goes to
    [oversized mode bytes] instead, with its length, and is answered
    like any other. A line is never held whole past the limit: its bytes
    are counted up to its newline, where the next line begins, so the
    connection stays open. A frame's payload is never read, so the
    stream position is unknowable and the connection closes. A frame cut
    off by end of input closes the connection with nothing to answer. *)

val resolve : string -> Unix.inet_addr
(** Resolve a host name or dotted quad (first address wins), raising
    [Invalid_argument] when it does not resolve. *)

val listen :
  name:string ->
  host:string ->
  port:int ->
  ?connections:int ->
  run:((unit -> unit) -> unit) ->
  (in_channel -> out_channel -> unit) ->
  unit
(** Bind [host:port], print ["<name>: listening on <host>:<port>"] to
    [stderr], and accept connections (retrying on [EINTR]) until
    [connections] have been accepted (default: forever). SIGPIPE is
    ignored, so a vanished peer surfaces as a write error. The listening
    and accepted sockets are close-on-exec, so a process the front end
    spawns holds no connection open. Each
    connection's job — its session on the socket's channels (a {!serve}
    session ends when its own answers are out, whatever other
    connections still wait for), an error logged and printed rather than
    raised, then the close — is handed to [run], the front end's accept
    policy: [fun job -> job ()] serves connections one at a time,
    spawning a domain serves them concurrently. *)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

val connect : ?timeout_s:float -> Wire_bin.mode -> Unix.sockaddr -> client
(** Connect to a front end and, for [Binary], upgrade the connection with
    the hello handshake (request id 0, which clients keep out of their
    own numbering); [timeout_s] bounds the wait for its answer. The
    socket is close-on-exec. Raises
    [Unix.Unix_error] when the peer is unreachable and [Failure] when it
    does not acknowledge the upgrade; the socket is closed either way. *)
