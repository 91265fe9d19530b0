(* Injection point (Rvu_obs.Fault): a connection dropped mid-write must not
   take the serving loop down. *)
let fault_drop_conn = Rvu_obs.Fault.site "server.drop_conn"

let encode mode w =
  match mode with
  | Wire_bin.Json -> Wire.print w
  | Wire_bin.Binary -> Wire_bin.encode w

let decode mode record =
  match mode with
  | Wire_bin.Json -> Result.map_error Wire.error_to_string (Wire.parse record)
  | Wire_bin.Binary -> Wire_bin.decode record

let too_large mode bytes ~limit =
  Printf.sprintf "request %s of %d bytes exceeds the %d byte limit"
    (match mode with Wire_bin.Json -> "line" | Wire_bin.Binary -> "frame")
    bytes limit

(* One record, left in the channel's buffer. *)
let output_record mode oc record =
  match mode with
  | Wire_bin.Json ->
      output_string oc record;
      output_char oc '\n'
  | Wire_bin.Binary -> Wire_bin.output_frame oc record

let write mode oc record =
  output_record mode oc record;
  flush oc

(* ------------------------------------------------------------------ *)
(* The record reader *)

(* A connection's input, cut into records. The reader owns a byte buffer
   that [input] refills — at most one read(2), made only when the
   channel's own buffer is empty — and cuts lines or frames out of it, a
   record at a time and across refills, so the mode can change between
   two records of one refill. [idle true] runs just before each refill,
   which may block, and [idle false] once one has brought bytes. *)
type reader = {
  ic : in_channel;
  max_bytes : int;
  cap : int;  (* the largest the buffer grows: a whole frame and a byte *)
  idle : bool -> unit;
  mutable buf : Bytes.t;
  mutable pos : int;  (* the first byte not yet cut into a record *)
  mutable lim : int;  (* the end of the bytes read; [buf] holds one more *)
  mutable scan : int;  (* no newline in [pos, scan) *)
}

(* A record past [max_bytes], with its length: a line, skipped to its
   newline, or a frame, whose payload is left unread. *)
exception Oversized of int

(* End of input inside a frame. *)
exception Truncated

let reader ?(idle = ignore) ~max_bytes ic =
  let cap =
    if max_bytes > Sys.max_string_length - 5 then Sys.max_string_length
    else max_bytes + 5
  in
  {
    ic;
    max_bytes;
    cap;
    idle;
    buf = Bytes.create (min 4096 cap);
    pos = 0;
    lim = 0;
    scan = 0;
  }

(* Read more after [lim], first moving the unread bytes to the front and
   doubling a buffer they fill. [false] at end of input. *)
let refill r =
  if r.pos > 0 then begin
    Bytes.blit r.buf r.pos r.buf 0 (r.lim - r.pos);
    r.lim <- r.lim - r.pos;
    r.scan <- r.scan - r.pos;
    r.pos <- 0
  end;
  if r.lim + 1 >= Bytes.length r.buf then begin
    let b = Bytes.create (min r.cap (2 * Bytes.length r.buf)) in
    Bytes.blit r.buf 0 b 0 r.lim;
    r.buf <- b
  end;
  r.idle true;
  let n = input r.ic r.buf r.lim (Bytes.length r.buf - 1 - r.lim) in
  r.lim <- r.lim + n;
  if n > 0 then r.idle false;
  n > 0

(* The first newline at or after [i], or [lim] when there is none: the
   byte past the data is a newline sentinel. *)
let newline r i =
  Bytes.unsafe_set r.buf r.lim '\n';
  let i = ref i in
  while Bytes.unsafe_get r.buf !i <> '\n' do
    incr i
  done;
  !i

let consume r next =
  r.pos <- next;
  r.scan <- next

let cut r stop next =
  let s = Bytes.sub_string r.buf r.pos (stop - r.pos) in
  consume r next;
  s

(* The next line, without its newline; a last line that ends at end of
   input counts. A line longer than [max_bytes] is not kept: its bytes
   are counted up to its newline, and it raises [Oversized]. *)
let rec line r =
  let i = newline r r.scan in
  if i < r.lim then begin
    let n = i - r.pos in
    if n > r.max_bytes then begin
      consume r (i + 1);
      raise (Oversized n)
    end;
    cut r i (i + 1)
  end
  else begin
    r.scan <- r.lim;
    if r.lim - r.pos > r.max_bytes then skip r (r.lim - r.pos)
    else if refill r then line r
    else if r.lim > r.pos then cut r r.lim r.lim
    else raise End_of_file
  end

and skip r n =
  r.pos <- 0;
  r.lim <- 0;
  r.scan <- 0;
  if not (refill r) then raise (Oversized n);
  let i = newline r 0 in
  if i < r.lim then begin
    consume r (i + 1);
    raise (Oversized (n + i))
  end
  else skip r (n + r.lim)

(* At least [n] bytes buffered from [pos]; [false] if input ends first. *)
let rec holds r n = r.lim - r.pos >= n || (refill r && holds r n)

let frame r =
  if not (holds r 4) then
    raise (if r.lim > r.pos then Truncated else End_of_file);
  let b = r.buf and p = r.pos in
  let len =
    (Char.code (Bytes.get b p) lsl 24)
    lor (Char.code (Bytes.get b (p + 1)) lsl 16)
    lor (Char.code (Bytes.get b (p + 2)) lsl 8)
    lor Char.code (Bytes.get b (p + 3))
  in
  if len > r.max_bytes then raise (Oversized len);
  if not (holds r (4 + len)) then raise Truncated;
  let stop = r.pos + 4 + len in
  r.pos <- r.pos + 4;
  cut r stop stop

let read_records ?max_bytes mode ic f =
  let r, next =
    match mode with
    | Wire_bin.Json -> (reader ~max_bytes:max_int ic, line)
    | Wire_bin.Binary ->
        (reader ~max_bytes:(Option.value max_bytes ~default:max_int) ic, frame)
  in
  let rec records () =
    match next r with
    | record ->
        f record;
        records ()
    | exception (End_of_file | Truncated | Oversized _) -> ()
  in
  records ()

(* ------------------------------------------------------------------ *)
(* Sessions *)

(* The first record on a connection, if it is a well-formed hello —
   anything else (including a malformed one) takes the ordinary request
   path and the connection stays JSON. *)
let hello line =
  match Wire.parse line with
  | Error _ -> None
  | Ok w -> (
      match Proto.request_of_wire w with
      | Ok ({ Proto.request = Proto.Hello m; _ } as env) -> Some (env, m)
      | Ok _ | Error _ -> None)

let serve ?on_hello ~max_bytes ~handle ~oversized ic oc =
  let lock = Mutex.create () and drained = Condition.create () in
  (* Under [lock]: whether the session is dispatching records it already
     holds. Their answers stay in [oc] until the session flushes, just
     before a read that may block or at its end; an answer written while
     it waits for input (a pool worker's, a shard reader's) is flushed at
     once. *)
  let dispatching = ref false in
  (* Records this session handed to its front end and has not yet seen
     answered. It is raised on the session's domain; the answer that
     brings it to zero, on whatever domain, signals [drained] under
     [lock], where the session's last wait reads it. *)
  let pending = Atomic.make 0 in
  let idle waiting =
    Mutex.lock lock;
    dispatching := not waiting;
    (if waiting then try flush oc with _ -> ());
    Mutex.unlock lock
  in
  (* A request is answered in the mode it arrived in. The mode flips only
     after a first-record hello has been answered, with nothing
     outstanding, so every answer goes out in the connection's mode. *)
  let respond mode record =
    Mutex.lock lock;
    (try
       (* Injected connection drop: the peer vanished between accept and
          response. The write path must swallow it like a real EPIPE. *)
       if Rvu_obs.Fault.fire fault_drop_conn then raise Exit;
       output_record mode oc record;
       if not !dispatching then flush oc
     with _ -> () (* peer went away; keep serving the rest *));
    if Atomic.fetch_and_add pending (-1) = 1 then Condition.signal drained;
    Mutex.unlock lock
  in
  let respond_line = respond Wire_bin.Json in
  let respond_frame = respond Wire_bin.Binary in
  (* Hand a record (or an oversized one's length) to the front end. A
     handler that raises leaves no answer to wait for. *)
  let hand f mode x respond =
    Atomic.incr pending;
    match f mode x ~respond with
    | () -> ()
    | exception e ->
        Atomic.decr pending;
        raise e
  in
  let r = reader ~idle ~max_bytes ic in
  let rec lines ~first =
    match line r with
    | record -> line_record ~first record
    | exception End_of_file -> ()
    | exception Oversized bytes ->
        (* The line was skipped to its newline, where the next begins. *)
        hand oversized Wire_bin.Json bytes respond_line;
        lines ~first:false
  and line_record ~first line =
    if String.trim line = "" then lines ~first
    else
      match if first then hello line else None with
      | Some (env, m) -> (
          let ctx = Rvu_obs.Ctx.derive env.Proto.id in
          Rvu_obs.Ctx.with_ctx { cid = ctx; span = None } (fun () ->
              let t0 = Rvu_obs.Clock.now_s () in
              (* The session's own answer, counted like a front end's. *)
              Atomic.incr pending;
              respond_line
                (Wire.print
                   (Proto.ok_response ~ctx ~id:env.Proto.id
                      (Wire.Obj
                         [ ("wire", Wire.String (Wire_bin.mode_string m)) ])));
              Option.iter (fun f -> f ~t0) on_hello);
          match m with
          | Wire_bin.Json -> lines ~first:false
          | Wire_bin.Binary -> frames ())
      | None ->
          hand handle Wire_bin.Json line respond_line;
          lines ~first:false
  and frames () =
    match frame r with
    | payload ->
        hand handle Wire_bin.Binary payload respond_frame;
        frames ()
    | exception End_of_file -> ()
    | exception Truncated ->
        (* Nothing to answer (the record never arrived whole) and nothing
           to resync to. *)
        Rvu_obs.Log.warn "connection closed mid-frame"
    | exception Oversized bytes ->
        (* The payload was never read: the stream position is lost. *)
        hand oversized Wire_bin.Binary bytes respond_frame
  in
  Fun.protect
    ~finally:(fun () ->
      (* Flush, then wait for this session's own answers only; each
         leaves at once. *)
      idle true;
      Mutex.lock lock;
      while Atomic.get pending > 0 do
        Condition.wait drained lock
      done;
      Mutex.unlock lock)
    (fun () -> lines ~first:true)

(* ------------------------------------------------------------------ *)
(* Listener *)

let resolve host =
  try Unix.inet_addr_of_string host
  with _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
    | _ | (exception Not_found) ->
        invalid_arg (Printf.sprintf "Conn.resolve: cannot resolve %S" host))

let listen ~name ~host ~port ?connections ~run session =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  (* Close-on-exec, as every socket here: a process the front end spawns
     (the router's workers) must not hold a client or shard connection
     open past its owner's close. *)
  let sock = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (resolve host, port));
  Unix.listen sock 64;
  Printf.eprintf "%s: listening on %s:%d\n%!" name host port;
  let job fd () =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    Rvu_obs.Log.debug "connection accepted";
    (try session ic oc
     with e ->
       let exn = Printexc.to_string e in
       Rvu_obs.Log.error
         ~fields:[ ("exn", Wire.String exn) ]
         "connection error";
       Printf.eprintf "%s: connection error: %s\n%!" name exn);
    Rvu_obs.Log.debug "connection closed";
    (* One close only: ic and oc share the descriptor. *)
    close_out_noerr oc
  in
  let rec accept remaining =
    if remaining <> Some 0 then
      match Unix.accept ~cloexec:true sock with
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
          (* A signal landed on this thread; its handler decides. *)
          accept remaining
      | fd, _peer ->
          run (job fd);
          accept (Option.map (fun n -> n - 1) remaining)
  in
  accept connections;
  Unix.close sock

(* ------------------------------------------------------------------ *)
(* Client side *)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let upgraded c =
  match
    write Wire_bin.Json c.oc {|{"id":0,"kind":"hello","wire":"binary"}|};
    input_line c.ic
  with
  | exception (End_of_file | Sys_error _) -> false
  | reply -> (
      match Wire.parse reply with
      | Ok w ->
          Option.bind (Wire.member "ok" w) (Wire.member "wire")
          = Some (Wire.String "binary")
      | Error _ -> false)

let connect ?timeout_s wire addr =
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  try
    Unix.connect fd addr;
    let ic = Unix.in_channel_of_descr fd in
    let c = { fd; ic; oc = Unix.out_channel_of_descr fd } in
    (match wire with
    | Wire_bin.Json -> ()
    | Wire_bin.Binary ->
        Option.iter (Unix.setsockopt_float fd Unix.SO_RCVTIMEO) timeout_s;
        if not (upgraded c) then
          failwith "Conn.connect: binary upgrade refused";
        if timeout_s <> None then
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.0);
    c
  with e ->
    (try Unix.close fd with _ -> ());
    raise e
