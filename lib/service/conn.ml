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

let write mode oc record =
  (match mode with
  | Wire_bin.Json ->
      output_string oc record;
      output_char oc '\n'
  | Wire_bin.Binary -> Wire_bin.output_frame oc record);
  flush oc

let read_records ?max_bytes mode ic f =
  match mode with
  | Wire_bin.Json ->
      let rec lines () =
        match input_line ic with
        | exception End_of_file -> ()
        | line ->
            f line;
            lines ()
      in
      lines ()
  | Wire_bin.Binary ->
      let rec frames () =
        match Wire_bin.input_frame ?max_bytes ic with
        | Wire_bin.Frame payload ->
            f payload;
            frames ()
        | Wire_bin.Eof | Wire_bin.Truncated | Wire_bin.Oversized _ -> ()
      in
      frames ()

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

let serve ?(wire = Wire_bin.Json) ?on_hello ?on_oversized ~max_bytes
    ~handle_line ~handle_payload ~wait_idle ic oc =
  let lock = Mutex.create () in
  (* A request is answered in the mode it arrived in. The mode flips only
     after a first-record hello has been answered, with nothing
     outstanding, so every answer goes out in the connection's mode. *)
  let respond mode record =
    Mutex.lock lock;
    (try
       (* Injected connection drop: the peer vanished between accept and
          response. The write path must swallow it like a real EPIPE. *)
       if Rvu_obs.Fault.fire fault_drop_conn then raise Exit;
       write mode oc record
     with _ -> () (* peer went away; keep serving the rest *));
    Mutex.unlock lock
  in
  let respond_line = respond Wire_bin.Json in
  let respond_frame = respond Wire_bin.Binary in
  let rec lines ~first =
    match input_line ic with
    | exception End_of_file -> ()
    | line -> line_record ~first line
  and line_record ~first line =
    if String.trim line = "" then lines ~first
    else
      match if first then hello line else None with
      | Some (env, m) -> (
          let ctx = Rvu_obs.Ctx.derive env.Proto.id in
          Rvu_obs.Ctx.with_ctx { cid = ctx; span = None } (fun () ->
              let t0 = Rvu_obs.Clock.now_s () in
              respond_line
                (Wire.print
                   (Proto.ok_response ~ctx ~id:env.Proto.id
                      (Wire.Obj
                         [ ("wire", Wire.String (Wire_bin.mode_string m)) ])));
              Option.iter (fun f -> f ~t0) on_hello);
          match m with
          | Wire_bin.Json -> lines ~first:false
          | Wire_bin.Binary -> frames None)
      | None ->
          handle_line line ~respond:respond_line;
          lines ~first:false
  and frames first_byte =
    match Wire_bin.input_frame ?first:first_byte ~max_bytes ic with
    | Wire_bin.Frame payload ->
        handle_payload payload ~respond:respond_frame;
        frames None
    | Wire_bin.Eof -> ()
    | Wire_bin.Truncated ->
        (* Nothing to answer (the record never arrived whole) and nothing
           to resync to. *)
        Rvu_obs.Log.warn "connection closed mid-frame"
    | Wire_bin.Oversized bytes ->
        let ctx = Rvu_obs.Ctx.generate () in
        Rvu_obs.Ctx.with_ctx { cid = ctx; span = None } (fun () ->
            respond_frame
              (Wire_bin.encode
                 (Proto.error_response ~ctx ~id:Wire.Null Proto.Invalid_request
                    (too_large Wire_bin.Binary bytes ~limit:max_bytes)));
            Option.iter (fun f -> f bytes) on_oversized)
  in
  Fun.protect
    ~finally:(fun () ->
      wait_idle ();
      try flush oc with _ -> ())
    (fun () ->
      match wire with
      | Wire_bin.Json -> lines ~first:true
      | Wire_bin.Binary -> (
          (* Pinned-binary start: a '{' first byte is a JSON client
             (typically a hello upgrade line); pinned peers start framing
             at byte zero and never hit this. *)
          match input_char ic with
          | exception End_of_file -> ()
          | '{' ->
              line_record ~first:true
                (match input_line ic with
                | rest -> "{" ^ rest
                | exception End_of_file -> "{")
          | c -> frames (Some c)))

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
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
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
      match Unix.accept sock with
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
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
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
