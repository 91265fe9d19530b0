(* One TCP client connection and the closed loop that drives it. The loop
   is single-threaded: it keeps [window] requests outstanding and sends
   the next one as soon as a response arrives. *)

open Rvu_service

type t = { ic : in_channel; oc : out_channel; wire : Wire_bin.mode }

let connect ~port ~wire =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let c =
    {
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      wire = Wire_bin.Json;
    }
  in
  match wire with
  | Wire_bin.Json -> c
  | Wire_bin.Binary ->
      (* The hello must be the first record; its response is still JSON. *)
      output_string c.oc "{\"id\":0,\"kind\":\"hello\",\"wire\":\"binary\"}\n";
      flush c.oc;
      let reply = input_line c.ic in
      if reply <> "{\"id\":0,\"ctx\":\"req-0\",\"ok\":{\"wire\":\"binary\"}}" then
        failwith ("binary upgrade refused: " ^ reply);
      { c with wire = Wire_bin.Binary }

let close c = close_out_noerr c.oc

let send c payload =
  (match c.wire with
  | Wire_bin.Json ->
      output_string c.oc payload;
      output_char c.oc '\n'
  | Wire_bin.Binary -> Wire_bin.output_frame c.oc payload);
  flush c.oc

let recv c =
  match c.wire with
  | Wire_bin.Json -> input_line c.ic
  | Wire_bin.Binary -> (
      match Wire_bin.input_frame c.ic with
      | Wire_bin.Frame p -> p
      | Wire_bin.Eof | Wire_bin.Truncated | Wire_bin.Oversized _ ->
          raise End_of_file)

(* ------------------------------------------------------------------ *)
(* Request bytes with a per-request id *)

(* A request's encoding split around its id value, so the hot loop only
   splices the id in. *)
type template = { pre : string; post : string }

let template ~wire request =
  let w = Proto.wire_of_request ~id:(Wire.Int 0) request in
  match wire with
  | Wire_bin.Json ->
      let s = Wire.print w in
      (* {"id":0,... *)
      { pre = "{\"id\":"; post = String.sub s 7 (String.length s - 7) }
  | Wire_bin.Binary -> (
      let s = Wire_bin.encode w in
      match Wire_bin.scan_request s with
      | Some { Wire_bin.id_value = Some (a, b); _ } ->
          { pre = String.sub s 0 a; post = String.sub s b (String.length s - b) }
      | _ -> invalid_arg "Client.template: no id span")

let encode_id ~wire id =
  match wire with
  | Wire_bin.Json -> string_of_int id
  | Wire_bin.Binary -> Wire_bin.encode (Wire.Int id)

let bytes ~wire t id = String.concat "" [ t.pre; encode_id ~wire id; t.post ]

(* The request id a response carries; [None] when it is not an integer
   (a request the server could not attribute). *)
let response_id ~wire resp =
  match wire with
  | Wire_bin.Json ->
      let n = String.length resp in
      if n < 7 || String.sub resp 0 6 <> "{\"id\":" then None
      else
        let rec digits i = if i < n && resp.[i] >= '0' && resp.[i] <= '9' then digits (i + 1) else i in
        let j = digits 6 in
        if j = 6 then None else int_of_string_opt (String.sub resp 6 (j - 6))
  | Wire_bin.Binary -> (
      match Rvu_cluster.Frame.bin_response_spans resp with
      | Some (rid, _, _) -> Some rid
      | None -> None)

(* The response value, decoded — for stats and error inspection only. *)
let decode ~wire resp =
  match wire with
  | Wire_bin.Json -> Result.map_error Wire.error_to_string (Wire.parse resp)
  | Wire_bin.Binary -> Wire_bin.decode resp

(* One synchronous round trip with nothing else outstanding. *)
let call c request_wire =
  send c
    (match c.wire with
    | Wire_bin.Json -> Wire.print request_wire
    | Wire_bin.Binary -> Wire_bin.encode request_wire);
  match decode ~wire:c.wire (recv c) with
  | Ok w -> w
  | Error e -> failwith ("undecodable response: " ^ e)

(* ------------------------------------------------------------------ *)
(* The closed loop *)

let now = Rvu_obs.Clock.now_s

(* Send requests [0, 1, ...] (bytes from [request k], id [first_id + k])
   keeping [window] outstanding, until [count] are sent or [deadline]
   passes, then drain. [on_response k resp latency_s] runs once per
   response, in arrival order. Returns how many were sent. *)
let closed_loop c ~window ~first_id ?count ?deadline ~request ~on_response () =
  let sent_at = ref (Array.make 1024 0.0) in
  let sent = ref 0 and outstanding = ref 0 in
  let more () =
    (match count with Some n -> !sent < n | None -> true)
    && match deadline with Some d -> now () < d | None -> true
  in
  let send_next () =
    let k = !sent in
    if k >= Array.length !sent_at then begin
      let a = Array.make (2 * k) 0.0 in
      Array.blit !sent_at 0 a 0 k;
      sent_at := a
    end;
    let b = request k in
    !sent_at.(k) <- now ();
    send c b;
    incr sent;
    incr outstanding
  in
  while !outstanding < window && more () do
    send_next ()
  done;
  while !outstanding > 0 do
    let resp = recv c in
    let t = now () in
    decr outstanding;
    (match response_id ~wire:c.wire resp with
    | Some id when id - first_id >= 0 && id - first_id < !sent ->
        let k = id - first_id in
        on_response k resp (t -. !sent_at.(k))
    | _ -> failwith ("response matches no request: " ^ String.escaped resp));
    if more () then send_next ()
  done;
  !sent
