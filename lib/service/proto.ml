open Rvu_core
module Registry = Rvu_model.Registry
module Unknown_attributes = Rvu_model.Unknown_attributes

type error_code =
  | Parse_error
  | Invalid_request
  | Overloaded
  | Timeout
  | Internal

let code_string = function
  | Parse_error -> "parse_error"
  | Invalid_request -> "invalid_request"
  | Overloaded -> "overloaded"
  | Timeout -> "timeout"
  | Internal -> "internal"

type simulate = Unknown_attributes.args = {
  attrs : Attributes.t;
  d : float;
  bearing : float;
  r : float;
  horizon : float;
  algorithm4 : bool;
  transform : Symmetry.t;
}

type search = { d : float; bearing : float; r : float; horizon : float }
type bound_query = { attrs : Attributes.t; d : float; r : float }

type batch = {
  attrs : Attributes.t;
  d_lo : float;
  d_hi : float;
  points : int;
  bearing : float;
  r : float;
  horizon : float;
}

type metrics_format = Metrics_json | Metrics_prometheus

type request =
  | Simulate of simulate
  | Model_run of { model : string; instance : Rvu_model.Model.instance }
  | Search of search
  | Feasibility of Attributes.t
  | Bound of bound_query
  | Schedule of int
  | Batch of batch
  | Stats
  | Metrics of metrics_format
  | Health
  | Hello of Wire_bin.mode

type envelope = {
  id : Wire.t;
  timeout_ms : float option;
  trace : string option;
  request : request;
}

(* ------------------------------------------------------------------ *)
(* Decoding *)

let ( let* ) = Result.bind

(* The field-parsing grammar and the attribute/geometry parsers moved to
   {!Rvu_model} (every model's [of_wire] shares them); the aliases keep
   the protocol's error strings and defaults exactly as they were. *)
let typed = Rvu_model.Model.typed
let float_field = Rvu_model.Model.float_field
let int_field = Rvu_model.Model.int_field
let string_field = Rvu_model.Model.string_field
let opt = Rvu_model.Model.opt
let positive = Rvu_model.Model.positive
let at_least_1 = Rvu_model.Model.at_least_1
let attrs_of = Unknown_attributes.attrs_of
let instance_of = Unknown_attributes.geometry_of

let body_of_wire w kind =
  match kind with
  | "simulate" -> (
      (* The optional ["model"] field selects a registry entry; absent
         means the paper's own model, and naming it explicitly decodes to
         the same plain [Simulate] (the canonical key then omits the
         field, so both spellings share one cache entry). *)
      match Wire.member "model" w with
      | None | Some Wire.Null ->
          let* s = Unknown_attributes.args_of_wire w in
          Ok (Simulate s)
      | Some (Wire.String m) when m = Unknown_attributes.name ->
          let* s = Unknown_attributes.args_of_wire w in
          Ok (Simulate s)
      | Some (Wire.String m) -> (
          match Registry.find m with
          | Some e ->
              let* instance = e.Registry.of_wire w in
              Ok (Model_run { model = m; instance })
          | None ->
              Error
                (Printf.sprintf
                   "field \"model\": unknown model %S (known: %s)" m
                   (String.concat ", " Registry.names)))
      | Some v -> typed "model" "a string" v)
  | "search" ->
      let* d, bearing, r, horizon = instance_of w in
      Ok (Search { d; bearing; r; horizon })
  | "feasibility" ->
      let* attrs = attrs_of w in
      Ok (Feasibility attrs)
  | "bound" ->
      let* attrs = attrs_of w in
      let* d = positive "d" (opt w "d" float_field ~default:2.0) in
      let* r = positive "r" (opt w "r" float_field ~default:0.1) in
      Ok (Bound { attrs; d; r })
  | "schedule" ->
      let* rounds = at_least_1 "rounds" (opt w "rounds" int_field ~default:8) in
      Ok (Schedule rounds)
  | "batch" ->
      let* attrs = attrs_of w in
      let* d_lo = positive "d_lo" (opt w "d_lo" float_field ~default:1.0) in
      let* d_hi = positive "d_hi" (opt w "d_hi" float_field ~default:4.0) in
      let* points = at_least_1 "points" (opt w "points" int_field ~default:8) in
      let* bearing = opt w "bearing" float_field ~default:0.9 in
      let* r = positive "r" (opt w "r" float_field ~default:0.1) in
      let* horizon =
        positive "horizon" (opt w "horizon" float_field ~default:1e8)
      in
      if not (Float.is_finite bearing) then
        Error "field \"bearing\": must be finite"
      else Ok (Batch { attrs; d_lo; d_hi; points; bearing; r; horizon })
  | "stats" -> Ok Stats
  | "health" -> Ok Health
  | "hello" -> (
      let* wire = opt w "wire" string_field ~default:"json" in
      match Wire_bin.mode_of_string wire with
      | Some m -> Ok (Hello m)
      | None ->
          Error
            (Printf.sprintf
               "field \"wire\": expected \"json\" or \"binary\", got %S" wire))
  | "metrics" -> (
      let* fmt = opt w "format" string_field ~default:"json" in
      match fmt with
      | "json" -> Ok (Metrics Metrics_json)
      | "prometheus" -> Ok (Metrics Metrics_prometheus)
      | f ->
          Error
            (Printf.sprintf
               "field \"format\": expected \"json\" or \"prometheus\", got %S"
               f))
  | k -> Error (Printf.sprintf "unknown request kind %S" k)

let valid_id = function
  | Wire.Null | Wire.Int _ | Wire.String _ -> true
  | _ -> false

let envelope_id w =
  match Wire.member "id" w with
  | None -> Ok Wire.Null
  | Some v when valid_id v -> Ok v
  | Some v -> typed "id" "an integer or string" v

let request_of_wire w =
  match w with
  | Wire.Obj _ ->
      let* id = envelope_id w in
      let* timeout_ms =
        match Wire.member "timeout_ms" w with
        | None | Some Wire.Null -> Ok None
        | Some v ->
            let* t = positive "timeout_ms" (float_field "timeout_ms" v) in
            Ok (Some t)
      in
      let* kind =
        match Wire.member "kind" w with
        | None -> Error "missing required field \"kind\""
        | Some v -> string_field "kind" v
      in
      (* The trace member is the router's propagated span context (a W3C
         traceparent string). Per the W3C rule a malformed or missing
         context is discarded, never an error — tracing must not be able
         to fail a request — so any non-string shape reads as absent. *)
      let trace =
        match Wire.member "trace" w with
        | Some (Wire.String s) -> Some s
        | _ -> None
      in
      let* request =
        match body_of_wire w kind with
        | Ok _ as ok -> ok
        | Error _ as e -> e
        | exception Invalid_argument msg -> Error msg
      in
      Ok { id; timeout_ms; trace; request }
  | v -> Error (Printf.sprintf "expected a request object, got %s" (Wire.kind_name v))

(* ------------------------------------------------------------------ *)
(* Encoding *)

let attrs_fields = Unknown_attributes.attrs_fields

let body_fields = function
  | Simulate s -> ("simulate", Unknown_attributes.key_fields s)
  | Model_run { model; instance } ->
      (* The model name leads the body, so canonical keys of different
         models can never collide even when their parameter fields
         coincide. *)
      ( "simulate",
        ("model", Wire.String model) :: instance.Rvu_model.Model.key_fields )
  | Search s ->
      ( "search",
        [
          ("d", Wire.Float s.d);
          ("bearing", Wire.Float s.bearing);
          ("r", Wire.Float s.r);
          ("horizon", Wire.Float s.horizon);
        ] )
  | Feasibility attrs -> ("feasibility", attrs_fields attrs)
  | Bound b ->
      ( "bound",
        attrs_fields b.attrs @ [ ("d", Wire.Float b.d); ("r", Wire.Float b.r) ]
      )
  | Schedule rounds -> ("schedule", [ ("rounds", Wire.Int rounds) ])
  | Batch b ->
      ( "batch",
        attrs_fields b.attrs
        @ [
            ("d_lo", Wire.Float b.d_lo);
            ("d_hi", Wire.Float b.d_hi);
            ("points", Wire.Int b.points);
            ("bearing", Wire.Float b.bearing);
            ("r", Wire.Float b.r);
            ("horizon", Wire.Float b.horizon);
          ] )
  | Stats -> ("stats", [])
  | Health -> ("health", [])
  | Hello m -> ("hello", [ ("wire", Wire.String (Wire_bin.mode_string m)) ])
  | Metrics fmt ->
      ( "metrics",
        [
          ( "format",
            Wire.String
              (match fmt with
              | Metrics_json -> "json"
              | Metrics_prometheus -> "prometheus") );
        ] )

let kind_string request = fst (body_fields request)

let wire_of_request ?id ?timeout_ms request =
  let kind, fields = body_fields request in
  let envelope =
    (match id with Some id -> [ ("id", id) ] | None -> [])
    @
    match timeout_ms with
    | Some t -> [ ("timeout_ms", Wire.Float t) ]
    | None -> []
  in
  Wire.Obj (envelope @ (("kind", Wire.String kind) :: fields))

let canonical_key request = Wire.print (wire_of_request request)

(* ------------------------------------------------------------------ *)
(* Responses *)

(* Responses echo the request's correlation id at the envelope level, so a
   client holding a response and an operator holding the log file meet on
   the same ["ctx"] string without consulting the server. *)
let ctx_field = function
  | Some cid -> [ ("ctx", Wire.String cid) ]
  | None -> []

let ok_response ?ctx ~id result =
  Wire.Obj ((("id", id) :: ctx_field ctx) @ [ ("ok", result) ])

let error_response ?ctx ~id code message =
  Wire.Obj
    ((("id", id) :: ctx_field ctx)
    @ [
        ( "error",
          Wire.Obj
            [
              ("code", Wire.String (code_string code));
              ("message", Wire.String message);
            ] );
      ])
