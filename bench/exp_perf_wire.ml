(* PERF-WIRE — the binary wire codec against the JSON baseline.

   Two layers, both against the same corpus of real protocol traffic
   (request envelopes plus the server's own responses to them):

     codec       encode/decode microbench for both codecs: ns/op and
                 bytes/op. Gate: the binary round trip (encode + decode)
                 must be at least 2x faster than the JSON round trip.
     warm serve  minor-heap words per request across N warm repeats of a
                 cacheable workload, on the JSON line path and on the
                 binary frame path (both answer a warm repeat from the
                 frame cache, splicing memoized bytes without decoding).
                 Gates: the binary path allocates at most 190 words per
                 request, and the JSON path at most twice what binary
                 does. The wall clocks of the two loops are reported as
                 the end-to-end warm-serve delta.

   Emits BENCH_9.json. *)

module Wire = Rvu_service.Wire
module Wb = Rvu_service.Wire_bin
module Server = Rvu_service.Server

(* The workload: distinct scenarios of the family, all cacheable
   (echoable int ids, no per-request timeout) so the warm passes hit the
   result/frame caches on every request. *)
let request_lines =
  let n = 16 in
  Array.init n (fun i ->
      Util.line ~id:(i + 1) (Util.scenario ~n ~d:8.0 ~r:0.01 i))

let parse_exn s =
  match Wire.parse s with
  | Ok w -> w
  | Error e ->
      failwith
        ("perf-wire: corpus line does not parse: " ^ Wire.error_to_string e)

let decode_exn p =
  match Wb.decode p with
  | Ok w -> w
  | Error msg -> failwith ("perf-wire: corpus payload does not decode: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Codec microbench *)

let time_per_op f ops =
  let _, wall = Util.wall_clock f in
  wall *. 1e9 /. float_of_int ops

let mean_length a =
  Array.fold_left (fun acc s -> acc +. float_of_int (String.length s)) 0.0 a
  /. float_of_int (Array.length a)

let codec_bench corpus =
  let n = Array.length corpus in
  let reps = 2_000 in
  let ops = reps * n in
  let json = Array.map Wire.print corpus in
  let bin = Array.map Wb.encode corpus in
  let json_encode_ns =
    time_per_op
      (fun () ->
        for _ = 1 to reps do
          Array.iter (fun w -> ignore (Sys.opaque_identity (Wire.print w))) corpus
        done)
      ops
  in
  let bin_encode_ns =
    time_per_op
      (fun () ->
        for _ = 1 to reps do
          Array.iter (fun w -> ignore (Sys.opaque_identity (Wb.encode w))) corpus
        done)
      ops
  in
  let json_decode_ns =
    time_per_op
      (fun () ->
        for _ = 1 to reps do
          Array.iter (fun s -> ignore (Sys.opaque_identity (Wire.parse s))) json
        done)
      ops
  in
  let bin_decode_ns =
    time_per_op
      (fun () ->
        for _ = 1 to reps do
          Array.iter (fun p -> ignore (Sys.opaque_identity (Wb.decode p))) bin
        done)
      ops
  in
  ( json_encode_ns,
    json_decode_ns,
    bin_encode_ns,
    bin_decode_ns,
    mean_length json,
    mean_length bin )

(* ------------------------------------------------------------------ *)
(* Warm-serve allocation *)

(* Replay [inputs] once through [handle] synchronously (the warm-up /
   cache-fill pass), then measure [rounds] full replays: every request
   must answer synchronously from a cache hit on this domain, so the
   minor-words delta is exactly the warm path's allocation. *)
let warm_pass ~handle ~handle_sync inputs rounds =
  Array.iter (fun x -> ignore (handle_sync x)) inputs;
  let n = rounds * Array.length inputs in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  let _, wall =
    Util.wall_clock (fun () ->
        for _ = 1 to rounds do
          Array.iter (fun x -> handle x ~respond:(fun _ -> incr hits)) inputs
        done)
  in
  let words = Gc.minor_words () -. before in
  if !hits <> n then
    failwith
      (Printf.sprintf
         "perf-wire: %d of %d warm requests did not answer synchronously"
         (n - !hits) n);
  (words /. float_of_int n, wall)

let run () =
  Util.banner "PERF-WIRE" "Binary wire codec vs JSON: ns/op and warm allocation";

  (* Corpus: the request envelopes plus the responses a live server gives
     them — real nested objects with float-heavy payloads. *)
  let config =
    {
      Server.default_config with
      Server.jobs = 2;
      cache_entries = 256;
      timeout_ms = None;
    }
  in
  let server = Server.create ~config () in
  let response_lines = Array.map (Server.handle_sync server) request_lines in
  Array.iter
    (fun line ->
      if not (String.length line > 0 && String.sub line 0 1 = "{") then
        failwith "perf-wire: corpus response is not an object")
    response_lines;
  let corpus =
    Array.append
      (Array.map parse_exn request_lines)
      (Array.map parse_exn response_lines)
  in

  (* Codec round-trip sanity on the whole corpus before timing it. *)
  Array.iter
    (fun w ->
      if decode_exn (Wb.encode w) <> w then
        failwith "perf-wire: decode . encode is not the identity")
    corpus;

  let json_enc, json_dec, bin_enc, bin_dec, json_bytes, bin_bytes =
    codec_bench corpus
  in
  let roundtrip_speedup = (json_enc +. json_dec) /. (bin_enc +. bin_dec) in
  if roundtrip_speedup < 2.0 then
    failwith
      (Printf.sprintf
         "perf-wire: binary round trip only %.2fx faster than JSON (floor 2x)"
         roundtrip_speedup);

  (* Warm-serve allocation: same server, same workload, both entry
     points. The binary frames are the canonical encodings of the same
     requests. *)
  let frames = Array.map (fun l -> Wb.encode (parse_exn l)) request_lines in
  let rounds = 200 in
  let json_words, json_wall =
    warm_pass
      ~handle:(Server.handle_line server)
      ~handle_sync:(Server.handle_sync server)
      request_lines rounds
  in
  let bin_words, bin_wall =
    warm_pass
      ~handle:(Server.handle_payload server)
      ~handle_sync:(Server.handle_payload_sync server)
      frames rounds
  in
  Server.stop server;
  let alloc_reduction = json_words /. Float.max 1e-9 bin_words in
  (* The binary ceiling is the old tenth-of-JSON floor at the JSON path's
     former ~1900 words; now that JSON hits skip the decode too, JSON
     must stay within twice binary. *)
  if bin_words > 190.0 then
    failwith
      (Printf.sprintf
         "perf-wire: binary warm path allocates %.0f words/request (ceiling \
          190)"
         bin_words);
  if json_words > 2.0 *. bin_words then
    failwith
      (Printf.sprintf
         "perf-wire: JSON warm path allocates %.0f words/request, %.1fx the \
          binary path's %.0f (ceiling 2x)"
         json_words alloc_reduction bin_words);

  let t =
    Rvu_report.Table.create
      ~columns:
        (List.map Rvu_report.Table.column
           [ "probe"; "json"; "binary"; "ratio" ])
  in
  let row name j b =
    Rvu_report.Table.add_row t
      [
        name;
        Rvu_report.Table.fstr j;
        Rvu_report.Table.fstr b;
        Rvu_report.Table.fstr (j /. Float.max 1e-9 b);
      ]
  in
  row "encode ns/op" json_enc bin_enc;
  row "decode ns/op" json_dec bin_dec;
  row "bytes/value" json_bytes bin_bytes;
  row "warm words/req" json_words bin_words;
  row "warm wall (s)" json_wall bin_wall;
  Util.table ~id:"perf-wire" t;
  Util.note
    "binary round trip %.1fx faster; warm binary path allocates %.1fx less \
     per request."
    roundtrip_speedup alloc_reduction;

  let json =
    Wire.Obj
      [
        ("experiment", Wire.String "perf-wire");
        ("corpus_values", Wire.Int (Array.length corpus));
        ( "codec",
          Wire.Obj
            [
              ("json_encode_ns_per_op", Wire.Float json_enc);
              ("json_decode_ns_per_op", Wire.Float json_dec);
              ("bin_encode_ns_per_op", Wire.Float bin_enc);
              ("bin_decode_ns_per_op", Wire.Float bin_dec);
              ("json_bytes_per_value", Wire.Float json_bytes);
              ("bin_bytes_per_value", Wire.Float bin_bytes);
              ("roundtrip_speedup", Wire.Float roundtrip_speedup);
            ] );
        ( "warm_serve",
          Wire.Obj
            [
              ( "requests",
                Wire.Int (200 * Array.length request_lines) );
              ("json_minor_words_per_request", Wire.Float json_words);
              ("bin_minor_words_per_request", Wire.Float bin_words);
              ("alloc_reduction", Wire.Float alloc_reduction);
              ("json_warm_wall_s", Wire.Float json_wall);
              ("bin_warm_wall_s", Wire.Float bin_wall);
            ] );
      ]
  in
  Util.write_artifact 9 json
