(* Shared QCheck generators for the whole test tree.

   One place for the attribute-tuple, instance, scenario, program and
   wire-document generators that used to be copied per suite — the
   distributions are the ones the original suites tuned (kept identical
   so property statistics don't shift), and the verify oracles draw from
   the same families. Linked into every test executable by the dune
   [tests] stanza. *)

open Rvu_geom

(* ------------------------------------------------------------------ *)
(* Attribute tuples (v, tau, phi, chi) *)

let attributes_of (((v, tau), phi), mirror) =
  Rvu_core.Attributes.make ~v ~tau ~phi
    ~chi:
      (if mirror then Rvu_core.Attributes.Opposite
       else Rvu_core.Attributes.Same)
    ()

let print_attributes a = Format.asprintf "%a" Rvu_core.Attributes.pp a

(* Wide ranges — the algebraic identities of test_core hold everywhere. *)
let attrs_arb =
  QCheck.map ~rev:(fun (a : Rvu_core.Attributes.t) ->
      ( ( (a.Rvu_core.Attributes.v, a.Rvu_core.Attributes.tau),
          a.Rvu_core.Attributes.phi ),
        a.Rvu_core.Attributes.chi = Rvu_core.Attributes.Opposite ))
    attributes_of
    QCheck.(
      pair
        (pair (pair (float_range 0.2 5.0) (float_range 0.2 5.0))
           (float_range 0.0 6.28))
        bool)

(* Mild ranges — the simulation soundness properties compare against
   brute-force sampling whose grid is tuned for these speeds. *)
let attrs_mild_arb =
  QCheck.map attributes_of
    QCheck.(
      pair
        (pair (pair (float_range 0.3 3.0) (float_range 0.3 3.0))
           (float_range 0.0 6.28))
        bool)

let attributes_gen =
  QCheck.Gen.(
    let* v = float_range 0.6 2.2 in
    let* tau = float_range 0.5 2.0 in
    let* phi = float_range 0.0 6.2 in
    let* mirror = bool in
    return (attributes_of (((v, tau), phi), mirror)))

(* ------------------------------------------------------------------ *)
(* Engine instances *)

let instance_gen =
  QCheck.Gen.(
    let* attributes = attributes_gen in
    let* d = float_range 0.8 3.0 in
    let* bearing = float_range 0.0 6.2 in
    let* r = float_range 0.15 0.6 in
    return
      (Rvu_sim.Engine.instance ~attributes
         ~displacement:(Vec2.of_polar ~radius:d ~angle:bearing)
         ~r))

let print_instance (inst : Rvu_sim.Engine.instance) =
  Format.asprintf "{attrs=%a; disp=%a; r=%g}" Rvu_core.Attributes.pp
    inst.Rvu_sim.Engine.attributes Vec2.pp inst.Rvu_sim.Engine.displacement
    inst.Rvu_sim.Engine.r

let instance_arbitrary =
  QCheck.make
    ~print:(fun instances ->
      String.concat "; " (Array.to_list (Array.map print_instance instances)))
    QCheck.Gen.(array_size (int_range 1 6) instance_gen)

(* Field-wise engine-result equality — the bit-identity contract of the
   batch layer and the verify oracle's three-path comparison. *)
let result_equal (a : Rvu_sim.Engine.result) (b : Rvu_sim.Engine.result) =
  a.Rvu_sim.Engine.outcome = b.Rvu_sim.Engine.outcome
  && a.Rvu_sim.Engine.stats = b.Rvu_sim.Engine.stats
  && a.Rvu_sim.Engine.bound = b.Rvu_sim.Engine.bound

(* ------------------------------------------------------------------ *)
(* Scenarios (workload families) *)

let print_scenario (s : Rvu_workload.Scenario.t) =
  Format.asprintf "{attrs=%a; d=%g; bearing=%g; r=%g}" Rvu_core.Attributes.pp
    s.Rvu_workload.Scenario.attributes s.Rvu_workload.Scenario.d
    s.Rvu_workload.Scenario.bearing s.Rvu_workload.Scenario.r

let scenario_gen =
  QCheck.Gen.(
    let* seed = int_bound 0x3FFFFFFF in
    let* family = oneofl Rvu_workload.Scenario.families in
    return
      (Rvu_workload.Scenario.random_of_family family
         (Rvu_workload.Rng.create ~seed:(Int64.of_int seed))))

let scenario_arb = QCheck.make ~print:print_scenario scenario_gen

(* ------------------------------------------------------------------ *)
(* Programs: continuous multi-segment trajectories *)

let chained_program_arb =
  (* A continuous program: each piece starts where the previous ended. *)
  let open QCheck in
  let piece =
    oneof
      [
        map (fun d -> `Wait d) (float_range 0.5 3.0);
        map
          (fun (x, y) -> `Go (Vec2.make x y))
          (pair (float_range (-3.0) 3.0) (float_range (-3.0) 3.0));
        map
          (fun ((cx, cy), sweep) -> `Turn (Vec2.make cx cy, sweep))
          (pair
             (pair (float_range (-2.0) 2.0) (float_range (-2.0) 2.0))
             (oneof [ float_range 0.5 5.0; float_range (-5.0) (-0.5) ]));
      ]
  in
  let module Segment = Rvu_trajectory.Segment in
  map
    (fun pieces ->
      let segs, _ =
        List.fold_left
          (fun (acc, pos) piece ->
            match piece with
            | `Wait dur -> (Segment.wait ~at:pos ~dur :: acc, pos)
            | `Go dst ->
                if Vec2.dist pos dst < 1e-6 then (acc, pos)
                else (Segment.line ~src:pos ~dst :: acc, dst)
            | `Turn (offset, sweep) ->
                let center = Vec2.add pos offset in
                let radius = Vec2.dist pos center in
                if radius < 1e-6 then (acc, pos)
                else begin
                  let from = Vec2.angle_of (Vec2.sub pos center) in
                  let seg = Segment.arc ~center ~radius ~from ~sweep in
                  (seg :: acc, Segment.end_pos seg)
                end)
          ([], Vec2.zero) pieces
      in
      List.rev segs)
    (list_of_size (QCheck.Gen.int_range 2 6) piece)

(* ------------------------------------------------------------------ *)
(* Wire documents *)

let finite_float_gen =
  QCheck.Gen.map
    (fun f -> if Float.is_finite f then f else Float.of_int (Hashtbl.hash f))
    QCheck.Gen.float

(* The finite floats a codec is most likely to mangle: signed zeros (the
   structural [=] conflates them — only the bits tell), the subnormal
   extremes, the normal extremes, and a repeating fraction whose decimal
   printing needs all 17 digits. *)
let edge_floats =
  [
    0.0;
    -0.0;
    Int64.float_of_bits 1L (* smallest positive subnormal *);
    Int64.float_of_bits 0x8000000000000001L (* smallest negative subnormal *);
    Float.min_float (* smallest positive normal *);
    -.Float.min_float;
    Float.max_float;
    -.Float.max_float;
    Float.epsilon;
    1.0 /. 3.0;
    -1.2345678901234567e308;
  ]

let edge_float_gen =
  QCheck.Gen.(frequency [ (1, oneofl edge_floats); (1, finite_float_gen) ])

let wire_gen_with float_gen =
  let module Wire = Rvu_service.Wire in
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Wire.Null;
                 map (fun b -> Wire.Bool b) bool;
                 map (fun i -> Wire.Int i) int;
                 map (fun f -> Wire.Float f) float_gen;
                 map (fun s -> Wire.String s) (string_size (int_bound 12));
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 ( 1,
                   map
                     (fun l -> Wire.List l)
                     (list_size (int_bound 4) (self (n / 2))) );
                 ( 1,
                   map
                     (fun l -> Wire.Obj l)
                     (list_size (int_bound 4)
                        (pair (string_size (int_bound 8)) (self (n / 2)))) );
               ]))

let wire_gen = wire_gen_with finite_float_gen

(* Same structural distribution with floats biased to the edge set — the
   binary codec battery draws from this one. *)
let wire_edge_gen = wire_gen_with edge_float_gen

(* ------------------------------------------------------------------ *)
(* Protocol requests *)

(* Every deterministic-compute request shape, with mild parameters so the
   differential JSON/binary server oracle finishes quickly. Stats,
   metrics, health and hello answer with time-varying or connection-local
   payloads — the codec shape tests cover those separately. *)
let proto_compute_request_gen =
  let module Proto = Rvu_service.Proto in
  QCheck.Gen.(
    let simulate =
      let* attrs = attributes_gen in
      let* d = float_range 0.8 3.0 in
      let* bearing = float_range 0.0 6.2 in
      let* r = float_range 0.15 0.6 in
      let* algorithm4 = bool in
      return
        (Proto.Simulate
           {
             attrs;
             d;
             bearing;
             r;
             horizon = 1e8;
             algorithm4;
             transform = Rvu_core.Symmetry.identity;
           })
    in
    let search =
      let* d = float_range 0.8 3.0 in
      let* bearing = float_range 0.0 6.2 in
      let* r = float_range 0.15 0.6 in
      return (Proto.Search { d; bearing; r; horizon = 1e8 })
    in
    let feasibility = map (fun a -> Proto.Feasibility a) attributes_gen in
    let bound =
      let* attrs = attributes_gen in
      let* d = float_range 0.8 3.0 in
      let* r = float_range 0.15 0.6 in
      return (Proto.Bound { attrs; d; r })
    in
    let schedule = map (fun n -> Proto.Schedule n) (int_range 1 6) in
    let batch =
      let* attrs = attributes_gen in
      let* d_lo = float_range 0.8 1.5 in
      let* width = float_range 0.1 1.0 in
      let* points = int_range 1 3 in
      let* bearing = float_range 0.0 6.2 in
      let* r = float_range 0.15 0.6 in
      return
        (Proto.Batch
           { attrs; d_lo; d_hi = d_lo +. width; points; bearing; r; horizon = 1e8 })
    in
    oneof [ simulate; search; feasibility; bound; schedule; batch ])

(* ------------------------------------------------------------------ *)
(* Request spellings (the frame-cache differential) *)

(* Cheap cacheable requests. Bounds draw τ within 1e-4 of 1 half the
   time: there Theorem 3's round count overflows the bound time, which is
   answered null. *)
let cheap_request_gen =
  let module Proto = Rvu_service.Proto in
  QCheck.Gen.(
    let bound =
      let* v = float_range 0.6 2.2 in
      let* tau = oneof [ float_range 0.5 2.0; float_range 0.9999 1.0001 ] in
      let* phi = float_range 0.0 6.2 in
      let* d = float_range 0.8 3.0 in
      return
        (Proto.Bound
           { attrs = Rvu_core.Attributes.make ~v ~tau ~phi (); d; r = 0.2 })
    in
    oneof
      [
        map (fun a -> Proto.Feasibility a) attributes_gen;
        map (fun n -> Proto.Schedule n) (int_range 1 4);
        bound;
      ])

(* A JSON spelling: each member's raw key text (between the quotes) and
   raw value, and the whitespace between tokens. *)
type spelling = { members : (string * string) list; ws : string array }

(* Envelope values: canonical, non-canonical and malformed ids and
   traces. [malformed_values] are the ones no parser accepts, and
   [echoable_ids] the ids the protocol echoes. *)
let spelling_ids =
  [ "1"; "42"; "007"; "-0"; "-12"; "1.0"; "1e2"; {|"a\/b"|}; {|"q7"|}; "null";
    "99999999999999999999"; "true"; "[1]"; {|{"a":1}|}; "1e999"; {|"\uD800"|};
    "[1,}"; "tru" ]

let spelling_traces =
  [ {|"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"|}; {|"nope"|};
    "7"; "null"; "[1,2]"; {|{"x":"y"}|}; {|"A"|}; {|"\uDC00"|}; "1e999";
    "[1,}" ]

let malformed_values = [ "1e999"; {|"\uD800"|}; {|"\uDC00"|}; "[1,}"; "tru" ]
let echoable_ids = [ "1"; "42"; "007"; "-0"; "-12"; {|"a\/b"|}; {|"q7"|}; "null" ]

(* Random whitespace and member order; an id and a trace most of the
   time, sometimes duplicated, sometimes under an escaped key; now and
   then an escaped "kind" key or a timeout. *)
let spelling_gen =
  let module Wire = Rvu_service.Wire in
  QCheck.Gen.(
    let* request = cheap_request_gen in
    let body =
      match Rvu_service.Proto.wire_of_request request with
      | Wire.Obj fields -> List.map (fun (k, v) -> (k, Wire.print v)) fields
      | _ -> assert false
    in
    let opt g = frequency [ (1, return []); (3, map (fun x -> [ x ]) g) ] in
    let rare g = frequency [ (6, return []); (1, map (fun x -> [ x ]) g) ] in
    let* id = opt (oneofl spelling_ids) in
    let* id_key = frequency [ (6, return "id"); (1, return {|\u0069d|}) ] in
    let* id2 = rare (oneofl spelling_ids) in
    let* trace = opt (oneofl spelling_traces) in
    let* trace_key =
      frequency [ (6, return "trace"); (1, return {|tr\u0061ce|}) ]
    in
    let* trace2 = rare (oneofl spelling_traces) in
    let* timeout = rare (oneofl [ "50"; "-1" ]) in
    let* kind_key =
      frequency [ (12, return "kind"); (1, return {|k\u0069nd|}) ]
    in
    let body =
      List.map (fun (k, v) -> ((if k = "kind" then kind_key else k), v)) body
    in
    let envelope =
      List.map (fun v -> (id_key, v)) id
      @ List.map (fun v -> ("id", v)) id2
      @ List.map (fun v -> (trace_key, v)) trace
      @ List.map (fun v -> ("trace", v)) trace2
      @ List.map (fun v -> ("timeout_ms", v)) timeout
    in
    let* members = shuffle_l (envelope @ body) in
    let* ws =
      array_repeat
        ((4 * List.length members) + 2)
        (frequencyl [ (6, ""); (2, " "); (1, "\t"); (1, " \n ") ])
    in
    return { members; ws })

let render_spelling { members; ws } =
  let b = Buffer.create 128 in
  let w = ref 0 in
  let space () =
    Buffer.add_string b ws.(!w);
    incr w
  in
  space ();
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      space ();
      Buffer.add_string b ("\"" ^ k ^ "\"");
      space ();
      Buffer.add_char b ':';
      space ();
      Buffer.add_string b v;
      space ())
    members;
  Buffer.add_char b '}';
  space ();
  Buffer.contents b

(* Binary spellings: the same requests as members, with envelope values
   of every type, duplicates and timeouts (escapes and whitespace do not
   exist on that wire). A [Float 1.5] trace stands for a NaN the encoder
   refuses; the test patches its bits in. *)
let bin_spelling_gen =
  let module Wire = Rvu_service.Wire in
  let ids =
    [ Wire.Int 1; Wire.Int (-12); Wire.String "a/b"; Wire.Null; Wire.Float 1.0;
      Wire.Bool true; Wire.List [ Wire.Int 1 ]; Wire.Obj [ ("a", Wire.Int 1) ] ]
  in
  let traces =
    [ Wire.String "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
      Wire.String "nope"; Wire.Int 7; Wire.Null; Wire.List [ Wire.Int 1 ];
      Wire.Obj [ ("x", Wire.String "y") ]; Wire.Float 1.5 ]
  in
  QCheck.Gen.(
    let* request = cheap_request_gen in
    let body =
      match Rvu_service.Proto.wire_of_request request with
      | Wire.Obj fields -> fields
      | _ -> assert false
    in
    let opt g = frequency [ (1, return []); (3, map (fun x -> [ x ]) g) ] in
    let rare g = frequency [ (6, return []); (1, map (fun x -> [ x ]) g) ] in
    let* id = opt (oneofl ids) in
    let* id2 = rare (oneofl ids) in
    let* trace = opt (oneofl traces) in
    let* trace2 = rare (oneofl traces) in
    let* timeout = rare (oneofl [ Wire.Float 50.0; Wire.Int (-1) ]) in
    let named name = List.map (fun v -> (name, v)) in
    shuffle_l
      (named "id" id @ named "id" id2 @ named "trace" trace
      @ named "trace" trace2 @ named "timeout_ms" timeout @ body))
