(* PERF-VERIFY — throughput of the verification subsystem itself.

   The metamorphic symmetry campaign is the expensive half of `rvu
   verify`: every case runs the original problem once and the
   transformed problem three times (engine, batch, in-process server
   round-trip). This experiment times a fixed campaign, reports
   cases/second, and gates on correctness: the campaign must report
   zero violations and the fault campaign must reconcile every injected
   fault against the metrics registry — a perf run that produces wrong
   answers fast is a regression, not a win.

   Emits BENCH_4.json. The case counts are deterministic in the seed, so
   the workload is identical across machines; only the wall times vary. *)

open Rvu_report

let seed = 42
let symmetry_cases = 120
let fault_cases = 60

let write_json ~wall_symmetry ~wall_faults ~cases_per_s ~hits ~borderline
    ~injected =
  let json =
    Rvu_service.Wire.Obj
      [
        ("experiment", Rvu_service.Wire.String "perf-verify");
        ("seed", Rvu_service.Wire.Int seed);
        ("symmetry_cases", Rvu_service.Wire.Int symmetry_cases);
        ("fault_cases", Rvu_service.Wire.Int fault_cases);
        ("wall_s_symmetry", Rvu_service.Wire.Float wall_symmetry);
        ("wall_s_faults", Rvu_service.Wire.Float wall_faults);
        ("symmetry_cases_per_s", Rvu_service.Wire.Float cases_per_s);
        ("hits", Rvu_service.Wire.Int hits);
        ("borderline", Rvu_service.Wire.Int borderline);
        ("faults_injected", Rvu_service.Wire.Int injected);
        ("violations", Rvu_service.Wire.Int 0);
      ]
  in
  Util.write_artifact 4 json

let member_int json key =
  match Rvu_service.Wire.member key json with
  | Some (Rvu_service.Wire.Int n) -> n
  | _ -> 0

let total_injected json =
  (* Sum the per-phase injected counters out of the faults report. *)
  match Rvu_service.Wire.member "phases" json with
  | Some (Rvu_service.Wire.List phases) ->
      List.fold_left
        (fun acc p ->
          match Rvu_service.Wire.member "injected" p with
          | Some (Rvu_service.Wire.Obj sites) ->
              List.fold_left
                (fun acc (_, v) ->
                  match v with Rvu_service.Wire.Int n -> acc + n | _ -> acc)
                acc sites
          | _ -> acc)
        0 phases
  | _ -> 0

let run () =
  Util.banner "PERF-VERIFY"
    (Printf.sprintf
       "Verification throughput: %d symmetry cases + %d fault cases, seed %d"
       symmetry_cases fault_cases seed);
  (* Warm-up outside the timed window: fault in the code paths and the
     shared reference stream with a tiny campaign. *)
  ignore (Rvu_verify.Campaign.symmetry ~seed ~cases:2 ());

  let sym, wall_symmetry =
    Util.wall_clock (fun () ->
        Rvu_verify.Campaign.symmetry ~seed ~cases:symmetry_cases ())
  in
  let flt, wall_faults =
    Util.wall_clock (fun () ->
        Rvu_verify.Campaign.faults ~seed ~cases:fault_cases ())
  in

  (* Correctness gate first: a fast wrong verifier is worthless. *)
  (match sym.Rvu_verify.Campaign.violations with
  | [] -> ()
  | v :: _ ->
      failwith
        (Printf.sprintf "perf-verify: symmetry campaign violated: %s" v));
  (match flt.Rvu_verify.Campaign.violations with
  | [] -> ()
  | v :: _ ->
      failwith (Printf.sprintf "perf-verify: fault campaign violated: %s" v));

  let hits = member_int sym.Rvu_verify.Campaign.json "hits" in
  let borderline = sym.Rvu_verify.Campaign.borderline in
  let injected = total_injected flt.Rvu_verify.Campaign.json in
  if injected <= 0 then
    failwith "perf-verify: fault campaign injected nothing";

  let cases_per_s =
    float_of_int symmetry_cases /. Float.max 1e-9 wall_symmetry
  in
  let t =
    Table.create
      ~columns:
        (List.map Table.column
           [ "campaign"; "cases"; "wall (s)"; "cases/s" ])
  in
  Table.add_row t
    [
      "symmetry";
      string_of_int symmetry_cases;
      Table.fstr wall_symmetry;
      Table.fstr cases_per_s;
    ];
  Table.add_row t
    [
      "faults";
      string_of_int fault_cases;
      Table.fstr wall_faults;
      Table.fstr (float_of_int fault_cases /. Float.max 1e-9 wall_faults);
    ];
  Util.table ~id:"perf-verify" t;
  Util.note
    "symmetry: %d hits, %d borderline, 0 violations; faults: %d injected, \
     all reconciled."
    hits borderline injected;
  write_json ~wall_symmetry ~wall_faults ~cases_per_s ~hits ~borderline
    ~injected
