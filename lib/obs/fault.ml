type site = {
  site_name : string;
  prob : float Atomic.t; (* armed probability; 0 when not targeted *)
  calls : int Atomic.t; (* per-site call index while armed *)
  injected : int Atomic.t; (* injections since last arm *)
  metric : Metrics.counter; (* cumulative mirror for reconciliation *)
}

exception Injected of string

(* Disarmed fast path: one atomic-bool read, mirroring Metrics.switch. *)
let switch = Atomic.make false
let armed () = Atomic.get switch
let seed_state = Atomic.make 0L

(* The armed plan survives in this table so sites registered after [arm]
   still pick up their probability. *)
let plan : (string, float) Hashtbl.t = Hashtbl.create 8
let registry : (string, site) Hashtbl.t = Hashtbl.create 16
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let site site_name =
  with_lock (fun () ->
      match Hashtbl.find_opt registry site_name with
      | Some s -> s
      | None ->
          let s =
            {
              site_name;
              prob =
                Atomic.make
                  (Option.value ~default:0.0 (Hashtbl.find_opt plan site_name));
              calls = Atomic.make 0;
              injected = Atomic.make 0;
              metric =
                Metrics.counter ~help:"Faults injected by Rvu_obs.Fault"
                  ~labels:[ ("site", site_name) ]
                  "rvu_fault_injected_total";
            }
          in
          Hashtbl.add registry site_name s;
          s)

let string_hash s =
  (* FNV-1a folded into 64 bits; stable across runs (unlike Hashtbl.hash
     seeded builds, this is ours to keep fixed). *)
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let unit_float bits =
  (* Top 53 bits to a uniform in [0, 1), as Rng.float does. *)
  Int64.to_float (Int64.shift_right_logical bits 11) *. 0x1p-53

(* The firing decision for call [n] at a site is the SplitMix64 hash of
   (seed, site name, n) — deterministic regardless of how calls
   interleave across domains. *)
let decide s n =
  let seed = Atomic.get seed_state in
  let h = Splitmix.mix64 (Int64.add seed (string_hash s.site_name)) in
  let h = Splitmix.mix64 (Int64.add h (Int64.of_int n)) in
  unit_float h

(* Injection listeners: consulted only when a site actually fires, so the
   disarmed fast path is untouched. [Log] registers one to dump its flight
   recorder; keeping the hook here avoids a module cycle (Fault must not
   depend on Log). *)
let listeners : (string -> unit) list Atomic.t = Atomic.make []

let on_injection f =
  with_lock (fun () -> Atomic.set listeners (f :: Atomic.get listeners))

let notify site_name =
  List.iter
    (fun f -> try f site_name with _ -> ())
    (Atomic.get listeners)

let fire s =
  if not (Atomic.get switch) then false
  else
    let p = Atomic.get s.prob in
    if p <= 0.0 then false
    else
      let n = Atomic.fetch_and_add s.calls 1 in
      if decide s n < p then begin
        Atomic.incr s.injected;
        Metrics.incr s.metric;
        notify s.site_name;
        true
      end
      else false

let crash s what = if fire s then raise (Injected (s.site_name ^ ": " ^ what))

let arm ~seed probs =
  List.iter
    (fun (n, p) ->
      if not (p >= 0.0 && p <= 1.0) then
        invalid_arg
          (Printf.sprintf "Fault.arm: probability %g for %S outside [0, 1]" p n))
    probs;
  with_lock (fun () ->
      Hashtbl.reset plan;
      List.iter (fun (n, p) -> Hashtbl.replace plan n p) probs;
      Hashtbl.iter
        (fun site_name s ->
          Atomic.set s.prob
            (Option.value ~default:0.0 (Hashtbl.find_opt plan site_name));
          Atomic.set s.calls 0;
          Atomic.set s.injected 0)
        registry;
      Atomic.set seed_state (Splitmix.mix64 (Int64.of_int seed));
      Atomic.set switch true)

let disarm () = Atomic.set switch false

let injected_count s = Atomic.get s.injected

let injected_counts () =
  with_lock (fun () ->
      Hashtbl.fold
        (fun site_name s acc -> (site_name, Atomic.get s.injected) :: acc)
        registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
