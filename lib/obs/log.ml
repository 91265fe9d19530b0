type level = Debug | Info | Warn | Error

let int_of_level = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let string_of_level = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string = function
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type sink = Stderr | File of string | Ring of int

(* Flight recorder: stripes are keyed by domain id so concurrent pushes
   rarely contend; each stripe is an [N]-slot ring of (global seq, rendered
   line). A dump merges all stripes by seq and keeps the last [N] overall,
   so on a single domain the dump holds exactly the last [N] records. *)
type stripe = {
  s_lock : Mutex.t;
  slots : (int * string) option array;
  mutable next : int;
}

type recorder = { stripes : stripe array; cap : int }

type out =
  | Chan of { oc : out_channel; close_oc : bool }
  | Mem of { mem_cap : int; q : string Queue.t }

type t = {
  out : out;
  out_lock : Mutex.t;
  mutable min_level : int;
  recorder : recorder option;
}

let state : t option Atomic.t = Atomic.make None

(* The gate is the whole fast path: a record at level [l] proceeds iff
   [l >= gate]. Unconfigured -> 4 (above Error), so every call site is one
   atomic read and a taken branch. An armed recorder forces the gate to 0
   (everything is at least ringed); otherwise the gate is the sink level. *)
let disabled_gate = 4
let gate = Atomic.make disabled_gate
let enabled lvl = int_of_level lvl >= Atomic.get gate
let emitted = Atomic.make 0
let emitted_records () = Atomic.get emitted
let seq = Atomic.make 0
let stripe_count = 8 (* power of two: stripe index is a mask of domain id *)

let reserved k = k = "ts" || k = "level" || k = "msg" || k = "ctx"

let render lvl fields msg =
  let fields = List.filter (fun (k, _) -> not (reserved k)) fields in
  let fields =
    List.sort (fun (a, _) (b, _) -> String.compare a b) fields
  in
  let ctx =
    match Ctx.current () with
    | Some c -> [ ("ctx", Wire.String c.Ctx.cid) ]
    | None -> []
  in
  Wire.print
    (Wire.Obj
       (("ts", Wire.Float (Unix.gettimeofday ()))
       :: ("level", Wire.String (string_of_level lvl))
       :: ("msg", Wire.String msg)
       :: (ctx @ fields)))

let write_lines t lines =
  Mutex.lock t.out_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.out_lock)
    (fun () ->
      List.iter
        (fun line ->
          Atomic.incr emitted;
          match t.out with
          | Chan { oc; _ } ->
              output_string oc line;
              output_char oc '\n'
          | Mem { mem_cap; q } ->
              if Queue.length q >= mem_cap then ignore (Queue.pop q);
              Queue.push line q)
        lines;
      match t.out with Chan { oc; _ } -> flush oc | Mem _ -> ())

let push_recorder r line =
  let n = Atomic.fetch_and_add seq 1 in
  let s = r.stripes.((Domain.self () :> int) land (stripe_count - 1)) in
  Mutex.lock s.s_lock;
  s.slots.(s.next) <- Some (n, line);
  s.next <- (s.next + 1) mod Array.length s.slots;
  Mutex.unlock s.s_lock

let drain_recorder r =
  let all = ref [] in
  Array.iter
    (fun s ->
      Mutex.lock s.s_lock;
      Array.iteri
        (fun i slot ->
          match slot with
          | Some sv ->
              all := sv :: !all;
              s.slots.(i) <- None
          | None -> ())
        s.slots;
      s.next <- 0;
      Mutex.unlock s.s_lock)
    r.stripes;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !all in
  let excess = List.length sorted - r.cap in
  let rec drop n l = if n <= 0 then l else drop (n - 1) (List.tl l) in
  List.map snd (drop excess sorted)

let dump t r ~reason =
  match drain_recorder r with
  | [] -> ()
  | records ->
      let marker =
        render Info
          [
            ("reason", Wire.String reason);
            ("records", Wire.Int (List.length records));
          ]
          "flight-recorder dump"
      in
      write_lines t (marker :: records)

let emit t lvl fields msg =
  let line = render lvl fields msg in
  (match t.recorder with Some r -> push_recorder r line | None -> ());
  if int_of_level lvl >= t.min_level then write_lines t [ line ];
  if lvl = Error then
    match t.recorder with Some r -> dump t r ~reason:"error record" | None -> ()

let log lvl ?(fields = []) msg =
  if int_of_level lvl >= Atomic.get gate then
    match Atomic.get state with Some t -> emit t lvl fields msg | None -> ()

let debug ?fields msg = log Debug ?fields msg
let info ?fields msg = log Info ?fields msg
let warn ?fields msg = log Warn ?fields msg
let error ?fields msg = log Error ?fields msg

let flight_dump ~reason () =
  match Atomic.get state with
  | Some ({ recorder = Some r; _ } as t) -> dump t r ~reason
  | _ -> ()

let effective_gate t =
  match t.recorder with Some _ -> 0 | None -> t.min_level

let hook_registered = Atomic.make false

let configure ?(level = Info) ?(flight_recorder = 0) sink =
  (match Atomic.get state with
  | Some _ -> invalid_arg "Log.configure: already configured (close first)"
  | None -> ());
  if flight_recorder < 0 then
    invalid_arg "Log.configure: negative flight-recorder capacity";
  let out =
    match sink with
    | Stderr -> Chan { oc = stderr; close_oc = false }
    | File path -> Chan { oc = open_out path; close_oc = true }
    | Ring cap when cap <= 0 ->
        invalid_arg "Log.configure: non-positive ring capacity"
    | Ring cap -> Mem { mem_cap = cap; q = Queue.create () }
  in
  let recorder =
    if flight_recorder = 0 then None
    else
      Some
        {
          cap = flight_recorder;
          stripes =
            Array.init stripe_count (fun _ ->
                {
                  s_lock = Mutex.create ();
                  slots = Array.make flight_recorder None;
                  next = 0;
                });
        }
  in
  let t = { out; out_lock = Mutex.create (); min_level = int_of_level level; recorder } in
  if Atomic.compare_and_set hook_registered false true then
    Fault.on_injection (fun site -> flight_dump ~reason:("fault: " ^ site) ());
  Atomic.set state (Some t);
  Atomic.set gate (effective_gate t)

let set_level level =
  match Atomic.get state with
  | None -> ()
  | Some t ->
      t.min_level <- int_of_level level;
      Atomic.set gate (effective_gate t)

let close () =
  match Atomic.get state with
  | None -> ()
  | Some t ->
      Atomic.set gate disabled_gate;
      Atomic.set state None;
      Mutex.lock t.out_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.out_lock)
        (fun () ->
          match t.out with
          | Chan { oc; close_oc } ->
              flush oc;
              if close_oc then close_out oc
          | Mem _ -> ())

let ring_contents () =
  match Atomic.get state with
  | Some ({ out = Mem { q; _ }; _ } as t) ->
      Mutex.lock t.out_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.out_lock)
        (fun () -> List.of_seq (Queue.to_seq q))
  | _ -> []
