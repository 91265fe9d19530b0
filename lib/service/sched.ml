type t = {
  pool : Rvu_exec.Pool.Persistent.t;
  cache : Payload.t Lru.t;
  queue_depth : int;
  default_timeout_ms : float option;
  in_flight : int Atomic.t;
}

type outcome = (Payload.t, Proto.error_code * string) result

(* Cumulative since process start, aggregated over every scheduler in the
   process — unlike [Lru.stats], which is per-instance. *)
let m_admitted =
  Rvu_obs.Metrics.counter ~help:"Requests admitted to the worker pool"
    "rvu_sched_admitted_total"

let m_shed =
  Rvu_obs.Metrics.counter ~help:"Requests shed because the queue was full"
    "rvu_sched_shed_total"

let m_timeout =
  Rvu_obs.Metrics.counter
    ~help:"Requests that timed out waiting for a worker"
    "rvu_sched_timeout_total"

(* Injection points (Rvu_obs.Fault, disarmed in production): forced shed
   and forced timeout take the existing degraded paths; handler.crash
   raises inside the handler's try scope to prove arbitrary handler
   failure still yields a structured [internal] error. *)
let fault_force_shed = Rvu_obs.Fault.site "sched.force_shed"
let fault_force_timeout = Rvu_obs.Fault.site "sched.force_timeout"
let fault_handler_crash = Rvu_obs.Fault.site "handler.crash"

let create ?jobs ?(queue_depth = 64) ?(cache_entries = 256) ?timeout_ms () =
  if queue_depth < 1 then invalid_arg "Sched.create: queue_depth < 1";
  let jobs =
    match jobs with Some j -> j | None -> Rvu_exec.Pool.recommended_jobs ()
  in
  {
    pool = Rvu_exec.Pool.Persistent.start ~jobs;
    cache = Lru.create ~capacity:cache_entries;
    queue_depth;
    default_timeout_ms = timeout_ms;
    in_flight = Atomic.make 0;
  }

let cache_stats t = Lru.stats t.cache
let jobs t = Rvu_exec.Pool.Persistent.jobs t.pool
let queue_depth t = t.queue_depth

(* Queue-wait deadlines use the wall clock; a service timeout of
   milliseconds-to-seconds granularity does not need monotonic precision. *)
let now () = Unix.gettimeofday ()

let in_flight t = Atomic.get t.in_flight

let cached t key = Lru.find_hit t.cache key

let submit ?on_hit t (env : Proto.envelope) ~k =
  let key = Proto.canonical_key env.Proto.request in
  let shed () =
    Rvu_obs.Metrics.incr m_shed;
    Rvu_obs.Log.warn
      ~fields:[ ("queue_depth", Wire.Int t.queue_depth) ]
      "request shed";
    k
      (Error
         ( Proto.Overloaded,
           Printf.sprintf "pending queue is full (depth %d)" t.queue_depth ))
  in
  let t_submit = Rvu_obs.Clock.now_s () in
  match Lru.find t.cache key with
  | Some cached ->
      Rvu_obs.Phase.observe "cache" (Rvu_obs.Clock.now_s () -. t_submit);
      Option.iter (fun f -> f key) on_hit;
      k (Ok cached)
  | None ->
      if Rvu_obs.Fault.fire fault_force_shed then shed ()
      else if Atomic.fetch_and_add t.in_flight 1 >= t.queue_depth then begin
        (* Shed: the pending queue is full. Decrement before replying so a
           draining queue immediately re-opens admission. *)
        Atomic.decr t.in_flight;
        shed ()
      end
      else begin
        Rvu_obs.Metrics.incr m_admitted;
        let deadline =
          match (env.Proto.timeout_ms, t.default_timeout_ms) with
          | Some ms, _ | None, Some ms -> Some (now () +. (ms /. 1000.0))
          | None, None -> None
        in
        let admitted_at = Rvu_obs.Clock.now_s () in
        let timed_out () =
          Rvu_obs.Metrics.incr m_timeout;
          Rvu_obs.Log.warn
            ~fields:
              [
                ( "queue_wait_s",
                  Wire.Float (Rvu_obs.Clock.now_s () -. admitted_at) );
              ]
            "request timed out in queue";
          Error
            ( Proto.Timeout,
              "request exceeded its queue-wait budget before a worker picked \
               it up" )
        in
        (* Pool.Persistent carries the ambient request context to the
           worker, so logs, trace spans and exemplars from the handler
           carry the request's identity. *)
        Rvu_exec.Pool.Persistent.submit t.pool (fun () ->
            Rvu_obs.Phase.observe "queue"
              (Rvu_obs.Clock.now_s () -. admitted_at);
            let result =
              match deadline with
              | Some dl when now () > dl -> timed_out ()
              | _ when Rvu_obs.Fault.fire fault_force_timeout -> timed_out ()
              | _ -> (
                  match
                    Rvu_obs.Fault.crash fault_handler_crash "request handler";
                    Handler.run env.Proto.request
                  with
                  | v ->
                      let p = Payload.of_wire v in
                      Lru.add t.cache key p;
                      Ok p
                  | exception Invalid_argument msg ->
                      Error (Proto.Invalid_request, msg)
                  | exception e -> Error (Proto.Internal, Printexc.to_string e))
            in
            Atomic.decr t.in_flight;
            k result)
      end

let stop t = Rvu_exec.Pool.Persistent.stop t.pool
