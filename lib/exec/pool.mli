(** A chunked work-distributing domain pool (stdlib [Domain]s only).

    The experiment harness is embarrassingly parallel: thousands of
    independent {!Rvu_sim.Engine} runs per sweep. [parallel_map] fans an
    array of such tasks out over OCaml 5 domains with dynamic chunked
    distribution (an atomic cursor; fast workers steal the remaining
    chunks), so heterogeneous task costs — deep instances next to shallow
    ones — still balance.

    Semantics are those of [Array.map], whatever the job count:

    - results are returned in input order;
    - if any task raises, the exception of the {e lowest-index} failing
      task is re-raised (with its backtrace) after all domains have been
      joined — deterministic regardless of scheduling;
    - [jobs <= 1] (or a short array) runs sequentially on the calling
      domain, with no domain spawned — safe to nest inside an already
      parallel region. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default parallelism. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ?jobs f xs] maps [f] over [xs] on up to [jobs] domains
    (default {!recommended_jobs}; the calling domain is one of them).
    [f] must be safe to call from multiple domains at once. *)

val parallel_map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List convenience wrapper around {!parallel_map}. *)

(** A persistent worker pool for long-running services.

    {!parallel_map} spawns domains per call, which is right for offline
    batches but wrong for a server that must multiplex a steady stream of
    independent requests: domain spawn is milliseconds, and an evaluation
    service wants its workers hot. [Persistent.start] spawns the domains
    once; [submit] enqueues thunks that the workers drain FIFO.

    Tasks must catch their own exceptions — an uncaught exception is
    swallowed (the worker survives), so a service should wrap every task
    with its own error reporting. Completion ordering across tasks is
    whatever the domain scheduler produces; callers that need ordering
    must sequence in the tasks themselves. *)
module Persistent : sig
  type t

  val start : jobs:int -> t
  (** Spawn [jobs] worker domains (clamped to [1 .. 128]) that block on an
      internal queue. *)

  val jobs : t -> int
  (** The worker count the pool was started with (after clamping). *)

  val submit : t -> (unit -> unit) -> unit
  (** Enqueue a task. The queue is unbounded — admission control (shedding
      past a depth limit) belongs to the layer above, which can count
      in-flight tasks. The submitter's ambient {!Rvu_obs.Ctx} context is
      captured here and installed on the worker domain for the task's
      extent, so log records, trace spans and exemplars emitted inside the
      task stay correlated with the submitting request; an uncaught task
      exception is logged at [error] level under that context. Raises
      [Invalid_argument] after {!stop}. *)

  val stop : t -> unit
  (** Drain: no new tasks are accepted, already-queued tasks still run,
      and all worker domains are joined before returning. Idempotent. *)
end
