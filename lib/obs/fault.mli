(** Deterministic seeded fault injection.

    Verification campaigns need to prove the service stack degrades to
    structured errors — never a crash, hang or wrong-but-plausible answer —
    when components misbehave. Sprinkling ad-hoc test hooks through the
    stack would rot; instead, production modules register named {e
    injection sites} once at module initialisation (idempotent, like
    {!Metrics} registration) and consult them with {!fire} at the moment
    the failure would occur.

    {b Off by default, one branch when off.} Like the {!Metrics} kill
    switch, a disarmed registry costs a single atomic-bool branch per
    {!fire} — cheap enough to leave in production paths permanently.

    {b Deterministic.} Arming takes a seed and per-site probabilities.
    Whether call [n] at a site fires is a pure function of
    [(seed, site name, n)] — a SplitMix64-style hash — where [n] is the
    site's own call counter. Two runs with the same seed and the same
    per-site call sequences inject identical faults, even when calls
    interleave across domains (each site counts independently).

    {b Reconciliation.} Every injection increments both a per-site counter
    (readable via {!injected_count}, reset by {!arm}) and the cumulative
    registry counter [rvu_fault_injected_total{site=…}], so campaigns can
    reconcile injected faults against the metrics the degraded paths
    bump. *)

type site
(** Handle to a named injection point. *)

exception Injected of string
(** Raised by {!crash} when the site fires. The payload names the site. *)

val site : string -> site
(** [site name] registers (or finds) the injection point [name].
    Idempotent: the same name always yields the same handle, so the
    producing module and the campaign can both name it independently. *)

val fire : site -> bool
(** [fire s] decides whether this call injects. [false] whenever the
    registry is disarmed or the site's probability is 0 (the fast path);
    otherwise deterministically [true] with the armed probability. A
    [true] result has already been counted. *)

val crash : site -> string -> unit
(** [crash s what] raises [Injected] if [fire s]; otherwise does
    nothing. [what] describes the faulted operation for the payload. *)

val arm : seed:int -> (string * float) list -> unit
(** [arm ~seed probs] arms the registry: each [(name, p)] sets site
    [name] to fire with probability [p ∈ [0, 1]]; unnamed sites stay at
    0. Sites named before they are registered take effect on
    registration. Resets every site's call and injected counters (the
    metrics mirror, being cumulative, is not reset). Raises
    [Invalid_argument] on probabilities outside [0, 1]. *)

val disarm : unit -> unit
(** Stop injecting. Counters keep their values for reading. *)

val on_injection : (string -> unit) -> unit
(** [on_injection f] registers [f] to be called with the site name each
    time a site actually fires. Listeners run on the firing domain, cost
    nothing on the disarmed fast path, cannot be unregistered, and any
    exception they raise is swallowed. {!Log} uses this to dump its
    flight recorder when an armed site fires. *)

val armed : unit -> bool

val injected_count : site -> int
(** Injections at [s] since the last {!arm}. *)

val injected_counts : unit -> (string * int) list
(** All registered sites with their counts since the last {!arm}, sorted
    by name — including sites that never fired (count 0). *)
