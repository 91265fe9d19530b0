(** SplitMix64, shared by every deterministic hash in the stack: the
    request-context id streams ({!Ctx}), the fault injector's firing
    decisions ({!Fault}) and the router's rendezvous scores. It sits at
    the bottom of the obs stack, so {!Metrics} can read {!Ctx} without a
    cycle. *)

val mix64 : int64 -> int64
(** The SplitMix64 output finaliser (a bijection; maps [0] to [0]). *)

val nth : int64 -> int -> int64
(** [nth seed n] is output [n] (from 0) of the stream seeded with [seed]:
    [mix64 (seed + (n + 1) * gamma)] with the SplitMix64 gamma. *)
