(** Closed-form running times of the search procedures (paper Lemma 2 and
    eq. (1)), plus exact segment counts.

    Every formula here is cross-checked in the test suite against the actual
    durations of the generated trajectories — the generators and the paper's
    algebra must agree to float tolerance. *)

val search_circle_time : float -> float
(** [2(π+1)δ]. *)

val search_annulus_time : inner:float -> outer:float -> rho:float -> float
(** [2(π+1)(1 + m)(δ₁ + ρm)] with [m = ⌈(δ₂−δ₁)/2ρ⌉]. *)

val search_round_time : int -> float
(** Time of [Search(k)] including its terminal wait:
    [3(π+1)(k+1)·2^(k+1)]. *)

val search_all_time : int -> float
(** [S(n)], the time of [SearchAll(n)] (= first [n] rounds of Algorithm 4):
    [12(π+1)·n·2ⁿ] — paper eq. (1). Also the duration of
    [SearchAllRev(n)]. *)

val search_round_segments : int -> int
(** Exact number of segments generated by [Search(k)]:
    [3·2^(2k+1) + 6k − 5]. Grows as Θ(4ᵏ) — the reason programs are lazy. *)

val search_all_segments : int -> int
(** Segment count of [SearchAll(n)]: [2^(2n+3) + 3n² − 2n − 8]. *)

val max_schedule_round : int
(** [28]: the last round [n] of Algorithm 7 (a wait, [SearchAll(n)] and
    [SearchAllRev(n)]) whose segment count
    [2·search_all_segments n + 1 = 2^(2n+4) + 6n² − 4n − 15] fits an
    [int]; round 29's exceeds [max_int = 2^62 − 1] and would wrap.
    [rvu schedule --rounds] is refused past it. *)
