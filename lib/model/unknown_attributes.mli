(** The paper's model, packaged behind the registry interface.

    [args] is the exact shape of the service protocol's simulate record —
    [Proto] re-exports it — and [response] is the exact response document
    the server has always produced, so routing the existing engine
    through the registry is a bit-identical refactor. The wire parsers
    and encoders here define the canonical cache/routing key for
    simulate requests. *)

open Rvu_core

val name : string

type args = {
  attrs : Attributes.t;
  d : float;
  bearing : float;
  r : float;
  horizon : float;
  algorithm4 : bool;
  transform : Symmetry.t;
}

val algorithm4_key : string
(** Stream-cache key of the shared Algorithm 4 reference trajectory. *)

val reference_source : algorithm4:bool -> Rvu_sim.Detector.source
(** The process-wide compiled reference source for the untransformed
    program (Algorithm 4 or the universal program). *)

val response : args -> Rvu_obs.Wire.t
(** The simulate response document — byte-for-byte what the service has
    always returned. *)

val verdict_json : Feasibility.verdict -> Rvu_obs.Wire.t
val detector_outcome_json : Rvu_sim.Detector.outcome -> Rvu_obs.Wire.t
val guarantee_json : Universal.guarantee -> Rvu_obs.Wire.t
val time_json : float option -> Rvu_obs.Wire.t
(** JSON shapes shared with the service's feasibility/bound/batch
    handlers. A guaranteed time ([time_json]) is [null] when absent, and
    when Theorem 3's round count (close to τ = 1) overflows it to
    infinity. *)

val run : args -> Model.run
val oracle : args -> Model.oracle

(** {2 Wire parsing/encoding shared with [Proto]} *)

val attrs_of : Rvu_obs.Wire.t -> (Attributes.t, string) result
val geometry_of :
  Rvu_obs.Wire.t -> (float * float * float * float, string) result
(** [(d, bearing, r, horizon)] with the CLI defaults. *)

val transform_of : Rvu_obs.Wire.t -> (Symmetry.t, string) result
val args_of_wire : Rvu_obs.Wire.t -> (args, string) result
val attrs_fields : Attributes.t -> (string * Rvu_obs.Wire.t) list
val key_fields : args -> (string * Rvu_obs.Wire.t) list

(** {2 Registry packaging} *)

val instance : args -> Model.instance
val of_wire : Rvu_obs.Wire.t -> (Model.instance, string) result
val rescale : float -> args -> args
(** The pure-dilation subgroup: [d], [r] and the horizon scale jointly,
    and the scale is composed into [transform] so the universal program
    is dilated with the geometry (the program is not scale-invariant, so
    scaling the geometry alone would not scale hit times). Hit times
    scale by the same factor. *)

val random : Rvu_workload.Rng.t -> Model.case
val sweep : float -> Model.instance
(** The CLI demo geometry (τ = 0.5) at the given distance. *)
