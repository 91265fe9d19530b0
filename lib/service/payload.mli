(** A cacheable response payload with memoized wire renders.

    The scheduler caches these instead of raw {!Wire.t} trees: each
    codec's bytes are rendered at most once per cache residency, so a
    warm response on either wire is a splice of memoized bytes, not a
    re-render. Renders are memoized racily but idempotently (both codecs
    are deterministic), so no lock is taken on the hot path. *)

type t

val of_wire : Wire.t -> t
(** Wrap a result tree. Nothing is rendered until first use. *)

val body : t -> Wire.t
(** The result tree (what JSON-path responses wrap in
    {!Proto.ok_response}). *)

val json : t -> string
(** The compact JSON render of the body ({!Wire.print}), memoized. *)

val bin : t -> string
(** The binary render of the body ({!Wire_bin.encode}), memoized. *)

val ok_json : t -> ctx:string -> id:Wire.t -> string
(** The printed JSON ok response — byte-identical to
    [Wire.print (Proto.ok_response ~ctx ~id (body t))], built by splicing
    the memoized body render into the envelope. *)

val ok_bin : t -> ctx:string -> id:Wire.t -> string
(** The encoded binary ok response — byte-identical to
    [Wire_bin.encode (Proto.ok_response ~ctx ~id (body t))], built by
    splicing the memoized body bytes under the 3-member envelope header
    instead of re-encoding the tree. *)
