(** Wire-level (de)serialization of {!Space} edit lists.

    The serving layer ships system deltas over sockets as JSON; the
    sweep driver builds the same edits programmatically.  This module is
    the single edit codec both share, so a delta captured from a client
    can be replayed through the driver (and vice versa) byte-for-byte.
    The JSON text itself is printed and parsed by {!Obs.Json}, the
    repository's one JSON codec.

    The rendering is {e canonical}: objects carry their keys in a fixed
    order, integers print without padding, and no insignificant
    whitespace is emitted — so [parse (print edits) = Ok edits] and the
    printed form of equal edit lists is byte-identical (the qcheck
    property in [test_serve.ml]). *)

module Json = Obs.Json
(** The JSON value type and codec, {!Obs.Json}. *)

val edit_to_json : Space.edit -> Json.t
(** One edit as a tagged object, e.g.
    [{"edit":"cet-scale","task":"T3","percent":120}]. *)

val edit_of_json : Json.t -> (Space.edit, string) result

val edits_to_json : Space.edit list -> Json.t
(** The list as a JSON array. *)

val edits_of_json : Json.t -> (Space.edit list, string) result
(** Fails on the first malformed element, with its index in the
    message. *)

val print : Space.edit list -> string
(** [Json.to_string] of {!edits_to_json} — the canonical wire form. *)

val parse : string -> (Space.edit list, string) result
(** Inverse of {!print}: [parse (print edits) = Ok edits]. *)
