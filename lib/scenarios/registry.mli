(** The named systems the experiment harness and the tier-1 work-budget
    and tightness tests share, so a system is defined in one place.

    Each entry builds a fresh specification per call: the engine
    memoises derived streams on the spec, so a thunk, not a value,
    is what makes two runs of one system comparable. *)

type entry = { name : string; spec : unit -> Cpa_system.Spec.t }

val all : entry list
(** In order: [paper] (the paper's evaluation system, section 6),
    [gateway] (two-hop gateway), [avionics] (every scheduler in one
    system), [fan_in_8] (eight signals in one frame), [chain_12] and
    [chain_16] (task pipelines), [network_8] (eight-ECU synthetic
    network, seed 1). *)

val find : string -> unit -> Cpa_system.Spec.t
(** [find name] is the thunk of the entry called [name]; raises
    [Not_found] for unknown names. *)
