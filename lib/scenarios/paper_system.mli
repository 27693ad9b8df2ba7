(** The evaluation system of the paper (section 6, figure 2, tables 1-3).

    Four sources write signals into the communication layer; frame F1
    (direct, high priority, transmission time [\[4:4\]]) transports the
    signals of S1, S2 and S3 over a CAN bus to CPU1, where tasks T1-T3
    (SPP, core execution times [\[24:24\]], [\[32:32\]], [\[40:40\]])
    consume them; frame F2 (direct, low priority, [\[2:2\]]) transports S4
    and acts as bus interference.

    Table 1 parameters: S1 period 250 (triggering), S2 period 450
    (triggering), S3 period 1000 (pending; the period was lost to OCR in
    the source text — see DESIGN.md), S4 period 400 (triggering). *)

val s3_period : int
(** The assumed period of source S3 (see DESIGN.md). *)

val spec : ?s3_period:int -> unit -> Cpa_system.Spec.t
(** The full system specification.  [s3_period] defaults to
    {!s3_period} and parameterizes the pending source for ablation
    sweeps. *)

val generators : ?s3_period:int -> unit -> (string * Des.Gen.t) list
(** Matching simulator generators: the four sources strictly periodic at
    their Table 1 periods, [s3_period] as for {!spec}. *)

val cpu_tasks : string list
(** [\["T1"; "T2"; "T3"\]] — the elements of Table 3. *)

val frames : string list
(** [\["F1"; "F2"\]]. *)

val analyse_both :
  ?s3_period:int ->
  unit ->
  (Cpa_system.Engine.result * Cpa_system.Engine.result, Guard.Error.t) result
(** Analyses the system in flat mode (standard event models, the
    baseline) and hierarchical mode; returns [(flat, hem)]. *)
