(* Canonical JSON codec for Space edit lists, on top of {!Obs.Json}. *)

module Interval = Timebase.Interval
module Spec = Cpa_system.Spec

module Json = Obs.Json

(* --- edit codec ----------------------------------------------------- *)

open Json

let edit_to_json (e : Space.edit) =
  match e with
  | Space.Source_period { source; period } ->
    Obj [ "edit", Str "source-period"; "source", Str source;
          "period", Int period ]
  | Space.Source_jitter { source; period; jitter; d_min } ->
    Obj [ "edit", Str "source-jitter"; "source", Str source;
          "period", Int period; "jitter", Int jitter; "d-min", Int d_min ]
  | Space.Cet_scale { task; percent } ->
    Obj [ "edit", Str "cet-scale"; "task", Str task; "percent", Int percent ]
  | Space.Task_priority { task; priority } ->
    Obj [ "edit", Str "task-priority"; "task", Str task;
          "priority", Int priority ]
  | Space.Frame_priority { frame; priority } ->
    Obj [ "edit", Str "frame-priority"; "frame", Str frame;
          "priority", Int priority ]
  | Space.Frame_tx { frame; tx } ->
    Obj [ "edit", Str "frame-tx"; "frame", Str frame;
          "tx", Arr [ Int (Interval.lo tx); Int (Interval.hi tx) ] ]
  | Space.Propagation_mode { task; mode } ->
    let mode = Str (Event_model.Propagation.mode_name mode) in
    Obj
      (("edit", Str "propagation")
       :: (match task with
           | Some t -> [ "task", Str t; "mode", mode ]
           | None -> [ "mode", mode ]))
  | Space.Backend { resource; backend } ->
    Obj
      [ "edit", Str "backend"; "resource", Str resource;
        "backend",
        Str (match backend with Spec.Cpa -> "cpa" | Spec.Rtc -> "rtc") ]
  | Space.Repack { bus; groups; bits_per_signal; bit_time } ->
    Obj
      [ "edit", Str "repack"; "bus", Str bus;
        "groups",
        Arr (List.map (fun g -> Arr (List.map (fun s -> Str s) g)) groups);
        "bits-per-signal", Int bits_per_signal; "bit-time", Int bit_time ]

let field kind key extract j =
  match Option.bind (member key j) extract with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: missing or malformed %S" kind key)

let ( let* ) = Result.bind

let edit_of_json j =
  match Option.bind (member "edit" j) to_str with
  | None -> Error "edit: missing \"edit\" tag"
  | Some "source-period" ->
    let* source = field "source-period" "source" to_str j in
    let* period = field "source-period" "period" to_int j in
    Ok (Space.Source_period { source; period })
  | Some "source-jitter" ->
    let* source = field "source-jitter" "source" to_str j in
    let* period = field "source-jitter" "period" to_int j in
    let* jitter = field "source-jitter" "jitter" to_int j in
    let* d_min = field "source-jitter" "d-min" to_int j in
    Ok (Space.Source_jitter { source; period; jitter; d_min })
  | Some "cet-scale" ->
    let* task = field "cet-scale" "task" to_str j in
    let* percent = field "cet-scale" "percent" to_int j in
    Ok (Space.Cet_scale { task; percent })
  | Some "task-priority" ->
    let* task = field "task-priority" "task" to_str j in
    let* priority = field "task-priority" "priority" to_int j in
    Ok (Space.Task_priority { task; priority })
  | Some "frame-priority" ->
    let* frame = field "frame-priority" "frame" to_str j in
    let* priority = field "frame-priority" "priority" to_int j in
    Ok (Space.Frame_priority { frame; priority })
  | Some "frame-tx" ->
    let* frame = field "frame-tx" "frame" to_str j in
    let* tx =
      match member "tx" j with
      | Some (Arr [ lo; hi ]) -> begin
        match to_int lo, to_int hi with
        | Some lo, Some hi -> Ok (Interval.make ~lo ~hi)
        | _ -> Error "frame-tx: non-integer bound in \"tx\""
      end
      | _ -> Error "frame-tx: expected \"tx\":[lo,hi]"
    in
    Ok (Space.Frame_tx { frame; tx })
  | Some "propagation" ->
    let* mode_name = field "propagation" "mode" to_str j in
    let* mode =
      match Event_model.Propagation.mode_of_name mode_name with
      | Some m -> Ok m
      | None ->
        Error (Printf.sprintf "propagation: unknown mode %S" mode_name)
    in
    (* "task" is optional: absent = spec-wide default; when present it
       must be a string *)
    let* task =
      match member "task" j with
      | None -> Ok None
      | Some v -> begin
        match to_str v with
        | Some t -> Ok (Some t)
        | None -> Error "propagation: malformed \"task\""
      end
    in
    Ok (Space.Propagation_mode { task; mode })
  | Some "backend" ->
    let* resource = field "backend" "resource" to_str j in
    let* name = field "backend" "backend" to_str j in
    let* backend =
      match name with
      | "cpa" -> Ok Spec.Cpa
      | "rtc" -> Ok Spec.Rtc
      | other -> Error (Printf.sprintf "backend: unknown backend %S" other)
    in
    Ok (Space.Backend { resource; backend })
  | Some "repack" ->
    let* bus = field "repack" "bus" to_str j in
    let* groups =
      match member "groups" j with
      | Some (Arr gs) ->
        List.fold_left
          (fun acc g ->
            let* acc = acc in
            match g with
            | Arr names ->
              let* group =
                List.fold_left
                  (fun acc name ->
                    let* acc = acc in
                    match to_str name with
                    | Some s -> Ok (s :: acc)
                    | None -> Error "repack: non-string signal name")
                  (Ok []) names
              in
              Ok (List.rev group :: acc)
            | _ -> Error "repack: group is not an array")
          (Ok []) gs
        |> Result.map List.rev
      | _ -> Error "repack: missing \"groups\" array"
    in
    let* bits_per_signal = field "repack" "bits-per-signal" to_int j in
    let* bit_time = field "repack" "bit-time" to_int j in
    Ok (Space.Repack { bus; groups; bits_per_signal; bit_time })
  | Some other -> Error (Printf.sprintf "edit: unknown kind %S" other)

let edits_to_json edits = Arr (List.map edit_to_json edits)

let edits_of_json = function
  | Arr items ->
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | j :: rest -> begin
        match edit_of_json j with
        | Ok e -> go (i + 1) (e :: acc) rest
        | Error msg -> Error (Printf.sprintf "edit %d: %s" i msg)
      end
    in
    go 0 [] items
  | _ -> Error "edits: expected a JSON array"

let print edits = Json.to_string (edits_to_json edits)

let parse text =
  match Json.of_string text with
  | Error e -> Error e
  | Ok j -> edits_of_json j
