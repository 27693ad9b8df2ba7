module Spec = Cpa_system.Spec
module Interval = Timebase.Interval
module Stream = Event_model.Stream

type edit =
  | Source_period of { source : string; period : int }
  | Source_jitter of {
      source : string;
      period : int;
      jitter : int;
      d_min : int;
    }
  | Cet_scale of { task : string; percent : int }
  | Task_priority of { task : string; priority : int }
  | Frame_priority of { frame : string; priority : int }
  | Frame_tx of { frame : string; tx : Interval.t }
  | Propagation_mode of {
      task : string option;
      mode : Event_model.Propagation.mode;
    }
  | Backend of {
      resource : string;
      backend : Spec.backend;
    }
  | Repack of packing

and packing = {
  bus : string;
  groups : string list list;
  bits_per_signal : int;
  bit_time : int;
}

let packing_label p =
  String.concat "|" (List.map (String.concat "+") p.groups)

let edit_label = function
  | Source_period { source; period } ->
    Printf.sprintf "%s.period=%d" source period
  | Source_jitter { source; period; jitter; _ } ->
    Printf.sprintf "%s.period=%d+j%d" source period jitter
  | Cet_scale { task; percent } -> Printf.sprintf "%s.cet=%d%%" task percent
  | Task_priority { task; priority } ->
    Printf.sprintf "%s.prio=%d" task priority
  | Frame_priority { frame; priority } ->
    Printf.sprintf "%s.prio=%d" frame priority
  | Frame_tx { frame; tx } ->
    Printf.sprintf "%s.tx=%s" frame (Interval.to_string tx)
  | Propagation_mode { task = None; mode } ->
    Printf.sprintf "propagation=%s" (Event_model.Propagation.mode_name mode)
  | Propagation_mode { task = Some task; mode } ->
    Printf.sprintf "%s.propagation=%s" task
      (Event_model.Propagation.mode_name mode)
  | Backend { resource; backend } ->
    Printf.sprintf "%s.backend=%s" resource
      (match backend with Spec.Cpa -> "cpa" | Spec.Rtc -> "rtc")
  | Repack p -> "layout=" ^ packing_label p

let replace_source spec ~source stream =
  let found = ref false in
  let sources =
    List.map
      (fun (name, s) ->
        if String.equal name source then begin
          found := true;
          name, stream
        end
        else name, s)
      spec.Spec.sources
  in
  if not !found then raise Not_found;
  { spec with sources }

let update_task spec ~task f =
  let found = ref false in
  let tasks =
    List.map
      (fun (k : Spec.task) ->
        if String.equal k.task_name task then begin
          found := true;
          f k
        end
        else k)
      spec.Spec.tasks
  in
  if not !found then raise Not_found;
  { spec with tasks }

let scale_cet spec ~task ~percent =
  if percent < 1 then invalid_arg "Space.scale_cet: percent < 1";
  let scale v = Stdlib.max 1 ((v * percent + 99) / 100) in
  update_task spec ~task (fun (k : Spec.task) ->
    let lo = scale (Interval.lo k.cet) and hi = scale (Interval.hi k.cet) in
    { k with cet = Interval.make ~lo ~hi })

let update_frame spec ~frame f =
  let found = ref false in
  let frames =
    List.map
      (fun (fr : Spec.frame) ->
        if String.equal fr.frame_name frame then begin
          found := true;
          f fr
        end
        else fr)
      spec.Spec.frames
  in
  if not !found then raise Not_found;
  { spec with frames }

(* ------------------------------------------------------------------ *)
(* Repacking *)

(* The frame a repacked signal landed in, indexed by signal name. *)
let frame_of_signal assignment signal =
  match List.assoc_opt signal assignment with
  | Some frame -> frame
  | None -> raise Not_found

let rewrite ~repacked ~assignment activation =
  let rec go = function
    | (Spec.From_source _ | Spec.From_output _) as a -> a
    | Spec.From_signal { frame; signal } when List.mem frame repacked ->
      Spec.From_signal { frame = frame_of_signal assignment signal; signal }
    | Spec.From_signal _ as a -> a
    | Spec.From_frame f when List.mem f repacked ->
      invalid_arg
        (Printf.sprintf
           "Space.Repack: activation references repacked frame %s" f)
    | Spec.From_frame _ as a -> a
    | Spec.Or_of acts -> Spec.Or_of (List.map go acts)
    | Spec.And_of acts -> Spec.And_of (List.map go acts)
  in
  go activation

let apply_packing spec p =
  let on_bus, others =
    List.partition
      (fun (f : Spec.frame) -> String.equal f.bus p.bus)
      spec.Spec.frames
  in
  if on_bus = [] then raise Not_found;
  let repacked = List.map (fun (f : Spec.frame) -> f.Spec.frame_name) on_bus in
  let bindings =
    List.concat_map
      (fun (f : Spec.frame) ->
        List.map (fun (s : Spec.signal_binding) -> s.Spec.signal_name, s)
          f.Spec.signals)
      on_bus
  in
  (* the groups must partition exactly the signals currently on the bus *)
  let grouped = List.concat p.groups in
  let current = List.map fst bindings in
  let sorted = List.sort String.compare in
  if sorted grouped <> sorted current then
    invalid_arg
      (Printf.sprintf
         "Space.Repack: groups must partition the signals of bus %s" p.bus);
  let new_frames =
    List.mapi
      (fun i group ->
        let name = Printf.sprintf "LF%d" (i + 1) in
        let layout =
          match
            Comstack.Layout.make
              (List.map
                 (fun s ->
                   { Comstack.Layout.field_name = s;
                     bits = p.bits_per_signal })
                 group)
          with
          | Ok l -> l
          | Error e -> invalid_arg ("Space.Repack: " ^ e)
        in
        let tx = Comstack.Layout.tx_interval ~bit_time:p.bit_time layout in
        let signals = List.map (fun s -> List.assoc s bindings) group in
        (* A direct frame needs at least one triggering signal; a group
           made entirely of pending signals would be un-sendable, so
           promote its signals to triggering (every write sends). *)
        let signals =
          if
            List.exists
              (fun (s : Spec.signal_binding) ->
                s.property = Hem.Model.Triggering)
              signals
          then signals
          else
            List.map
              (fun (s : Spec.signal_binding) ->
                { s with property = Hem.Model.Triggering })
              signals
        in
        Spec.frame ~name ~bus:p.bus ~send_type:Comstack.Frame.Direct
          ~tx_time:tx ~priority:(i + 1) ~signals ())
      p.groups
  in
  let assignment =
    List.concat
      (List.mapi
         (fun i group ->
           let name = Printf.sprintf "LF%d" (i + 1) in
           List.map (fun s -> s, name) group)
         p.groups)
  in
  let fix = rewrite ~repacked ~assignment in
  let new_frames =
    List.map
      (fun (f : Spec.frame) ->
        { f with
          signals =
            List.map
              (fun (s : Spec.signal_binding) -> { s with origin = fix s.origin })
              f.Spec.signals })
      new_frames
  in
  let others =
    List.map
      (fun (f : Spec.frame) ->
        { f with
          signals =
            List.map
              (fun (s : Spec.signal_binding) -> { s with origin = fix s.origin })
              f.Spec.signals })
      others
  in
  let tasks =
    List.map
      (fun (k : Spec.task) -> { k with activation = fix k.activation })
      spec.Spec.tasks
  in
  { spec with tasks; frames = others @ new_frames }

(* ------------------------------------------------------------------ *)

let apply spec = function
  | Source_period { source; period } ->
    replace_source spec ~source (Stream.periodic ~name:source ~period)
  | Source_jitter { source; period; jitter; d_min } ->
    replace_source spec ~source
      (Stream.periodic_jitter ~name:source ~period ~jitter ~d_min ())
  | Cet_scale { task; percent } -> scale_cet spec ~task ~percent
  | Task_priority { task; priority } ->
    update_task spec ~task (fun k -> { k with priority })
  | Frame_priority { frame; priority } ->
    update_frame spec ~frame (fun f -> { f with frame_priority = priority })
  | Frame_tx { frame; tx } ->
    update_frame spec ~frame (fun f -> { f with tx_time = tx })
  | Propagation_mode { task = None; mode } -> Spec.with_propagation mode spec
  | Propagation_mode { task = Some task; mode } ->
    update_task spec ~task (fun k -> { k with propagation = Some mode })
  | Backend { resource; backend } ->
    let found = ref false in
    let resources =
      List.map
        (fun (r : Spec.resource) ->
          if String.equal r.res_name resource then begin
            found := true;
            { r with backend }
          end
          else r)
        spec.Spec.resources
    in
    if not !found then raise Not_found;
    { spec with resources }
  | Repack p -> apply_packing spec p

let apply_all spec edits = List.fold_left apply spec edits

(* Evaluated against the PRE-edit spec: a Repack names the frames that
   exist before the layout change plus the LF<i> frames it creates, so a
   warm engine can invalidate both the replaced and the replacement
   elements. *)
let touched spec = function
  | Source_period { source; _ } | Source_jitter { source; _ } ->
    [ source ], []
  | Cet_scale { task; _ } | Task_priority { task; _ } -> [], [ task ]
  | Frame_priority { frame; _ } | Frame_tx { frame; _ } -> [], [ frame ]
  | Propagation_mode { task = Some task; _ } -> [], [ task ]
  | Propagation_mode { task = None; _ } ->
    (* a default-mode change can re-derive every task output *)
    [], List.map (fun (k : Spec.task) -> k.task_name) spec.Spec.tasks
  | Backend { resource; _ } ->
    (* swapping the local analysis re-derives every element mapped to
       the resource *)
    ( [],
      List.filter_map
        (fun (k : Spec.task) ->
          if String.equal k.resource resource then Some k.task_name else None)
        spec.Spec.tasks
      @ List.filter_map
          (fun (f : Spec.frame) ->
            if String.equal f.bus resource then Some f.frame_name else None)
          spec.Spec.frames )
  | Repack p ->
    let old_frames =
      List.filter_map
        (fun (f : Spec.frame) ->
          if String.equal f.bus p.bus then Some f.frame_name else None)
        spec.Spec.frames
    in
    let new_frames =
      List.mapi (fun i _ -> Printf.sprintf "LF%d" (i + 1)) p.groups
    in
    [], old_frames @ new_frames

(* ------------------------------------------------------------------ *)
(* Axes and grids *)

type axis = {
  axis_name : string;
  points : (string * edit) list;
}

type variant = {
  label : string;
  edits : edit list;
}

let axis axis_name points = { axis_name; points }

let int_axis axis_name make values =
  { axis_name;
    points = List.map (fun v -> string_of_int v, make v) values }

let grid axes =
  let rec go = function
    | [] -> [ { label = ""; edits = [] } ]
    | ax :: rest ->
      let tails = go rest in
      List.concat_map
        (fun (point_label, edit) ->
          let prefix = Printf.sprintf "%s=%s" ax.axis_name point_label in
          List.map
            (fun tail ->
              {
                label =
                  (if tail.label = "" then prefix
                   else prefix ^ " " ^ tail.label);
                edits = edit :: tail.edits;
              })
            tails)
        ax.points
  in
  go axes

(* ------------------------------------------------------------------ *)
(* Layout enumeration *)

(* Set partitions in a deterministic order: the partition keeping the
   element order of the input, with each new element appended to every
   existing group in turn and then as a fresh singleton group. *)
let rec set_partitions = function
  | [] -> [ [] ]
  | x :: rest ->
    List.concat_map
      (fun partition ->
        let rec insert before = function
          | [] -> [ List.rev_append before [ [ x ] ] ]
          | group :: after ->
            (List.rev_append before ((group @ [ x ]) :: after))
            :: insert (group :: before) after
        in
        insert [] partition)
      (set_partitions rest)

let packings ?max_frames ?(bits_per_signal = 8) ?(bit_time = 1) spec ~bus () =
  let on_bus =
    List.filter (fun (f : Spec.frame) -> String.equal f.bus bus)
      spec.Spec.frames
  in
  if on_bus = [] then raise Not_found;
  let signals =
    List.concat_map
      (fun (f : Spec.frame) ->
        List.map (fun (s : Spec.signal_binding) -> s.Spec.signal_name)
          f.Spec.signals)
      on_bus
  in
  let max_frames =
    match max_frames with Some m -> m | None -> List.length signals
  in
  let fits group =
    match
      Comstack.Layout.make
        (List.map
           (fun s -> { Comstack.Layout.field_name = s; bits = bits_per_signal })
           group)
    with
    | Ok _ -> true
    | Error _ -> false
  in
  List.filter_map
    (fun groups ->
      if List.length groups <= max_frames && List.for_all fits groups then
        Some { bus; groups; bits_per_signal; bit_time }
      else None)
    (set_partitions signals)

let packing_variants ?max_frames ?bits_per_signal ?bit_time spec ~bus () =
  List.map
    (fun p -> { label = "layout=" ^ packing_label p; edits = [ Repack p ] })
    (packings ?max_frames ?bits_per_signal ?bit_time spec ~bus ())
