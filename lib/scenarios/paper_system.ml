module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Spec = Cpa_system.Spec

let s3_period = 1000

let spec ?(s3_period = s3_period) () =
  let sources =
    [
      "S1", Stream.periodic ~name:"S1" ~period:250;
      "S2", Stream.periodic ~name:"S2" ~period:450;
      "S3", Stream.periodic ~name:"S3" ~period:s3_period;
      "S4", Stream.periodic ~name:"S4" ~period:400;
    ]
  in
  let resources =
    [
      { Spec.res_name = "CAN"; scheduler = Spec.Spnp; backend = Spec.Cpa };
      { Spec.res_name = "CPU1"; scheduler = Spec.Spp; backend = Spec.Cpa };
    ]
  in
  let f1 =
    Spec.frame ~name:"F1" ~bus:"CAN" ~send_type:Comstack.Frame.Direct
      ~tx_time:(Interval.point 4) ~priority:1
      ~signals:
        [
          Spec.signal ~name:"sig1" ~origin:(Spec.From_source "S1") ();
          Spec.signal ~name:"sig2" ~origin:(Spec.From_source "S2") ();
          Spec.signal ~name:"sig3" ~property:Hem.Model.Pending
            ~origin:(Spec.From_source "S3") ();
        ]
      ()
  in
  let f2 =
    Spec.frame ~name:"F2" ~bus:"CAN" ~send_type:Comstack.Frame.Direct
      ~tx_time:(Interval.point 2) ~priority:2
      ~signals:[ Spec.signal ~name:"sig4" ~origin:(Spec.From_source "S4") () ]
      ()
  in
  let receiver name prio cet signal =
    Spec.task ~name ~resource:"CPU1" ~cet:(Interval.point cet) ~priority:prio
      ~activation:(Spec.From_signal { frame = "F1"; signal })
      ()
  in
  Spec.make ~sources ~resources
    ~tasks:
      [
        receiver "T1" 1 24 "sig1";
        receiver "T2" 2 32 "sig2";
        receiver "T3" 3 40 "sig3";
      ]
    ~frames:[ f1; f2 ] ()

let generators ?(s3_period = s3_period) () =
  [
    "S1", Des.Gen.periodic ~period:250 ();
    "S2", Des.Gen.periodic ~period:450 ();
    "S3", Des.Gen.periodic ~period:s3_period ();
    "S4", Des.Gen.periodic ~period:400 ();
  ]

let cpu_tasks = [ "T1"; "T2"; "T3" ]

let frames = [ "F1"; "F2" ]

let analyse_both ?s3_period () =
  let system = spec ?s3_period () in
  match Cpa_system.Engine.analyse ~mode:Cpa_system.Engine.Flat_sem system with
  | Error e -> Error e
  | Ok flat -> begin
    match
      Cpa_system.Engine.analyse ~mode:Cpa_system.Engine.Hierarchical system
    with
    | Error e -> Error e
    | Ok hem -> Ok (flat, hem)
  end
