type entry = { name : string; spec : unit -> Cpa_system.Spec.t }

let all =
  [
    { name = "paper"; spec = (fun () -> Paper_system.spec ()) };
    { name = "gateway"; spec = (fun () -> Gateway.spec ()) };
    { name = "avionics"; spec = Avionics.spec };
    { name = "fan_in_8"; spec = (fun () -> Synthetic.fan_in ~signals:8 ()) };
    { name = "chain_12"; spec = (fun () -> Synthetic.chain ~stages:12 ()) };
    { name = "chain_16"; spec = (fun () -> Synthetic.chain ~stages:16 ()) };
    {
      name = "network_8";
      spec = (fun () -> Synthetic.network ~seed:1 ~ecus:8 ());
    };
  ]

let find name = (List.find (fun e -> String.equal e.name name) all).spec
