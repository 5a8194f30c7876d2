type entry = {
  id : string;
  description : string;
  run : quick:bool -> jobs:int -> Report.t list;
}

let sweep_entry config =
  {
    id = config.Sweep.id;
    description = config.Sweep.title;
    run = (fun ~quick ~jobs -> [ Sweep.run ~quick ~jobs config ]);
  }

let all =
  [
    {
      id = "fig2-3";
      description = "schedule-shape diagrams (general / FIFO / LIFO)";
      run = (fun ~quick:_ ~jobs:_ -> Fig23.run ());
    };
    {
      id = "fig8";
      description = "linearity test of the communication cost model";
      run = (fun ~quick:_ ~jobs:_ -> [ Fig8.run () ]);
    };
    {
      id = "fig9";
      description = "execution trace with resource selection (Gantt)";
      run = (fun ~quick:_ ~jobs -> [ Fig9.run ~jobs () ]);
    };
  ]
  @ List.map sweep_entry Sweep.all
  @ [
      {
        id = "fig14";
        description = "participating workers on the 4-worker platform";
        run =
          (fun ~quick:_ ~jobs:_ ->
            [ Fig14.worker_table ~x:1; Fig14.run ~x:1 (); Fig14.run ~x:3 () ]);
      };
      {
        id = "theorem2";
        description = "closed form vs LP cross-check";
        run = (fun ~quick:_ ~jobs:_ -> [ Ablations.theorem2_check () ]);
      };
      {
        id = "ablation-oneport";
        description = "cost of the one-port constraint vs two-port";
        run = (fun ~quick ~jobs:_ -> [ Ablations.one_port_cost ~quick () ]);
      };
      {
        id = "ablation-permutations";
        description = "FIFO/LIFO vs exhaustive permutation search";
        run = (fun ~quick ~jobs -> [ Ablations.permutation_gap ~quick ~jobs () ]);
      };
      {
        id = "ablation-ordering";
        description = "alternative FIFO sending orders";
        run = (fun ~quick ~jobs:_ -> [ Ablations.ordering ~quick () ]);
      };
      {
        id = "ablation-lifo-regime";
        description = "LIFO vs FIFO across compute/communication balances";
        run = (fun ~quick ~jobs:_ -> [ Ablations.lifo_regime ~quick () ]);
      };
      {
        id = "ablation-affine";
        description = "affine model: latency vs enrollment";
        run = (fun ~quick ~jobs:_ -> [ Ablations.affine_latency ~quick () ]);
      };
      {
        id = "ablation-multiround";
        description = "multi-round throughput, linear vs affine costs";
        run = (fun ~quick ~jobs:_ -> [ Ablations.multiround ~quick () ]);
      };
      {
        id = "ablation-protocol";
        description = "eager-return vs sends-first master policy";
        run = (fun ~quick ~jobs:_ -> [ Ablations.protocol ~quick () ]);
      };
      {
        id = "ablation-sensitivity";
        description = "jitter sensitivity of INC_C vs LIFO plans";
        run = (fun ~quick ~jobs:_ -> [ Ablations.sensitivity ~quick () ]);
      };
      {
        id = "ablation-scaling";
        description = "exact vs float solver scaling with worker count";
        run = (fun ~quick ~jobs:_ -> [ Ablations.scaling ~quick () ]);
      };
      {
        id = "robustness";
        description = "recovered vs unrecovered completion under faults";
        run = (fun ~quick ~jobs:_ -> [ Ablations.robustness ~quick () ]);
      };
      {
        id = "multiload";
        description = "multi-load steady state vs back-to-back";
        run = (fun ~quick ~jobs:_ -> [ Ablations.multiload ~quick () ]);
      };
    ]

let find id = List.find (fun e -> e.id = id) all
let ids () = List.map (fun e -> e.id) all
