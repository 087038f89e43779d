(* Operator-level cost attribution: the ledger's conservation law, the
   executor's provenance-driven sample reduction, provenance survival
   through -O3, bit-stability across worker counts, counterfactual
   accounting, by_kernel aggregation and the traced/untraced metrics
   differential over the corruption-recovery fields. *)

open Gpu_sim
module A = Weaver_obs.Attrib

let device = Weaver.Config.default.Weaver.Config.device

let run_metrics ?(config = Weaver.Config.default) ?trace (w : Tpch.Patterns.workload)
    ~rows =
  let bases = w.Tpch.Patterns.gen ~seed:3 ~rows in
  let program = Weaver.Driver.compile ~config w.Tpch.Patterns.plan in
  (Weaver.Runtime.run ?trace program bases ~mode:Weaver.Runtime.Resident)
    .Weaver.Runtime.metrics

(* --- ledger laws ----------------------------------------------------------- *)

let test_ledger_conservation () =
  let t = A.create () in
  let sample =
    [
      (0, { A.zero_contrib with A.c_instructions = 10; c_weight = 1.0 });
      (1, { A.zero_contrib with A.c_instructions = 30; c_weight = 3.0 });
    ]
  in
  A.add t ~total:100.0 ~compute:80.0 ~memory:15.0 ~launch:5.0 sample;
  (* a sample-less launch lands entirely on the overhead row *)
  A.add t ~total:7.5 ~compute:0.0 ~memory:0.0 ~launch:7.5 [];
  Alcotest.(check bool) "conserved" true (A.conserved t);
  Alcotest.(check int) "attributed = total units" (A.total_units t)
    (A.attributed_units t);
  Alcotest.(check bool) "fold matches the naive sum" true
    (A.fold_cycles t = 107.5);
  let rows = A.rows t in
  let ov = List.find (fun r -> r.A.op = A.overhead_op) rows in
  Alcotest.(check bool) "overhead row first" true
    ((List.hd rows).A.op = A.overhead_op);
  (* the unattributed launch's 7.5 cycles plus the first launch's 5-cycle
     launch component are at least what overhead carries *)
  Alcotest.(check bool) "overhead >= unattributed launch" true
    (A.cycles_of_units ov.A.units >= 7.5);
  (* row launch counts tally sampled evidence only: neither launch put an
     overhead entry in its sample *)
  Alcotest.(check int) "overhead launch count" 0 ov.A.launches;
  Alcotest.(check int) "op launch count" 1
    (List.find (fun r -> r.A.op = 0) rows).A.launches;
  let op1 = List.find (fun r -> r.A.op = 1) rows in
  let op0 = List.find (fun r -> r.A.op = 0) rows in
  (* compute split follows the 1:3 weight ratio *)
  Alcotest.(check bool) "weights steer the compute split" true
    (op1.A.compute_units > 2 * op0.A.compute_units)

let test_ledger_overhead_classify () =
  let t = A.create () in
  A.add t ~total:10.0 ~compute:0.0 ~memory:0.0 ~launch:10.0 [];
  let ov = List.find (fun r -> r.A.op = A.overhead_op) (A.rows t) in
  Alcotest.(check string) "overhead roofline" "overhead"
    (A.roofline_name (A.classify ov))

(* --- executor sample reduction --------------------------------------------- *)

let test_attrib_sample_split () =
  let b = Kir_builder.create ~name:"split" ~params:0 () in
  Kir_builder.set_ops b [ 0 ];
  let r = Kir_builder.bin b Kir.Add (Kir.Imm 1) (Kir.Imm 2) in
  Kir_builder.set_ops b [ 0; 1 ];
  let _ = Kir_builder.bin b Kir.Add (Kir.Reg r) (Kir.Imm 3) in
  Kir_builder.set_ops b [];
  let k = Kir_builder.finish b in
  Alcotest.(check int) "prov covers the body" (Array.length k.Kir.body)
    (Array.length k.Kir.prov);
  Alcotest.(check (list int)) "first add tagged 0" [ 0 ] (Kir.prov_at k 0);
  Alcotest.(check (list int)) "second add tagged 0,1" [ 0; 1 ]
    (Kir.prov_at k 1);
  Alcotest.(check (list int)) "ret untagged" [] (Kir.prov_at k 2);
  Alcotest.(check (list int)) "prov_at tolerates out of range" []
    (Kir.prov_at k 99);
  (* counts: 4 on the op-0 add, 6 on the shared add (3 each), 1 on Ret *)
  let counts = [| 4; 6; 1 |] in
  let sample = Executor.attrib_sample k counts in
  let instr op = (List.assoc op sample).A.c_instructions in
  Alcotest.(check int) "op 0 instructions" 7 (instr 0);
  Alcotest.(check int) "op 1 instructions" 3 (instr 1);
  Alcotest.(check int) "overhead instructions" 1 (instr A.overhead_op);
  (* nothing is lost in the split *)
  let total =
    List.fold_left (fun acc (_, c) -> acc + c.A.c_instructions) 0 sample
  in
  Alcotest.(check int) "split conserves instruction counts" 11 total

let test_retag () =
  let b = Kir_builder.create ~name:"r" ~params:0 () in
  let _ = Kir_builder.bin b Kir.Add (Kir.Imm 1) (Kir.Imm 2) in
  let k = Kir_builder.finish b in
  let k' = Kir.retag [ 7 ] k in
  Array.iteri
    (fun i _ ->
      Alcotest.(check (list int))
        (Printf.sprintf "retagged pc %d" i)
        [ 7 ] (Kir.prov_at k' i))
    k'.Kir.body

(* --- conservation on real runs --------------------------------------------- *)

let test_run_conservation () =
  let m = run_metrics (Tpch.Patterns.pattern_a ()) ~rows:6_000 in
  let a = Weaver.Metrics.attribution m in
  Alcotest.(check bool) "conserved" true (A.conserved a);
  Alcotest.(check bool) "fold_cycles = kernel_cycles, bit-exact" true
    (A.fold_cycles a = m.Weaver.Metrics.kernel_cycles);
  let ops = List.filter (fun r -> r.A.op <> A.overhead_op) (A.rows a) in
  Alcotest.(check int) "all four plan operators attributed" 4
    (List.length ops);
  List.iter
    (fun (r : A.row) ->
      Alcotest.(check bool)
        (Printf.sprintf "op %d did work" r.A.op)
        true
        (r.A.units > 0 && r.A.instructions > 0))
    ops

let test_default_run_attributes_every_operator () =
  (* attribution is a per-launch reduction of the execution counts, so a
     run with the default configuration carries the full ledger: every
     plan operator has a row, the fused groups their counterfactuals *)
  let q1 =
    let db = Tpch.Datagen.generate ~seed:3 ~lineitems:1_000 in
    (Tpch.Queries.q1.Tpch.Queries.plan, Tpch.Queries.q1.Tpch.Queries.bind db)
  in
  List.iter
    (fun (name, (plan, bases)) ->
      let program = Weaver.Driver.compile plan in
      let m =
        (Weaver.Runtime.run program bases ~mode:Weaver.Runtime.Resident)
          .Weaver.Runtime.metrics
      in
      let a = Weaver.Metrics.attribution m in
      Alcotest.(check bool) (name ^ ": conserved") true (A.conserved a);
      Alcotest.(check (list int))
        (name ^ ": every plan operator attributed")
        (List.map (fun (n : Qplan.Plan.node) -> n.Qplan.Plan.id)
           (Qplan.Plan.nodes plan))
        (List.filter_map
           (fun (r : A.row) ->
             if r.A.op = A.overhead_op then None else Some r.A.op)
           (A.rows a));
      Alcotest.(check bool) (name ^ ": counterfactuals recorded") true
        (m.Weaver.Metrics.counterfactuals <> []))
    (List.map
       (fun (w : Tpch.Patterns.workload) ->
         ( w.Tpch.Patterns.name,
           (w.Tpch.Patterns.plan, w.Tpch.Patterns.gen ~seed:3 ~rows:2_000) ))
       (Tpch.Patterns.all () @ [ Tpch.Patterns.pattern_ab () ])
    @ [ ("Q1", q1) ])

let test_provenance_survives_o3 () =
  let w = Tpch.Patterns.pattern_ab () in
  let bases = w.Tpch.Patterns.gen ~seed:3 ~rows:4_000 in
  let ops_of opt =
    let program =
      Weaver.Driver.compile ~opt w.Tpch.Patterns.plan
    in
    let m =
      (Weaver.Runtime.run program bases ~mode:Weaver.Runtime.Resident)
        .Weaver.Runtime.metrics
    in
    let a = Weaver.Metrics.attribution m in
    Alcotest.(check bool) "conserved at this level" true (A.conserved a);
    List.filter_map
      (fun (r : A.row) -> if r.A.op = A.overhead_op then None else Some r.A.op)
      (A.rows a)
  in
  let o0 = ops_of Weaver.Optimizer.O0 and o3 = ops_of Weaver.Optimizer.O3 in
  Alcotest.(check (list int))
    "the same operators stay attributable after -O3" o0 o3;
  Alcotest.(check bool) "more than one operator" true (List.length o3 > 1)

let test_jobs_bit_stability () =
  let w = Tpch.Patterns.pattern_c () in
  let at jobs =
    run_metrics ~config:(Weaver.Config.with_jobs Weaver.Config.default jobs) w
      ~rows:6_000
  in
  let m1 = at 1 and m4 = at 4 in
  Alcotest.(check bool) "kernel cycles bit-identical" true
    (m1.Weaver.Metrics.kernel_cycles = m4.Weaver.Metrics.kernel_cycles);
  Alcotest.(check bool) "ledger rows bit-identical" true
    (A.rows (Weaver.Metrics.attribution m1)
    = A.rows (Weaver.Metrics.attribution m4))

let test_storm_conservation () =
  (* conservation must hold on whatever ledger a faulted run accumulated,
     and retried groups must replace (not duplicate) their counterfactual *)
  let w = Tpch.Patterns.pattern_ab () in
  let bases = w.Tpch.Patterns.gen ~seed:3 ~rows:4_000 in
  let config =
    {
      Weaver.Config.default with
      Weaver.Config.faults =
        Some "rseed@11,alloc%0.15,launch%0.15,transfer%0.15";
    }
  in
  let program = Weaver.Driver.compile ~config w.Tpch.Patterns.plan in
  let m =
    match
      Weaver.Runtime.run_result program bases ~mode:Weaver.Runtime.Resident
    with
    | Ok r -> r.Weaver.Runtime.metrics
    | Error f -> f.Weaver.Runtime.partial
  in
  Alcotest.(check bool) "faults actually fired" true
    (m.Weaver.Metrics.faults_injected > 0);
  let a = Weaver.Metrics.attribution m in
  Alcotest.(check bool) "conserved under the storm" true (A.conserved a);
  Alcotest.(check bool) "fold still bit-exact" true
    (A.fold_cycles a = m.Weaver.Metrics.kernel_cycles);
  let groups =
    List.map
      (fun (c : A.counterfactual) -> c.A.cf_group)
      m.Weaver.Metrics.counterfactuals
  in
  Alcotest.(check bool) "one counterfactual per group" true
    (List.sort_uniq compare groups = List.sort compare groups)

(* --- counterfactual accounting --------------------------------------------- *)

let test_counterfactual_accounting () =
  let m = run_metrics (Tpch.Patterns.pattern_a ()) ~rows:6_000 in
  let cfs = m.Weaver.Metrics.counterfactuals in
  Alcotest.(check bool) "counterfactuals recorded" true (cfs <> []);
  List.iter
    (fun (c : A.counterfactual) ->
      Alcotest.(check bool) (c.A.cf_group ^ ": ops named") true
        (c.A.cf_ops <> []);
      Alcotest.(check int)
        (c.A.cf_group ^ ": two PCIe trips per edge")
        (2 * c.A.cf_edges) c.A.cf_round_trips;
      Alcotest.(check bool)
        (c.A.cf_group ^ ": bytes iff edges")
        true
        ((c.A.cf_edges = 0) = (c.A.cf_bytes = 0)))
    cfs;
  (* pattern (a) fuses select->select->select->project: three internal
     edges would have been materialized *)
  let edges =
    List.fold_left (fun acc (c : A.counterfactual) -> acc + c.A.cf_edges) 0 cfs
  in
  Alcotest.(check int) "pattern (a) avoids three edges" 3 edges;
  Alcotest.(check bool) "avoided bytes are positive" true
    (List.fold_left (fun acc (c : A.counterfactual) -> acc + c.A.cf_bytes) 0 cfs
    > 0)

(* --- by_kernel aggregation ------------------------------------------------- *)

let mk_report name total instrs =
  let stats = Stats.create () in
  stats.Stats.instructions <- instrs;
  {
    Executor.kernel_name = name;
    grid = 1;
    cta = 32;
    occupancy = 1.0;
    limiting_resource = "none";
    stats;
    time =
      {
        Timing.compute_cycles = total;
        memory_cycles = 0.0;
        launch_cycles = 0.0;
        total_cycles = total;
      };
    attrib = [];
  }

let collect_reports reports =
  Weaver.Metrics.collect ~reports ~pcie:(Pcie.create device)
    ~peak_global_bytes:0 ~retries:0 ~fissions:0 ~demotions:0 ~faults_injected:0
    ~leaks:[] ()

let test_by_kernel_order_and_sums () =
  let m =
    collect_reports
      [
        mk_report "beta" 10.0 3;
        mk_report "alpha" 5.0 1;
        mk_report "beta" 10.0 4;
        mk_report "gamma" 20.0 7;
        mk_report "alpha" 15.0 2;
      ]
  in
  let by = Weaver.Metrics.by_kernel m in
  (* all three tie at 20 cycles: exact ties order by name ascending *)
  Alcotest.(check (list string)) "tie broken by name"
    [ "alpha"; "beta"; "gamma" ]
    (List.map (fun (n, _, _, _) -> n) by);
  Alcotest.(check (list int)) "launches per kernel" [ 2; 2; 1 ]
    (List.map (fun (_, l, _, _) -> l) by);
  List.iter
    (fun (_, _, c, _) -> Alcotest.(check bool) "cycles tie" true (c = 20.0))
    by;
  (* per-kernel stats sum the individual launches *)
  Alcotest.(check (list int)) "stats summed" [ 3; 7; 7 ]
    (List.map (fun (_, _, _, (s : Stats.t)) -> s.Stats.instructions) by);
  (* nothing dropped: totals agree with the flat metrics *)
  let cycles = List.fold_left (fun a (_, _, c, _) -> a +. c) 0.0 by in
  Alcotest.(check bool) "cycles sum to kernel_cycles" true
    (cycles = m.Weaver.Metrics.kernel_cycles);
  Alcotest.(check int) "launch counts sum" m.Weaver.Metrics.launches
    (List.fold_left (fun a (_, l, _, _) -> a + l) 0 by)

let test_by_kernel_descending () =
  let m =
    collect_reports
      [ mk_report "small" 1.0 1; mk_report "big" 9.0 1; mk_report "mid" 4.0 1 ]
  in
  let by = Weaver.Metrics.by_kernel m in
  Alcotest.(check (list string)) "descending by cycles"
    [ "big"; "mid"; "small" ]
    (List.map (fun (n, _, _, _) -> n) by)

(* --- traced/untraced differential over recovery fields ---------------------- *)

let test_traced_equal_covers_recovery_fields () =
  (* a flip storm with checkpointing exercises corruptions, rollbacks,
     checkpoints and replay accounting; tracing must not perturb any of
     them (Metrics.equal compares every scalar field) *)
  let q = Tpch.Queries.q1 in
  let db = Tpch.Datagen.generate ~seed:9 ~lineitems:1_200 in
  let bases = q.Tpch.Queries.bind db in
  let config =
    {
      Weaver.Config.default with
      Weaver.Config.checkpoint = true;
      faults = Some "launch@6:flip";
    }
  in
  let run trace =
    let program = Weaver.Driver.compile ~config q.Tpch.Queries.plan in
    match
      Weaver.Runtime.run_result ~trace program bases
        ~mode:Weaver.Runtime.Streamed
    with
    | Ok r -> r.Weaver.Runtime.metrics
    | Error f -> f.Weaver.Runtime.partial
  in
  let plain = run Weaver_obs.Trace.none in
  let traced = run (Weaver_obs.Trace.create ()) in
  Alcotest.(check bool) "the flip was detected" true
    (plain.Weaver.Metrics.corruptions > 0);
  Alcotest.(check bool) "recovery checkpointed" true
    (plain.Weaver.Metrics.checkpoints > 0);
  Alcotest.(check bool) "metrics equal incl. recovery fields" true
    (Weaver.Metrics.equal plain traced);
  (* and the attribution ledgers agree row for row *)
  Alcotest.(check bool) "ledgers equal" true
    (A.rows (Weaver.Metrics.attribution plain)
    = A.rows (Weaver.Metrics.attribution traced))

let suite =
  [
    ("ledger conservation", `Quick, test_ledger_conservation);
    ("ledger overhead classify", `Quick, test_ledger_overhead_classify);
    ("executor sample split", `Quick, test_attrib_sample_split);
    ("kir retag", `Quick, test_retag);
    ("run conservation", `Quick, test_run_conservation);
    ( "default run attributes all ops",
      `Quick,
      test_default_run_attributes_every_operator );
    ("provenance survives -O3", `Quick, test_provenance_survives_o3);
    ("jobs bit-stability", `Quick, test_jobs_bit_stability);
    ("storm conservation", `Quick, test_storm_conservation);
    ("counterfactual accounting", `Quick, test_counterfactual_accounting);
    ("by_kernel order and sums", `Quick, test_by_kernel_order_and_sums);
    ("by_kernel descending", `Quick, test_by_kernel_descending);
    ( "traced equal covers recovery fields",
      `Quick,
      test_traced_equal_covers_recovery_fields );
  ]
