(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) on the simulated GPU, times the simulator itself with
   bechamel micro-benchmarks, and measures the domain-parallel
   interpreter's wall-clock speedup over sequential execution.

   Usage:
     bench/main.exe [OPTS]                run everything (default sizes)
     bench/main.exe [OPTS] quick          run everything at reduced sizes
     bench/main.exe [OPTS] fig16 q1 ...   run selected experiments
     bench/main.exe [OPTS] bechamel       only the wall-clock micro-benchmarks
     bench/main.exe [OPTS] parallel       only the jobs=1 vs jobs=N comparison
     bench/main.exe [OPTS] chaos          recovery counters under injected faults
     bench/main.exe [OPTS] service        multi-query service throughput/latency
     bench/main.exe [OPTS] overload       goodput curve under fault storms at
                                          0.5x/1x/2x/4x of admit capacity
     bench/main.exe [OPTS] integrity      corruption-storm sweep: detection
                                          rate, goodput and replay cycles for
                                          no-integrity / verify / verify+ckpt
     bench/main.exe [OPTS] obs            tracer overhead: disabled vs recorder
                                          vs full event retention

   Options:
     --json FILE    also write every result as JSON rows
                    [{"experiment":..., "metric":..., "value":...}, ...]
     --jobs N       worker domains for the simulated kernel launches
                    (default 4 for the parallel comparison, 1 elsewhere;
                    0 = one per recommended core) *)

let known = [ "table2"; "fig4"; "fig16"; "fig17"; "fig18"; "fig19"; "fig20";
              "fig21"; "table3"; "q1"; "q21"; "analysis"; "attrib";
              "ablation-input-sharing";
              "ablation-rewriting"; "ablation-cta-threads";
              "ablation-tile-capacity"; "ablation-q21-semijoin";
              "ablation-platforms" ]

(* --- JSON rows ------------------------------------------------------------- *)

let json_rows : (string * string * float) list ref = ref []

let record ~experiment ~metric value =
  json_rows := (experiment, metric, value) :: !json_rows

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path =
  let oc = open_out path in
  output_string oc "[\n";
  let rows = List.rev !json_rows in
  List.iteri
    (fun i (experiment, metric, value) ->
      Printf.fprintf oc
        "  {\"experiment\": \"%s\", \"metric\": \"%s\", \"value\": %.17g}%s\n"
        (json_escape experiment) (json_escape metric) value
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "\nwrote %d JSON rows to %s\n" (List.length rows) path

(* --- paper experiments ------------------------------------------------------ *)

let run_experiments ~quick ~jobs names =
  let all =
    Harness.Experiments.all ~quick ~jobs ()
    @ Harness.Ablations.all ~quick ~jobs ()
  in
  let wanted =
    match names with
    | [] -> all
    | _ ->
        List.filter_map
          (fun n ->
            match List.assoc_opt n all with
            | Some o -> Some (n, o)
            | None ->
                Printf.eprintf "unknown experiment %s (known: %s)\n" n
                  (String.concat ", " known);
                None)
          names
  in
  List.iter
    (fun (name, outcome) ->
      Printf.printf "[%s]\n" name;
      let o = outcome () in
      List.iter
        (fun (metric, value) -> record ~experiment:name ~metric value)
        o.Harness.Report.headline;
      Harness.Report.print o)
    wanted

(* --- bechamel micro-benchmarks: wall-clock cost of the simulator ---------- *)

let bechamel_suite ~jobs () =
  let open Bechamel in
  let pattern_test ?(config = Weaver.Config.default) ?label
      (w : Tpch.Patterns.workload) ~rows =
    let bases = w.Tpch.Patterns.gen ~seed:1 ~rows in
    let program = Weaver.Driver.compile ~config w.Tpch.Patterns.plan in
    let label = Option.value label ~default:w.Tpch.Patterns.name in
    Test.make
      ~name:(Printf.sprintf "%s/%d" label rows)
      (Staged.stage (fun () ->
           ignore (Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident)))
  in
  let compile_test =
    let w = Tpch.Patterns.pattern_b () in
    Test.make ~name:"compile/pattern-b"
      (Staged.stage (fun () ->
           ignore (Weaver.Driver.compile w.Tpch.Patterns.plan)))
  in
  let optimize_test =
    let w = Tpch.Patterns.pattern_a () in
    let ir = Weaver.Fusion.build w.Tpch.Patterns.plan [ 0; 1; 2; 3 ] in
    let lay = Weaver.Layout.compute Weaver.Config.default w.Tpch.Patterns.plan ir in
    let ks = Weaver.Codegen.generate Weaver.Config.default ~name:"bench" ir lay in
    Test.make ~name:"optimize/compute-kernel"
      (Staged.stage (fun () ->
           ignore
             (Weaver.Optimizer.optimize Weaver.Optimizer.O3
                ks.Weaver.Codegen.compute)))
  in
  let seq = Weaver.Config.with_jobs Weaver.Config.default 1 in
  let par = Weaver.Config.with_jobs Weaver.Config.default jobs in
  let tests =
    Test.make_grouped ~name:"kernel_weaver"
      [
        pattern_test (Tpch.Patterns.pattern_a ()) ~rows:20_000;
        pattern_test (Tpch.Patterns.pattern_b ()) ~rows:10_000;
        pattern_test (Tpch.Patterns.pattern_e ()) ~rows:20_000;
        (* the sequential baseline and the --jobs run stay two distinct
           rows even when --jobs is 1 *)
        pattern_test (Tpch.Patterns.pattern_a ()) ~rows:100_000 ~config:seq
          ~label:"pattern-a-seq-jobs1";
        pattern_test (Tpch.Patterns.pattern_a ()) ~rows:100_000 ~config:par
          ~label:(Printf.sprintf "pattern-a-par-jobs%d" par.Weaver.Config.jobs);
        compile_test;
        optimize_test;
      ]
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg instances tests
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let results = analyze (benchmark ()) in
  Printf.printf "\n== bechamel: simulator wall-clock (ns per run) ==\n";
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ t ] ->
          record ~experiment:"bechamel" ~metric:(name ^ " (ns)") t;
          Printf.printf "%-40s %14.0f ns\n" name t
      | _ -> Printf.printf "%-40s (no estimate)\n" name)
    results

(* --- chaos: recovery counters under injected faults ------------------------ *)

(* Runs representative workloads with deterministic fault schedules and
   records the recovery counters (retries, fissions, demotions, faults
   injected, leaked buffers) as JSON rows, so CI can track the
   self-healing paths the same way it tracks cycle counts. *)
let chaos ~jobs ~quick () =
  let rows = if quick then 2_000 else 10_000 in
  let base = Weaver.Config.with_jobs Weaver.Config.default jobs in
  let run_one ~label ~faults ~mode (w : Tpch.Patterns.workload) =
    let config = { base with Weaver.Config.faults = Some faults } in
    let bases = w.Tpch.Patterns.gen ~seed:3 ~rows in
    let program = Weaver.Driver.compile ~config w.Tpch.Patterns.plan in
    let r = Weaver.Driver.run program bases ~mode in
    let m = r.Weaver.Runtime.metrics in
    let experiment = "chaos-" ^ label in
    record ~experiment ~metric:"retries"
      (float_of_int m.Weaver.Metrics.retries);
    record ~experiment ~metric:"fissions"
      (float_of_int m.Weaver.Metrics.fissions);
    record ~experiment ~metric:"demotions"
      (float_of_int m.Weaver.Metrics.demotions);
    record ~experiment ~metric:"faults_injected"
      (float_of_int m.Weaver.Metrics.faults_injected);
    record ~experiment ~metric:"leaked_buffers"
      (float_of_int (List.length m.Weaver.Metrics.leaks));
    Printf.printf
      "%-28s retries=%-3d fissions=%-3d demotions=%d injected=%d leaks=%d\n"
      (Printf.sprintf "%s (%s)" label faults)
      m.Weaver.Metrics.retries m.Weaver.Metrics.fissions
      m.Weaver.Metrics.demotions m.Weaver.Metrics.faults_injected
      (List.length m.Weaver.Metrics.leaks)
  in
  Printf.printf "\n== chaos: recovery counters under injected faults ==\n";
  run_one ~label:"alloc-demote" ~faults:"alloc@1x4"
    ~mode:Weaver.Runtime.Resident (Tpch.Patterns.pattern_a ());
  run_one ~label:"transfer-retry" ~faults:"transfer@2x2"
    ~mode:Weaver.Runtime.Streamed (Tpch.Patterns.pattern_b ());
  run_one ~label:"launch-fission" ~faults:"launch@1x999"
    ~mode:Weaver.Runtime.Resident (Tpch.Patterns.pattern_a ());
  run_one ~label:"seeded" ~faults:"seed@7" ~mode:Weaver.Runtime.Resident
    (Tpch.Patterns.pattern_e ())

(* --- service: throughput/latency/shedding counters -------------------------- *)

(* Drives a mixed batch through Weaver.Service: ordinary queries, one with
   a zero deadline (guaranteed miss), one pre-cancelled, one under a fault
   storm, and more requests than the queue admits — so every service
   counter (throughput, p50/p95 latency, rejections, deadline misses,
   cancellations) is exercised and lands in the JSON rows CI tracks. *)
let service ~jobs ~quick () =
  let rows = if quick then 2_000 else 10_000 in
  let base = Weaver.Config.with_jobs Weaver.Config.default jobs in
  let mk ?deadline_cycles ?cancel ?faults ~rid (w : Tpch.Patterns.workload) =
    let config =
      match faults with
      | None -> base
      | Some f -> { base with Weaver.Config.faults = Some f }
    in
    let bases = w.Tpch.Patterns.gen ~seed:5 ~rows in
    let program = Weaver.Driver.compile ~config w.Tpch.Patterns.plan in
    Weaver.Service.request ~rid ?deadline_cycles ?cancel program bases
  in
  let aborted = Gpu_sim.Cancel.create () in
  Gpu_sim.Cancel.cancel aborted
    (Gpu_sim.Fault.Cancelled { reason = "client abort (bench)" });
  let normals =
    List.concat_map
      (fun w -> [ w (); w (); w () ])
      [
        (fun () -> Tpch.Patterns.pattern_a ());
        (fun () -> Tpch.Patterns.pattern_b ());
        (fun () -> Tpch.Patterns.pattern_e ());
      ]
  in
  let requests =
    List.mapi
      (fun rid mkr -> mkr ~rid)
      ([
         (fun ~rid -> mk ~rid ~deadline_cycles:0.0 (Tpch.Patterns.pattern_a ()));
         (fun ~rid -> mk ~rid ~cancel:aborted (Tpch.Patterns.pattern_b ()));
         (fun ~rid -> mk ~rid ~faults:"seed@7" (Tpch.Patterns.pattern_e ()));
       ]
      @ List.map (fun w ~rid -> mk ~rid w) normals)
  in
  let config =
    { Weaver.Service.default_config with Weaver.Service.queue_limit = 8 }
  in
  let registry = Weaver_obs.Registry.create () in
  let _, stats = Weaver.Service.run_batch ~config ~registry requests in
  Printf.printf "\n== service: throughput, latency, shedding ==\n";
  Format.printf "%a@." Weaver.Service.pp_stats stats;
  (* the registry's fixed-bucket histogram derives the same quantiles the
     service computes exactly — report both so drift is visible in CI *)
  let hq q =
    Option.value ~default:0.0
      (Weaver_obs.Registry.quantile registry "weaver_service_latency_cycles" q)
  in
  Printf.printf "histogram-derived latency: p50 %.0f, p95 %.0f cycles\n"
    (hq 0.5) (hq 0.95);
  let e = "service" in
  record ~experiment:e ~metric:"p50_latency_hist_cycles" (hq 0.5);
  record ~experiment:e ~metric:"p95_latency_hist_cycles" (hq 0.95);
  record ~experiment:e ~metric:"queue_wait_p95_hist_cycles"
    (Option.value ~default:0.0
       (Weaver_obs.Registry.quantile registry "weaver_service_queue_wait_cycles"
          0.95));
  record ~experiment:e ~metric:"submitted"
    (float_of_int stats.Weaver.Service.submitted);
  record ~experiment:e ~metric:"completed"
    (float_of_int stats.Weaver.Service.completed);
  record ~experiment:e ~metric:"failed"
    (float_of_int stats.Weaver.Service.failed);
  record ~experiment:e ~metric:"rejected"
    (float_of_int stats.Weaver.Service.rejected);
  record ~experiment:e ~metric:"deadline_misses"
    (float_of_int stats.Weaver.Service.deadline_misses);
  record ~experiment:e ~metric:"cancelled"
    (float_of_int stats.Weaver.Service.cancelled);
  record ~experiment:e ~metric:"pre_demotions"
    (float_of_int stats.Weaver.Service.pre_demotions);
  record ~experiment:e ~metric:"breaker_trips"
    (float_of_int stats.Weaver.Service.breaker_trips);
  record ~experiment:e ~metric:"p50_latency_cycles"
    stats.Weaver.Service.p50_latency_cycles;
  record ~experiment:e ~metric:"p95_latency_cycles"
    stats.Weaver.Service.p95_latency_cycles;
  record ~experiment:e ~metric:"total_cycles" stats.Weaver.Service.total_cycles;
  record ~experiment:e ~metric:"throughput_qps"
    stats.Weaver.Service.throughput_qps

(* --- overload: goodput under fault storms at increasing offered load -------- *)

(* Sweeps offered load at 0.5x/1x/2x/4x of the service's admit capacity
   (queue_limit + 1 — the running query plus the bounded queue) while
   every request carries a decorrelated probabilistic fault storm, a
   retry-token budget and a deadline; hedging is armed. Records the
   goodput curve (completed queries per simulated second) plus every
   degradation counter, and asserts the overload invariants: recovery
   never spends more tokens than the budget allows and no path — hedge
   losers included — leaks a device buffer. *)
let overload ~jobs ~quick () =
  let rows = if quick then 1_000 else 4_000 in
  let base = Weaver.Config.with_jobs Weaver.Config.default jobs in
  let w = Tpch.Patterns.pattern_a () in
  let bases = w.Tpch.Patterns.gen ~seed:11 ~rows in
  (* calibrate the deadline from one clean solo run: generous enough to
     finish, tight enough that storm-induced recovery can exhaust it *)
  let solo =
    let program = Weaver.Driver.compile ~config:base w.Tpch.Patterns.plan in
    let r = Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident in
    Weaver.Metrics.total_cycles r.Weaver.Runtime.metrics
  in
  let deadline = 3.0 *. solo in
  let retry_budget = 8 in
  let storm_rate = 0.05 in
  let queue_limit = 8 in
  let capacity = queue_limit + 1 in
  let service_config =
    {
      Weaver.Service.default_config with
      Weaver.Service.queue_limit;
      hedge_quantile = Some 0.95;
    }
  in
  Printf.printf
    "\n== overload: goodput vs offered load under a %.0f%% fault storm ==\n\
     (%s/%d rows, solo cost %.3e cycles, deadline %.3e, retry budget %d, \
     capacity %d)\n"
    (storm_rate *. 100.0) w.Tpch.Patterns.name rows solo deadline retry_budget
    capacity;
  List.iter
    (fun load_factor ->
      let n =
        max 1 (int_of_float (load_factor *. float_of_int capacity +. 0.5))
      in
      let requests =
        List.init n (fun rid ->
            (* each request carries its own rate seed so the storms are
               decorrelated: retries that rescue one request don't line
               up with every other request's faults *)
            let faults =
              Printf.sprintf "rseed@%d,alloc%%%g,launch%%%g,transfer%%%g"
                (100 + rid) storm_rate storm_rate storm_rate
            in
            let config =
              {
                base with
                Weaver.Config.faults = Some faults;
                retry_budget = Some retry_budget;
              }
            in
            let program =
              Weaver.Driver.compile ~config w.Tpch.Patterns.plan
            in
            Weaver.Service.request ~rid ~deadline_cycles:deadline program
              bases)
      in
      let responses, stats =
        Weaver.Service.run_batch ~config:service_config requests
      in
      (* overload invariants, on every response including hedge losers *)
      let leaks = ref 0 and over_budget = ref 0 in
      let check (m : Weaver.Metrics.t) =
        leaks := !leaks + List.length m.Weaver.Metrics.leaks;
        if
          m.Weaver.Metrics.retries + m.Weaver.Metrics.fissions
          + m.Weaver.Metrics.demotions
          > retry_budget
        then incr over_budget
      in
      List.iter
        (fun (r : Weaver.Service.response) ->
          match r.Weaver.Service.verdict with
          | Weaver.Service.Completed res -> check res.Weaver.Runtime.metrics
          | Weaver.Service.Failed f -> check f.Weaver.Runtime.partial
          | Weaver.Service.Rejected _ -> ())
        responses;
      if !leaks > 0 then failwith "overload: leaked device buffers";
      if !over_budget > 0 then
        failwith "overload: recovery exceeded its token budget";
      let e = Printf.sprintf "overload-%gx" load_factor in
      let goodput = stats.Weaver.Service.throughput_qps in
      Printf.printf
        "%4.1fx load (%2d requests): goodput %10.1f q/s  completed=%-2d \
         failed=%-2d rejected=%-2d (shed %d) misses=%-2d vetoes=%-2d \
         hedges=%d/%d brownouts=%d sheds=%d\n"
        load_factor n goodput stats.Weaver.Service.completed
        stats.Weaver.Service.failed stats.Weaver.Service.rejected
        stats.Weaver.Service.shed_rejections
        stats.Weaver.Service.deadline_misses stats.Weaver.Service.budget_vetoes
        stats.Weaver.Service.hedge_wins stats.Weaver.Service.hedges
        stats.Weaver.Service.brownout_entries stats.Weaver.Service.shed_entries;
      record ~experiment:e ~metric:"offered" (float_of_int n);
      record ~experiment:e ~metric:"goodput_qps" goodput;
      record ~experiment:e ~metric:"completed"
        (float_of_int stats.Weaver.Service.completed);
      record ~experiment:e ~metric:"failed"
        (float_of_int stats.Weaver.Service.failed);
      record ~experiment:e ~metric:"rejected"
        (float_of_int stats.Weaver.Service.rejected);
      record ~experiment:e ~metric:"shed_rejections"
        (float_of_int stats.Weaver.Service.shed_rejections);
      record ~experiment:e ~metric:"deadline_misses"
        (float_of_int stats.Weaver.Service.deadline_misses);
      record ~experiment:e ~metric:"budget_vetoes"
        (float_of_int stats.Weaver.Service.budget_vetoes);
      record ~experiment:e ~metric:"hedges"
        (float_of_int stats.Weaver.Service.hedges);
      record ~experiment:e ~metric:"hedge_wins"
        (float_of_int stats.Weaver.Service.hedge_wins);
      record ~experiment:e ~metric:"brownout_entries"
        (float_of_int stats.Weaver.Service.brownout_entries);
      record ~experiment:e ~metric:"shed_entries"
        (float_of_int stats.Weaver.Service.shed_entries);
      record ~experiment:e ~metric:"leaked_buffers" (float_of_int !leaks);
      (* wall-clock-sensitive consumers (hedge timing) degrade on one
         core the same way the parallel comparison does — annotate *)
      let cores = Domain.recommended_domain_count () in
      record ~experiment:e ~metric:"cores" (float_of_int cores);
      record ~experiment:e ~metric:"degenerate"
        (if cores < 2 then 1.0 else 0.0))
    [ 0.5; 1.0; 2.0; 4.0 ]

(* --- integrity: detection and checkpointed recovery under flip storms ------- *)

(* Sweeps seeded bit-flip storm rates across the three integrity
   postures — no-integrity (certificates recorded, never verified),
   verify (typed Data_corrupted faults, whole-query restart is the only
   recovery), verify+ckpt (rollback to the last verified checkpoint) —
   and records per cell the detection rate (corruptions caught per flip
   injected), completion count, mean cycles, and the replay accounting:
   [replayed_cycles] is work actually re-executed after rollbacks,
   [saved_replay_cycles] is work a full restart would have repeated but
   the checkpoint ledger made unnecessary. The headline derived rows:
   replay_reduction_pct (saved / (saved + replayed), the checkpoint win
   over restart-from-scratch) and, at rate 0, overhead_pct against the
   no-integrity baseline (the fault-free cost of the defense). *)
let integrity ~jobs ~quick () =
  let lineitems = if quick then 2_000 else 8_000 in
  let runs = if quick then 6 else 10 in
  let base = Weaver.Config.with_jobs Weaver.Config.default jobs in
  let q = Tpch.Queries.q21 in
  let db = Tpch.Datagen.generate ~seed:13 ~lineitems in
  let bases = q.Tpch.Queries.bind db in
  let variants =
    [ ("no-integrity", false, false);
      ("verify", true, false);
      ("verify-ckpt", true, true) ]
  in
  let rates = [ 0.0; 0.02; 0.05 ] in
  Printf.printf
    "\n== integrity: flip-storm detection and checkpointed recovery ==\n\
     (%s/%d lineitems, %d runs per cell, Streamed, alloc+launch+transfer \
     flip storms)\n"
    q.Tpch.Queries.qname lineitems runs;
  let baseline = ref nan in
  List.iter
    (fun rate ->
      List.iter
        (fun (vname, integ, ckpt) ->
          let completed = ref 0 and flips = ref 0 and corruptions = ref 0 in
          let rollbacks = ref 0 and leaks = ref 0 in
          let cycles = ref 0.0 and replayed = ref 0.0 and saved = ref 0.0 in
          for i = 1 to runs do
            let faults =
              if rate = 0.0 then None
              else
                (* decorrelate runs: each gets its own rate seed; the storm
                   covers all three instrumented sites so flips land
                   throughout the run, not only at kernel launches *)
                Some
                  (Printf.sprintf
                     "rseed@%d,alloc%%%g:flip,launch%%%g:flip,transfer%%%g:flip"
                     (200 + i) rate rate rate)
            in
            let config =
              {
                base with
                Weaver.Config.faults;
                integrity = integ;
                checkpoint = ckpt;
              }
            in
            let program = Weaver.Driver.compile ~config q.Tpch.Queries.plan in
            let m =
              match
                (* Streamed: segment outputs cross PCIe at publish anyway,
                   so checkpointing them is free — the posture where the
                   ledger shines. Resident checkpointing is rationed by
                   the runtime's pay-for-itself rule instead. *)
                Weaver.Runtime.run_result program bases
                  ~mode:Weaver.Runtime.Streamed
              with
              | Ok r ->
                  incr completed;
                  r.Weaver.Runtime.metrics
              | Error f -> f.Weaver.Runtime.partial
            in
            (* the storm is flip-only, so every injected fault is a flip *)
            flips := !flips + m.Weaver.Metrics.faults_injected;
            corruptions := !corruptions + m.Weaver.Metrics.corruptions;
            rollbacks := !rollbacks + m.Weaver.Metrics.rollbacks;
            leaks := !leaks + List.length m.Weaver.Metrics.leaks;
            cycles := !cycles +. Weaver.Metrics.total_cycles m;
            replayed := !replayed +. m.Weaver.Metrics.replayed_cycles;
            saved := !saved +. m.Weaver.Metrics.saved_replay_cycles
          done;
          if !leaks > 0 then failwith "integrity: leaked device buffers";
          let avg_cycles = !cycles /. float_of_int runs in
          let detection =
            if !flips = 0 then 1.0
            else float_of_int !corruptions /. float_of_int !flips
          in
          let reduction =
            if !saved +. !replayed <= 0.0 then 0.0
            else 100.0 *. !saved /. (!saved +. !replayed)
          in
          if rate = 0.0 && not integ then baseline := avg_cycles;
          let overhead =
            if rate = 0.0 && Float.is_nan !baseline = false then
              100.0 *. (avg_cycles -. !baseline) /. !baseline
            else 0.0
          in
          let e = Printf.sprintf "integrity-%s-%gpct" vname (100.0 *. rate) in
          Printf.printf
            "%-24s rate %4.1f%%: completed %d/%d, flips=%-3d detected=%-3d \
             (%.0f%%) rollbacks=%-2d replayed %.2e saved %.2e (%.0f%% \
             reduction)%s\n"
            vname (100.0 *. rate) !completed runs !flips !corruptions
            (100.0 *. detection) !rollbacks !replayed !saved reduction
            (if rate = 0.0 && integ then
               Printf.sprintf "  overhead %+.2f%%" overhead
             else "");
          record ~experiment:e ~metric:"completed" (float_of_int !completed);
          record ~experiment:e ~metric:"flips_injected" (float_of_int !flips);
          record ~experiment:e ~metric:"corruptions_detected"
            (float_of_int !corruptions);
          record ~experiment:e ~metric:"detection_rate" detection;
          record ~experiment:e ~metric:"rollbacks" (float_of_int !rollbacks);
          record ~experiment:e ~metric:"avg_cycles" avg_cycles;
          record ~experiment:e ~metric:"replayed_cycles" !replayed;
          record ~experiment:e ~metric:"saved_replay_cycles" !saved;
          record ~experiment:e ~metric:"replay_reduction_pct" reduction;
          record ~experiment:e ~metric:"leaked_buffers" (float_of_int !leaks);
          if rate = 0.0 then record ~experiment:e ~metric:"overhead_pct" overhead)
        variants)
    rates

(* --- obs: tracer overhead --------------------------------------------------- *)

(* Times the same run three ways: with the tracer disabled (Trace.none,
   the default for every entry point), with a recorder-only tracer (the
   flight-recorder ring but no event retention — the always-on CLI mode),
   and with full event retention. The disabled path is the product
   baseline; DESIGN.md budgets the recorder at <2% over it. *)
let obs ~jobs ~quick () =
  let rows = if quick then 20_000 else 100_000 in
  let w = Tpch.Patterns.pattern_a () in
  let bases = w.Tpch.Patterns.gen ~seed:11 ~rows in
  let config = Weaver.Config.with_jobs Weaver.Config.default jobs in
  let program = Weaver.Driver.compile ~config w.Tpch.Patterns.plan in
  let time_with mk_trace =
    (* warm up, then min of 3: the simulator dominates, so the minimum is
       the least-noisy estimate of the instrumentation cost *)
    ignore
      (Weaver.Runtime.run ~trace:(mk_trace ()) program bases
         ~mode:Weaver.Runtime.Resident);
    let best = ref infinity in
    for _ = 1 to 3 do
      let trace = mk_trace () in
      let t0 = Unix.gettimeofday () in
      ignore
        (Weaver.Runtime.run ~trace program bases ~mode:Weaver.Runtime.Resident);
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let disabled = time_with (fun () -> Weaver_obs.Trace.none) in
  let recorder = time_with (fun () -> Weaver_obs.Trace.create ~events:false ()) in
  let full = time_with (fun () -> Weaver_obs.Trace.create ()) in
  let events =
    let trace = Weaver_obs.Trace.create () in
    ignore
      (Weaver.Runtime.run ~trace program bases ~mode:Weaver.Runtime.Resident);
    Weaver_obs.Trace.event_count trace
  in
  let pct over base = 100.0 *. (over -. base) /. base in
  Printf.printf "\n== obs: tracer overhead (%s/%d rows, min of 3) ==\n"
    w.Tpch.Patterns.name rows;
  Printf.printf
    "disabled %8.4f s\nrecorder %8.4f s  (%+.2f%%)\nfull     %8.4f s  \
     (%+.2f%%, %d events)\n"
    disabled recorder (pct recorder disabled) full (pct full disabled) events;
  let e = "obs" in
  record ~experiment:e ~metric:"disabled_s" disabled;
  record ~experiment:e ~metric:"recorder_s" recorder;
  record ~experiment:e ~metric:"full_s" full;
  record ~experiment:e ~metric:"recorder_overhead_pct" (pct recorder disabled);
  record ~experiment:e ~metric:"full_overhead_pct" (pct full disabled);
  record ~experiment:e ~metric:"events" (float_of_int events)

(* --- sequential vs domain-parallel interpretation -------------------------- *)

(* Direct wall-clock comparison of the same launch sequence interpreted
   with jobs=1 and jobs=N worker domains.  Uses a multi-CTA workload so
   the per-launch grid is wide enough to distribute. *)
let parallel_comparison ~jobs ~quick () =
  let jobs = (Weaver.Config.with_jobs Weaver.Config.default jobs).Weaver.Config.jobs in
  let jobs = if jobs <= 1 then 4 else jobs in
  let rows = if quick then 100_000 else 400_000 in
  let w = Tpch.Patterns.pattern_a () in
  let bases = w.Tpch.Patterns.gen ~seed:7 ~rows in
  let time_with ~jobs =
    let config = Weaver.Config.with_jobs Weaver.Config.default jobs in
    let program = Weaver.Driver.compile ~config w.Tpch.Patterns.plan in
    (* warm up (first run pays domain spawning and any lazy init) *)
    ignore (Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident);
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      ignore (Weaver.Driver.run program bases ~mode:Weaver.Runtime.Resident);
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let seq = time_with ~jobs:1 in
  let par = time_with ~jobs in
  let speedup = seq /. par in
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "\n== parallel interpreter: %s/%d rows, jobs=1 vs jobs=%d (%d core%s) ==\n"
    w.Tpch.Patterns.name rows jobs cores
    (if cores = 1 then "" else "s");
  Printf.printf "jobs=1   %8.3f s\njobs=%-3d %8.3f s\nspeedup  %7.2fx\n" seq
    jobs par speedup;
  if cores < 2 then
    Printf.printf
      "(single-core host: domains time-slice, so no speedup is possible; \
       run on a multi-core machine to see the parallel win)\n";
  record ~experiment:"parallel-speedup" ~metric:"seq_s" seq;
  record ~experiment:"parallel-speedup" ~metric:"par_s" par;
  record ~experiment:"parallel-speedup" ~metric:"jobs" (float_of_int jobs);
  record ~experiment:"parallel-speedup" ~metric:"cores" (float_of_int cores);
  record ~experiment:"parallel-speedup" ~metric:"speedup" speedup;
  (* on a single-core host domains time-slice, so the speedup number is
     meaningless — flag it so dashboards and CI can exclude the row
     instead of alerting on a "regression" *)
  record ~experiment:"parallel-speedup" ~metric:"degenerate"
    (if cores < 2 then 1.0 else 0.0)

(* --- entry point ------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json_file = ref None in
  let jobs = ref 1 in
  let rec parse_opts acc = function
    | "--json" :: file :: rest ->
        json_file := Some file;
        parse_opts acc rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n -> jobs := n
        | None -> Printf.eprintf "--jobs: not an integer: %s\n" n);
        parse_opts acc rest
    | arg :: rest -> parse_opts (arg :: acc) rest
    | [] -> List.rev acc
  in
  let words = parse_opts [] args in
  let quick = List.mem "quick" words in
  let words = List.filter (fun w -> w <> "quick") words in
  (match words with
  | [ "bechamel" ] -> bechamel_suite ~jobs:!jobs ()
  | [ "parallel" ] -> parallel_comparison ~jobs:!jobs ~quick ()
  | [ "chaos" ] -> chaos ~jobs:!jobs ~quick ()
  | [ "service" ] -> service ~jobs:!jobs ~quick ()
  | [ "overload" ] -> overload ~jobs:!jobs ~quick ()
  | [ "integrity" ] -> integrity ~jobs:!jobs ~quick ()
  | [ "obs" ] -> obs ~jobs:!jobs ~quick ()
  | [] ->
      run_experiments ~quick ~jobs:!jobs [];
      parallel_comparison ~jobs:!jobs ~quick ();
      chaos ~jobs:!jobs ~quick ();
      service ~jobs:!jobs ~quick ();
      overload ~jobs:!jobs ~quick ();
      integrity ~jobs:!jobs ~quick ();
      obs ~jobs:!jobs ~quick ();
      bechamel_suite ~jobs:!jobs ()
  | names -> run_experiments ~quick ~jobs:!jobs names);
  Option.iter write_json !json_file
