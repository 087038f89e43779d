(* Per-layer host time, measured from outside the library.

   Every figure here comes from timing calls into a layer's public
   functions from the benchmark's own code. The one exception is the
   interpreter: it is only reachable through [Runtime.run], so its time is
   read from the wall durations of the Kernel-lane spans the executor
   already records when it is given a clocked tracer. *)

open Weaver

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* A fresh tracer that keeps events and samples the wall clock; the flight
   recorder is off (nothing here reads it). *)
let tracer () = Weaver_obs.Trace.create ~clock:Unix.gettimeofday ~ring:0 ()

(* Wall seconds spent inside kernel launches (executor spans; the modelled
   SORT/fallback spans the runtime synthesises have no wall duration). *)
let kernel_wall tr =
  List.fold_left
    (fun acc (e : Weaver_obs.Trace.event) ->
      match (e.lane, e.kind) with
      | Weaver_obs.Trace.Kernel, Weaver_obs.Trace.Span -> acc +. e.wall_dur
      | _ -> acc)
    0. (Weaver_obs.Trace.events tr)

type kernel_cost = {
  kname : string;
  instrs : int;  (** static KIR instructions as woven *)
  instrs_o3 : int;
  o3_s : float;
  gate_s : float;
}

type compile_cost = {
  weave_s : float;  (** layout + codegen (or the skeleton emitters) *)
  kernels : kernel_cost list;
}

(* Standalone replay of the code generation a run does for its first
   attempt: the kernels [Runtime.analyze_program] certifies, woven, then
   optimised and gated one by one. Recovery re-compiles are not replayed;
   they stay inside the runtime's execution time. *)
let compile_cost (p : Runtime.program) =
  let cfg = p.Runtime.config in
  let max_groups = cfg.Config.max_groups in
  let weave = function
    | Runtime.U_fused { name; ir } -> (
        match Layout.compute cfg p.Runtime.plan ir with
        | lay ->
            let ks = Codegen.generate cfg ~name ir lay in
            Codegen.(ks.partition :: ks.compute :: Array.to_list ks.scans)
            @ Array.to_list ks.Codegen.gathers
        | exception Fusion.Infeasible _ -> [])
    | Runtime.U_sort _ -> []
    | Runtime.U_unique { op_id; key_arity; _ } ->
        let schema = (Qplan.Plan.node p.Runtime.plan op_id).Qplan.Plan.schema in
        [
          Ra_lib.Unique_emit.emit_compute ~op:op_id
            ~name:(Printf.sprintf "unique%d_compute" op_id)
            ~schema ~key_arity ~cap:cfg.Config.cap ~stage_cap:cfg.Config.cap ();
        ]
    | Runtime.U_aggregate { op_id; lay; _ } ->
        [
          Ra_lib.Aggregate_emit.emit_partial ~op:op_id
            ~name:(Printf.sprintf "aggregate%d_partial" op_id)
            lay ~max_groups ~stage_cap:max_groups ();
          Ra_lib.Aggregate_emit.emit_final ~op:op_id
            ~name:(Printf.sprintf "aggregate%d_final" op_id)
            lay ~max_groups ~stage_cap:max_groups ();
        ]
  in
  let weave_s, raw = timed (fun () -> List.concat_map weave p.Runtime.units) in
  let kernel (k : Gpu_sim.Kir.kernel) =
    let o3_s, k3 = timed (fun () -> Optimizer.optimize p.Runtime.opt k) in
    let gate_s, _ = timed (fun () -> Runtime.analyze_kernel k) in
    {
      kname = k.Gpu_sim.Kir.kname;
      instrs = Gpu_sim.Kir.instr_count k;
      instrs_o3 = Gpu_sim.Kir.instr_count k3;
      o3_s;
      gate_s;
    }
  in
  { weave_s; kernels = List.map kernel raw }

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

let o3_s c = sum (fun k -> k.o3_s) c.kernels
let gate_s c = sum (fun k -> k.gate_s) c.kernels
let instrs c = List.fold_left (fun acc k -> acc + k.instrs) 0 c.kernels
let instrs_o3 c = List.fold_left (fun acc k -> acc + k.instrs_o3) 0 c.kernels

(* --- accumulation ---------------------------------------------------------- *)

(* Named per-item sums; [report] turns them into the per-layer metrics. *)
type acc = { sums : (string, float) Hashtbl.t; mutable items : int }

let create () = { sums = Hashtbl.create 64; items = 0 }

let add acc key v =
  Hashtbl.replace acc.sums key
    (v +. Option.value ~default:0. (Hashtbl.find_opt acc.sums key))

let get acc key = Option.value ~default:0. (Hashtbl.find_opt acc.sums key)

let add_compile acc c =
  add acc "weave_s" c.weave_s;
  add acc "o3_s" (o3_s c);
  add acc "gate_s" (gate_s c);
  add acc "kir_instrs" (float_of_int (instrs c));
  add acc "kir_instrs_o3" (float_of_int (instrs_o3 c));
  List.iter
    (fun k ->
      Hashtbl.replace acc.sums "gate_max_s"
        (Float.max k.gate_s (get acc "gate_max_s")))
    c.kernels

let add_metrics acc (m : Metrics.t) =
  let f key v = add acc key (float_of_int v) in
  f "instructions" m.Metrics.stats.Gpu_sim.Stats.instructions;
  f "launches"
    (List.length
       (List.filter
          (fun (r : Gpu_sim.Executor.launch_report) -> r.grid > 0)
          m.Metrics.reports));
  f "pcie_bytes" m.Metrics.pcie_bytes;
  f "pcie_transfers" m.Metrics.pcie_transfers;
  f "retries" m.Metrics.retries;
  f "fissions" m.Metrics.fissions;
  f "rollbacks" m.Metrics.rollbacks;
  f "corruptions" m.Metrics.corruptions;
  add acc "queue_wait_cycles" m.Metrics.queue_wait_cycles;
  add acc "cycles" (Metrics.total_cycles m)

(* The disjoint layers an item's traced wall time splits into; whatever
   they leave over is [unattributed]. *)
let conserved_layers =
  [ "compile_s"; "weave_s"; "o3_s"; "gate_s"; "interp_s"; "integrity_s"; "service_s" ]

let unattributed_s acc =
  get acc "wall_s" -. List.fold_left (fun s k -> s +. get acc k) 0. conserved_layers

let report acc =
  let n = float_of_int (max 1 acc.items) in
  let per key = get acc key /. n in
  let ms key = 1e3 *. per key in
  let ratio num den = if den > 0. then num /. den else 1. in
  let exec_s = get acc "run_s" -. get acc "weave_s" -. get acc "o3_s" -. get acc "gate_s" in
  let detected = get acc "corruptions" in
  [
    ("qplan.compile_ms", "ms", ms "compile_s");
    ("qplan.groups", "count", per "groups");
    ("codegen.weave_ms", "ms", ms "weave_s");
    ("codegen.kir_instrs", "count", per "kir_instrs");
    ("optimizer.o3_ms", "ms", ms "o3_s");
    ("optimizer.kir_instrs_after", "count", per "kir_instrs_o3");
    ("analysis.gate_ms", "ms", ms "gate_s");
    ("analysis.ns_per_kir_instr", "ns", 1e9 *. ratio (get acc "gate_s") (get acc "kir_instrs"));
    ("analysis.max_kernel_ms", "ms", 1e3 *. get acc "gate_max_s");
    ("runtime.run_ms", "ms", ms "run_s");
    ("runtime.exec_ms", "ms", 1e3 *. exec_s /. n);
    ("runtime.retries", "count", per "retries");
    ("runtime.fissions", "count", per "fissions");
    ("runtime.rollbacks", "count", per "rollbacks");
    ("runtime.useful_ratio", "ratio", ratio (get acc "clean_cycles") (get acc "cycles"));
    ("interp.ms", "ms", ms "interp_s");
    ("interp.minstr", "Minstr", per "instructions" /. 1e6);
    ("interp.ns_per_instr", "ns", 1e9 *. ratio (get acc "interp_s") (get acc "instructions"));
    ("interp.launches", "count", per "launches");
    ("gc.alloc_mb_per_query", "MB", get acc "alloc_bytes" /. 1e6 /. Float.max 1. (get acc "queries"));
    ("pcie.mb", "MB", per "pcie_bytes" /. 1e6);
    ("pcie.transfers", "count", per "pcie_transfers");
    ("integrity.overhead_ms", "ms", ms "integrity_s");
    ("integrity.detected_ratio", "ratio", ratio detected (detected +. get acc "silent_corruptions"));
    ("service.overhead_ms", "ms", ms "service_s" +. ms "service_probe_s");
    ("service.queue_wait_kcycles", "kcycles", per "queue_wait_cycles" /. 1e3);
    ("service.rejected", "count", per "rejected");
    ("service.hedges", "count", per "hedges");
    ("unattributed_ms", "ms", 1e3 *. unattributed_s acc /. n);
    ("traced.wall_ms", "ms", ms "wall_s");
    ("traced.overhead_ratio", "ratio", ratio (get acc "traced_s") (get acc "untraced_s") -. 1.);
  ]
