(** The host runtime: executes a compiled program on the simulated GPU.

    Mirrors the paper's lightweight host runtime layer (Harmony/Ocelot in
    Fig. 5): it stages relations into device buffers, launches each
    execution unit's kernels (partition, compute, offset scan, gather),
    reads back result sizes, manages buffer lifetimes and accounts PCIe
    traffic.

    Two transfer modes reproduce the two evaluation regimes:
    - [Resident] (small inputs, Figs. 16-18): base relations are uploaded
      once, intermediates live in device memory (freed as their last
      consumer finishes), and only sink results return to the host;
    - [Streamed] (large inputs, Fig. 21): every unit's inputs are uploaded
      just before it runs and its outputs downloaded and freed right
      after, modelling data sets that exceed device memory.

    Fault recovery applies policies in a fixed order (see DESIGN.md,
    "Fault model & recovery"); every attempt is charged:
    - capacity overflows (a fused kernel traps because a join expanded
      past its staging budget, a snapped key range outgrew its tile, or
      an aggregation table filled) are retried with scaled capacities,
      up to [config.max_retries];
    - a fused group that exhausts its retries undergoes {b fission}: the
      group is split (binary, down to singletons) and each part compiled
      and run separately;
    - injected transient faults (device allocation, PCIe transfer — see
      {!Gpu_sim.Fault_inject}) are retried up to [config.alloc_retries] /
      [config.transfer_retries];
    - a persistent device OOM during a [Resident] run {b demotes} the run
      to [Streamed] and restarts it (same PCIe ledger, same injection
      schedule state), trading residency for footprint;
    - with [config.checkpoint], verified segment outputs are snapshotted
      into a budget-bounded host ledger and a recoverable fault —
      including detected corruption ({!Gpu_sim.Fault.Data_corrupted},
      the integrity layer: buffers are certified at PCIe boundaries and
      segment-output adoption, verified before their data is trusted
      when [config.integrity] is on) — {b rolls back} to the last
      verified checkpoint and replays only the suffix, charging
      [Metrics.replayed_cycles] and crediting
      [Metrics.saved_replay_cycles]. Without the ledger, detected
      corruption is terminal: there is no safe prefix to resume from;
    - anything still failing raises {!Execution_error} with a typed
      {!Gpu_sim.Fault.t} payload ([Recovery_exhausted] when recovery was
      attempted).

    Every kernel launch runs its CTAs on [config.jobs] worker domains
    (see {!Gpu_sim.Interp.run}); results, stats and cycle counts are
    independent of the job count.

    The runtime also enforces the skeletons' sorted-input invariant: when
    a keyed unit's input is not key-sorted (e.g. a PROJECT reordered
    attributes between groups), the relation is re-sorted and the cost of
    a modelled SORT is charged. *)

open Relation_lib
open Qplan

type mode = Resident | Streamed

type unit_kind =
  | U_fused of { name : string; ir : Fusion.t }
  | U_sort of { op_id : int; key_arity : int; source : Plan.source }
  | U_unique of { op_id : int; key_arity : int; source : Plan.source }
  | U_aggregate of {
      op_id : int;
      source : Plan.source;
      lay : Ra_lib.Aggregate_emit.layout;
    }

type program = {
  plan : Plan.t;
  config : Config.t;
  opt : Optimizer.level;
  units : unit_kind list;  (** topologically ordered *)
  groups : int list list;  (** the fusion groups chosen (incl. singletons) *)
}

type result = { sinks : (int * Relation.t) list; metrics : Metrics.t }

type failure = {
  fault : Gpu_sim.Fault.t;
  partial : Metrics.t;
  trail : string list;
}
(** A failed run: the typed fault plus the metrics accumulated up to the
    failure point — cycles are charged, injected faults counted, and
    [partial.leaks] is the post-cleanup live-buffer list (always [[]]
    unless the runtime has a lifetime bug; the service layer's isolation
    tests assert on it). [trail] is the flight recorder's last events
    ({!Weaver_obs.Trace.trail}) when the caller passed a tracer, [[]]
    otherwise — rendered after the one-line fault report so a failure
    comes with its recent-history context. *)

exception Execution_error of Gpu_sim.Fault.t
(** Raised for unrecoverable faults. Render the payload with
    {!Gpu_sim.Fault.render}. *)

val run_result :
  ?cancel:Gpu_sim.Cancel.t ->
  ?trace:Weaver_obs.Trace.t ->
  program ->
  Relation.t array ->
  mode:mode ->
  (result, failure) Stdlib.result
(** Like {!run}, but failures come back as values carrying partial
    metrics instead of an exception. [cancel] (default
    {!Gpu_sim.Cancel.none}) is polled per CTA and at every host
    checkpoint; a fired token fails the run with its stored fault
    (typically {!Gpu_sim.Fault.Cancelled}). Deadlines from the program's
    config ([deadline_cycles], [wall_deadline_s]) are enforced here:
    cycle deadlines deterministically at launch/transfer checkpoints,
    wall deadlines via a watchdog installed on the token. Both are
    terminal — never retried, never demoted. Still raises
    [Invalid_argument] on base-relation count/schema mismatch (caller
    bugs, not query faults).

    [trace] (default [Trace.none], zero cost) observes the whole run:
    Host-lane spans per execution unit and per attempt, Kernel-lane spans
    per launch (executor-owned) and per modelled report, Pcie/Mem-lane
    events from the ledger and the allocator, Gate-lane spans from the
    static-analysis gate, and instants for every recovery action
    (capacity/alloc/transfer retries, fission, demotion, host fallback,
    injected faults). The simulated-cycle timeline is deterministic: for
    a fixed workload it is bit-identical across [jobs] values. *)

val run :
  ?cancel:Gpu_sim.Cancel.t ->
  ?trace:Weaver_obs.Trace.t ->
  program ->
  Relation.t array ->
  mode:mode ->
  result
(** Raises {!Execution_error} on unrecoverable faults (exhausted
    recovery, schema mismatches as [Host_error], missed deadlines,
    cancellation) and [Invalid_argument] on base-relation count/schema
    mismatch. *)

val kernels_source : program -> string
(** CUDA-style source of every generated kernel (after the program's
    optimization level), for inspection — the Fig. 15 view. *)

val program_kernels :
  program ->
  [ `Kernel of Gpu_sim.Kir.kernel * Weaver_analysis.Analysis.region list
  | `Sort of int ]
  list
(** Every woven kernel of the program in unit order, unoptimized, with
    the shared-memory regions the gate checks it against; a sort unit,
    which has no woven KIR, appears as [`Sort op_id]. Pure. *)

val analyze_program :
  program -> Weaver_analysis.Analysis.report list
(** Run the static-analysis suite over every woven kernel of the
    program, exactly as the execution gate does: on the unoptimized KIR
    (the contract codegen must honor — O3 then only rewrites what was
    already certified), with the fused compute kernel checked against
    its layout's shared-memory regions and each kernel's register
    budget. Sort units have no woven KIR and are skipped. Pure: builds
    kernels but executes nothing. *)

val analyze_kernel :
  ?regions:Weaver_analysis.Analysis.region list ->
  ?trace:Weaver_obs.Trace.t ->
  Gpu_sim.Kir.kernel ->
  Weaver_analysis.Analysis.report
(** One kernel through the same suite, budgeting [regs_per_thread]. *)
