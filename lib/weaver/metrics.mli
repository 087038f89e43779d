(** Execution metrics for one program run.

    Everything the paper's figures report is derived from these:
    kernel cycles (Figs. 4, 16), peak global-memory allocation (Fig. 17),
    memory-access cycles (Fig. 18), dynamic instruction counts (Fig. 19),
    PCIe time and volume (Fig. 21) and launch counts. *)

open Gpu_sim

type t = {
  reports : Executor.launch_report list;  (** in launch order *)
  launches : int;
  kernel_cycles : float;  (** sum of per-launch total cycles *)
  compute_cycles : float;
  memory_cycles : float;  (** bandwidth-limited global traffic cycles *)
  pcie_seconds : float;
  pcie_cycles : float;  (** PCIe time in SM cycles, for combining *)
  pcie_bytes : int;
  pcie_transfers : int;
  peak_global_bytes : int;
  stats : Stats.t;  (** dynamic event totals over all launches *)
  retries : int;  (** capacity-overflow retries that occurred *)
  fissions : int;
      (** fusion groups split at runtime after exhausting capacity
          retries (each split of one group counts once) *)
  demotions : int;
      (** Resident->Streamed demotions (0 or 1: demotion restarts the run
          in Streamed mode after a device OOM) *)
  faults_injected : int;  (** faults the injection schedule fired *)
  corruptions : int;
      (** certificate mismatches detected by integrity verification; every
          outstanding mismatch is swept and counted when the first one is
          caught, so for flip-only storms this equals the flips injected *)
  rollbacks : int;
      (** recoveries that resumed from the checkpoint ledger instead of
          restarting the whole run *)
  checkpoints : int;  (** verified segment outputs snapshotted *)
  checkpoint_hits : int;
      (** operator results restored from the ledger during replay (one per
          restored op per recovery attempt) *)
  checkpoints_evicted : int;
      (** snapshots dropped (oldest-first) to respect the ledger budget *)
  replayed_cycles : float;
      (** cycles re-spent re-executing work a fault destroyed *)
  saved_replay_cycles : float;
      (** cycles the checkpoint ledger avoided re-spending: the prefix of
          each failed attempt that restore covered *)
  leaks : (string * int) list;
      (** buffers (label, bytes) still allocated at end of run beyond the
          base-relation footprint — always [[]] unless the runtime has a
          lifetime bug; surfaced so tests can assert on it *)
  queue_wait_cycles : float;
      (** simulated cycles the request spent queued before execution
          started; 0 outside the service layer *)
  service : bool;
      (** whether this run went through {!Service} (and so
          [queue_wait_cycles] is meaningful) *)
  counterfactuals : Weaver_obs.Attrib.counterfactual list;
      (** per executed fused group, the intermediate traffic an unfused
          plan would have materialized (Fig. 18 evidence), in group
          execution order *)
}

val collect :
  ?queue_wait_cycles:float ->
  ?service:bool ->
  ?corruptions:int ->
  ?rollbacks:int ->
  ?checkpoints:int ->
  ?checkpoint_hits:int ->
  ?checkpoints_evicted:int ->
  ?replayed_cycles:float ->
  ?saved_replay_cycles:float ->
  ?counterfactuals:Weaver_obs.Attrib.counterfactual list ->
  reports:Executor.launch_report list ->
  pcie:Pcie.t ->
  peak_global_bytes:int ->
  retries:int ->
  fissions:int ->
  demotions:int ->
  faults_injected:int ->
  leaks:(string * int) list ->
  unit ->
  t
(** Derive a metrics record from a run's raw evidence: [reports] must be
    in launch order; cycle sums, launch count and event totals are
    computed here. Used for both completed runs and the partial metrics
    attached to a {!Runtime.failure}. *)

val total_cycles : t -> float
(** Kernel + PCIe cycles: the paper's end-to-end time (Fig. 21). *)

val equal : t -> t -> bool
(** Scalar equality: every field except the per-launch [reports] list
    (whose event totals are compared through [stats]). This is the
    "observably identical run" relation the differential tests use —
    in particular, a traced run must compare [equal] to an untraced
    one. *)

val seconds : Device.t -> t -> float

val by_kernel : t -> (string * int * float * Gpu_sim.Stats.t) list
(** Launches aggregated by kernel name: (name, launches, total cycles,
    summed stats), sorted by cycles descending (name ascending on exact
    ties) — the "where did the time go" view the CLI's profile command
    prints. *)

val attribution : t -> Weaver_obs.Attrib.t
(** Per-operator cost ledger folded from the launch reports, in launch
    order. [Attrib.fold_cycles] of the result is bit-identical to
    [kernel_cycles]; the ledger's integer unit sums obey the conservation
    law ([Attrib.conserved]) by construction. Every launch carries its
    sample, so a run needs no extra configuration to be attributed;
    launches with empty evidence (modelled work owned by no operator)
    land entirely on the overhead row. *)

val pp : Format.formatter -> t -> unit
