(** Operator-level cost attribution ledger.

    Generic accounting shared by the GPU and metrics layers: the executor
    reduces each launch's per-instruction execution counts to a {!sample}
    keyed by plan-operator id, and the metrics layer folds samples into a
    ledger with {!add}, one call per launch in report order.

    Conservation is exact by construction: each launch contributes
    [round(total_cycles * scale)] integer units, fully apportioned
    (largest remainder) between its operators' rows — launch overhead to
    the {!overhead_op} pseudo-row — so the row sums always equal the
    per-launch sums, bit-identically across worker counts. *)

val overhead_op : int
(** Pseudo operator id (-1) carrying launch overhead and untagged
    (infrastructure) work. *)

val scale : int
(** Integer units per cycle (2^20). *)

val cycles_of_units : int -> float

type contrib = {
  c_instructions : int;
  c_weight : float;
      (** modelled thread-cycle weight — the compute-bound split key *)
  c_global_bytes : int;  (** the bandwidth-bound split key *)
  c_shared : int;
  c_atomics : int;
  c_barriers : int;
}

val zero_contrib : contrib

type sample = (int * contrib) list
(** One launch's per-operator evidence, sorted by operator id. *)

type row = {
  op : int;
  mutable launches : int;
  mutable instructions : int;
  mutable global_bytes : int;
  mutable shared_accesses : int;
  mutable atomics : int;
  mutable barriers : int;
  mutable units : int;  (** attributed cycles, scaled by {!scale} *)
  mutable compute_units : int;
  mutable memory_units : int;
  mutable launch_units : int;
}

type t

val create : unit -> t

val add :
  t ->
  total:float ->
  compute:float ->
  memory:float ->
  launch:float ->
  sample ->
  unit
(** Fold one launch (its modelled cycle components and evidence) into the
    ledger. Empty evidence sends all work units to the overhead row. *)

val rows : t -> row list
(** All rows, sorted by operator id ({!overhead_op} first). *)

val total_units : t -> int
(** Sum over launches of [round(total_cycles * scale)]. *)

val attributed_units : t -> int
(** Sum of [units] over all rows. *)

val conserved : t -> bool
(** [attributed_units t = total_units t] — always true; exposed so tests
    assert the conservation law directly. *)

val fold_cycles : t -> float
(** The launches' total cycles accumulated left-to-right in call order —
    bit-identical to the metrics layer's kernel-cycle sum when fed the
    same reports in the same order. *)

type roofline = Compute_bound | Bandwidth_bound | Overhead

val classify : row -> roofline
(** Where a row's attributed units predominantly came from. *)

val roofline_name : roofline -> string

type counterfactual = {
  cf_group : string;
  cf_ops : int list;
  cf_edges : int;
  cf_rows : int;
  cf_bytes : int;
  cf_round_trips : int;
}
(** Per fused group: the intermediate traffic and PCIe round-trips an
    unfused plan would have spent materializing the group's internal
    edges (the paper's Fig. 18 accounting). Row estimates are static
    upper bounds from input cardinalities. *)
