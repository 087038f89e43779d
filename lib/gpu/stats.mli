(** Dynamic event counters of a kernel launch.

    The interpreter records only per-pc execution counts; {!Executor}
    reduces them to these counters (each count times its instruction's
    static event class and access width), and the {!Timing} cost model
    then converts them into simulated cycles. Keeping
    raw event counts separate from the cost model lets experiments report
    both (e.g. Fig. 17 needs bytes, Fig. 18 needs memory cycles). *)

type t = {
  mutable instructions : int;  (** all executed instructions *)
  mutable alu_ops : int;  (** arithmetic / logic / compare / select / cvt *)
  mutable branches : int;
  mutable global_loads : int;
  mutable global_load_bytes : int;
  mutable global_stores : int;
  mutable global_store_bytes : int;
  mutable shared_loads : int;
  mutable shared_load_bytes : int;
  mutable shared_stores : int;
  mutable shared_store_bytes : int;
  mutable atomics : int;
  mutable barrier_waits : int;  (** per-thread arrivals at a barrier *)
}

val create : unit -> t
(** Fresh zeroed counters. *)

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val equal : t -> t -> bool
(** Field-wise equality — what the parallel-vs-sequential differential
    tests assert on event totals. *)

val global_bytes : t -> int
(** Total bytes moved to/from global memory. *)

val shared_bytes : t -> int
(** Total bytes moved to/from shared memory. *)

val pp : Format.formatter -> t -> unit
