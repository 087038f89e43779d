(** Bit-set facts and a worklist solver shared by every dataflow pass. *)

module Bits : sig
  type t
  (** A fixed-width bit set packed 62 bits to an [int] word, so the set
      operations below cost one machine operation per 62 positions. *)

  val create : int -> t
  (** All-zero set over [n] bit positions. *)

  val length : t -> int
  val set : t -> int -> unit
  val clear : t -> int -> unit
  val get : t -> int -> bool
  val copy : t -> t
  val equal : t -> t -> bool

  val union_into : dst:t -> t -> bool
  (** [dst <- dst ∪ src]; returns [true] if [dst] changed. *)

  val inter_into : dst:t -> t -> bool
  (** [dst <- dst ∩ src]; returns [true] if [dst] changed. *)

  val gen_kill : gen:t -> kill:t -> t -> t
  (** [gen ∪ (src \ kill)] as a fresh set: a gen/kill block transfer. *)

  val iter : (int -> unit) -> t -> unit
  (** Set positions in ascending order. *)

  val count : t -> int
end

val solve :
  nblocks:int ->
  direction:[ `Forward | `Backward ] ->
  succs:(int -> int list) ->
  preds:(int -> int list) ->
  boundary:Bits.t ->
  transfer:(int -> Bits.t -> Bits.t) ->
  Bits.t array * Bits.t array
(** Union-join least fixpoint. Returns [(in_, out)] per block, where for
    [`Forward] [in_.(b) = ∪ out.(pred)] (block 0 additionally joins
    [boundary]) and [out.(b) = transfer b in_.(b)]; [`Backward] mirrors
    this over successors, with exit blocks (no successors) joining
    [boundary].

    A priority worklist. Every block starts pending; the next block
    visited is always the pending one that comes first in reverse
    postorder from block 0 for [`Forward], in postorder for [`Backward]
    (unreachable blocks rank last, in index order). So a block is
    normally visited after the blocks it joins over, and a loop reaches
    its fixpoint before the blocks after it are visited again. A block
    whose transferred fact changes re-queues only its dependents:
    successors for [`Forward], predecessors for [`Backward]. A visit
    costs one [transfer] call plus one word-wise union per joined edge,
    and the number of visits is about [nblocks × (loop nesting + 1)],
    where a round-robin sweep needs [nblocks × sweeps] (146 sweeps for
    liveness on TPC-H Q21's 460-block fused kernel).

    [transfer] must be monotone, must return a fresh set, and must
    neither mutate nor keep its argument, which the solver reuses.
    Since the least fixpoint is unique, the visiting order never
    changes the result. *)

val resume :
  direction:[ `Forward | `Backward ] ->
  succs:(int -> int list) ->
  preds:(int -> int list) ->
  boundary:Bits.t ->
  transfer:(int -> Bits.t -> Bits.t) ->
  Bits.t array * Bits.t array ->
  dirty:int list ->
  unit
(** Re-solve in place after [transfer] grew at the [dirty] blocks only.
    The pair must be a fixpoint of the previous transfer, which must be
    pointwise below the new one; the worklist starts from [dirty]
    instead of every block, and ends at the new least fixpoint. *)
