(** Control-flow graph over a KIR kernel body.

    Blocks are maximal straight-line runs: every branch target starts a
    block, and every [Br]/[Brz]/[Brnz]/[Bar]/[Ret]/[Trap] ends one
    ([Bar] ends a block so that barrier-delimited phases fall out of the
    block structure). Out-of-range branch targets are treated as
    falling off the kernel (no successor) rather than crashing, so the
    analyzer can be pointed at kernels that [Kir_validate] would
    reject.

    Two derived views are exposed:

    - the {e trap-pruned} graph, with every [Trap]-terminated block (and
      edges into it) removed. A [Trap] aborts the whole launch, so for
      divergence purposes a conditional branch whose one side traps is
      not a divergence point — surviving threads all take the other
      side. Post-dominators and branch influence regions are computed on
      this view, with a virtual exit joining every pruned-exit block.
    - the {e barrier-free reachability} closure on the full graph:
      [may_concurrent] holds when two blocks can execute on opposite
      sides of no barrier, i.e. some path connects them without leaving
      a [Bar]-terminated block.

    Cost, for [n] instructions and [nb] blocks: [build] is linear apart
    from the post-dominator fixpoint, Cooper–Harvey–Kennedy ("A Simple,
    Fast Dominance Algorithm") on the reversed pruned graph, which
    settles in two or three reverse-postorder passes whose intersections
    walk the post-dominator tree. Influence regions cost their own size
    (visited blocks are stamped, not cleared per call). Barrier-free
    reachability is computed lazily, one depth-first search per source
    block that [may_concurrent] is actually asked about, so a kernel
    pays for the blocks holding shared accesses rather than [nb²]. *)

type block = {
  id : int;
  first : int;
  last : int;  (** inclusive; [body.(last)] is the terminator *)
  succs : int list;
  preds : int list;
  traps : bool;  (** terminator is [Trap] *)
}

type t

val build : Gpu_sim.Kir.kernel -> t
val kernel : t -> Gpu_sim.Kir.kernel
val nblocks : t -> int
val block : t -> int -> block
val block_of : t -> int -> int
(** Block id containing an instruction index. *)

val reachable : t -> int -> bool
(** Reachable from entry in the full graph. *)

val preachable : t -> int -> bool
(** Reachable from entry in the trap-pruned graph. *)

val psuccs : t -> int -> int list
(** Successors in the trap-pruned graph. *)

val ipd : t -> int -> int
(** Immediate post-dominator of a block in the trap-pruned graph;
    [nblocks] stands for the virtual exit, [-1] for a block unreachable
    in the pruned graph. A block that cannot reach the exit (stuck in a
    loop) has no post-dominator; it gets the lowest-numbered other block
    that is unreachable or stuck, else the deepest block of the
    post-dominator tree (lowest id on ties), else the exit — what the
    strict post-dominator with the largest post-dominator set is when
    the sets are computed as a greatest fixpoint. *)

val cond_target : t -> int -> int option
(** If block [b] ends in [Brz]/[Brnz] with an in-range target, the
    target block id (the fall-through block is [block_of (last+1)]). *)

val influence : t -> int -> int list
(** Influence region of the conditional branch ending block [b]: blocks
    reachable (pruned graph) from a successor of [b] without passing
    through [b]'s immediate post-dominator, the branch and the
    post-dominator block excluded. Empty when [b] has fewer than two
    pruned successors. *)

val one_sided : t -> int -> (int list * int list) option
(** For a two-way pruned conditional: blocks executed only when the
    condition is non-zero, and only when it is zero. [None] otherwise. *)

val may_concurrent : t -> int -> int -> bool
(** No barrier separates the two blocks on some execution ordering
    (includes [a = b]). The first query from a block computes and keeps
    its barrier-free reachability set. *)

val iter_instrs : t -> (int -> Gpu_sim.Kir.instr -> unit) -> unit
(** All instructions of blocks reachable in the full graph. *)
