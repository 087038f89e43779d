(** Thread-uniformity: a forward taint analysis whose source is [r0]
    (the thread id). A register is {e varying} when its value may
    differ across threads of a CTA; everything else — immediates,
    ctaid/ntid/nctaid, parameters — starts uniform.

    Taint propagates through data (any instruction with a varying
    operand defines a varying register) and through control: inside the
    influence region of a branch on a varying condition every
    definition is varying, because whether it executes depends on the
    thread. [Atom] results are always varying (each thread receives a
    different old value). Loads from uniform addresses outside tainted
    regions are treated as uniform — all threads read the same cell
    (the broadcast assumption; stores racing with such loads are the
    race detector's job, not this pass's).

    Divergent-branch discovery and taint are mutually recursive, so the
    pass iterates the pair to a (monotone, growing) fixpoint: after the
    first solve, each round that taints new blocks resumes the worklist
    from those blocks only ({!Dataflow.resume}). Influence
    regions come from the trap-pruned CFG: a branch whose one side
    traps is not a divergence point. *)

type t

val compute : Cfg.t -> t

val varying_at : t -> at:int -> int -> bool
(** Register may be thread-varying just before instruction [at]. *)

val divergent : t -> int -> bool
(** Block ends in a two-way (pruned) conditional on a varying value. *)

val tainted_block : t -> int -> bool
(** Block lies in the influence region of some divergent branch. *)
