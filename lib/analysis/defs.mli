(** Reaching definitions over a KIR CFG.

    Facts are bit sets with one bit per register-defining instruction
    (numbered densely, so the width follows the definitions rather than
    the kernel length) followed by one bit per register [r] for a
    pseudo-definition live at kernel entry. The entry pseudo-definition
    of a special or parameter register carries a real value; for any
    other register it stands for "never written". Each block's gen/kill
    sets are computed once, so the solver's transfer is one word-wise
    pass ({!Dataflow.Bits.gen_kill}). *)

type t

val compute : Cfg.t -> t
val cfg : t -> Cfg.t

val def_sites : t -> int -> int list
(** Instruction indices defining a register, ascending. *)

val initialized : t -> int -> bool
(** The register holds a defined value at kernel entry (special or
    parameter register). *)

val reaching : t -> at:int -> int -> int list * bool
(** Definitions of a register reaching instruction [at] (before it
    executes): real definition sites, ascending, and whether the entry
    pseudo-definition also reaches. *)
