(** Backward liveness and the maximum number of simultaneously-live
    registers. *)

type t

val compute : Cfg.t -> t
(** Each block's upward-exposed uses and definitions (gen/kill) are
    computed once; the solver's transfer is then
    [in = gen ∪ (out \ kill)], one word-wise pass. *)

val live_in : t -> int -> Dataflow.Bits.t
(** Registers live on entry to a block. *)

val max_live : t -> counted:(int -> bool) -> int * int
(** [(width, at)]: the maximum over all program points (in blocks
    reachable from entry) of the number of live registers satisfying
    [counted], and an instruction index where the maximum is reached.
    Typically [counted] excludes special and parameter registers, which
    live in dedicated hardware spaces rather than the allocatable
    register file. One backward walk per block, keeping a running count
    as registers become live and dead. *)

val dead_defs : t -> Defs.t -> int list
(** Reachable register-defining instructions whose definition reaches no
    use ([Atom] excluded: its register write is a side effect of the
    memory update). Ascending order. *)
