(** KIR interpreter: executes a kernel over a grid of CTAs.

    Thread scheduling is {e run-to-barrier}: within a CTA every thread runs
    sequentially until its next [Bar] (or [Ret]); once all live threads have
    arrived, execution resumes past the barrier. This is faithful to
    [__syncthreads] for the well-structured kernels the code generator
    emits. CTAs execute independently (their relative order is
    unobservable for correct CUDA programs; sequentially we run them in
    index order, and with [jobs > 1] they are spread over a persistent
    {!Domain_pool} in chunked self-scheduled fashion).

    The only thing the interpreter records is one execution count per pc:
    every executed instruction bumps its own counter once. Every other
    figure of a launch ({!Stats}, the per-operator attribution sample, the
    trace's hot spots) is derived from these counts by {!Executor}.
    Determinism: given the same memory contents and parameters the
    interpreter is fully deterministic, and the parallel schedule returns
    bit-identical results and counts to the sequential one — CTAs touch
    disjoint global regions except through atomics (which are commutative
    for the operations the code generator uses), and per-worker count
    arrays are summed, which is order-independent. Global atomics take a mutex-striped path under
    [jobs > 1]; registers and shared memory are CTA-private and stay
    lock-free. See DESIGN.md "Parallel simulation". *)

exception Runtime_error of Fault.t
(** Raised on traps, out-of-bounds accesses, division by zero, invalid
    buffer handles or exceeding the instruction budget. This is a
    rebinding of {!Fault.Error}: matching either name catches the same
    exception, so recovery code can pattern-match on the typed payload
    regardless of which module raised it. *)

val run :
  ?max_instructions:int ->
  ?jobs:int ->
  ?cancel:Cancel.t ->
  ?trace:Weaver_obs.Trace.t ->
  Memory.t ->
  Kir.kernel ->
  params:int array ->
  grid:int ->
  cta:int ->
  int array
(** [run mem k ~params ~grid ~cta] executes kernel [k] with [grid] CTAs of
    [cta] threads and returns its per-pc execution counts: element [pc]
    is how many times [k.body.(pc)] executed, over all threads (the array
    has at least one element). [params] length must equal [k.params].
    [max_instructions] (default [2_000_000_000]) bounds executed
    instructions to catch runaway loops; each CTA gets an even slice
    ([max_instructions / grid], rounded up) so detection fires under any
    CTA schedule. [jobs] (default 1) is the number of worker domains executing CTAs;
    it is clamped to [grid]. When a parallel run faults, the error of the
    lowest faulting CTA index is surfaced — the same error a sequential
    run would raise. [cancel] (default {!Cancel.none}) is polled at the
    per-CTA checkpoints on every worker; a fired token aborts the launch
    with its stored fault within one CTA. [trace] (default [Trace.none])
    adds wall-clock-only Worker-lane spans around each worker's CTA chunk
    when the tracer records events and has a wall clock; the simulated
    timeline is untouched (the executor owns the launch span). *)
