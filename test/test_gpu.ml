(* Unit tests for the GPU simulator substrate: KIR building, interpretation,
   barriers, atomics, occupancy, memory accounting and the cost model. *)

open Gpu_sim

let device = Device.fermi_c2050

(* A vector-add kernel: out[i] = a[i] + b[i] for a grid-stride loop. *)
let vec_add_kernel () =
  let b = Kir_builder.create ~name:"vec_add" ~params:4 () in
  let a_buf = Kir_builder.param b 0
  and b_buf = Kir_builder.param b 1
  and out_buf = Kir_builder.param b 2
  and n = Kir_builder.param b 3 in
  let open Kir_builder in
  let gtid = bin b Kir.Mul ctaid ntid in
  let gtid = bin b Kir.Add (Reg gtid) tid in
  let stride = bin b Kir.Mul ntid nctaid in
  for_range b ~start:(Kir.Reg gtid) ~stop:n ~step:(Kir.Reg stride) (fun i ->
      let x = ld b Kir.Global ~base:a_buf ~idx:(Reg i) ~width:4 in
      let y = ld b Kir.Global ~base:b_buf ~idx:(Reg i) ~width:4 in
      let s = bin b Kir.Add (Reg x) (Reg y) in
      st b Kir.Global ~base:out_buf ~idx:(Reg i) ~src:(Reg s) ~width:4);
  finish b

let test_vec_add () =
  let mem = Memory.create device in
  let n = 1000 in
  let a = Memory.alloc mem ~words:n ~bytes:(4 * n) in
  let bb = Memory.alloc mem ~words:n ~bytes:(4 * n) in
  let out = Memory.alloc mem ~words:n ~bytes:(4 * n) in
  Array.iteri (fun i _ -> (Memory.data mem a).(i) <- i) (Memory.data mem a);
  Array.iteri (fun i _ -> (Memory.data mem bb).(i) <- 2 * i) (Memory.data mem bb);
  let k = vec_add_kernel () in
  Kir_validate.check_exn k;
  let report =
    Executor.launch device mem k ~params:[| a; bb; out; n |] ~grid:4 ~cta:64
  in
  let got = Memory.data mem out in
  for i = 0 to n - 1 do
    Alcotest.(check int) (Printf.sprintf "out[%d]" i) (3 * i) got.(i)
  done;
  Alcotest.(check int) "global loads" (2 * n) report.stats.Stats.global_loads;
  Alcotest.(check int) "global stores" n report.stats.Stats.global_stores;
  Alcotest.(check int) "global bytes" (12 * n) (Stats.global_bytes report.stats)

(* Barrier correctness: threads write their tid to shared, sync, then read a
   neighbour's slot.  Without a working barrier thread 0 would read zeros. *)
let reverse_kernel () =
  let b = Kir_builder.create ~name:"smem_reverse" ~params:1 () in
  let out_buf = Kir_builder.param b 0 in
  let open Kir_builder in
  let tile = alloc_shared b ~words:64 ~bytes:256 in
  st b Kir.Shared ~base:tile ~idx:tid ~src:tid ~width:4;
  bar b;
  let rev = bin b Kir.Sub (Imm 63) tid in
  let v = ld b Kir.Shared ~base:tile ~idx:(Reg rev) ~width:4 in
  st b Kir.Global ~base:out_buf ~idx:tid ~src:(Reg v) ~width:4;
  finish b

let test_barrier () =
  let mem = Memory.create device in
  let out = Memory.alloc mem ~words:64 ~bytes:256 in
  let k = reverse_kernel () in
  Kir_validate.check_exn k;
  let report = Executor.launch device mem k ~params:[| out |] ~grid:1 ~cta:64 in
  let got = Memory.data mem out in
  for i = 0 to 63 do
    Alcotest.(check int) (Printf.sprintf "rev[%d]" i) (63 - i) got.(i)
  done;
  Alcotest.(check int) "barrier waits" 64 report.stats.Stats.barrier_waits

(* Atomic add: every thread of every CTA bumps one counter. *)
let atomic_kernel () =
  let b = Kir_builder.create ~name:"atomic_count" ~params:1 () in
  let buf = Kir_builder.param b 0 in
  let open Kir_builder in
  let _old = atom b Kir.Atom_add Kir.Global ~base:buf ~idx:(Imm 0) ~src:(Imm 1) in
  finish b

let test_atomics () =
  let mem = Memory.create device in
  let buf = Memory.alloc mem ~words:1 ~bytes:4 in
  let k = atomic_kernel () in
  let report = Executor.launch device mem k ~params:[| buf |] ~grid:7 ~cta:33 in
  Alcotest.(check int) "counter" (7 * 33) (Memory.data mem buf).(0);
  Alcotest.(check int) "atomic count" (7 * 33) report.stats.Stats.atomics

(* Float arithmetic via bit-encoded f32. *)
let test_float_ops () =
  let b = Kir_builder.create ~name:"fmul" ~params:1 () in
  let buf = Kir_builder.param b 0 in
  let open Kir_builder in
  let x = mov b (Imm (Relation_lib.Value.of_f32 1.5)) in
  let y = mov b (Imm (Relation_lib.Value.of_f32 2.25)) in
  let p = bin b Kir.Fmul (Reg x) (Reg y) in
  let s = bin b Kir.Fadd (Reg p) (Imm (Relation_lib.Value.of_f32 0.125)) in
  st b Kir.Global ~base:buf ~idx:(Imm 0) ~src:(Reg s) ~width:4;
  let k = finish b in
  let mem = Memory.create device in
  let out = Memory.alloc mem ~words:1 ~bytes:4 in
  let _ = Executor.launch device mem k ~params:[| out |] ~grid:1 ~cta:1 in
  let got = Relation_lib.Value.to_f32 (Memory.data mem out).(0) in
  Alcotest.(check (float 1e-6)) "f32 result" 3.5 got

let test_divergence () =
  (* threads take different branches; all must still produce results *)
  let b = Kir_builder.create ~name:"diverge" ~params:1 () in
  let buf = Kir_builder.param b 0 in
  let open Kir_builder in
  let is_even =
    let r = bin b Kir.Rem tid (Imm 2) in
    cmp b Kir.Eq (Reg r) (Imm 0)
  in
  let out = fresh b in
  if_else b (Reg is_even)
    (fun () -> mov_to b out (Imm 100))
    (fun () -> mov_to b out (Imm 200));
  st b Kir.Global ~base:buf ~idx:tid ~src:(Reg out) ~width:4;
  let k = finish b in
  let mem = Memory.create device in
  let o = Memory.alloc mem ~words:8 ~bytes:32 in
  let _ = Executor.launch device mem k ~params:[| o |] ~grid:1 ~cta:8 in
  let got = Memory.data mem o in
  for i = 0 to 7 do
    Alcotest.(check int) "branch" (if i mod 2 = 0 then 100 else 200) got.(i)
  done

let test_runtime_errors () =
  let mem = Memory.create device in
  let buf = Memory.alloc mem ~words:4 ~bytes:16 in
  (* out-of-bounds store *)
  let b = Kir_builder.create ~name:"oob" ~params:1 () in
  let p = Kir_builder.param b 0 in
  Kir_builder.st b Kir.Global ~base:p ~idx:(Imm 99) ~src:(Imm 1) ~width:4;
  let k = Kir_builder.finish b in
  Alcotest.check_raises "oob store"
    (Interp.Runtime_error
       (Fault.Out_of_bounds
          {
            kernel = "oob";
            space = Fault.Global_space;
            buffer = Some buf;
            index = 99;
            length = 4;
          }))
    (fun () -> ignore (Interp.run mem k ~params:[| buf |] ~grid:1 ~cta:1));
  (* infinite loop hits the budget *)
  let b = Kir_builder.create ~name:"spin" ~params:0 () in
  let l = Kir_builder.new_label b in
  Kir_builder.place b l;
  Kir_builder.br b l;
  let k = Kir_builder.finish b in
  (match Interp.run ~max_instructions:1000 mem k ~params:[||] ~grid:1 ~cta:1 with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected budget exhaustion");
  (* division by zero *)
  let b = Kir_builder.create ~name:"divz" ~params:0 () in
  let _ = Kir_builder.bin b Kir.Div (Imm 1) (Imm 0) in
  let k = Kir_builder.finish b in
  match Interp.run mem k ~params:[||] ~grid:1 ~cta:1 with
  | exception Interp.Runtime_error _ -> ()
  | _ -> Alcotest.fail "expected division fault"

let test_validate () =
  (* dangling label *)
  let bad =
    {
      Kir.kname = "bad";
      params = 0;
      reg_count = 4;
      regs_per_thread = 4;
      shared_words = 0;
      shared_bytes = 0;
      body = [| Kir.Br 0; Kir.Ret |];
      labels = [| 99 |];
      prov = Kir.no_prov;
    }
  in
  (match Kir_validate.check bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected label error");
  (* register out of range *)
  let bad2 =
    {
      bad with
      body = [| Kir.Mov (77, Kir.Imm 0); Kir.Ret |];
      labels = [||];
    }
  in
  match Kir_validate.check bad2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected register error"

let test_occupancy () =
  (* A light kernel should reach full occupancy on Fermi. *)
  let occ =
    Occupancy.occupancy device ~cta_threads:256 ~shared_bytes:0
      ~regs_per_thread:16
  in
  Alcotest.(check (float 1e-9)) "light kernel occupancy" 1.0 occ;
  (* 48 KB shared per CTA allows exactly one CTA per SM. *)
  let ctas =
    Occupancy.ctas_per_sm device ~cta_threads:256 ~shared_bytes:(48 * 1024)
      ~regs_per_thread:16
  in
  Alcotest.(check int) "shared-bound CTAs" 1 ctas;
  Alcotest.(check string) "limiter"
    "shared memory"
    (Occupancy.limiting_resource device ~cta_threads:256
       ~shared_bytes:(48 * 1024) ~regs_per_thread:16);
  (* heavy register usage limits warps: 63 regs, 1024 threads/CTA ->
     63*32 rounded to 64 = 2016->2048 per warp, 32 warps/CTA needs 65536 >
     32768 regs: zero CTAs fit *)
  let ctas =
    Occupancy.ctas_per_sm device ~cta_threads:1024 ~shared_bytes:0
      ~regs_per_thread:63
  in
  Alcotest.(check int) "register-bound CTAs" 0 ctas;
  let occ =
    Occupancy.occupancy device ~cta_threads:1024 ~shared_bytes:0
      ~regs_per_thread:63
  in
  Alcotest.(check (float 1e-9)) "zero occupancy" 0.0 occ

let test_memory_accounting () =
  let mem = Memory.create device in
  Alcotest.(check int) "empty" 0 (Memory.live_bytes mem);
  let a = Memory.alloc mem ~words:100 ~bytes:400 in
  let b = Memory.alloc mem ~words:50 ~bytes:400 in
  Alcotest.(check int) "live" 800 (Memory.live_bytes mem);
  Alcotest.(check int) "peak" 800 (Memory.peak_bytes mem);
  Memory.free mem a;
  Alcotest.(check int) "after free" 400 (Memory.live_bytes mem);
  Alcotest.(check int) "peak sticky" 800 (Memory.peak_bytes mem);
  Memory.reset_peak mem;
  Alcotest.(check int) "peak reset" 400 (Memory.peak_bytes mem);
  Alcotest.(check bool) "b live" true (Memory.is_live mem b);
  Alcotest.(check bool) "a dead" false (Memory.is_live mem a);
  Alcotest.check_raises "double free"
    (Invalid_argument "Memory.free: buffer already freed") (fun () ->
      Memory.free mem a)

let test_timing_model () =
  let s = Stats.create () in
  s.Stats.global_load_bytes <- 1_000_000;
  let t1 = Timing.kernel_time device ~occupancy:1.0 s in
  let t2 = Timing.kernel_time device ~occupancy:0.1 s in
  Alcotest.(check bool) "low occupancy is slower" true
    (t2.Timing.total_cycles > t1.Timing.total_cycles);
  (* memory-bound kernel: time tracks bytes *)
  let s2 = Stats.create () in
  s2.Stats.global_load_bytes <- 2_000_000;
  let t3 = Timing.kernel_time device ~occupancy:1.0 s2 in
  Alcotest.(check bool) "2x bytes ~ 2x memory cycles" true
    (Float.abs ((t3.Timing.memory_cycles /. t1.Timing.memory_cycles) -. 2.0)
    < 0.01)

let test_pcie () =
  let p = Pcie.create device in
  let d1 = Pcie.transfer p Pcie.Host_to_device ~bytes:1_000_000 in
  let _d2 = Pcie.transfer p Pcie.Device_to_host ~bytes:500_000 in
  Alcotest.(check int) "total bytes" 1_500_000 (Pcie.total_bytes p);
  Alcotest.(check int) "h2d" 1_000_000 (Pcie.bytes_h2d p);
  Alcotest.(check int) "d2h" 500_000 (Pcie.bytes_d2h p);
  Alcotest.(check int) "count" 2 (Pcie.transfer_count p);
  (* 1 MB at 4 GB/s = 250 us + 10 us latency *)
  Alcotest.(check (float 1e-6)) "duration" 2.6e-4 d1;
  Pcie.reset p;
  Alcotest.(check int) "reset" 0 (Pcie.total_bytes p)

let test_cuda_emit () =
  let k = vec_add_kernel () in
  let src = Cuda_emit.kernel_source k in
  Alcotest.(check bool) "has global decl" true
    (String.length src > 0
    && Astring_contains.contains src "__global__ void vec_add");
  Alcotest.(check bool) "has return" true (Astring_contains.contains src "return;")

(* every binop/unop/cmp against the host semantics *)
let test_alu_coverage () =
  let mem = Memory.create device in
  let out = Memory.alloc mem ~words:1 ~bytes:4 in
  let run1 emit =
    let b = Kir_builder.create ~name:"alu" ~params:1 () in
    let buf = Kir_builder.param b 0 in
    let r = emit b in
    Kir_builder.st b Kir.Global ~base:buf ~idx:(Imm 0) ~src:(Reg r) ~width:4;
    ignore (Interp.run mem (Kir_builder.finish b) ~params:[| out |] ~grid:1 ~cta:1);
    (Memory.data mem out).(0)
  in
  let bin op a bb = run1 (fun b -> Kir_builder.bin b op (Kir.Imm a) (Kir.Imm bb)) in
  Alcotest.(check int) "sub" (-3) (bin Kir.Sub 7 10);
  Alcotest.(check int) "rem" 2 (bin Kir.Rem 17 5);
  Alcotest.(check int) "and" 0b100 (bin Kir.And 0b110 0b101);
  Alcotest.(check int) "or" 0b111 (bin Kir.Or 0b110 0b101);
  Alcotest.(check int) "xor" 0b011 (bin Kir.Xor 0b110 0b101);
  Alcotest.(check int) "shl" 40 (bin Kir.Shl 5 3);
  Alcotest.(check int) "shr negative" (-2) (bin Kir.Shr (-8) 2);
  Alcotest.(check int) "min" (-4) (bin Kir.Min (-4) 9);
  Alcotest.(check int) "max" 9 (bin Kir.Max (-4) 9);
  let f = Relation_lib.Value.of_f32 in
  Alcotest.(check int) "fsub" (f 1.25) (bin Kir.Fsub (f 2.0) (f 0.75));
  Alcotest.(check int) "fdiv" (f 2.5) (bin Kir.Fdiv (f 5.0) (f 2.0));
  Alcotest.(check int) "fmin" (f (-1.0)) (bin Kir.Fmin (f (-1.0)) (f 3.0));
  Alcotest.(check int) "fmax" (f 3.0) (bin Kir.Fmax (f (-1.0)) (f 3.0));
  let un op a = run1 (fun b -> Kir_builder.un b op (Kir.Imm a)) in
  Alcotest.(check int) "not 0" 1 (un Kir.Not 0);
  Alcotest.(check int) "not nz" 0 (un Kir.Not 42);
  Alcotest.(check int) "neg" (-5) (un Kir.Neg 5);
  Alcotest.(check int) "i2f" (f 7.0) (un Kir.I2f 7);
  Alcotest.(check int) "f2i truncates" 3 (un Kir.F2i (f 3.9));
  Alcotest.(check int) "fneg" (f (-2.5)) (un Kir.Fneg (f 2.5));
  let cmp c a bb = run1 (fun b -> Kir_builder.cmp b c (Kir.Imm a) (Kir.Imm bb)) in
  Alcotest.(check int) "le true" 1 (cmp Kir.Le 3 3);
  Alcotest.(check int) "gt false" 0 (cmp Kir.Gt 3 3);
  Alcotest.(check int) "flt" 1 (cmp Kir.Flt (f 1.0) (f 2.0));
  Alcotest.(check int) "fge" 0 (cmp Kir.Fge (f 1.0) (f 2.0));
  let sel c a bb = run1 (fun b -> Kir_builder.sel b (Kir.Imm c) (Kir.Imm a) (Kir.Imm bb)) in
  Alcotest.(check int) "sel true" 10 (sel 1 10 20);
  Alcotest.(check int) "sel false" 20 (sel 0 10 20)

let test_shared_atomics_and_widths () =
  (* shared atomics accumulate across threads; 8-byte accesses account 8 *)
  let b = Kir_builder.create ~name:"satom" ~params:1 () in
  let open Kir_builder in
  let buf = param b 0 in
  let slot = alloc_shared b ~words:1 ~bytes:8 in
  let _ = atom b Kir.Atom_max Kir.Shared ~base:slot ~idx:(Imm 0) ~src:tid in
  bar b;
  let is_t0 = cmp b Kir.Eq tid (Imm 0) in
  if_ b (Reg is_t0) (fun () ->
      let v = ld b Kir.Shared ~base:slot ~idx:(Imm 0) ~width:8 in
      st b Kir.Global ~base:buf ~idx:(Imm 0) ~src:(Reg v) ~width:8);
  let k = finish b in
  let mem = Memory.create device in
  let out = Memory.alloc mem ~words:1 ~bytes:8 in
  let stats =
    Executor.stats_of_counts k (Interp.run mem k ~params:[| out |] ~grid:1 ~cta:64)
  in
  Alcotest.(check int) "atomic max of tids" 63 (Memory.data mem out).(0);
  Alcotest.(check int) "8-byte store accounted" 8 stats.Stats.global_store_bytes;
  Alcotest.(check int) "64 atomics" 64 stats.Stats.atomics

let test_interp_budget_per_launch () =
  (* the instruction budget is per launch, not global *)
  let b = Kir_builder.create ~name:"loopy" ~params:0 () in
  let open Kir_builder in
  for_range b ~start:(Imm 0) ~stop:(Imm 100) ~step:(Imm 1) (fun _ -> ());
  let k = finish b in
  let mem = Memory.create device in
  ignore (Interp.run ~max_instructions:10_000 mem k ~params:[||] ~grid:1 ~cta:1);
  ignore (Interp.run ~max_instructions:10_000 mem k ~params:[||] ~grid:1 ~cta:1)

let suite =
  [
    ("vec_add", `Quick, test_vec_add);
    ("barrier", `Quick, test_barrier);
    ("atomics", `Quick, test_atomics);
    ("float ops", `Quick, test_float_ops);
    ("divergence", `Quick, test_divergence);
    ("runtime errors", `Quick, test_runtime_errors);
    ("validate", `Quick, test_validate);
    ("occupancy", `Quick, test_occupancy);
    ("memory accounting", `Quick, test_memory_accounting);
    ("timing model", `Quick, test_timing_model);
    ("pcie", `Quick, test_pcie);
    ("cuda emit", `Quick, test_cuda_emit);
    ("alu coverage", `Quick, test_alu_coverage);
    ("shared atomics + widths", `Quick, test_shared_atomics_and_widths);
    ("budget per launch", `Quick, test_interp_budget_per_launch);
  ]
