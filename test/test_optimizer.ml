(* The KIR optimizer: each pass in isolation, plus a semantic-preservation
   property over randomly generated straight-line kernels. *)

open Gpu_sim

let device = Device.fermi_c2050

let run_kernel k ~params ~words =
  let mem = Memory.create device in
  let out = Memory.alloc mem ~words ~bytes:(4 * words) in
  let ps = Array.append [| out |] params in
  ignore (Interp.run mem k ~params:ps ~grid:1 ~cta:1);
  Array.copy (Memory.data mem out)

let o3 = Weaver.Optimizer.optimize Weaver.Optimizer.O3

let test_cse () =
  let b = Kir_builder.create ~name:"cse" ~params:1 () in
  let open Kir_builder in
  let buf = param b 0 in
  let m1 = bin b Kir.Mul tid (Imm 3) in
  let m2 = bin b Kir.Mul tid (Imm 3) in
  let s = bin b Kir.Add (Reg m1) (Reg m2) in
  st b Kir.Global ~base:buf ~idx:(Imm 0) ~src:(Reg s) ~width:4;
  let k = finish b in
  let k3 = o3 k in
  Alcotest.(check bool) "fewer instructions" true
    (Kir.instr_count k3 < Kir.instr_count k);
  let r = run_kernel k ~params:[||] ~words:1 in
  let r3 = run_kernel k3 ~params:[||] ~words:1 in
  Alcotest.(check int) "same result" r.(0) r3.(0)

let test_commutative_cse () =
  (* x + y and y + x unify *)
  let b = Kir_builder.create ~name:"comm" ~params:1 () in
  let open Kir_builder in
  let buf = param b 0 in
  let x = mov b (Imm 7) in
  let a1 = bin b Kir.Add (Reg x) tid in
  let a2 = bin b Kir.Add tid (Reg x) in
  let s = bin b Kir.Add (Reg a1) (Reg a2) in
  st b Kir.Global ~base:buf ~idx:(Imm 0) ~src:(Reg s) ~width:4;
  let k = finish b in
  let k3 = o3 k in
  Alcotest.(check bool) "commutative pair collapsed" true
    (Kir.instr_count k3 < Kir.instr_count k)

let test_constant_folding () =
  let b = Kir_builder.create ~name:"fold" ~params:1 () in
  let open Kir_builder in
  let buf = param b 0 in
  let c = bin b Kir.Mul (Imm 6) (Imm 7) in
  let c2 = bin b Kir.Add (Reg c) (Imm 0) in
  (* identity *)
  let c3 = bin b Kir.Mul (Reg c2) (Imm 1) in
  (* identity *)
  st b Kir.Global ~base:buf ~idx:(Imm 0) ~src:(Reg c3) ~width:4;
  let k = finish b in
  let k3 = o3 k in
  let r3 = run_kernel k3 ~params:[||] ~words:1 in
  Alcotest.(check int) "folded value" 42 r3.(0);
  (* everything folds into the store: store + ret remain *)
  Alcotest.(check int) "only store+ret remain" 2 (Kir.instr_count k3)

let test_dce_dead_loads () =
  (* a load whose result is never used disappears — the "dead attribute"
     elimination that powers Fig. 19 *)
  let b = Kir_builder.create ~name:"dce" ~params:2 () in
  let open Kir_builder in
  let out = param b 0 and src = param b 1 in
  let _dead = ld b Kir.Global ~base:src ~idx:(Imm 0) ~width:4 in
  let live = ld b Kir.Global ~base:src ~idx:(Imm 1) ~width:4 in
  st b Kir.Global ~base:out ~idx:(Imm 0) ~src:(Reg live) ~width:4;
  let k = finish b in
  let k3 = o3 k in
  Alcotest.(check int) "dead load removed" (Kir.instr_count k - 1)
    (Kir.instr_count k3);
  let mem = Memory.create device in
  let out_b = Memory.alloc mem ~words:1 ~bytes:4 in
  let src_b = Memory.alloc mem ~words:2 ~bytes:8 in
  (Memory.data mem src_b).(1) <- 123;
  let s3 =
    Executor.stats_of_counts k3
      (Interp.run mem k3 ~params:[| out_b; src_b |] ~grid:1 ~cta:1)
  in
  Alcotest.(check int) "value preserved" 123 (Memory.data mem out_b).(0);
  Alcotest.(check int) "one load executed" 1 s3.Stats.global_loads

let test_redundant_load_elim () =
  (* same address loaded twice without an intervening store -> one load *)
  let b = Kir_builder.create ~name:"rle" ~params:2 () in
  let open Kir_builder in
  let out = param b 0 and src = param b 1 in
  let v1 = ld b Kir.Global ~base:src ~idx:(Imm 0) ~width:4 in
  let v2 = ld b Kir.Global ~base:src ~idx:(Imm 0) ~width:4 in
  let s = bin b Kir.Add (Reg v1) (Reg v2) in
  st b Kir.Global ~base:out ~idx:(Imm 0) ~src:(Reg s) ~width:4;
  let k3 = o3 (finish b) in
  let mem = Memory.create device in
  let out_b = Memory.alloc mem ~words:1 ~bytes:4 in
  let src_b = Memory.alloc mem ~words:1 ~bytes:4 in
  (Memory.data mem src_b).(0) <- 21;
  let stats =
    Executor.stats_of_counts k3
      (Interp.run mem k3 ~params:[| out_b; src_b |] ~grid:1 ~cta:1)
  in
  Alcotest.(check int) "value" 42 (Memory.data mem out_b).(0);
  Alcotest.(check int) "single load" 1 stats.Stats.global_loads

let test_store_invalidates_load () =
  (* a store to the same space kills load availability *)
  let b = Kir_builder.create ~name:"inval" ~params:2 () in
  let open Kir_builder in
  let out = param b 0 and src = param b 1 in
  let v1 = ld b Kir.Global ~base:src ~idx:(Imm 0) ~width:4 in
  st b Kir.Global ~base:src ~idx:(Imm 0) ~src:(Imm 99) ~width:4;
  let v2 = ld b Kir.Global ~base:src ~idx:(Imm 0) ~width:4 in
  let s = bin b Kir.Add (Reg v1) (Reg v2) in
  st b Kir.Global ~base:out ~idx:(Imm 0) ~src:(Reg s) ~width:4;
  let k3 = o3 (finish b) in
  let mem = Memory.create device in
  let out_b = Memory.alloc mem ~words:1 ~bytes:4 in
  let src_b = Memory.alloc mem ~words:1 ~bytes:4 in
  (Memory.data mem src_b).(0) <- 1;
  ignore (Interp.run mem k3 ~params:[| out_b; src_b |] ~grid:1 ~cta:1);
  (* v1 = 1, then store 99, v2 must observe... the store-forwarded 99 *)
  Alcotest.(check int) "store-load forwarding" 100 (Memory.data mem out_b).(0)

let test_branch_folding () =
  (* a Brz on a constant condition folds; the untaken side dies *)
  let b = Kir_builder.create ~name:"brfold" ~params:1 () in
  let open Kir_builder in
  let buf = param b 0 in
  let c = bin b Kir.Add (Imm 0) (Imm 0) in
  let out = fresh b in
  if_else b (Reg c)
    (fun () -> mov_to b out (Imm 111))
    (fun () -> mov_to b out (Imm 222));
  st b Kir.Global ~base:buf ~idx:(Imm 0) ~src:(Reg out) ~width:4;
  let k3 = o3 (finish b) in
  let r3 = run_kernel k3 ~params:[||] ~words:1 in
  Alcotest.(check int) "else branch taken" 222 r3.(0)

let test_loop_semantics_preserved () =
  (* optimizer must not break loops with mutable induction registers *)
  let b = Kir_builder.create ~name:"loop" ~params:1 () in
  let open Kir_builder in
  let buf = param b 0 in
  let acc = mov b (Imm 0) in
  for_range b ~start:(Imm 0) ~stop:(Imm 10) ~step:(Imm 1) (fun i ->
      let sq = bin b Kir.Mul (Reg i) (Reg i) in
      bin_to b acc Kir.Add (Reg acc) (Reg sq));
  st b Kir.Global ~base:buf ~idx:(Imm 0) ~src:(Reg acc) ~width:4;
  let k = finish b in
  let r = run_kernel k ~params:[||] ~words:1 in
  let r3 = run_kernel (o3 k) ~params:[||] ~words:1 in
  Alcotest.(check int) "sum of squares" 285 r.(0);
  Alcotest.(check int) "optimized matches" 285 r3.(0)

(* --- random straight-line kernels: O3 preserves semantics ------------------ *)

let arb_program =
  (* a sequence of arithmetic instructions over a growing register pool,
     ended by stores of the last few registers *)
  let open QCheck.Gen in
  let op = oneofl [ Kir.Add; Kir.Sub; Kir.Mul; Kir.And; Kir.Or; Kir.Xor;
                    Kir.Min; Kir.Max ] in
  let instr pool =
    let* o = op in
    let* a = oneof [ map (fun i -> `R (i mod pool)) small_nat;
                     map (fun n -> `I (n - 50)) (int_bound 100) ] in
    let* bx = oneof [ map (fun i -> `R (i mod pool)) small_nat;
                      map (fun n -> `I (n - 50)) (int_bound 100) ] in
    return (o, a, bx)
  in
  let gen =
    let* n = int_range 1 30 in
    let rec go k acc =
      if k = 0 then return (List.rev acc)
      else
        let* i = instr (List.length acc + 1) in
        go (k - 1) (i :: acc)
    in
    go n []
  in
  QCheck.make gen

let build_program instrs =
  let b = Kir_builder.create ~name:"rand" ~params:1 () in
  let open Kir_builder in
  let buf = param b 0 in
  let seed = mov b tid in
  let regs = ref [ seed ] in
  List.iter
    (fun (op, a, bx) ->
      let operand = function
        | `R i -> Kir.Reg (List.nth !regs (i mod List.length !regs))
        | `I n -> Kir.Imm n
      in
      let r = bin b op (operand a) (operand bx) in
      regs := r :: !regs)
    instrs;
  List.iteri
    (fun i r ->
      if i < 4 then
        st b Kir.Global ~base:buf ~idx:(Imm i) ~src:(Reg r) ~width:4)
    !regs;
  finish b

let prop_o3_preserves =
  QCheck.Test.make ~name:"O3 preserves straight-line semantics" ~count:300
    arb_program (fun instrs ->
      let k = build_program instrs in
      let r = run_kernel k ~params:[||] ~words:4 in
      let r3 = run_kernel (o3 k) ~params:[||] ~words:4 in
      r = r3)

let prop_o3_never_grows =
  QCheck.Test.make ~name:"O3 never adds instructions" ~count:300 arb_program
    (fun instrs ->
      let k = build_program instrs in
      Kir.instr_count (o3 k) <= Kir.instr_count k)

let suite =
  [
    ("common subexpressions", `Quick, test_cse);
    ("commutative CSE", `Quick, test_commutative_cse);
    ("constant folding + identities", `Quick, test_constant_folding);
    ("dead load elimination", `Quick, test_dce_dead_loads);
    ("redundant load elimination", `Quick, test_redundant_load_elim);
    ("store invalidation / forwarding", `Quick, test_store_invalidates_load);
    ("branch folding", `Quick, test_branch_folding);
    ("loop semantics", `Quick, test_loop_semantics_preserved);
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_o3_preserves; prop_o3_never_grows ]
