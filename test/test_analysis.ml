(* The static-analysis gate: Kir_validate's structural rejections, each
   analyzer pass catching a hand-seeded defect, and the flip side — every
   kernel the weaver actually produces (goldens and random plans alike)
   must clear the gate with zero gating diagnostics. *)

open Gpu_sim

let raw_kernel ?(reg_count = 8) ?(shared_words = 0) ?(labels = [||]) body =
  {
    Kir.kname = "t";
    params = 0;
    reg_count;
    regs_per_thread = 8;
    shared_words;
    shared_bytes = shared_words * 4;
    body;
    labels;
    prov = Kir.no_prov;
  }

let contains s needle =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let expect_invalid what k needle =
  match Kir_validate.check k with
  | Ok () -> Alcotest.failf "%s: expected a validation error" what
  | Error msgs ->
      let hit = List.exists (fun m -> contains m needle) msgs in
      if not hit then
        Alcotest.failf "%s: no message mentions %S in: %s" what needle
          (String.concat "; " msgs)

(* ---- Kir_validate error paths ---- *)

let test_validate_label_past_end () =
  let k = raw_kernel ~labels:[| 2 |] [| Kir.Br 0; Kir.Ret |] in
  expect_invalid "label at n" k "resolves out of bounds"

let test_validate_const_shared_oob () =
  let k =
    raw_kernel ~shared_words:4
      [|
        Kir.St
          { space = Kir.Shared; base = Kir.Imm 0; idx = Kir.Imm 4;
            src = Kir.Imm 1; width = 4 };
        Kir.Ret;
      |]
  in
  expect_invalid "constant shared store" k "constant shared access";
  let k =
    raw_kernel ~shared_words:4
      [|
        Kir.Ld
          { space = Kir.Shared; dst = 5; base = Kir.Imm 3; idx = Kir.Imm 1;
            width = 4 };
        Kir.Ret;
      |]
  in
  expect_invalid "constant shared load" k "constant shared access"

let test_validate_duplicate_loop_heads () =
  let k =
    raw_kernel ~labels:[| 0; 0 |]
      [|
        Kir.Bin (Kir.Add, 5, Kir.Reg 5, Kir.Imm 1);
        Kir.Brz (Kir.Reg 5, 0);
        Kir.Brnz (Kir.Reg 5, 1);
        Kir.Ret;
      |]
  in
  expect_invalid "duplicate loop heads" k "both loop heads"

let test_validate_unreachable_branch () =
  let k = raw_kernel ~labels:[| 0 |] [| Kir.Ret; Kir.Br 0 |] in
  expect_invalid "unreachable branch" k "unreachable code"

let test_validate_clean_kernel () =
  let b = Kir_builder.create ~name:"ok" ~params:1 () in
  let base = Kir_builder.alloc_shared b ~words:2 ~bytes:8 in
  Kir_builder.for_range b ~start:(Kir.Imm 0) ~stop:(Kir.Imm 2) ~step:(Kir.Imm 1)
    (fun i ->
      Kir_builder.st b Kir.Shared ~base ~idx:(Kir.Reg i) ~src:(Kir.Reg i)
        ~width:4);
  (match Kir_validate.check (Kir_builder.finish b) with
  | Ok () -> ()
  | Error msgs -> Alcotest.failf "clean kernel rejected: %s" (String.concat "; " msgs))

let test_builder_double_place () =
  let b = Kir_builder.create ~name:"dup" ~params:0 () in
  let l = Kir_builder.new_label b in
  Kir_builder.place b l;
  match Kir_builder.place b l with
  | () -> Alcotest.fail "second placement of the same label must raise"
  | exception Invalid_argument _ -> ()

(* ---- analyzer passes on hand-built defective kernels ---- *)

let gating_passes k =
  Weaver_analysis.Analysis.gating (Weaver.Runtime.analyze_kernel k)
  |> List.map (fun d -> d.Weaver_analysis.Diag.pass)

let expect_pass what k pass =
  let passes = gating_passes k in
  if not (List.mem pass passes) then
    Alcotest.failf "%s: expected a gating %S diagnostic, got [%s]" what pass
      (String.concat "; " passes)

let test_divergent_barrier () =
  let b = Kir_builder.create ~name:"divbar" ~params:0 () in
  let c = Kir_builder.cmp b Kir.Lt Kir_builder.tid (Kir.Imm 1) in
  Kir_builder.if_ b (Kir.Reg c) (fun () -> Kir_builder.bar b);
  expect_pass "tid-guarded barrier" (Kir_builder.finish b) "divergence"

let test_shared_race () =
  let b = Kir_builder.create ~name:"race" ~params:0 () in
  let base = Kir_builder.alloc_shared b ~words:1 ~bytes:4 in
  Kir_builder.st b Kir.Shared ~base ~idx:(Kir.Imm 0) ~src:Kir_builder.tid
    ~width:4;
  expect_pass "all threads store one word" (Kir_builder.finish b) "race"

let test_no_race_when_tid_indexed () =
  let b = Kir_builder.create ~name:"perthread" ~params:0 () in
  let base = Kir_builder.alloc_shared b ~words:1024 ~bytes:4096 in
  Kir_builder.st b Kir.Shared ~base ~idx:Kir_builder.tid ~src:(Kir.Imm 7)
    ~width:4;
  let r = Weaver.Runtime.analyze_kernel (Kir_builder.finish b) in
  Alcotest.(check int)
    "tid-sliced store is race-free" 0
    (List.length
       (List.filter
          (fun d -> d.Weaver_analysis.Diag.pass = "race")
          (Weaver_analysis.Analysis.gating r)))

let test_uninitialized_read () =
  let b = Kir_builder.create ~name:"uninit" ~params:0 () in
  let r = Kir_builder.fresh b in
  ignore (Kir_builder.bin b Kir.Add (Kir.Reg r) (Kir.Imm 1));
  expect_pass "never-written register read" (Kir_builder.finish b) "hygiene"

let test_dead_store_hint () =
  let b = Kir_builder.create ~name:"dead" ~params:0 () in
  let r = Kir_builder.mov b (Kir.Imm 42) in
  ignore r;
  let report = Weaver.Runtime.analyze_kernel (Kir_builder.finish b) in
  (* advisory only: a dead store is a hint and must not gate *)
  Alcotest.(check int)
    "dead store does not gate" 0
    (List.length (Weaver_analysis.Analysis.gating report));
  let hints =
    List.filter
      (fun d -> d.Weaver_analysis.Diag.severity = Weaver_analysis.Diag.Hint)
      report.Weaver_analysis.Analysis.diags
  in
  Alcotest.(check bool) "dead store reported as hint" true (hints <> [])

(* ---- seeded defects in a real woven kernel ---- *)

let fused_compute () =
  let w = Tpch.Patterns.pattern_b () in
  let program = Weaver.Driver.compile w.Tpch.Patterns.plan in
  let rec find = function
    | Weaver.Runtime.U_fused { name; ir } :: _ ->
        let lay =
          Weaver.Layout.compute program.Weaver.Runtime.config
            program.Weaver.Runtime.plan ir
        in
        let ks =
          Weaver.Codegen.generate program.Weaver.Runtime.config ~name ir lay
        in
        ks.Weaver.Codegen.compute
    | _ :: rest -> find rest
    | [] -> Alcotest.fail "pattern (b) produced no fused unit"
  in
  find program.Weaver.Runtime.units

let test_defect_deleted_bar () =
  let k = fused_compute () in
  let dropped = ref false in
  let body =
    Array.map
      (fun i ->
        if (not !dropped) && i = Kir.Bar then begin
          dropped := true;
          Kir.Mov (k.Kir.reg_count - 1, Kir.Imm 0)
        end
        else i)
      k.Kir.body
  in
  Alcotest.(check bool) "kernel had a barrier to delete" true !dropped;
  let defective = { k with Kir.body } in
  if Weaver_analysis.Analysis.gating (Weaver.Runtime.analyze_kernel defective) = []
  then Alcotest.fail "deleting a barrier must produce a gating diagnostic"

let test_defect_shrunk_shared () =
  let k = fused_compute () in
  let defective = { k with Kir.shared_words = k.Kir.shared_words - 2 } in
  expect_pass "shrunk shared_words" defective "resource"

let test_defect_shrunk_regs () =
  let k = fused_compute () in
  let defective = { k with Kir.regs_per_thread = 2 } in
  expect_pass "understated register budget" defective "resource"

(* ---- the flip side: everything the weaver produces is clean ---- *)

let check_program_clean what plan =
  let program = Weaver.Driver.compile plan in
  List.iter
    (fun (r : Weaver_analysis.Analysis.report) ->
      match Weaver_analysis.Analysis.gating r with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "%s/%s: unexpected gating diagnostic: %s" what
            r.Weaver_analysis.Analysis.kname
            (Weaver_analysis.Diag.to_string d))
    (Weaver.Runtime.analyze_program program)

let test_goldens_clean () =
  List.iter
    (fun (w : Tpch.Patterns.workload) ->
      check_program_clean w.Tpch.Patterns.name w.Tpch.Patterns.plan)
    (Tpch.Patterns.all ());
  List.iter
    (fun (q : Tpch.Queries.query) ->
      check_program_clean q.Tpch.Queries.qname q.Tpch.Queries.plan)
    [ Tpch.Queries.q1; Tpch.Queries.q21 ]

let test_certificate_within_budget () =
  let k = fused_compute () in
  let r = Weaver.Runtime.analyze_kernel k in
  let c = r.Weaver_analysis.Analysis.certificate in
  Alcotest.(check bool)
    "live registers within Algorithm-2 budget" true
    (c.Weaver_analysis.Resources.max_live_regs <= k.Kir.regs_per_thread);
  Alcotest.(check bool)
    "shared footprint within declaration" true
    (c.Weaver_analysis.Resources.max_shared_addr < k.Kir.shared_words)

let prop_gate_clean =
  QCheck.Test.make ~name:"woven random plans pass the gate" ~count:40
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let { Test_property.plan; desc; _ } = Test_property.build_random seed in
      let program = Weaver.Driver.compile plan in
      List.for_all
        (fun r ->
          match Weaver_analysis.Analysis.gating r with
          | [] -> true
          | d :: _ ->
              QCheck.Test.fail_reportf "%s gated on %s: %s" desc
                r.Weaver_analysis.Analysis.kname
                (Weaver_analysis.Diag.to_string d))
        (Weaver.Runtime.analyze_program program))

(* ---- differential oracles for the solver and the post-dominators ---- *)

module A = Weaver_analysis
module B = A.Dataflow.Bits

(* Round-robin reference: sweep every block in index order until no
   transferred fact changes. *)
let reference_solve ~nblocks ~direction ~succs ~preds ~boundary ~transfer =
  let nbits = B.length boundary in
  let in_ = Array.init nblocks (fun _ -> B.create nbits) in
  let out = Array.init nblocks (fun _ -> B.create nbits) in
  let join_edges, from, into =
    match direction with `Forward -> (preds, out, in_) | `Backward -> (succs, in_, out)
  in
  let is_boundary b = match direction with `Forward -> b = 0 | `Backward -> succs b = [] in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to nblocks - 1 do
      let acc = B.create nbits in
      if is_boundary b then ignore (B.union_into ~dst:acc boundary);
      List.iter (fun p -> ignore (B.union_into ~dst:acc from.(p))) (join_edges b);
      into.(b) <- acc;
      let res = transfer b acc in
      if not (B.equal res from.(b)) then begin
        from.(b) <- res;
        changed := true
      end
    done
  done;
  (in_, out)

(* Brute-force post-dominator sets over the pruned graph plus a virtual
   exit, iterated to the greatest fixpoint; the immediate post-dominator
   is the strict post-dominator with the largest set. *)
let reference_ipd cfg =
  let nb = A.Cfg.nblocks cfg in
  let full () =
    let s = B.create (nb + 1) in
    for i = 0 to nb do
      B.set s i
    done;
    s
  in
  let pdom = Array.init (nb + 1) (fun _ -> full ()) in
  pdom.(nb) <- B.create (nb + 1);
  B.set pdom.(nb) nb;
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      if A.Cfg.preachable cfg b then begin
        let acc = full () in
        let ss = match A.Cfg.psuccs cfg b with [] -> [ nb ] | ss -> ss in
        List.iter (fun s -> ignore (B.inter_into ~dst:acc pdom.(s))) ss;
        B.set acc b;
        if not (B.equal acc pdom.(b)) then begin
          pdom.(b) <- acc;
          changed := true
        end
      end
    done
  done;
  Array.init nb (fun b ->
      if not (A.Cfg.preachable cfg b) then -1
      else begin
        let best = ref nb and best_sz = ref (-1) in
        B.iter
          (fun p ->
            if p <> b && B.count pdom.(p) > !best_sz then begin
              best := p;
              best_sz := B.count pdom.(p)
            end)
          pdom.(b);
        !best
      end)

let reg_uses ins =
  List.filter_map (function Kir.Reg r -> Some r | Kir.Imm _ -> None) (Kir.used_operands ins)

(* Three problems with instruction-walking transfers: liveness
   (backward), reaching definitions over instruction bits (forward) and
   data-only thread-id taint (forward). *)
let problems cfg =
  let k = A.Cfg.kernel cfg in
  let n = Array.length k.Kir.body and nregs = k.Kir.reg_count in
  let blk b = A.Cfg.block cfg b in
  let in_range r = r >= 0 && r < nregs in
  let walk ~backward b facts step =
    let cur = B.copy facts in
    let { A.Cfg.first; last; _ } = blk b in
    for j = 0 to last - first do
      let i = if backward then last - j else first + j in
      step cur i k.Kir.body.(i)
    done;
    cur
  in
  let live b facts =
    walk ~backward:true b facts (fun cur _ ins ->
        (match Kir.defined_reg ins with Some d when in_range d -> B.clear cur d | _ -> ());
        List.iter (fun r -> if in_range r then B.set cur r) (reg_uses ins))
  in
  let defs b facts =
    walk ~backward:false b facts (fun cur i ins ->
        match Kir.defined_reg ins with
        | Some d when in_range d ->
            Array.iteri
              (fun j ins' -> if Kir.defined_reg ins' = Some d then B.clear cur j)
              k.Kir.body;
            B.clear cur (n + d);
            B.set cur i
        | _ -> ())
  in
  let taint b facts =
    walk ~backward:false b facts (fun cur _ ins ->
        match Kir.defined_reg ins with
        | Some d when in_range d ->
            if List.exists (fun r -> in_range r && B.get cur r) (reg_uses ins) then B.set cur d
            else B.clear cur d
        | _ -> ())
  in
  let entry_defs = B.create (n + nregs) in
  for r = 0 to nregs - 1 do
    B.set entry_defs (n + r)
  done;
  let tid = B.create (max nregs 1) in
  if nregs > 0 then B.set tid 0;
  [
    ("live", `Backward, B.create (max nregs 1), live);
    ("defs", `Forward, entry_defs, defs);
    ("taint", `Forward, tid, taint);
  ]

let solve_with solver cfg (_, direction, boundary, transfer) =
  solver ~nblocks:(A.Cfg.nblocks cfg) ~direction
    ~succs:(fun b -> (A.Cfg.block cfg b).A.Cfg.succs)
    ~preds:(fun b -> (A.Cfg.block cfg b).A.Cfg.preds)
    ~boundary ~transfer

(* The worklist solver, CHK post-dominators and gen/kill liveness agree
   with the oracles on one kernel; the first disagreement, if any. *)
let oracle_mismatch (k : Kir.kernel) =
  let cfg = A.Cfg.build k in
  let same a b = Array.length a = Array.length b && Array.for_all2 B.equal a b in
  let solver_diff =
    List.find_map
      (fun ((name, _, _, _) as p) ->
        let i1, o1 = solve_with A.Dataflow.solve cfg p in
        let i2, o2 = solve_with reference_solve cfg p in
        if same i1 i2 && same o1 o2 then None else Some ("solve " ^ name))
      (problems cfg)
  in
  let live_diff () =
    let _, direction, boundary, transfer = List.hd (problems cfg) in
    let ref_in, _ = solve_with reference_solve cfg ("live", direction, boundary, transfer) in
    let live = A.Live.compute cfg in
    if Array.for_all Fun.id (Array.mapi (fun b s -> B.equal s (A.Live.live_in live b)) ref_in)
    then None
    else Some "gen/kill liveness"
  in
  let ipd_diff () =
    let expected = reference_ipd cfg in
    List.find_map
      (fun b ->
        if A.Cfg.ipd cfg b = expected.(b) then None
        else Some (Printf.sprintf "ipd of block %d: %d, oracle %d" b (A.Cfg.ipd cfg b) expected.(b)))
      (List.init (A.Cfg.nblocks cfg) Fun.id)
  in
  match solver_diff with
  | Some _ as d -> d
  | None -> ( match live_diff () with Some _ as d -> d | None -> ipd_diff ())

let program_kernels plan =
  List.filter_map
    (function `Kernel (k, _) -> Some k | `Sort _ -> None)
    (Weaver.Runtime.program_kernels (Weaver.Driver.compile plan))

let golden_plans () =
  List.map
    (fun (w : Tpch.Patterns.workload) -> (w.Tpch.Patterns.name, w.Tpch.Patterns.plan))
    (Tpch.Patterns.all () @ [ Tpch.Patterns.pattern_ab () ])
  @ List.map
      (fun (q : Tpch.Queries.query) -> (q.Tpch.Queries.qname, q.Tpch.Queries.plan))
      [ Tpch.Queries.q1; Tpch.Queries.q21 ]

let check_oracles what k =
  match oracle_mismatch k with
  | None -> ()
  | Some d -> Alcotest.failf "%s/%s: %s" what k.Kir.kname d

let test_oracles_goldens () =
  List.iter
    (fun (name, plan) -> List.iter (check_oracles name) (program_kernels plan))
    (golden_plans ())

(* Hand-made graphs the weaver never emits: a block stuck in a
   self-loop next to an unreachable one, a stuck block whose every
   other block reaches the exit, and a trapping branch side. *)
let test_oracles_irregular () =
  let r5 = Kir.Reg 5 in
  List.iter (check_oracles "irregular")
    [
      raw_kernel ~labels:[| 3; 1 |] [| Kir.Brz (r5, 0); Kir.Br 1; Kir.Ret; Kir.Ret |];
      raw_kernel ~labels:[| 2; 1 |] [| Kir.Brz (r5, 0); Kir.Br 1; Kir.Ret |];
      raw_kernel ~labels:[| 3 |]
        [| Kir.Mov (6, Kir.Reg 0); Kir.Brnz (Kir.Reg 6, 0); Kir.Trap (Fault.Div_by_zero { kernel = "t" }, None);
           Kir.Bin (Kir.Add, 7, Kir.Reg 6, r5); Kir.Ret |];
    ]

let prop_oracles_random =
  QCheck.Test.make ~name:"random-plan kernels match the solver oracles" ~count:20
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 100_000))
    (fun seed ->
      let { Test_property.plan; desc; _ } = Test_property.build_random seed in
      List.for_all
        (fun k ->
          match oracle_mismatch k with
          | None -> true
          | Some d -> QCheck.Test.fail_reportf "%s/%s: %s" desc k.Kir.kname d)
        (program_kernels plan))

(* Deterministic scaling: the worklist visits each block a bounded number
   of times, counted through the [transfer] argument. *)
let transfer_budget = 2

let test_solver_scaling () =
  let compute_kernel what plan =
    match
      List.filter (fun k -> k.Kir.kname = "group0_compute") (program_kernels plan)
    with
    | [ k ] -> k
    | _ -> Alcotest.failf "%s: expected one group0_compute kernel" what
  in
  List.iter
    (fun (what, plan) ->
      let k = compute_kernel what plan in
      let cfg = A.Cfg.build k in
      let nb = A.Cfg.nblocks cfg in
      List.iter
        (fun (name, direction, boundary, transfer) ->
          let calls = ref 0 in
          let transfer b facts =
            incr calls;
            transfer b facts
          in
          ignore (solve_with A.Dataflow.solve cfg (name, direction, boundary, transfer));
          if !calls > transfer_budget * nb then
            Alcotest.failf "%s %s: %d transfer calls for %d blocks (budget %d per block)"
              what name !calls nb transfer_budget)
        (problems cfg))
    [
      ("Q21", Tpch.Queries.q21.Tpch.Queries.plan);
      ( "32 selects",
        (Tpch.Patterns.back_to_back_selects ~selects:32 ~ratio:0.5).Tpch.Patterns.plan );
    ]

let suite =
  [
    Alcotest.test_case "validate: label past end" `Quick
      test_validate_label_past_end;
    Alcotest.test_case "validate: constant shared OOB" `Quick
      test_validate_const_shared_oob;
    Alcotest.test_case "validate: duplicate loop heads" `Quick
      test_validate_duplicate_loop_heads;
    Alcotest.test_case "validate: unreachable branch" `Quick
      test_validate_unreachable_branch;
    Alcotest.test_case "validate: clean kernel accepted" `Quick
      test_validate_clean_kernel;
    Alcotest.test_case "builder: double label placement" `Quick
      test_builder_double_place;
    Alcotest.test_case "divergent barrier flagged" `Quick test_divergent_barrier;
    Alcotest.test_case "same-word shared race flagged" `Quick test_shared_race;
    Alcotest.test_case "tid-sliced store race-free" `Quick
      test_no_race_when_tid_indexed;
    Alcotest.test_case "uninitialized read flagged" `Quick
      test_uninitialized_read;
    Alcotest.test_case "dead store is advisory" `Quick test_dead_store_hint;
    Alcotest.test_case "seeded defect: deleted barrier" `Quick
      test_defect_deleted_bar;
    Alcotest.test_case "seeded defect: shrunk shared_words" `Quick
      test_defect_shrunk_shared;
    Alcotest.test_case "seeded defect: understated registers" `Quick
      test_defect_shrunk_regs;
    Alcotest.test_case "golden workloads gate clean" `Slow test_goldens_clean;
    Alcotest.test_case "certificate within budgets" `Quick
      test_certificate_within_budget;
    QCheck_alcotest.to_alcotest prop_gate_clean;
    Alcotest.test_case "oracles: golden kernels" `Slow test_oracles_goldens;
    Alcotest.test_case "oracles: irregular graphs" `Quick test_oracles_irregular;
    QCheck_alcotest.to_alcotest prop_oracles_random;
    Alcotest.test_case "solver transfer calls linear" `Quick test_solver_scaling;
  ]
