open Gpu_sim

type t = { cfg_ : Cfg.t; in_ : Dataflow.Bits.t array; out : Dataflow.Bits.t array }

let used_regs ins =
  List.filter_map (function Kir.Reg r -> Some r | Kir.Imm _ -> None) (Kir.used_operands ins)

(* Per block, once: [gen] holds the registers read before any write in
   the block (upward-exposed uses), [kill] the registers it writes, so
   the block's backward transfer is [in = gen ∪ (out \ kill)]. *)
let gen_kill k cfg_ nregs b =
  let gen = Dataflow.Bits.create (max nregs 1) and kill = Dataflow.Bits.create (max nregs 1) in
  let blk = Cfg.block cfg_ b in
  for i = blk.Cfg.last downto blk.Cfg.first do
    let ins = k.Kir.body.(i) in
    (match Kir.defined_reg ins with
    | Some d when d >= 0 && d < nregs ->
        Dataflow.Bits.clear gen d;
        Dataflow.Bits.set kill d
    | _ -> ());
    List.iter
      (function Kir.Reg r when r >= 0 && r < nregs -> Dataflow.Bits.set gen r | _ -> ())
      (Kir.used_operands ins)
  done;
  (gen, kill)

let compute cfg_ =
  let k = Cfg.kernel cfg_ in
  let nregs = k.Kir.reg_count in
  let nb = Cfg.nblocks cfg_ in
  let boundary = Dataflow.Bits.create (max nregs 1) in
  let gk = Array.init nb (gen_kill k cfg_ nregs) in
  let transfer b facts =
    let gen, kill = gk.(b) in
    Dataflow.Bits.gen_kill ~gen ~kill facts
  in
  let in_, out =
    Dataflow.solve ~nblocks:nb ~direction:`Backward
      ~succs:(fun b -> (Cfg.block cfg_ b).Cfg.succs)
      ~preds:(fun b -> (Cfg.block cfg_ b).Cfg.preds)
      ~boundary ~transfer
  in
  { cfg_; in_; out }

let live_in t b = t.in_.(b)

(* Walk each reachable block backward from its live-out set, keeping a
   running count of the live [counted] registers as bits are set and
   cleared. *)
let max_live t ~counted =
  let cfg_ = t.cfg_ in
  let k = Cfg.kernel cfg_ in
  let nregs = k.Kir.reg_count in
  let best = ref 0 and best_at = ref 0 in
  let weigh at c =
    if c > !best then begin
      best := c;
      best_at := at
    end
  in
  for b = 0 to Cfg.nblocks cfg_ - 1 do
    if Cfg.reachable cfg_ b then begin
      let blk = Cfg.block cfg_ b in
      let cur = Dataflow.Bits.copy t.out.(b) in
      let c = ref 0 in
      Dataflow.Bits.iter (fun r -> if counted r then incr c) cur;
      weigh blk.Cfg.last !c;
      for i = blk.Cfg.last downto blk.Cfg.first do
        let ins = k.Kir.body.(i) in
        (match Kir.defined_reg ins with
        | Some d when d >= 0 && d < nregs && Dataflow.Bits.get cur d ->
            Dataflow.Bits.clear cur d;
            if counted d then decr c
        | _ -> ());
        List.iter
          (function
            | Kir.Reg r when r >= 0 && r < nregs && not (Dataflow.Bits.get cur r) ->
                Dataflow.Bits.set cur r;
                if counted r then incr c
            | _ -> ())
          (Kir.used_operands ins);
        weigh i !c
      done
    end
  done;
  (!best, !best_at)

let dead_defs t defs =
  let cfg_ = t.cfg_ in
  let k = Cfg.kernel cfg_ in
  let n = Array.length k.Kir.body in
  let used_def = Array.make (max n 1) false in
  Cfg.iter_instrs cfg_ (fun i ins ->
      List.iter
        (fun r ->
          let sites, _entry = Defs.reaching defs ~at:i r in
          List.iter (fun s -> used_def.(s) <- true) sites)
        (used_regs ins));
  let out = ref [] in
  Cfg.iter_instrs cfg_ (fun i ins ->
      match (ins, Kir.defined_reg ins) with
      | Kir.Atom _, _ -> ()
      | _, Some _ when not used_def.(i) -> out := i :: !out
      | _ -> ());
  List.rev !out
