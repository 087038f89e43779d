open Gpu_sim

type t = {
  cfg_ : Cfg.t;
  in_ : Dataflow.Bits.t array;  (* per block: varying registers on entry *)
  divergent_ : bool array;
  tainted_ : bool array;
}

let divergent t b = t.divergent_.(b)
let tainted_block t b = t.tainted_.(b)

let step_instr nregs tainted ins cur =
  match Kir.defined_reg ins with
  | Some d when d >= 0 && d < nregs ->
      let op_varying =
        List.exists
          (function
            | Kir.Reg r -> r >= 0 && r < nregs && Dataflow.Bits.get cur r
            | Kir.Imm _ -> false)
          (Kir.used_operands ins)
      in
      let atom = match ins with Kir.Atom _ -> true | _ -> false in
      if op_varying || tainted || atom then Dataflow.Bits.set cur d
      else Dataflow.Bits.clear cur d
  | _ -> ()

(* Varying registers just before instruction [at]: the block's entry
   facts stepped through the instructions before [at]. *)
let varying_before cfg_ in_ tainted_ ~at r =
  let k = Cfg.kernel cfg_ in
  let nregs = k.Kir.reg_count in
  let b = Cfg.block_of cfg_ at in
  let cur = Dataflow.Bits.copy in_.(b) in
  let blk = Cfg.block cfg_ b in
  for i = blk.Cfg.first to at - 1 do
    step_instr nregs tainted_.(b) k.Kir.body.(i) cur
  done;
  r >= 0 && r < nregs && Dataflow.Bits.get cur r

let compute cfg_ =
  let k = Cfg.kernel cfg_ in
  let nregs = k.Kir.reg_count in
  let nb = Cfg.nblocks cfg_ in
  let divergent_ = Array.make (max nb 1) false in
  let tainted_ = Array.make (max nb 1) false in
  let boundary = Dataflow.Bits.create (max nregs 1) in
  if nregs > 0 then Dataflow.Bits.set boundary 0;
  let succs b = (Cfg.block cfg_ b).Cfg.succs and preds b = (Cfg.block cfg_ b).Cfg.preds in
  let transfer b facts =
    let cur = Dataflow.Bits.copy facts in
    let blk = Cfg.block cfg_ b in
    for i = blk.Cfg.first to blk.Cfg.last do
      step_instr nregs tainted_.(b) k.Kir.body.(i) cur
    done;
    cur
  in
  let facts = Dataflow.solve ~nblocks:nb ~direction:`Forward ~succs ~preds ~boundary ~transfer in
  let in_ = fst facts in
  (* Each round marks the branches that are divergent under the current
     facts and taints their influence regions; tainting only grows the
     transfer of the newly tainted blocks, so the solver resumes from
     those blocks alone. *)
  let rec discover () =
    let newly = ref [] in
    for b = 0 to nb - 1 do
      if (not divergent_.(b)) && Cfg.preachable cfg_ b then begin
        let blk = Cfg.block cfg_ b in
        let two_way = match Cfg.psuccs cfg_ b with _ :: _ :: _ -> true | _ -> false in
        let cond_varying =
          match k.Kir.body.(blk.Cfg.last) with
          | Kir.Brz (Kir.Reg c, _) | Kir.Brnz (Kir.Reg c, _) ->
              varying_before cfg_ in_ tainted_ ~at:blk.Cfg.last c
          | _ -> false
        in
        if two_way && cond_varying then begin
          divergent_.(b) <- true;
          List.iter
            (fun r ->
              if not tainted_.(r) then begin
                tainted_.(r) <- true;
                newly := r :: !newly
              end)
            (Cfg.influence cfg_ b)
        end
      end
    done;
    if !newly <> [] then begin
      Dataflow.resume ~direction:`Forward ~succs ~preds ~boundary ~transfer facts
        ~dirty:(List.rev !newly);
      discover ()
    end
  in
  discover ();
  { cfg_; in_; divergent_; tainted_ }

let varying_at t ~at r = varying_before t.cfg_ t.in_ t.tainted_ ~at r
