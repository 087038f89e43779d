open Gpu_sim

type t = {
  cfg_ : Cfg.t;
  slot : int array;  (* instruction -> its definition's bit, or -1 *)
  ndefs : int;
  in_ : Dataflow.Bits.t array;
  def_sites_ : int list array;
  initialized_ : bool array;
}

let cfg t = t.cfg_
let def_sites t r = t.def_sites_.(r)
let initialized t r = t.initialized_.(r)

let compute cfg_ =
  let k = Cfg.kernel cfg_ in
  let n = Array.length k.Kir.body in
  let nregs = k.Kir.reg_count in
  let def_sites_ = Array.make (max nregs 1) [] in
  let slot = Array.make (max n 1) (-1) and ndefs = ref 0 in
  for i = n - 1 downto 0 do
    match Kir.defined_reg k.Kir.body.(i) with
    | Some d when d >= 0 && d < nregs ->
        def_sites_.(d) <- i :: def_sites_.(d);
        slot.(i) <- !ndefs;
        incr ndefs
    | _ -> ()
  done;
  let ndefs = !ndefs in
  let initialized_ =
    Array.init (max nregs 1) (fun r ->
        r < Kir.special_regs + k.Kir.params)
  in
  let nbits = ndefs + nregs in
  let boundary = Dataflow.Bits.create nbits in
  for r = 0 to nregs - 1 do
    Dataflow.Bits.set boundary (ndefs + r)
  done;
  let nb = Cfg.nblocks cfg_ in
  (* Per block, once: [gen] holds the block's last definition of each
     register it writes, [kill] every definition (and the entry
     pseudo-definition) of those registers, so the block's transfer is
     [out = gen ∪ (in \ kill)]. *)
  let gen_kill b =
    let gen = Dataflow.Bits.create nbits and kill = Dataflow.Bits.create nbits in
    let blk = Cfg.block cfg_ b in
    for i = blk.Cfg.last downto blk.Cfg.first do
      match Kir.defined_reg k.Kir.body.(i) with
      | Some d when d >= 0 && d < nregs && not (Dataflow.Bits.get kill (ndefs + d)) ->
          Dataflow.Bits.set gen slot.(i);
          List.iter (fun s -> Dataflow.Bits.set kill slot.(s)) def_sites_.(d);
          Dataflow.Bits.set kill (ndefs + d)
      | _ -> ()
    done;
    (gen, kill)
  in
  let gk = Array.init nb gen_kill in
  let transfer b facts =
    let gen, kill = gk.(b) in
    Dataflow.Bits.gen_kill ~gen ~kill facts
  in
  let in_, _out =
    Dataflow.solve ~nblocks:nb ~direction:`Forward
      ~succs:(fun b -> (Cfg.block cfg_ b).Cfg.succs)
      ~preds:(fun b -> (Cfg.block cfg_ b).Cfg.preds)
      ~boundary ~transfer
  in
  { cfg_; slot; ndefs; in_; def_sites_; initialized_ }

let reaching t ~at r =
  let k = Cfg.kernel t.cfg_ in
  let b = Cfg.block_of t.cfg_ at in
  let blk = Cfg.block t.cfg_ b in
  (* a definition of [r] earlier in the same block kills everything: the
     nearest one, found walking back from [at] *)
  let rec local i =
    if i < blk.Cfg.first then None
    else
      match Kir.defined_reg k.Kir.body.(i) with
      | Some d when d = r -> Some i
      | _ -> local (i - 1)
  in
  match local (at - 1) with
  | Some i -> ([ i ], false)
  | None ->
      let facts = t.in_.(b) in
      let sites = List.filter (fun s -> Dataflow.Bits.get facts t.slot.(s)) t.def_sites_.(r) in
      (sites, r < Dataflow.Bits.length facts - t.ndefs && Dataflow.Bits.get facts (t.ndefs + r))
