open Gpu_sim

type block = {
  id : int;
  first : int;
  last : int;
  succs : int list;
  preds : int list;
  traps : bool;
}

type t = {
  k : Kir.kernel;
  blocks : block array;
  blk_of : int array;
  reach : bool array;
  preach : bool array;
  psuccs_ : int list array;
  ipd : int array;  (* pruned immediate post-dominator; nblocks = virtual exit *)
  barfree : Dataflow.Bits.t Lazy.t array;  (* per block: blocks reachable bar-free *)
  mark : int array;  (* [region]'s visited stamps *)
  mutable gen : int;
}

let kernel t = t.k
let nblocks t = Array.length t.blocks
let block t b = t.blocks.(b)
let block_of t i = t.blk_of.(i)
let reachable t b = t.reach.(b)
let preachable t b = t.preach.(b)
let psuccs t b = t.psuccs_.(b)
let ipd t b = t.ipd.(b)

(* Branch target as a body position; None when the label or its position
   is out of range (the analyzer must not crash on invalid kernels). *)
let target_pos (k : Kir.kernel) l =
  if l < 0 || l >= Array.length k.labels then None
  else
    let p = k.labels.(l) in
    if p < 0 || p >= Array.length k.body then None else Some p

let dfs nb start_ok succs =
  let seen = Array.make (max nb 1) false in
  let rec go b =
    if b < nb && not seen.(b) then begin
      seen.(b) <- true;
      List.iter go (succs b)
    end
  in
  if nb > 0 && start_ok then go 0;
  seen

let build (k : Kir.kernel) =
  let n = Array.length k.body in
  let leaders = Array.make (max n 1) false in
  if n > 0 then leaders.(0) <- true;
  Array.iteri
    (fun i (ins : Kir.instr) ->
      let fall () = if i + 1 < n then leaders.(i + 1) <- true in
      match ins with
      | Br l | Brz (_, l) | Brnz (_, l) ->
          (match target_pos k l with Some p -> leaders.(p) <- true | None -> ());
          fall ()
      | Bar | Ret | Trap _ -> fall ()
      | _ -> ())
    k.body;
  let starts = ref [] in
  for i = n - 1 downto 0 do
    if leaders.(i) then starts := i :: !starts
  done;
  let starts = Array.of_list !starts in
  let nb = Array.length starts in
  let blk_of = Array.make (max n 1) 0 in
  let bounds =
    Array.mapi
      (fun bi first ->
        let last = if bi + 1 < nb then starts.(bi + 1) - 1 else n - 1 in
        for i = first to last do
          blk_of.(i) <- bi
        done;
        (first, last))
      starts
  in
  let succs_of (_, last) =
    let fall () = if last + 1 < n then [ blk_of.(last + 1) ] else [] in
    let tgt l = match target_pos k l with Some p -> [ blk_of.(p) ] | None -> [] in
    match k.body.(last) with
    | Kir.Br l -> tgt l
    | Kir.Brz (_, l) | Kir.Brnz (_, l) ->
        let t = tgt l and f = fall () in
        t @ List.filter (fun b -> not (List.mem b t)) f
    | Kir.Ret | Kir.Trap _ -> []
    | _ -> fall ()
  in
  let succs = Array.map succs_of bounds in
  let preds = Array.make nb [] in
  Array.iteri (fun b ss -> List.iter (fun s -> preds.(s) <- b :: preds.(s)) ss) succs;
  let blocks =
    Array.mapi
      (fun bi (first, last) ->
        {
          id = bi;
          first;
          last;
          succs = succs.(bi);
          preds = List.rev preds.(bi);
          traps = (match k.body.(last) with Kir.Trap _ -> true | _ -> false);
        })
      bounds
  in
  let reach = dfs nb (nb > 0) (fun b -> blocks.(b).succs) in
  let psuccs_ =
    Array.map
      (fun b ->
        if b.traps then [] else List.filter (fun s -> not (blocks.(s).traps)) b.succs)
      blocks
  in
  let preach = dfs nb (nb > 0 && not blocks.(0).traps) (fun b -> psuccs_.(b)) in
  (* Immediate post-dominators on the pruned graph: Cooper–Harvey–Kennedy
     iterative dominators on its reverse, rooted at a virtual exit [nb]
     that succeeds every pruned-exit block. A block's predecessors in the
     reverse graph are its pruned successors (or the exit). *)
  let rpreds b = match psuccs_.(b) with [] -> [ nb ] | ss -> ss in
  let rsuccs = Array.make (nb + 1) [] in
  for b = nb - 1 downto 0 do
    if preach.(b) then List.iter (fun s -> rsuccs.(s) <- b :: rsuccs.(s)) (rpreds b)
  done;
  (* postorder numbers of the reverse graph; -1: cannot reach the exit *)
  let po = Array.make (nb + 1) (-1) and by_po = Array.make (nb + 1) nb in
  let seen = Array.make (nb + 1) false and count = ref 0 in
  let rec number v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter number rsuccs.(v);
      po.(v) <- !count;
      by_po.(!count) <- v;
      incr count
    end
  in
  number nb;
  let idom = Array.make (nb + 1) (-1) in
  idom.(nb) <- nb;
  let rec intersect a b =
    if a = b then a else if po.(a) < po.(b) then intersect idom.(a) b else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = !count - 2 downto 0 do
      let v = by_po.(i) in
      let d =
        List.fold_left
          (fun acc p -> if idom.(p) < 0 then acc else if acc < 0 then p else intersect p acc)
          (-1) (rpreds v)
      in
      if d <> idom.(v) then begin
        idom.(v) <- d;
        changed := true
      end
    done
  done;
  (* A block that cannot reach the exit (it is stuck in a loop) has no
     post-dominator. It gets what the greatest-fixpoint post-dominator
     sets give it, the strict post-dominator with the largest set, since
     its own set is every node: the lowest-numbered other block whose set
     is also full (unreachable or stuck), else the deepest block of the
     post-dominator tree (lowest id on ties), else the exit. *)
  let full p = (not preach.(p)) || po.(p) < 0 in
  let depth = Array.make (nb + 1) 1 in
  for i = !count - 2 downto 0 do
    let v = by_po.(i) in
    depth.(v) <- depth.(idom.(v)) + 1
  done;
  let lowest_full = ref [] (* the two lowest *) and deepest = ref nb in
  for p = nb - 1 downto 0 do
    if full p then lowest_full := p :: List.filteri (fun i _ -> i = 0) !lowest_full
    else if depth.(p) >= depth.(!deepest) then deepest := p
  done;
  let stuck_ipd b =
    match List.filter (fun p -> p <> b) !lowest_full with p :: _ -> p | [] -> !deepest
  in
  let ipd =
    Array.init nb (fun b ->
        if not preach.(b) then -1 else if po.(b) < 0 then stuck_ipd b else idom.(b))
  in
  (* Bar-free reachability on the full graph, one source block at a time
     and only for the blocks [may_concurrent] is asked about: edges out of
     a Bar-terminated block cross the barrier and are dropped. *)
  let bar_term b = match k.body.(blocks.(b).last) with Kir.Bar -> true | _ -> false in
  let barfree =
    Array.init nb (fun b0 ->
        lazy
          (let s = Dataflow.Bits.create nb in
           let rec go b =
             if not (Dataflow.Bits.get s b) then begin
               Dataflow.Bits.set s b;
               if not (bar_term b) then List.iter go blocks.(b).succs
             end
           in
           go b0;
           s))
  in
  { k; blocks; blk_of; reach; preach; psuccs_; ipd; barfree; mark = Array.make nb 0; gen = 0 }

let cond_target t b =
  let blk = t.blocks.(b) in
  match t.k.body.(blk.last) with
  | Kir.Brz (_, l) | Kir.Brnz (_, l) -> (
      match target_pos t.k l with Some p -> Some t.blk_of.(p) | None -> None)
  | _ -> None

(* Blocks reachable from any of [ss] along pruned edges without entering
   [stop], ascending. Visited blocks are stamped in [t.mark] with a fresh
   generation, so a call costs the size of the region, not of the CFG. *)
let region t ~stop ss =
  t.gen <- t.gen + 1;
  let g = t.gen and acc = ref [] in
  let rec go b =
    if b <> stop && t.mark.(b) <> g then begin
      t.mark.(b) <- g;
      acc := b :: !acc;
      List.iter go t.psuccs_.(b)
    end
  in
  List.iter go ss;
  List.sort Int.compare !acc

let influence t b =
  if not t.preach.(b) then []
  else
    match t.psuccs_.(b) with
    | _ :: _ :: _ as ss -> region t ~stop:t.ipd.(b) ss
    | _ -> []

(* [a \ b] over ascending lists *)
let rec diff a b =
  match (a, b) with
  | [], _ -> []
  | a, [] -> a
  | x :: a', y :: b' -> if x < y then x :: diff a' b else if x > y then diff a b' else diff a' b'

let one_sided t b =
  if not t.preach.(b) then None
  else
    let blk = t.blocks.(b) in
    match (t.k.body.(blk.last), t.psuccs_.(b), cond_target t b) with
    | ((Kir.Brz _ | Kir.Brnz _), [ s1; s2 ], Some tgt) when s1 <> s2 ->
        let fall = if s1 = tgt then s2 else s1 in
        let stop = t.ipd.(b) in
        let rt = region t ~stop [ tgt ] and rf = region t ~stop [ fall ] in
        let tgt_only = diff rt rf and fall_only = diff rf rt in
        let nonzero, zero =
          match t.k.body.(blk.last) with
          | Kir.Brz _ -> (fall_only, tgt_only)
          | _ -> (tgt_only, fall_only)
        in
        Some (nonzero, zero)
    | _ -> None

let may_concurrent t a b =
  Dataflow.Bits.get (Lazy.force t.barfree.(a)) b
  || Dataflow.Bits.get (Lazy.force t.barfree.(b)) a

let iter_instrs t f =
  Array.iter
    (fun blk ->
      if t.reach.(blk.id) then
        for i = blk.first to blk.last do
          f i t.k.body.(i)
        done)
    t.blocks
