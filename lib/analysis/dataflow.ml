module Bits = struct
  (* 62 bits per [int] word: every word stays a non-negative OCaml int,
     so shifts and the popcount below never touch the sign bit. *)
  let bpw = 62

  type t = { words : int array; n : int }

  let create n = { words = Array.make ((n + bpw - 1) / bpw) 0; n }
  let length t = t.n
  let set t i = t.words.(i / bpw) <- t.words.(i / bpw) lor (1 lsl (i mod bpw))
  let clear t i = t.words.(i / bpw) <- t.words.(i / bpw) land lnot (1 lsl (i mod bpw))
  let get t i = t.words.(i / bpw) land (1 lsl (i mod bpw)) <> 0
  let copy t = { words = Array.copy t.words; n = t.n }

  let equal a b =
    let rec go w = w < 0 || (a.words.(w) = b.words.(w) && go (w - 1)) in
    a.n = b.n && go (Array.length a.words - 1)

  let clear_all t = Array.fill t.words 0 (Array.length t.words) 0

  let union_into ~dst src =
    let changed = ref false in
    for w = 0 to Array.length dst.words - 1 do
      let d = dst.words.(w) in
      let u = d lor src.words.(w) in
      if u <> d then begin
        changed := true;
        dst.words.(w) <- u
      end
    done;
    !changed

  let inter_into ~dst src =
    let changed = ref false in
    for w = 0 to Array.length dst.words - 1 do
      let d = dst.words.(w) in
      let u = d land src.words.(w) in
      if u <> d then begin
        changed := true;
        dst.words.(w) <- u
      end
    done;
    !changed

  let gen_kill ~gen ~kill src =
    { src with words = Array.mapi (fun w x -> gen.words.(w) lor (x land lnot kill.words.(w))) src.words }

  let iter f t =
    Array.iteri
      (fun w x ->
        let x = ref x and i = ref (w * bpw) in
        while !x <> 0 do
          if !x land 1 <> 0 then f !i;
          x := !x lsr 1;
          incr i
        done)
      t.words

  let popcount x =
    let rec go x c = if x = 0 then c else go (x land (x - 1)) (c + 1) in
    go x 0

  let count t = Array.fold_left (fun c x -> c + popcount x) 0 t.words
end

(* Visiting order: depth-first postorder of the blocks reachable from
   block 0 for [`Backward], reverse postorder for [`Forward], then the
   unreachable blocks in index order. *)
let order nblocks ~direction succs =
  let seen = Array.make nblocks false in
  let rpo = ref [] in
  let rec go b =
    if not seen.(b) then begin
      seen.(b) <- true;
      List.iter go (succs b);
      rpo := b :: !rpo
    end
  in
  if nblocks > 0 then go 0;
  let reached = match direction with `Forward -> !rpo | `Backward -> List.rev !rpo in
  Array.of_list (reached @ List.filter (fun b -> not seen.(b)) (List.init nblocks Fun.id))

(* The worklist is a priority queue over visiting ranks: [pop] returns the
   pending block of lowest rank, so a loop is iterated to its fixpoint
   before the blocks after it are revisited. All pending ranks are
   [>= cursor]. *)
type worklist = {
  by_rank : int array;
  rank : int array;
  pending : bool array;  (* by rank *)
  mutable cursor : int;
  mutable size : int;
}

let worklist nblocks ~direction succs =
  let by_rank = order nblocks ~direction succs in
  let rank = Array.make nblocks 0 in
  Array.iteri (fun r b -> rank.(b) <- r) by_rank;
  { by_rank; rank; pending = Array.make nblocks false; cursor = nblocks; size = 0 }

let push wl b =
  let r = wl.rank.(b) in
  if not wl.pending.(r) then begin
    wl.pending.(r) <- true;
    wl.size <- wl.size + 1;
    if r < wl.cursor then wl.cursor <- r
  end

let pop wl =
  while not wl.pending.(wl.cursor) do
    wl.cursor <- wl.cursor + 1
  done;
  wl.pending.(wl.cursor) <- false;
  wl.size <- wl.size - 1;
  wl.by_rank.(wl.cursor)

(* Forward problems join predecessors' out-facts into [in_] and transfer
   to [out]; backward problems keep the block-entry fact in [in_] and the
   joined successor facts in [out], so the roles of the two arrays swap. *)
let run (in_, out) ~dirty ~direction ~succs ~preds ~boundary ~transfer =
  let wl = worklist (Array.length in_) ~direction succs in
  List.iter (push wl) dirty;
  let joined, produced, join_edges, dependents =
    match direction with
    | `Forward -> (in_, out, preds, succs)
    | `Backward -> (out, in_, succs, preds)
  in
  let is_boundary b =
    match direction with `Forward -> b = 0 | `Backward -> succs b = []
  in
  while wl.size > 0 do
    let b = pop wl in
    let acc = joined.(b) in
    Bits.clear_all acc;
    if is_boundary b then ignore (Bits.union_into ~dst:acc boundary);
    List.iter (fun p -> ignore (Bits.union_into ~dst:acc produced.(p))) (join_edges b);
    let res = transfer b acc in
    if not (Bits.equal res produced.(b)) then begin
      produced.(b) <- res;
      List.iter (push wl) (dependents b)
    end
  done

let solve ~nblocks ~direction ~succs ~preds ~boundary ~transfer =
  let fresh () = Array.init nblocks (fun _ -> Bits.create (Bits.length boundary)) in
  let facts = (fresh (), fresh ()) in
  run facts ~dirty:(List.init nblocks Fun.id) ~direction ~succs ~preds ~boundary ~transfer;
  facts

let resume ~direction ~succs ~preds ~boundary ~transfer facts ~dirty =
  run facts ~dirty ~direction ~succs ~preds ~boundary ~transfer
