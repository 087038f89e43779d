open Gpu_sim

type access = {
  at : int;
  block : int;
  write : bool;
  atomic : bool;
  base : int option;  (* static base address; None = may-alias wildcard *)
  lin : Sym.lin;
  guards : Sym.node list;  (* singleton contexts enclosing the access *)
}

(* Singleton contexts: blocks executed only when [tid == u] for a
   uniform [u]; the guard node is [u]. *)
let singleton_guards cfg sym =
  let k = Cfg.kernel cfg in
  let nb = Cfg.nblocks cfg in
  let guards = Array.make (max nb 1) [] in
  for b = 0 to nb - 1 do
    if Cfg.preachable cfg b then begin
      let blk = Cfg.block cfg b in
      match k.Kir.body.(blk.Cfg.last) with
      | Kir.Brz (Kir.Reg c, _) | Kir.Brnz (Kir.Reg c, _) -> (
          let tree = Sym.operand sym ~at:blk.Cfg.last (Kir.Reg c) in
          let guard =
            match tree.Sym.sh with
            | Sym.Cmp (Kir.Eq, { Sym.sh = Sym.Tid; _ }, u) when Sym.uniform sym u ->
                Some u
            | Sym.Cmp (Kir.Eq, u, { Sym.sh = Sym.Tid; _ }) when Sym.uniform sym u ->
                Some u
            | _ -> None
          in
          match guard with
          | None -> ()
          | Some u -> (
              match Cfg.one_sided cfg b with
              | Some (nonzero, _zero) ->
                  List.iter (fun r -> guards.(r) <- u :: guards.(r)) nonzero
              | None -> ()))
      | _ -> ()
    end
  done;
  guards

let collect cfg sym =
  let k = Cfg.kernel cfg in
  let guards = singleton_guards cfg sym in
  let out = ref [] in
  for b = 0 to Cfg.nblocks cfg - 1 do
    if Cfg.preachable cfg b then begin
      let blk = Cfg.block cfg b in
      for i = blk.Cfg.first to blk.Cfg.last do
        let add ~write ~atomic base_op idx_op =
          let bn = Sym.operand sym ~at:i base_op in
          let base = match bn.Sym.sh with Sym.Const c -> Some c | _ -> None in
          let idx = Sym.operand sym ~at:i idx_op in
          out :=
            {
              at = i;
              block = b;
              write;
              atomic;
              base;
              lin = Sym.norm idx;
              guards = guards.(b);
            }
            :: !out
        in
        match k.Kir.body.(i) with
        | Kir.Ld { space = Kir.Shared; base; idx; _ } ->
            add ~write:false ~atomic:false base idx
        | Kir.St { space = Kir.Shared; base; idx; _ } ->
            add ~write:true ~atomic:false base idx
        | Kir.Atom { space = Kir.Shared; base; idx; _ } ->
            add ~write:true ~atomic:true base idx
        | _ -> ()
      done
    end
  done;
  List.rev !out

(* Exclusive-scan certificate for the array at base [p]: every write to
   it is either issued from a singleton context or is an own-affine
   slot write (scale >= 1, field offset within the stride), so its
   contents partition positions disjointly across threads. The shared
   arena is reused across fused segments, so the same base may also
   carry an earlier segment's own-range tile writes — those are
   per-thread disjoint too and must not void the certificate. *)
let scan_certified accesses sym p =
  List.for_all
    (fun a ->
      (not a.write) || a.base <> Some p || a.guards <> []
      ||
      match (a.lin.Sym.scale, Sym.classify sym a.lin.Sym.core, a.lin.Sym.off) with
      | s, Sym.COwn _, o when s >= 1 && o >= 0 && o < s -> true
      | _ -> false)
    accesses

let own_compatible sym l1 l2 =
  l1 = l2
  ||
  match (Sym.own_range sym l1, Sym.own_range sym l2) with
  | Some (s1, e1), Some (s2, e2) -> Sym.same s1 s2 && Sym.same e1 e2
  | _ -> false

let analyze cfg sym =
  let accesses = collect cfg sym in
  let arr = Array.of_list accesses in
  let n = Array.length arr in
  let certified = Hashtbl.create 8 in
  let is_certified p =
    match Hashtbl.find_opt certified p with
    | Some v -> v
    | None ->
        let v = scan_certified accesses sym p in
        Hashtbl.replace certified p v;
        v
  in
  let diags = ref [] in
  let report severity a b what =
    let d =
      Diag.make ~severity ~pass:"race" ~at:a.at
        "%s between shared accesses at %d and %d (base %s)" what a.at b.at
        (match a.base with
        | Some p -> string_of_int p
        | None -> (match b.base with Some p -> string_of_int p | None -> "?"))
    in
    diags := d :: !diags
  in
  let same_singleton a b =
    List.exists (fun g1 -> List.exists (fun g2 -> Sym.same g1 g2) b.guards) a.guards
  in
  let aligned a b = a.lin.Sym.scale = b.lin.Sym.scale && a.lin.Sym.scale > 0 in
  let stride_disjoint a b =
    aligned a b && abs (a.lin.Sym.off - b.lin.Sym.off) < a.lin.Sym.scale
  in
  (* only called on pairs whose bases are equal or unresolved *)
  let check a b =
    if not (a.write || b.write) then ()
    else if a.atomic && b.atomic then ()
    else if same_singleton a b then ()
    else if not (Cfg.may_concurrent cfg a.block b.block) then ()
    else if a.base = None || b.base = None then
      report Diag.Warn a b "possible race (unresolved base address)"
    else
      let ca = Sym.classify sym a.lin.Sym.core
      and cb = Sym.classify sym b.lin.Sym.core in
      match (ca, cb) with
      | Sym.CTid, Sym.CTid ->
          if not (stride_disjoint a b) then
            report Diag.Warn a b "possible race (tid slices overlap)"
      | Sym.CConst, Sym.CConst ->
          if a.lin.Sym.off = b.lin.Sym.off then
            report Diag.Error a b "race: multiple threads hit the same word"
      | Sym.COwn l1, Sym.COwn l2 ->
          if not (own_compatible sym l1 l2 && stride_disjoint a b) then
            report Diag.Warn a b "possible race (own-range slices do not line up)"
      | Sym.CScanPos p1, Sym.CScanPos p2 ->
          if not (p1 = p2 && is_certified p1 && stride_disjoint a b) then
            report Diag.Warn a b "possible race (scan positions not certified)"
      | Sym.CPosRank (p1, r1), Sym.CPosRank (p2, r2) ->
          let matched = (p1 = p2 && r1 = r2) || (p1 = r2 && r1 = p2) in
          if
            not
              (matched && is_certified p1 && is_certified r1 && stride_disjoint a b)
          then report Diag.Warn a b "possible race (merge position+rank not certified)"
      | Sym.CProd (o1, u1), Sym.CProd (o2, u2) ->
          if not (own_compatible sym o1 o2 && Sym.same u1 u2 && stride_disjoint a b)
          then report Diag.Warn a b "possible race (product index spaces differ)"
      | Sym.CUnif n1, Sym.CUnif n2 when Sym.same n1 n2 ->
          if a.lin.Sym.scale = b.lin.Sym.scale && a.lin.Sym.off = b.lin.Sym.off then
            report Diag.Error a b "race: multiple threads hit the same word"
      | _ -> report Diag.Warn a b "possible race (unrecognized address shapes)"
  in
  (* Accesses at distinct static bases never conflict, so an access with
     a static base is paired only with later accesses at the same base
     and with the unresolved ones. *)
  let by_base = Hashtbl.create 16 and unresolved = ref [] in
  for j = n - 1 downto 0 do
    match arr.(j).base with
    | Some p ->
        Hashtbl.replace by_base p
          (j :: Option.value ~default:[] (Hashtbl.find_opt by_base p))
    | None -> unresolved := j :: !unresolved
  done;
  for i = 0 to n - 1 do
    let a = arr.(i) in
    match a.base with
    | None ->
        for j = i to n - 1 do
          check a arr.(j)
        done
    | Some p ->
        let later j = if j >= i then check a arr.(j) in
        List.iter later (Hashtbl.find by_base p);
        List.iter later !unresolved
  done;
  List.rev !diags
