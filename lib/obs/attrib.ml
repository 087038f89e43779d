(* Operator-level cost attribution.

   This module is deliberately generic — it knows nothing about KIR,
   plans or the timing model. The GPU layer reduces a launch's
   per-instruction execution counts to a [sample] (per-operator event
   totals plus a modelled compute weight); the metrics layer folds
   samples into a [t] ledger, apportioning each launch's cycles.

   Conservation is exact by construction. Cycles are apportioned as
   integer units at [scale] per cycle: each launch contributes
   [round(total * scale)] units, split by largest-remainder between its
   operators (launch overhead goes to the pseudo-operator
   [overhead_op]). Integer sums are order-independent, so the ledger is
   bit-identical across worker counts, and the per-operator unit sums
   always equal the per-launch unit sums — no cycle is lost or counted
   twice. The float [fold_cycles] total is accumulated with the same
   in-order fold the metrics layer uses for its kernel-cycle sum, so the
   two match bit-for-bit. *)

let overhead_op = -1

let scale = 1 lsl 20
let scale_f = Float.of_int scale

let cycles_of_units u = Float.of_int u /. scale_f

(* One operator's share of one launch, as computed by the GPU layer. *)
type contrib = {
  c_instructions : int;
  c_weight : float;
      (* modelled thread-cycle weight: the compute-side split key *)
  c_global_bytes : int;  (* the bandwidth-side split key *)
  c_shared : int;
  c_atomics : int;
  c_barriers : int;
}

let zero_contrib =
  {
    c_instructions = 0;
    c_weight = 0.;
    c_global_bytes = 0;
    c_shared = 0;
    c_atomics = 0;
    c_barriers = 0;
  }

(* Per-launch evidence: (operator id, contribution), sorted by id. *)
type sample = (int * contrib) list

type row = {
  op : int;
  mutable launches : int;
  mutable instructions : int;
  mutable global_bytes : int;
  mutable shared_accesses : int;
  mutable atomics : int;
  mutable barriers : int;
  mutable units : int;  (* attributed cycles, scaled by [scale] *)
  mutable compute_units : int;
  mutable memory_units : int;
  mutable launch_units : int;
}

type t = {
  tbl : (int, row) Hashtbl.t;
  mutable total_units : int;
  mutable fold_cycles : float;
  mutable reports : int;
}

let create () =
  { tbl = Hashtbl.create 16; total_units = 0; fold_cycles = 0.; reports = 0 }

let row t op =
  match Hashtbl.find_opt t.tbl op with
  | Some r -> r
  | None ->
      let r =
        {
          op;
          launches = 0;
          instructions = 0;
          global_bytes = 0;
          shared_accesses = 0;
          atomics = 0;
          barriers = 0;
          units = 0;
          compute_units = 0;
          memory_units = 0;
          launch_units = 0;
        }
      in
      Hashtbl.replace t.tbl op r;
      r

(* Largest-remainder apportionment of [units] over positive float
   [weights] (op-id keyed). Quotas use float division, but the allocated
   shares are integers summing exactly to [units]; remainder seats go to
   the largest fractional parts, ties to the lowest op id — fully
   deterministic given deterministic weights. *)
let apportion units weights =
  let total_w = List.fold_left (fun a (_, w) -> a +. w) 0. weights in
  if total_w <= 0. || units <= 0 then []
  else begin
    let quotas =
      List.map
        (fun (op, w) ->
          let q = Float.of_int units *. w /. total_w in
          let base = int_of_float (Float.floor q) in
          (op, base, q -. Float.floor q))
        weights
    in
    let given = List.fold_left (fun a (_, b, _) -> a + b) 0 quotas in
    let left = units - given in
    (* seats by descending fractional part, op id ascending on ties;
       [quotas] is op-sorted so a stable sort keeps id order inside ties *)
    let order =
      List.stable_sort (fun (_, _, fa) (_, _, fb) -> Float.compare fb fa) quotas
    in
    let bonus = Hashtbl.create 8 in
    List.iteri (fun i (op, _, _) -> if i < left then Hashtbl.replace bonus op ()) order;
    List.map
      (fun (op, base, _) ->
        (op, base + if Hashtbl.mem bonus op then 1 else 0))
      quotas
  end

(* Fold one launch into the ledger. [total]/[compute]/[memory]/[launch]
   are the launch's modelled cycle components (total = launch +
   max compute memory). With an empty sample (a launch that executed
   nothing attributable), all work units land on the overhead row. *)
let add t ~total ~compute ~memory ~launch sample =
  t.fold_cycles <- t.fold_cycles +. total;
  t.reports <- t.reports + 1;
  let r_total = int_of_float (Float.round (total *. scale_f)) in
  let r_launch = min r_total (int_of_float (Float.round (launch *. scale_f))) in
  let work = r_total - r_launch in
  t.total_units <- t.total_units + r_total;
  let ov = row t overhead_op in
  ov.launch_units <- ov.launch_units + r_launch;
  ov.units <- ov.units + r_launch;
  let memory_bound = memory >= compute in
  let weights_by key =
    List.filter_map
      (fun (op, c) ->
        let w = key c in
        if w > 0. then Some (op, w) else None)
      sample
  in
  let mem_key c = Float.of_int c.c_global_bytes in
  let cmp_key c = c.c_weight in
  (* primary split key matches the launch's binding resource; fall back
     to the other key when the evidence has none of it (e.g. a modelled
     report with weights but no byte counts) *)
  let weights =
    match weights_by (if memory_bound then mem_key else cmp_key) with
    | [] -> weights_by (if memory_bound then cmp_key else mem_key)
    | w -> w
  in
  List.iter
    (fun (op, c) ->
      let r = row t op in
      r.launches <- r.launches + 1;
      r.instructions <- r.instructions + c.c_instructions;
      r.global_bytes <- r.global_bytes + c.c_global_bytes;
      r.shared_accesses <- r.shared_accesses + c.c_shared;
      r.atomics <- r.atomics + c.c_atomics;
      r.barriers <- r.barriers + c.c_barriers)
    sample;
  match apportion work weights with
  | [] ->
      (* nothing attributable: the work is overhead too *)
      ov.units <- ov.units + work;
      if memory_bound then ov.memory_units <- ov.memory_units + work
      else ov.compute_units <- ov.compute_units + work
  | shares ->
      List.iter
        (fun (op, u) ->
          let r = row t op in
          r.units <- r.units + u;
          if memory_bound then r.memory_units <- r.memory_units + u
          else r.compute_units <- r.compute_units + u)
        shares

let rows t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.tbl []
  |> List.sort (fun a b -> Int.compare a.op b.op)

let total_units t = t.total_units
let fold_cycles t = t.fold_cycles

let attributed_units t =
  Hashtbl.fold (fun _ r acc -> acc + r.units) t.tbl 0

(* the conservation law: every scaled cycle of every launch is on some row *)
let conserved t = attributed_units t = t.total_units

type roofline = Compute_bound | Bandwidth_bound | Overhead

let classify r =
  if r.op = overhead_op then Overhead
  else if r.memory_units > r.compute_units then Bandwidth_bound
  else Compute_bound

let roofline_name = function
  | Compute_bound -> "compute-bound"
  | Bandwidth_bound -> "bandwidth-bound"
  | Overhead -> "overhead"

(* What fusing a group saved versus materializing every internal edge:
   the paper's Fig. 18 accounting, recorded per executed fused group. *)
type counterfactual = {
  cf_group : string;
  cf_ops : int list;
  cf_edges : int;  (* internal producer->consumer edges fusion erased *)
  cf_rows : int;  (* estimated intermediate rows across those edges *)
  cf_bytes : int;
      (* intermediate traffic avoided: one write + one read per edge *)
  cf_round_trips : int;
      (* PCIe round-trips an unfused streamed plan would have spent *)
}
