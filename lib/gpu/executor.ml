type launch_report = {
  kernel_name : string;
  grid : int;
  cta : int;
  occupancy : float;
  limiting_resource : string;
  stats : Stats.t;
  time : Timing.kernel_time;
  attrib : Weaver_obs.Attrib.sample;
}

module T = Weaver_obs.Trace
module A = Weaver_obs.Attrib

(* The one static classification of a KIR instruction. [charge t s ins
   part c] adds to [s] what [c] executions of [ins] count — every integer
   total passed through [part], which splits it between operators — and
   returns the cycles the cost model charges per execution on top of the
   ALU issue. *)
let charge (t : Timing.params) (s : Stats.t) (ins : Kir.instr) part c =
  s.instructions <- s.instructions + part c;
  match ins with
  | Mov _ | Bin _ | Un _ | Cmp _ | Sel _ ->
      s.alu_ops <- s.alu_ops + part c;
      0.
  | Br _ | Brz _ | Brnz _ ->
      s.branches <- s.branches + part c;
      0.
  | Ld { space = Global; width; _ } ->
      s.global_loads <- s.global_loads + part c;
      s.global_load_bytes <- s.global_load_bytes + part (c * width);
      t.global_latency_cycles
  | St { space = Global; width; _ } ->
      s.global_stores <- s.global_stores + part c;
      s.global_store_bytes <- s.global_store_bytes + part (c * width);
      t.global_latency_cycles
  | Ld { space = Shared; width; _ } ->
      s.shared_loads <- s.shared_loads + part c;
      s.shared_load_bytes <- s.shared_load_bytes + part (c * width);
      t.shared_access_cycles
  | St { space = Shared; width; _ } ->
      s.shared_stores <- s.shared_stores + part c;
      s.shared_store_bytes <- s.shared_store_bytes + part (c * width);
      t.shared_access_cycles
  | Atom _ ->
      s.atomics <- s.atomics + part c;
      t.atomic_cycles
  | Bar ->
      s.barrier_waits <- s.barrier_waits + part c;
      t.barrier_cycles
  | Ret | Trap _ -> 0.

(* Reduce a launch's per-pc execution counts to its Stats and its
   per-operator sample in one pass. Every count lands on the instruction's
   provenance set: each integer event total splits evenly across the set
   (remainders to the lowest op ids, the sets are sorted) and the modelled
   thread-cycle weight splits exactly. Untagged instructions accrue to the
   overhead pseudo-operator. A pure function of the merged counts, which
   are bit-identical across worker counts, so both results are too. *)
let reduce ?(timing = Timing.default_params) (k : Kir.kernel) counts =
  let total = Stats.create () in
  let per_op = Hashtbl.create 16 in
  let acc op =
    match Hashtbl.find_opt per_op op with
    | Some a -> a
    | None ->
        let a = (Stats.create (), ref 0.) in
        Hashtbl.replace per_op op a;
        a
  in
  let last = min (Array.length counts) (Array.length k.Kir.body) - 1 in
  for pc = 0 to last do
    let c = counts.(pc) in
    if c > 0 then begin
      let ins = k.Kir.body.(pc) in
      let extra = charge timing total ins Fun.id c in
      let ops =
        match Kir.prov_at k pc with [] -> [ A.overhead_op ] | l -> l
      in
      let nops = List.length ops in
      let w = float_of_int c *. (timing.alu_cycles +. extra) in
      let wf = w /. float_of_int nops in
      let split q i = (q / nops) + if i < q mod nops then 1 else 0 in
      List.iteri
        (fun i op ->
          let s, weight = acc op in
          ignore (charge timing s ins (fun q -> split q i) c);
          weight := !weight +. wf)
        ops
    end
  done;
  let sample =
    Hashtbl.fold
      (fun op ((s : Stats.t), weight) l ->
        ( op,
          {
            A.c_instructions = s.instructions;
            c_weight = !weight;
            c_global_bytes = Stats.global_bytes s;
            c_shared = s.shared_loads + s.shared_stores;
            c_atomics = s.atomics;
            c_barriers = s.barrier_waits;
          } )
        :: l)
      per_op []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  (total, sample)

let stats_of_counts k counts = fst (reduce k counts)
let attrib_sample ?timing k counts = snd (reduce ?timing k counts)

(* Top instruction counts folded into the launch span, so a trace subsumes
   a standalone per-pc profile. Counts are bit-identical across worker
   counts, so these args never break trace determinism. *)
let hot_args (k : Kir.kernel) counts =
  let indexed = Array.to_list (Array.mapi (fun i c -> (i, c)) counts) in
  let sorted = List.stable_sort (fun (_, a) (_, b) -> Int.compare b a) indexed in
  let rec take n = function
    | (i, c) :: rest when n > 0 && c > 0 ->
        (i, c) :: take (n - 1) rest
    | _ -> []
  in
  List.mapi
    (fun rank (i, c) ->
      ( Printf.sprintf "hot%d" rank,
        T.Str (Format.asprintf "%dx pc%d %a" c i Kir.pp_instr k.Kir.body.(i)) ))
    (take 3 sorted)

let launch ?timing ?max_instructions ?jobs ?(faults = Fault_inject.none)
    ?(cancel = Cancel.none) ?(trace = T.none) device mem
    (k : Kir.kernel) ~params ~grid ~cta =
  (match
     Device.validate_launch device ~cta_threads:cta
       ~shared_bytes:k.shared_bytes ~regs_per_thread:k.regs_per_thread
   with
  | Ok () -> ()
  | Error msg ->
      invalid_arg (Printf.sprintf "launch of %s rejected: %s" k.kname msg));
  Cancel.check cancel;
  let sp =
    if T.active trace then
      T.span trace ~lane:T.Kernel k.kname
        ~args:
          (if T.recording trace then [ ("grid", T.Int grid); ("cta", T.Int cta) ]
           else [])
    else T.no_span
  in
  (try Fault_inject.on_launch faults ~kernel:k.kname
   with e ->
     if T.active trace then begin
       T.instant trace ~lane:T.Kernel "launch_fault";
       T.close trace sp
     end;
     raise e);
  match
    let counts =
      Interp.run ?max_instructions ?jobs ~cancel ~trace mem k ~params ~grid
        ~cta
    in
    let stats, attrib = reduce ?timing k counts in
    let occupancy =
      Occupancy.occupancy device ~cta_threads:cta ~shared_bytes:k.shared_bytes
        ~regs_per_thread:k.regs_per_thread
    in
    let limiting_resource =
      Occupancy.limiting_resource device ~cta_threads:cta
        ~shared_bytes:k.shared_bytes ~regs_per_thread:k.regs_per_thread
    in
    let time = Timing.kernel_time ?params:timing device ~occupancy stats in
    ( counts,
      {
        kernel_name = k.kname;
        grid;
        cta;
        occupancy;
        limiting_resource;
        stats;
        time;
        attrib;
      } )
  with
  | exception e ->
      if T.active trace then begin
        (match e with
        | Fault.Error f ->
            T.instant trace ~lane:T.Kernel "trap"
              ~args:
                (if T.recording trace then [ ("detail", T.Str (Fault.render f)) ]
                 else [])
        | _ -> ());
        T.close trace sp
      end;
      raise e
  | counts, report ->
      if T.active trace then begin
        T.advance trace report.time.Timing.total_cycles;
        let args =
          if T.recording trace then
            ("occupancy", T.Float report.occupancy)
            :: ("instructions", T.Int report.stats.Stats.instructions)
            :: hot_args k counts
          else []
        in
        T.close trace sp ~args
      end;
      report

let total_cycles reports =
  List.fold_left (fun acc r -> acc +. r.time.Timing.total_cycles) 0.0 reports

let sum_stats reports =
  let acc = Stats.create () in
  List.iter (fun r -> Stats.add acc r.stats) reports;
  acc

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%s <<<%d, %d>>> occupancy %.2f (limited by %s)@ cycles: %.0f \
     (compute %.0f, memory %.0f, launch %.0f)@ %a@]"
    r.kernel_name r.grid r.cta r.occupancy r.limiting_resource
    r.time.Timing.total_cycles r.time.Timing.compute_cycles
    r.time.Timing.memory_cycles r.time.Timing.launch_cycles Stats.pp r.stats
