(* The two workloads: their queries, sizes, configurations and seeds.

   Every input comes from the seeded [Tpch.Datagen] and [Patterns.gen];
   the datagen seed and every storm [rseed] are derived from the one
   workload seed given on the command line, so a seed names one set of
   inputs exactly. *)

open Relation_lib
open Weaver

type query = {
  qname : string;
  plan : Qplan.Plan.t;
  bases : Relation.t array;
  expected : (int * Relation.t) list;  (** [Reference.eval_sinks], from setup *)
}

type kind = Adhoc_compile | Serve_storm

type t = {
  name : string;
  kind : kind;
  jobs : int;  (** pinned: [WEAVER_JOBS] never changes what is measured *)
  rows : int;  (** rows per pattern input, and lineitems *)
  rounds : int;
      (** distinct datasets per pass: each round draws its own inputs *)
}

(* Why these two: adhoc_compile is compile-bound (layout, codegen, O3 and
   above all the analysis gate; the interpreter does little), serve_storm
   is recovery-bound (PCIe staging, certify/verify hashing, retries,
   rollbacks, service admission, two CTA workers). Each round draws fresh
   inputs because capacity retries, and the gate re-runs they cause,
   depend on the data: one dataset per run would make a seed's figures
   hinge on whether its data happens to overflow a tile. *)
let all =
  [
    { name = "adhoc_compile"; kind = Adhoc_compile; jobs = 1; rows = 1_000; rounds = 48 };
    { name = "serve_storm"; kind = Serve_storm; jobs = 2; rows = 2_000; rounds = 64 };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

(* splitmix64 finaliser: decorrelates the streams derived from one seed *)
let derive seed salt = Gpu_sim.Fault_inject.mix ((seed * 1_000_003) + salt) land 0x3fff_ffff

(* --- queries ------------------------------------------------------------- *)

let make qname plan bases =
  { qname; plan; bases; expected = Qplan.Reference.eval_sinks plan bases }

let pattern ~data ~rows (p : Tpch.Patterns.workload) =
  make p.Tpch.Patterns.name p.Tpch.Patterns.plan (p.Tpch.Patterns.gen ~seed:data ~rows)

let tpch ~db (q : Tpch.Queries.query) =
  make q.Tpch.Queries.qname q.Tpch.Queries.plan (q.Tpch.Queries.bind db)

let round_queries w ~data =
  let open Tpch in
  let rows = w.rows in
  let db = Datagen.generate ~seed:data ~lineitems:rows in
  match w.kind with
  | Adhoc_compile ->
      [ tpch ~db Queries.q1; tpch ~db Queries.q21; tpch ~db Queries.q21_semi ]
      @ List.map (pattern ~data ~rows)
          (Patterns.all ()
          @ Patterns.pattern_ab ()
            :: List.map
                 (fun selects -> Patterns.back_to_back_selects ~selects ~ratio:0.5)
                 [ 2; 8; 32 ])
  | Serve_storm ->
      (* cheap requests first: once they have completed, the hedge quantile
         is known and the two expensive TPC-H requests get hedged *)
      List.map (pattern ~data ~rows)
        Patterns.[ pattern_a (); pattern_e (); pattern_c (); pattern_b () ]
      @ [ tpch ~db Queries.q1; tpch ~db Queries.q21_semi ]

(* Items per round: twelve queries, or one batch. *)
let round_length w = match w.kind with Adhoc_compile -> 12 | Serve_storm -> 1

(* The pass: the items one closed-loop client issues in order. An
   adhoc_compile item is one query; a serve_storm item is one batch of
   the round's six queries. Round [r]'s data seed is derived from the
   workload seed. *)
let pass w ~seed =
  List.init w.rounds (fun r ->
      let qs = round_queries w ~data:(derive seed (r + 1)) in
      match w.kind with Adhoc_compile -> List.map (fun q -> [ q ]) qs | Serve_storm -> [ qs ])
  |> List.concat |> Array.of_list

(* --- configurations ------------------------------------------------------- *)

let config w = Config.with_jobs Config.default w.jobs

(* serve_storm: every request of a pass gets its own seeded storm; the
   same (seed, batch, request) always names the same storm. *)
let storm_spec ~seed ~batch ~request =
  Printf.sprintf
    "rseed@%d,alloc%%0.02,launch%%0.03,transfer%%0.03,transfer%%0.05:flip"
    (derive seed (1_000_000 + (100 * batch) + request))

let storm_config w ~faults =
  { (config w) with Config.retry_budget = Some 8; integrity = true; checkpoint = true; faults }

let service_config = { Service.default_config with Service.hedge_quantile = Some 0.9 }

let mode w = match w.kind with Serve_storm -> Runtime.Streamed | Adhoc_compile -> Runtime.Resident
