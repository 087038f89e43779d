(* Host wall-clock benchmark of the Kernel Weaver simulator.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   One closed-loop client issues the workload's items (a query, or a
   6-request service batch) one after another for S seconds, always
   finishing at least one full pass. Every completed query's sinks are
   checked against the host reference evaluator, and the simulated
   statistics of every item are folded into a digest that must repeat
   exactly across passes and across runs with the same seed (stored under
   .perfbench/ in the working directory). The last line of standard
   output is the JSON result; with --trace 1 it carries the per-layer
   metrics of a traced run instead of the end-to-end ones. See
   perfbench/README.md. *)

open Relation_lib
open Weaver
module W = Workloads
module L = Layers

let now = L.now
let timed = L.timed

(* --- arguments --------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload adhoc_compile|serve_storm \
     --seed N --seconds S --trace 0|1 [--profile NAME]";
  exit 2

let args =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  tbl

let arg k = match Hashtbl.find_opt args k with Some v -> v | None -> usage ()

let int_arg k =
  match int_of_string_opt (arg k) with Some n -> n | None -> usage ()

let workload = match W.find (arg "workload") with Some w -> w | None -> usage ()
let seed = int_arg "seed"
let seconds = float_of_int (int_arg "seconds")

let trace =
  match arg "trace" with "0" -> false | "1" -> true | _ -> usage ()

let profile = Option.value ~default:"unknown" (Hashtbl.find_opt args "profile")

(* --- correctness ------------------------------------------------------------- *)

let has_float rel =
  let s = Relation.schema rel in
  List.exists (fun j -> Dtype.is_float (Schema.dtype s j)) (List.init (Schema.arity s) Fun.id)

let mismatches = ref 0

(* A completed query must leave no buffer behind and match the reference
   oracle: approximately for float schemas (f32 reassociation differs
   across schedules), as exact multisets otherwise. *)
let check (q : W.query) (r : Runtime.result) =
  let sinks = r.sinks in
  let ok =
    r.metrics.Metrics.leaks = []
    && List.length sinks = List.length q.expected
    && List.for_all
         (fun (id, want) ->
           match List.assoc_opt id sinks with
           | None -> false
           | Some got ->
               if has_float want then Relation.approx_equal want got
               else Relation.equal_multiset want got)
         q.expected
  in
  if not ok then begin
    incr mismatches;
    Printf.eprintf "perfbench: %s: output differs from the reference or leaked buffers\n%!"
      q.qname
  end;
  ok

(* --- simulated-statistics digest ---------------------------------------------- *)

let fnv h x = (h lxor x) * 0x100000001b3 land max_int

let sink_hash sinks =
  List.fold_left
    (fun h (id, rel) -> Array.fold_left fnv (fnv h id) (Relation.data rel))
    0x0bf29ce484222325 sinks

let metrics_key (m : Metrics.t) =
  Printf.sprintf "%h/%d/%d/%d/%d/%d/%d/%d/%d/%d/%d/%h" (Metrics.total_cycles m)
    m.Metrics.stats.Gpu_sim.Stats.instructions m.Metrics.launches m.Metrics.pcie_bytes
    m.Metrics.pcie_transfers m.Metrics.retries m.Metrics.fissions m.Metrics.demotions
    m.Metrics.faults_injected m.Metrics.corruptions m.Metrics.rollbacks
    m.Metrics.queue_wait_cycles

let result_key = function
  | Ok (r : Runtime.result) ->
      Printf.sprintf "ok:%s:%x" (metrics_key r.metrics) (sink_hash r.sinks)
  | Error (f : Runtime.failure) ->
      Printf.sprintf "failed:%s:%s" (metrics_key f.partial) (Gpu_sim.Fault.render f.fault)

let response_key (r : Service.response) =
  let v =
    match r.verdict with
    | Service.Completed res -> result_key (Ok res)
    | Service.Failed f -> result_key (Error f)
    | Service.Rejected _ -> "rejected"
  in
  Printf.sprintf "%d:%b:%b:%h:%s" r.rid (r.mode_used = Runtime.Streamed) r.hedged
    r.latency_cycles v

(* --- one item ---------------------------------------------------------------- *)

type outcome = {
  latency_s : float;
  submitted : int;
  ok : int;  (** completed with the reference's output *)
  answered : int;  (** [ok] plus typed storm verdicts ([storm_verdict]) *)
  instructions : int;
  cycles : float;
  key : string;  (** simulated statistics, for the digest *)
}

let instructions_of (m : Metrics.t) = m.Metrics.stats.Gpu_sim.Stats.instructions

let compile config (q : W.query) =
  match Driver.compile ~config q.plan with
  | p -> Ok p
  | exception Runtime.Execution_error f -> Error f

let query_outcome q latency_s result =
  let ok, m =
    match result with
    | Ok (Ok (r : Runtime.result)) ->
        ((if check q r then 1 else 0), Some r.metrics)
    | Ok (Error (f : Runtime.failure)) ->
        Printf.eprintf "perfbench: %s failed: %s\n%!" q.W.qname (Gpu_sim.Fault.render f.fault);
        (0, Some f.partial)
    | Error f ->
        Printf.eprintf "perfbench: %s did not compile: %s\n%!" q.W.qname (Gpu_sim.Fault.render f);
        (0, None)
  in
  {
    latency_s;
    submitted = 1;
    ok;
    answered = ok;
    instructions = Option.fold ~none:0 ~some:instructions_of m;
    cycles = Option.fold ~none:0. ~some:Metrics.total_cycles m;
    key =
      (match result with
      | Ok r -> result_key r
      | Error f -> "compile:" ^ Gpu_sim.Fault.render f);
  }

let run_query w q =
  let mode = W.mode w in
  timed (fun () ->
      Result.map (fun p -> Runtime.run_result p q.W.bases ~mode) (compile (W.config w) q))

let batch_requests w ~batch qs =
  List.mapi
    (fun i (q : W.query) ->
      let faults = Some (W.storm_spec ~seed ~batch ~request:i) in
      match compile (W.storm_config w ~faults) q with
      | Ok p ->
          Service.request ~mode:Runtime.Streamed ~integrity:true ~checkpoint:true ~rid:i p
            q.bases
      | Error f -> raise (Runtime.Execution_error f))
    qs

(* Under an injected storm the service owes each request either the right
   answer or a typed verdict that recovery ran out, with nothing leaked:
   such a request is answered, not failed (it still counts against
   completed_ratio). *)
let storm_verdict (f : Runtime.failure) =
  f.partial.Metrics.leaks = []
  &&
  match f.fault with
  | Gpu_sim.Fault.Recovery_exhausted _ | Gpu_sim.Fault.Budget_vetoed _ -> true
  | _ -> false

let batch_outcome qs latency_s (responses, _stats) =
  let per (q, (r : Service.response)) =
    match r.verdict with
    | Service.Completed res ->
        let ok = if check q res then 1 else 0 in
        (ok, ok, instructions_of res.metrics, Metrics.total_cycles res.metrics)
    | Service.Failed f ->
        let answered = if storm_verdict f then 1 else 0 in
        if answered = 0 then
          Printf.eprintf "perfbench: %s failed: %s\n%!" q.W.qname (Gpu_sim.Fault.render f.fault);
        (0, answered, instructions_of f.partial, Metrics.total_cycles f.partial)
    | Service.Rejected _ ->
        Printf.eprintf "perfbench: %s rejected\n%!" q.W.qname;
        (0, 0, 0, 0.)
  in
  let rows = List.map per (List.combine qs responses) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
  {
    latency_s;
    submitted = List.length qs;
    ok = sum (fun (o, _, _, _) -> o);
    answered = sum (fun (_, a, _, _) -> a);
    instructions = sum (fun (_, _, i, _) -> i);
    cycles = List.fold_left (fun a (_, _, _, c) -> a +. c) 0. rows;
    key = String.concat ";" (List.map response_key responses);
  }

let run_batch w ~batch qs =
  timed (fun () ->
      Service.run_batch ~config:W.service_config (batch_requests w ~batch qs))

let untraced_item w (pass : W.query list array) i =
  match (w.W.kind, pass.(i)) with
  | W.Serve_storm, qs ->
      let s, r = run_batch w ~batch:i qs in
      batch_outcome qs s r
  | W.Adhoc_compile, qs ->
      let q = List.hd qs in
      let s, r = run_query w q in
      query_outcome q s r

(* --- traced items ------------------------------------------------------------ *)

let layers = L.create ()

(* per distinct kernel: (instructions, gate-second samples) *)
let gate_table : (string, int * float list) Hashtbl.t = Hashtbl.create 64

let record_gate qname (c : L.compile_cost) =
  List.iter
    (fun (k : L.kernel_cost) ->
      let key = qname ^ "/" ^ k.kname in
      let samples = match Hashtbl.find_opt gate_table key with Some (_, l) -> l | None -> [] in
      Hashtbl.replace gate_table key (k.instrs, k.gate_s :: samples))
    c.kernels

let with_integrity (p : Runtime.program) integrity =
  { p with Runtime.config = { p.Runtime.config with Config.integrity } }

(* Clean requests in pairs, integrity verification on then off. *)
let integrity_pair (p : Runtime.program) bases ~mode =
  let on_s, on = timed (fun () -> Runtime.run_result p bases ~mode) in
  let off_s, _ = timed (fun () -> Runtime.run_result (with_integrity p false) bases ~mode) in
  (on_s, on_s -. off_s, on)

let traced_query w (q : W.query) =
  let acc = layers in
  let mode = W.mode w in
  let a0 = Gc.allocated_bytes () in
  let compile_s, prog = timed (fun () -> compile (W.config w) q) in
  let tr = L.tracer () in
  let run_s, result =
    timed (fun () -> Result.map (fun p -> Runtime.run_result ~trace:tr p q.bases ~mode) prog)
  in
  L.add acc "alloc_bytes" (Gc.allocated_bytes () -. a0);
  let o = query_outcome q (compile_s +. run_s) result in
  (match prog with
  | Error _ -> ()
  | Ok p ->
      let cost = L.compile_cost p in
      record_gate q.qname cost;
      L.add_compile acc cost;
      let untraced_s, integrity_s, _ = integrity_pair p q.bases ~mode in
      let probe_s, _ =
        timed (fun () ->
            Service.run_batch ~config:W.service_config
              [ Service.request ~mode ~rid:0 p q.bases ])
      in
      L.add acc "groups" (float_of_int (List.length p.Runtime.groups));
      L.add acc "integrity_s" integrity_s;
      L.add acc "service_probe_s" (probe_s -. untraced_s);
      L.add acc "traced_s" run_s;
      L.add acc "untraced_s" untraced_s);
  (match result with
  | Ok (Ok r) -> L.add_metrics acc r.metrics; L.add acc "clean_cycles" (Metrics.total_cycles r.metrics)
  | Ok (Error f) -> L.add_metrics acc f.partial
  | Error _ -> ());
  (* completed with a wrong answer: corruption that escaped detection *)
  (match result with
  | Ok (Ok _) when o.ok = 0 -> L.add acc "silent_corruptions" 1.
  | _ -> ());
  L.add acc "compile_s" compile_s;
  L.add acc "run_s" run_s;
  L.add acc "interp_s" (L.kernel_wall tr);
  L.add acc "wall_s" (compile_s +. run_s);
  L.add acc "queries" 1.;
  o

let traced_batch w ~batch qs =
  let acc = layers in
  let a0 = Gc.allocated_bytes () in
  let compile_s, requests = timed (fun () -> batch_requests w ~batch qs) in
  let tr = L.tracer () in
  let batch_s, ((responses, stats) as res) =
    timed (fun () -> Service.run_batch ~trace:tr ~config:W.service_config requests)
  in
  L.add acc "alloc_bytes" (Gc.allocated_bytes () -. a0);
  let o = batch_outcome qs (compile_s +. batch_s) res in
  let untraced_s, _ = timed (fun () -> Service.run_batch ~config:W.service_config requests) in
  let solo_s = ref 0. in
  List.iter2
    (fun (q : W.query) (rq : Service.request) ->
      let p = rq.Service.program in
      let s, _ =
        timed (fun () ->
            Runtime.run_result ~trace:(L.tracer ()) p q.bases ~mode:Runtime.Streamed)
      in
      solo_s := !solo_s +. s;
      let cost = L.compile_cost p in
      record_gate q.qname cost;
      L.add_compile acc cost;
      L.add acc "groups" (float_of_int (List.length p.Runtime.groups));
      let clean = { p with Runtime.config = { p.Runtime.config with Config.faults = None } } in
      let _, integrity_s, on = integrity_pair clean q.bases ~mode:Runtime.Streamed in
      L.add acc "integrity_s" integrity_s;
      match on with
      | Ok r -> L.add acc "clean_cycles" (Metrics.total_cycles r.metrics)
      | Error _ -> ())
    qs requests;
  let completed = ref 0 in
  List.iter
    (fun (r : Service.response) ->
      match r.verdict with
      | Service.Completed res -> incr completed; L.add_metrics acc res.metrics
      | Service.Failed f -> L.add_metrics acc f.partial
      | Service.Rejected _ -> ())
    responses;
  L.add acc "silent_corruptions" (float_of_int (!completed - o.ok));
  L.add acc "rejected" (float_of_int stats.Service.rejected);
  L.add acc "hedges" (float_of_int stats.Service.hedges);
  L.add acc "compile_s" compile_s;
  L.add acc "run_s" !solo_s;
  L.add acc "service_s" (batch_s -. !solo_s);
  L.add acc "interp_s" (L.kernel_wall tr);
  L.add acc "wall_s" (compile_s +. batch_s);
  L.add acc "traced_s" batch_s;
  L.add acc "untraced_s" untraced_s;
  L.add acc "queries" (float_of_int (List.length qs));
  o

let traced_item w (pass : W.query list array) i =
  match w.W.kind with
  | W.Serve_storm -> traced_batch w ~batch:i pass.(i)
  | W.Adhoc_compile -> traced_query w (List.hd pass.(i))

(* --- provenance --------------------------------------------------------------- *)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

let git_commit () =
  let read p = try Some (String.trim (read_file p)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_) with
      | Some c -> c
      | None ->
          Option.bind (read ".git/packed-refs") (fun s ->
              List.find_map
                (fun l ->
                  match String.split_on_char ' ' l with
                  | [ c; r ] when String.equal r ref_ -> Some c
                  | _ -> None)
                (String.split_on_char '\n' s))
          |> Option.value ~default:"unknown")
  | Some c -> c
  | None -> "unknown"

(* Content digest of the library sources: identifies the code measured
   when the checkout carries no git metadata. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  match files "lib" with
  | l -> Digest.to_hex (Digest.string (String.concat "\000" (List.map (fun p -> p ^ read_file p) l)))
  | exception Sys_error _ -> "unknown"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let provenance ~digest =
  let fields =
    [
      ("commit", json_string (git_commit ()));
      ("source_digest", json_string (source_digest ()));
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("build_profile", json_string profile);
      ("ocaml", json_string Sys.ocaml_version);
      ("workload", json_string workload.W.name);
      ("seed", string_of_int seed);
      ("seconds", json_number seconds);
      ("trace", string_of_bool trace);
      ("jobs", string_of_int workload.W.jobs);
      ("rows", string_of_int workload.W.rows);
      ("rounds", string_of_int workload.W.rounds);
      ("sim_digest", json_string digest);
    ]
  in
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

(* --- determinism guard -------------------------------------------------------- *)

(* Per-item digests must repeat across passes within this run and across
   runs with the same seed; earlier runs' digests live in the state file. *)
let state_file =
  Printf.sprintf ".perfbench/digests-%s-rows%d-rounds%d-seed%d.txt" workload.W.name
    workload.W.rows workload.W.rounds seed

let load_digests () =
  let tbl = Hashtbl.create 16 in
  (match read_file state_file with
  | s ->
      List.iter
        (fun l ->
          match String.split_on_char ' ' l with
          | [ i; d ] -> Option.iter (fun i -> Hashtbl.replace tbl i d) (int_of_string_opt i)
          | _ -> ())
        (String.split_on_char '\n' s)
  | exception Sys_error _ -> ());
  tbl

let save_digests tbl =
  (try Sys.mkdir ".perfbench" 0o755 with Sys_error _ -> ());
  let lines =
    Hashtbl.fold (fun i d acc -> (i, d) :: acc) tbl []
    |> List.sort compare
    |> List.map (fun (i, d) -> Printf.sprintf "%d %s\n" i d)
  in
  Out_channel.with_open_bin state_file (fun oc -> List.iter (output_string oc) lines)

(* --- statistics ---------------------------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let quantile q samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

(* The gate scaling table (every distinct kernel: static instructions
   against the median gate time) and the conservation line. *)
let print_layer_detail () =
  let rows =
    Hashtbl.fold (fun k (n, samples) acc -> (n, k, median samples) :: acc) gate_table []
    |> List.sort compare
  in
  Printf.printf "# gate scaling: %d distinct kernels (instructions, gate ms, ns/instr)\n"
    (List.length rows);
  List.iter
    (fun (n, k, s) ->
      Printf.printf "#   %6d %10.3f %8.1f  %s\n" n (1e3 *. s)
        (1e9 *. s /. float_of_int (max 1 n)) k)
    rows;
  let get = L.get layers in
  Printf.printf
    "# conservation (ms per item): wall %.3f = %s + unattributed %.3f\n"
    (1e3 *. get "wall_s" /. float_of_int (max 1 layers.L.items))
    (String.concat " + "
       (List.map
          (fun k -> Printf.sprintf "%s %.3f" k (1e3 *. get k /. float_of_int (max 1 layers.L.items)))
          L.conserved_layers))
    (1e3 *. L.unattributed_s layers /. float_of_int (max 1 layers.L.items))

(* --- main ---------------------------------------------------------------------- *)

let setup_repeats = 3

let () =
  (* the benchmark pins workers and storms itself; the environment must not *)
  Unix.putenv Gpu_sim.Fault_inject.env_var "";
  Unix.putenv "WEAVER_JOBS" "";
  let w = workload in
  (* setup: data generation, the reference oracle and a warm-up item, done
     [setup_repeats] times; setup_s is their median *)
  let pass = ref [||] in
  let setups =
    List.init setup_repeats (fun _ ->
        pass := [||];
        fst
          (timed (fun () ->
               pass := W.pass w ~seed;
               ignore (untraced_item w !pass 0))))
  in
  let pass = !pass in
  (* measure from a compacted heap, not from the setup's garbage *)
  Gc.compact ();
  let n_pass = Array.length pass in
  let item = if trace then traced_item w pass else untraced_item w pass in
  let stored = load_digests () in
  let divergent = ref [] in
  let outcomes = ref [] in
  let pass_keys = Buffer.create 256 in
  let t_start = now () in
  (* an untraced run covers the whole pass at least once and stops at a
     round boundary, so every query of the round weighs the same; a traced
     run (several executions per item) may stop after any item *)
  let round = W.round_length w in
  let rec loop i =
    let boundary = i > 0 && (trace || (i >= n_pass && i mod round = 0)) in
    if not (boundary && now () -. t_start >= seconds) then begin
      let idx = i mod n_pass in
      let o = item idx in
      let d = Digest.to_hex (Digest.string o.key) in
      (match Hashtbl.find_opt stored idx with
      | Some d' when not (String.equal d d') -> divergent := idx :: !divergent
      | Some _ -> ()
      | None -> Hashtbl.replace stored idx d);
      if i < n_pass then Buffer.add_string pass_keys d;
      outcomes := o :: !outcomes;
      loop (i + 1)
    end
  in
  loop 0;
  let outcomes = List.rev !outcomes in
  let digest = Digest.to_hex (Digest.string (Buffer.contents pass_keys)) in
  if !divergent <> [] then begin
    Printf.eprintf
      "perfbench: simulated statistics of %s item(s) %s differ from an earlier pass or run \
       with seed %d (%s); the simulation is not deterministic or the model changed\n%!"
      w.W.name
      (String.concat "," (List.map string_of_int (List.sort_uniq compare !divergent)))
      seed state_file;
    exit 1
  end;
  save_digests stored;
  let sumi f = List.fold_left (fun a o -> a + f o) 0 outcomes in
  let attempted = sumi (fun o -> o.submitted) in
  let ok = sumi (fun o -> o.ok) in
  let answered = sumi (fun o -> o.answered) in
  let busy_s = List.fold_left (fun a o -> a +. o.latency_s) 0. outcomes in
  let lat_ms = List.map (fun o -> 1e3 *. o.latency_s) outcomes in
  let first_pass = List.filteri (fun i _ -> i < n_pass) outcomes in
  layers.L.items <- List.length outcomes;
  let metrics =
    if trace then L.report layers
    else
      [
        ("setup_s", "s", median setups);
        ("queries_per_s", "1/s", float_of_int ok /. busy_s);
        ("latency_ms_p50", "ms", median lat_ms);
        ("latency_ms_p90", "ms", quantile 0.9 lat_ms);
        ( "sim_minstr_per_s", "Minstr/s",
          float_of_int (sumi (fun o -> o.instructions)) /. 1e6 /. busy_s );
        ("sim_kcycles", "kcycles", List.fold_left (fun a o -> a +. o.cycles) 0. first_pass /. 1e3);
        ("completed_ratio", "ratio", float_of_int ok /. float_of_int attempted);
        ( "peak_heap_mb", "MB",
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
      ]
  in
  Printf.printf "# provenance %s\n" (provenance ~digest);
  if trace then print_layer_detail ();
  Printf.printf "# %s: %d items (%d passes of %d), %d queries, %d ok, %d output mismatches\n"
    w.W.name (List.length outcomes) (List.length outcomes / n_pass) n_pass attempted ok !mismatches;
  List.iter (fun (k, u, v) -> Printf.printf "# %-28s %14.4f %s\n" k v u) metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!mismatches = 0) attempted (attempted - answered)
    (String.concat ", "
       (List.map
          (fun (k, u, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string k) (json_number v)
              (json_string u))
          metrics))
