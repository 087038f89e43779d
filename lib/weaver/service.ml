open Gpu_sim
open Relation_lib
open Qplan

(* --- requests ------------------------------------------------------------- *)

type deadline = { cycles : float option; wall_s : float option }

type request = {
  rid : int;
  program : Runtime.program;
  bases : Relation.t array;
  mode : Runtime.mode;
  deadline : deadline;
  cancel : Cancel.t option;
  integrity : bool option;
  checkpoint : bool option;
}

let request ?deadline_cycles ?wall_deadline_s ?cancel ?(mode = Runtime.Resident)
    ?integrity ?checkpoint ~rid program bases =
  {
    rid;
    program;
    bases;
    mode;
    deadline = { cycles = deadline_cycles; wall_s = wall_deadline_s };
    cancel;
    integrity;
    checkpoint;
  }

(* --- verdicts ------------------------------------------------------------- *)

type rejection =
  | Queue_full of { limit : int }
  | Over_capacity of { footprint_bytes : int; capacity_bytes : int }
  | Overloaded of { level : string }

type verdict =
  | Completed of Runtime.result
  | Failed of Runtime.failure
  | Rejected of rejection

type response = {
  rid : int;
  verdict : verdict;
  mode_used : Runtime.mode;
  pre_demoted : bool;
  hedged : bool;
  footprint_bytes : int;
  latency_cycles : float;
}

type config = {
  queue_limit : int;
  admit_fraction : float;
  breaker_window : int;
  breaker_threshold : int;
  breaker_cooldown : int;
  hedge_quantile : float option;
  hedge_min_samples : int;
  brownout_window : int;
  brownout_threshold : int;
  shed_threshold : int;
  brownout_cooldown : int;
}

let default_config =
  {
    queue_limit = 16;
    admit_fraction = 0.5;
    breaker_window = 8;
    breaker_threshold = 3;
    breaker_cooldown = 4;
    hedge_quantile = None;
    hedge_min_samples = 4;
    brownout_window = 8;
    brownout_threshold = 3;
    shed_threshold = 6;
    brownout_cooldown = 3;
  }

type stats = {
  submitted : int;
  admitted : int;
  rejected : int;
  queue_rejections : int;
  capacity_rejections : int;
  shed_rejections : int;
  completed : int;
  failed : int;
  deadline_misses : int;
  cancelled : int;
  budget_vetoes : int;
  pre_demotions : int;
  runtime_demotions : int;
  breaker_trips : int;
  hedges : int;
  hedge_wins : int;
  hedge_losses : int;
  brownout_entries : int;
  shed_entries : int;
  corruptions_detected : int;
  rollbacks : int;
  checkpoints_taken : int;
  p50_latency_cycles : float;
  p95_latency_cycles : float;
  total_cycles : float;
  throughput_qps : float;
  wall_seconds : float;
}

(* --- admission: footprint estimation --------------------------------------

   The admission gate reuses the planner's cardinality assumptions (the
   same join_expansion / max_groups knobs Layout budgets with) to bound a
   query's device-memory demand BEFORE running it. It deliberately
   over-approximates: joins are budgeted at full expansion, filters at
   unit selectivity — admission must be safe, not tight. *)

let estimate_node_rows cfg plan bases =
  let base_rows = Array.map Relation.count bases in
  let node_rows = Array.make (Plan.node_count plan) 0 in
  let rows_of = function
    | Plan.Base i -> base_rows.(i)
    | Plan.Node i -> node_rows.(i)
  in
  List.iter
    (fun (n : Plan.node) ->
      let r =
        match (n.Plan.kind, n.Plan.inputs) with
        | ( ( Op.Select _ | Op.Project _ | Op.Arith _ | Op.Sort _
            | Op.Unique _ ),
            [ s ] ) ->
            rows_of s
        | Op.Join _, [ l; r ] ->
            max (rows_of l) (rows_of r) * cfg.Config.join_expansion
        | (Op.Semijoin _ | Op.Antijoin _), [ l; _ ] -> rows_of l
        | (Op.Intersect _ | Op.Difference _), [ l; _ ] -> rows_of l
        | Op.Product, [ l; r ] -> rows_of l * rows_of r
        | Op.Union _, [ l; r ] -> rows_of l + rows_of r
        | Op.Aggregate _, [ s ] -> min (rows_of s) cfg.Config.max_groups
        | _, inputs -> List.fold_left (fun a s -> a + rows_of s) 0 inputs
      in
      node_rows.(n.Plan.id) <- max 1 r)
    (Plan.nodes plan);
  (base_rows, node_rows)

let bytes_of_source plan base_rows node_rows src =
  let rows =
    match src with
    | Plan.Base i -> base_rows.(i)
    | Plan.Node i -> node_rows.(i)
  in
  rows * Schema.tuple_bytes (Plan.schema_of plan src)

(* Resident: every base and every intermediate may be live at once (the
   runtime frees aggressively, but admission budgets the worst case).
   Streamed: only one unit's inputs and outputs are device-resident at a
   time — the footprint is the largest working set. *)
let footprints (program : Runtime.program) bases =
  let cfg = program.Runtime.config in
  let plan = program.Runtime.plan in
  let base_rows, node_rows = estimate_node_rows cfg plan bases in
  let bos = bytes_of_source plan base_rows node_rows in
  let resident =
    Array.to_list (Array.mapi (fun i _ -> bos (Plan.Base i)) bases)
    @ List.map (fun (n : Plan.node) -> bos (Plan.Node n.Plan.id)) (Plan.nodes plan)
    |> List.fold_left ( + ) 0
  in
  let unit_io u =
    let ins, outs =
      match u with
      | Runtime.U_fused { ir; _ } ->
          ( Array.to_list
              (Array.map (fun (i : Fusion.input_info) -> i.source) ir.inputs),
            Array.to_list (Array.map fst ir.outputs) )
      | Runtime.U_sort { op_id; source; _ }
      | Runtime.U_unique { op_id; source; _ }
      | Runtime.U_aggregate { op_id; source; _ } ->
          ([ source ], [ op_id ])
    in
    List.fold_left (fun a s -> a + bos s) 0 ins
    + List.fold_left (fun a id -> a + bos (Plan.Node id)) 0 outs
  in
  let streamed =
    List.fold_left (fun a u -> max a (unit_io u)) 0 program.Runtime.units
  in
  (resident, streamed)

(* --- circuit breakers ------------------------------------------------------

   One breaker per fault site. A breaker watches the last [breaker_window]
   executions touching its site; [breaker_threshold] failures inside the
   window trip it for [breaker_cooldown] admissions. While the memory or
   capacity breaker is open, new Resident queries are admitted pre-demoted
   to Streamed — shedding device-memory pressure instead of letting every
   queued query re-discover the same OOM. *)

type site = Site_memory | Site_capacity | Site_transfer

let rec site_of_fault = function
  | Fault.Alloc_failure _ -> Some Site_memory
  | Fault.Capacity_trap _ -> Some Site_capacity
  | Fault.Transfer_failure _ -> Some Site_transfer
  | Fault.Recovery_exhausted { last; _ } -> site_of_fault last
  | _ -> None

type breaker = {
  mutable window : bool list;  (** newest first; [true] = failure *)
  mutable open_for : int;  (** admissions until the breaker half-closes *)
  mutable trips : int;
}

let site_name = function
  | Site_memory -> "memory"
  | Site_capacity -> "capacity"
  | Site_transfer -> "transfer"

(* Returns [true] iff this observation tripped the breaker, so the caller
   can emit the trip on its trace/registry. *)
let record cfg b failed =
  b.window <- failed :: b.window;
  if List.length b.window > cfg.breaker_window then
    b.window <-
      List.filteri (fun i _ -> i < cfg.breaker_window) b.window;
  let failures = List.length (List.filter Fun.id b.window) in
  if b.open_for = 0 && failures >= cfg.breaker_threshold then begin
    b.trips <- b.trips + 1;
    b.open_for <- cfg.breaker_cooldown;
    b.window <- [];
    true
  end
  else false

let is_open b = b.open_for > 0

let tick_cooldown b = if b.open_for > 0 then b.open_for <- b.open_for - 1

(* --- the brownout degradation ladder ---------------------------------------
   (DESIGN.md §13)

   A three-level controller sits above the per-site breakers and watches
   system-wide pressure: a sliding window of pressure marks (one per
   execution outcome — failure or not — plus one per breaker trip and one
   per deep-queue admission). Escalation is immediate; de-escalation has
   hysteresis, so the ladder never flaps:

     Normal   -- marks >= brownout_threshold --> Brownout
     any      -- marks >= shed_threshold     --> Shed

     Brownout -- brownout_cooldown consecutive within-deadline
                 completions --> Normal
     Shed     -- after brownout_cooldown shed admissions --> Brownout
                 (duty-cycle shedding: reject a burst, then probe again
                 in the degraded Brownout mode)

   Brownout forces every admitted query to Streamed (minimum-footprint
   execution) and disables hedging (no speculative extra load). Shed
   rejects new work outright with a typed [Overloaded] verdict that costs
   zero device cycles — backpressure is an answer, not an error. *)

type level = Normal | Brownout | Shed

let level_name = function
  | Normal -> "normal"
  | Brownout -> "brownout"
  | Shed -> "shed"

let level_index = function Normal -> 0 | Brownout -> 1 | Shed -> 2

type controller = {
  mutable level : level;
  mutable marks : bool list;  (** newest first; [true] = pressure *)
  mutable good_streak : int;  (** consecutive clean completions *)
  mutable shed_left : int;  (** Shed: admissions left before probing *)
  mutable brownout_entries : int;
  mutable shed_entries : int;
}

(* --- the batch front end --------------------------------------------------- *)

let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.0
  | n ->
      let rank =
        int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1
      in
      sorted.(max 0 (min (n - 1) rank))

let run_batch ?(config = default_config) ?(trace = Weaver_obs.Trace.none)
    ?registry requests =
  let module T = Weaver_obs.Trace in
  let module R = Weaver_obs.Registry in
  let t_wall0 = Unix.gettimeofday () in
  (* arrival time of the whole batch on the tracer's simulated clock; the
     runtime advances that clock as queries execute, so a request's
     Queue-lane span stretches from here to the moment it starts *)
  let t_arrival = T.cycles trace in
  let reg_inc name = Option.iter (fun r -> R.inc r name) registry in
  let reg_observe name v = Option.iter (fun r -> R.observe r name v) registry in
  (* Per-operator attribution histograms. One labeled series per plan
     operator (plus the overhead pseudo-row), pre-registered across the
     whole batch so the scrape schema is stable before any request
     finishes; each completed or failed request then lands one sample
     per operator — its attributed cycles for that request. *)
  let module A = Weaver_obs.Attrib in
  let op_series op =
    R.labeled "weaver_op_cycles"
      [ ("op", if op = A.overhead_op then "overhead" else string_of_int op) ]
  in
  Option.iter
    (fun r ->
      R.pre_register r;
      R.declare_histogram r (op_series A.overhead_op);
      List.iter
        (fun (req : request) ->
          List.iter
            (fun (n : Plan.node) -> R.declare_histogram r (op_series n.Plan.id))
            (Plan.nodes req.program.Runtime.plan))
        requests)
    registry;
  let observe_attrib (m : Metrics.t) =
    Option.iter
      (fun r ->
        List.iter
          (fun (row : A.row) ->
            R.observe r (op_series row.A.op)
              (A.cycles_of_units row.A.units))
          (A.rows (Metrics.attribution m)))
      registry
  in
  (* dashboards alert on the dedicated rejection/overload counters, so
     they must be present in the dump even when zero: touch them up front *)
  Option.iter
    (fun r ->
      List.iter
        (fun n -> R.inc ~by:0.0 r n)
        [
          "weaver_service_rejected_queue_full_total";
          "weaver_service_rejected_over_capacity_total";
          "weaver_service_rejected_shed_total";
          "weaver_service_budget_vetoes_total";
          "weaver_service_hedges_total";
          "weaver_service_hedge_wins_total";
          "weaver_service_hedge_losses_total";
          "weaver_service_brownout_transitions_total";
          "weaver_service_corruptions_detected_total";
          "weaver_service_rollbacks_total";
          "weaver_service_checkpoints_total";
        ])
    registry;
  let breakers =
    List.map
      (fun site -> (site, { window = []; open_for = 0; trips = 0 }))
      [ Site_memory; Site_capacity; Site_transfer ]
  in
  let breaker site = List.assq site breakers in
  (* returns how many breakers this observation tripped, so the caller can
     feed the trips to the brownout controller as pressure marks *)
  let observe_breakers failed_site =
    List.fold_left
      (fun trips (site, b) ->
        if record config b (failed_site = Some site) then begin
          reg_inc "weaver_service_breaker_trips_total";
          T.instant trace ~lane:T.Service "breaker_trip"
            ~args:[ ("site", T.Str (site_name site)) ];
          trips + 1
        end
        else trips)
      0 breakers
  in
  (* the service clock: cumulative simulated cycles across the batch (one
     device, queries run back to back; arrival is t=0 for the whole batch,
     so a query's latency is the clock when it finishes) *)
  let clock = ref 0.0 in
  let sim_seconds = ref 0.0 in
  let submitted = ref 0 and admitted = ref 0 and rejected = ref 0 in
  let queue_rejections = ref 0
  and capacity_rejections = ref 0
  and shed_rejections = ref 0 in
  let completed = ref 0 and failed = ref 0 in
  let deadline_misses = ref 0 and cancelled = ref 0 in
  let budget_vetoes = ref 0 in
  let pre_demotions = ref 0 and runtime_demotions = ref 0 in
  let hedges = ref 0 and hedge_wins = ref 0 and hedge_losses = ref 0 in
  let corruptions = ref 0 and rollbacks = ref 0 and checkpoints_taken = ref 0 in
  (* integrity/rollback aggregates ride on the per-run metrics of both
     completed and failed executions *)
  let account_integrity (m : Metrics.t) =
    corruptions := !corruptions + m.Metrics.corruptions;
    rollbacks := !rollbacks + m.Metrics.rollbacks;
    checkpoints_taken := !checkpoints_taken + m.Metrics.checkpoints;
    Option.iter
      (fun reg ->
        R.inc ~by:(float_of_int m.Metrics.corruptions) reg
          "weaver_service_corruptions_detected_total";
        R.inc ~by:(float_of_int m.Metrics.rollbacks) reg
          "weaver_service_rollbacks_total";
        R.inc ~by:(float_of_int m.Metrics.checkpoints) reg
          "weaver_service_checkpoints_total")
      registry
  in
  let latencies = ref [] in
  (* per-request execution costs of completed queries, for the hedging
     threshold. Kept exactly (not bucketed) so the hedge decision is
     bit-deterministic and identical with or without a registry attached;
     the [weaver_service_exec_cycles] histogram mirrors it for scraping. *)
  let exec_history = ref [] in
  let ctl =
    {
      level = Normal;
      marks = [];
      good_streak = 0;
      shed_left = 0;
      brownout_entries = 0;
      shed_entries = 0;
    }
  in
  let set_level newl ~why =
    if newl <> ctl.level then begin
      (match newl with
      | Brownout -> ctl.brownout_entries <- ctl.brownout_entries + 1
      | Shed -> ctl.shed_entries <- ctl.shed_entries + 1
      | Normal -> ());
      T.instant trace ~lane:T.Service "brownout_level"
        ~args:
          [
            ("from", T.Str (level_name ctl.level));
            ("to", T.Str (level_name newl));
            ("why", T.Str why);
          ];
      reg_inc "weaver_service_brownout_transitions_total";
      Option.iter
        (fun reg ->
          R.set_gauge reg "weaver_service_brownout_level"
            (float_of_int (level_index newl)))
        registry;
      ctl.level <- newl
    end
  in
  (* push one pressure mark and run the escalation rules *)
  let mark ~why bad =
    ctl.marks <-
      List.filteri (fun i _ -> i < config.brownout_window - 1) ctl.marks
      |> List.cons bad;
    if bad then ctl.good_streak <- 0
    else ctl.good_streak <- ctl.good_streak + 1;
    let score = List.length (List.filter Fun.id ctl.marks) in
    match ctl.level with
    | Shed -> ()
    | _ when score >= config.shed_threshold ->
        set_level Shed ~why;
        ctl.shed_left <- max 1 config.brownout_cooldown;
        ctl.marks <- []
    | Normal when score >= config.brownout_threshold ->
        set_level Brownout ~why
    | Brownout when (not bad) && ctl.good_streak >= config.brownout_cooldown ->
        set_level Normal ~why:"recovered";
        ctl.marks <- []
    | _ -> ()
  in
  let total_requests = List.length requests in
  let respond (r : request) verdict ~mode_used ~pre_demoted ~hedged
      ~footprint_bytes =
    {
      rid = r.rid;
      verdict;
      mode_used;
      pre_demoted;
      hedged;
      footprint_bytes;
      latency_cycles = !clock;
    }
  in
  let execute queue_index (r : request) =
    incr submitted;
    reg_inc "weaver_service_submitted_total";
    (* backpressure: one query is running, at most [queue_limit] wait *)
    if queue_index > config.queue_limit then begin
      incr rejected;
      incr queue_rejections;
      reg_inc "weaver_service_rejected_total";
      reg_inc "weaver_service_rejected_queue_full_total";
      T.instant trace ~lane:T.Service "reject"
        ~args:[ ("rid", T.Int r.rid); ("why", T.Str "queue_full") ];
      respond r
        (Rejected (Queue_full { limit = config.queue_limit }))
        ~mode_used:r.mode ~pre_demoted:false ~hedged:false ~footprint_bytes:0
    end
    else begin
      (* a deep queue is pressure even before anything fails: feed the
         controller so sustained backlog browns the service out early *)
      let waiting = total_requests - queue_index - 1 in
      if waiting > config.queue_limit * 3 / 4 then
        mark ~why:"queue_depth" true;
      if ctl.level = Shed then begin
        (* the ladder's top rung: reject outright, zero cycles spent *)
        incr rejected;
        incr shed_rejections;
        reg_inc "weaver_service_rejected_total";
        reg_inc "weaver_service_rejected_shed_total";
        T.instant trace ~lane:T.Service "reject"
          ~args:[ ("rid", T.Int r.rid); ("why", T.Str "shed") ];
        ctl.shed_left <- ctl.shed_left - 1;
        if ctl.shed_left <= 0 then begin
          (* probe again at the Brownout rung with a clean window *)
          ctl.marks <- [];
          ctl.good_streak <- 0;
          set_level Brownout ~why:"shed_probe"
        end;
        respond r
          (Rejected (Overloaded { level = level_name Shed }))
          ~mode_used:r.mode ~pre_demoted:false ~hedged:false
          ~footprint_bytes:0
      end
      else begin
      let resident_b, streamed_b = footprints r.program r.bases in
      let capacity =
        r.program.Runtime.config.Config.device.Device.global_mem_bytes
      in
      let budget =
        int_of_float (config.admit_fraction *. float_of_int capacity)
      in
      let shedding =
        is_open (breaker Site_memory)
        || is_open (breaker Site_capacity)
        (* Brownout: every admission runs at minimum footprint *)
        || ctl.level = Brownout
      in
      List.iter (fun (_, b) -> tick_cooldown b) breakers;
      let mode, pre_demoted =
        match r.mode with
        | Runtime.Streamed -> (Runtime.Streamed, false)
        | Runtime.Resident when resident_b > budget || shedding ->
            (Runtime.Streamed, true)
        | Runtime.Resident -> (Runtime.Resident, false)
      in
      let footprint_bytes =
        match mode with Runtime.Resident -> resident_b | Runtime.Streamed -> streamed_b
      in
      if streamed_b > capacity then begin
        (* not even one working set fits: no mode can run this *)
        incr rejected;
        incr capacity_rejections;
        reg_inc "weaver_service_rejected_total";
        reg_inc "weaver_service_rejected_over_capacity_total";
        T.instant trace ~lane:T.Service "reject"
          ~args:[ ("rid", T.Int r.rid); ("why", T.Str "over_capacity") ];
        respond r
          (Rejected
             (Over_capacity
                { footprint_bytes = streamed_b; capacity_bytes = capacity }))
          ~mode_used:mode ~pre_demoted ~hedged:false ~footprint_bytes
      end
      else begin
        incr admitted;
        reg_inc "weaver_service_admitted_total";
        Option.iter
          (fun reg ->
            R.set_gauge reg "weaver_service_queue_depth"
              (float_of_int queue_index))
          registry;
        if pre_demoted then begin
          incr pre_demotions;
          reg_inc "weaver_service_pre_demotions_total";
          T.instant trace ~lane:T.Service "pre_demotion"
            ~args:[ ("rid", T.Int r.rid) ]
        end;
        (* per-request deadline overrides ride on the program config; a
           request without its own deadline keeps the program's *)
        let cfg0 = r.program.Runtime.config in
        let cfg1 =
          {
            cfg0 with
            Config.deadline_cycles =
              (match r.deadline.cycles with
              | Some _ as d -> d
              | None -> cfg0.Config.deadline_cycles);
            wall_deadline_s =
              (match r.deadline.wall_s with
              | Some _ as d -> d
              | None -> cfg0.Config.wall_deadline_s);
            integrity =
              Option.value r.integrity ~default:cfg0.Config.integrity;
            checkpoint =
              (* the degradation ladder sheds the checkpoint ledger's
                 host-memory and PCIe cost before it sheds work: above
                 Normal, checkpointing is off regardless of the request *)
              (if ctl.level <> Normal then false
               else Option.value r.checkpoint ~default:cfg0.Config.checkpoint);
          }
        in
        let cancel = Option.value r.cancel ~default:Cancel.none in
        let device = cfg1.Config.device in
        let charge cycles =
          clock := !clock +. cycles;
          sim_seconds := !sim_seconds +. Timing.cycles_to_seconds device cycles
        in
        (* Hedging (DESIGN.md §13): once enough completions exist, cap the
           primary attempt at the configured quantile of observed
           execution costs. A primary that outlives the cap is declared
           the loser — its token is cancelled (first-completion-wins
           bookkeeping on the existing Cancel machinery) — and a backup is
           issued as the minimum-footprint Streamed variant with whatever
           deadline budget remains. Deterministic: the cap compares
           simulated cycles, never the host clock. Disabled outside
           Normal (speculative extra load is the last thing a browned-out
           service needs). *)
        let dl = cfg1.Config.deadline_cycles in
        let hedge_cap =
          match (config.hedge_quantile, ctl.level) with
          | Some q, Normal
            when List.length !exec_history >= config.hedge_min_samples -> (
              let sorted = Array.of_list !exec_history in
              Array.sort Float.compare sorted;
              let h = percentile sorted (q *. 100.0) in
              if h <= 0.0 then None
              else
                match dl with
                | Some d when h >= d -> None (* real deadline fires first *)
                | _ -> Some h)
          | _ -> None
        in
        (* everything before this point was waiting behind earlier
           queries: one Queue-lane span from batch arrival to start *)
        let queue_wait_cycles = !clock in
        (let qs =
           T.span trace ~lane:T.Queue ~start:t_arrival
             (Printf.sprintf "wait:rid%d" r.rid)
         in
         T.close trace qs);
        reg_observe "weaver_service_queue_wait_cycles" queue_wait_cycles;
        (* even when the caller passed no tracer, run each query over a
           recorder-only tracer so a failure still carries its trail *)
        let rtrace =
          if T.active trace then trace else T.create ~events:false ()
        in
        let ss = T.span trace ~lane:T.Service (Printf.sprintf "rid%d" r.rid) in
        let close_service verdict =
          let args =
            if T.recording trace then
              [
                ("verdict", T.Str verdict);
                ( "mode",
                  T.Str
                    (match mode with
                    | Runtime.Resident -> "resident"
                    | Runtime.Streamed -> "streamed") );
              ]
            else []
          in
          T.close trace ss ~args
        in
        let stamp (m : Metrics.t) =
          { m with Metrics.queue_wait_cycles; service = true }
        in
        let run_with ~cancel cfg mode =
          Runtime.run_result ~cancel ~trace:rtrace
            { r.program with Runtime.config = cfg }
            r.bases ~mode
        in
        (* the primary gets its own token when hedging is armed, so the
           loser can be cancelled without aborting the backup; the
           client's token is forwarded through a watchdog *)
        let pcancel =
          match hedge_cap with
          | None -> cancel
          | Some _ ->
              let t = Cancel.create () in
              (match r.cancel with
              | Some client ->
                  Cancel.add_watchdog t (fun () -> Cancel.cancelled client)
              | None -> ());
              t
        in
        let primary_cfg =
          match hedge_cap with
          | Some h -> { cfg1 with Config.deadline_cycles = Some h }
          | None -> cfg1
        in
        let outcome =
          match run_with ~cancel:pcancel primary_cfg mode with
          | Ok res -> Ok (res, false)
          | Error pf -> (
              (* A hedged primary's only cycle deadline is the cap, which
                 is strictly smaller than the real one: it lost to the cap
                 when it outlived it, or when its recovery gate vetoed an
                 attempt that could not finish inside it. *)
              let lost_to_cap h = function
                | Fault.Deadline_exceeded
                    { kind = Fault.Deadline_cycles; limit; _ } ->
                    limit = h
                | Fault.Budget_vetoed
                    { reason = Fault.Deadline_too_close _; _ } ->
                    true
                | _ -> false
              in
              match hedge_cap with
              | Some h when lost_to_cap h pf.Runtime.fault ->
                  (* declare the primary the loser, charge its cycles,
                     issue the backup *)
                  incr hedges;
                  reg_inc "weaver_service_hedges_total";
                  T.instant trace ~lane:T.Service "hedge_issue"
                    ~args:
                      [ ("rid", T.Int r.rid); ("cap_cycles", T.Float h) ];
                  Cancel.cancel pcancel
                    (Fault.Cancelled { reason = "hedge loser" });
                  let spent = Metrics.total_cycles pf.Runtime.partial in
                  charge spent;
                  let backup_cfg =
                    {
                      cfg1 with
                      Config.deadline_cycles =
                        Option.map (fun d -> d -. spent) dl;
                    }
                  in
                  (match run_with ~cancel backup_cfg Runtime.Streamed with
                  | Ok res ->
                      incr hedge_wins;
                      reg_inc "weaver_service_hedge_wins_total";
                      T.instant trace ~lane:T.Service "hedge_win"
                        ~args:[ ("rid", T.Int r.rid) ];
                      Ok (res, true)
                  | Error bf ->
                      incr hedge_losses;
                      reg_inc "weaver_service_hedge_losses_total";
                      T.instant trace ~lane:T.Service "hedge_loss"
                        ~args:[ ("rid", T.Int r.rid) ];
                      Error (bf, true))
              | _ -> Error (pf, false))
        in
        match outcome with
        | Ok (res, hedged) ->
            let res =
              { res with Runtime.metrics = stamp res.Runtime.metrics }
            in
            incr completed;
            reg_inc "weaver_service_completed_total";
            let cycles = Metrics.total_cycles res.Runtime.metrics in
            charge cycles;
            exec_history := cycles :: !exec_history;
            reg_observe "weaver_service_exec_cycles" cycles;
            latencies := !clock :: !latencies;
            reg_observe "weaver_service_latency_cycles" !clock;
            runtime_demotions :=
              !runtime_demotions + res.Runtime.metrics.Metrics.demotions;
            account_integrity res.Runtime.metrics;
            observe_attrib res.Runtime.metrics;
            (* a run that only survived by demoting itself is memory
               pressure too: charge the memory breaker *)
            let trips =
              observe_breakers
                (if res.Runtime.metrics.Metrics.demotions > 0 then
                   Some Site_memory
                 else None)
            in
            for _ = 1 to trips do mark ~why:"breaker_trip" true done;
            mark ~why:"completed" false;
            close_service "completed";
            respond r (Completed res) ~mode_used:mode ~pre_demoted ~hedged
              ~footprint_bytes
        | Error (f, hedged) ->
            let f = { f with Runtime.partial = stamp f.Runtime.partial } in
            incr failed;
            reg_inc "weaver_service_failed_total";
            let cycles = Metrics.total_cycles f.Runtime.partial in
            charge cycles;
            runtime_demotions :=
              !runtime_demotions + f.Runtime.partial.Metrics.demotions;
            account_integrity f.Runtime.partial;
            observe_attrib f.Runtime.partial;
            (match f.Runtime.fault with
            | Fault.Deadline_exceeded _ ->
                incr deadline_misses;
                reg_inc "weaver_service_deadline_misses_total";
                T.instant trace ~lane:T.Service "deadline_miss"
                  ~args:[ ("rid", T.Int r.rid) ]
            | Fault.Cancelled _ ->
                incr cancelled;
                reg_inc "weaver_service_cancelled_total";
                T.instant trace ~lane:T.Service "cancelled"
                  ~args:[ ("rid", T.Int r.rid) ]
            | Fault.Budget_vetoed { action; reason } ->
                incr budget_vetoes;
                reg_inc "weaver_service_budget_vetoes_total";
                (* a deadline-cost veto IS a deadline miss, just discovered
                   before burning the cycles; classify it as one so exit
                   codes and dashboards agree with late misses *)
                (match reason with
                | Fault.Deadline_too_close _ ->
                    incr deadline_misses;
                    reg_inc "weaver_service_deadline_misses_total"
                | Fault.Tokens_exhausted _ -> ());
                T.instant trace ~lane:T.Service "budget_veto"
                  ~args:[ ("rid", T.Int r.rid); ("action", T.Str action) ]
            | _ -> ());
            let trips =
              match site_of_fault f.Runtime.fault with
              | Some s -> observe_breakers (Some s)
              | None -> 0
            in
            for _ = 1 to trips do mark ~why:"breaker_trip" true done;
            mark ~why:"failed" true;
            close_service "failed";
            respond r (Failed f) ~mode_used:mode ~pre_demoted ~hedged
              ~footprint_bytes
      end
    end
    end
  in
  let responses = List.mapi execute requests in
  let sorted = Array.of_list (List.rev !latencies) in
  Array.sort Float.compare sorted;
  let wall_seconds = Unix.gettimeofday () -. t_wall0 in
  let stats =
    {
      submitted = !submitted;
      admitted = !admitted;
      rejected = !rejected;
      queue_rejections = !queue_rejections;
      capacity_rejections = !capacity_rejections;
      shed_rejections = !shed_rejections;
      completed = !completed;
      failed = !failed;
      deadline_misses = !deadline_misses;
      cancelled = !cancelled;
      budget_vetoes = !budget_vetoes;
      pre_demotions = !pre_demotions;
      runtime_demotions = !runtime_demotions;
      breaker_trips =
        List.fold_left (fun a (_, b) -> a + b.trips) 0 breakers;
      hedges = !hedges;
      hedge_wins = !hedge_wins;
      hedge_losses = !hedge_losses;
      brownout_entries = ctl.brownout_entries;
      shed_entries = ctl.shed_entries;
      corruptions_detected = !corruptions;
      rollbacks = !rollbacks;
      checkpoints_taken = !checkpoints_taken;
      p50_latency_cycles = percentile sorted 50.0;
      p95_latency_cycles = percentile sorted 95.0;
      total_cycles = !clock;
      throughput_qps =
        (if !sim_seconds > 0.0 then float_of_int !completed /. !sim_seconds
         else 0.0);
      wall_seconds;
    }
  in
  Option.iter
    (fun reg ->
      R.set_gauge reg "weaver_service_throughput_qps" stats.throughput_qps)
    registry;
  (responses, stats)

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>submitted %d: %d admitted (%d pre-demoted), %d rejected (%d queue, \
     %d capacity, %d shed)@ completed %d, failed %d (%d deadline misses, %d \
     cancelled, %d budget vetoes)@ demotions at run time: %d; breaker trips: \
     %d@ hedges: %d issued, %d won, %d lost; brownouts: %d, sheds: %d@ \
     integrity: %d corruptions detected, %d rollbacks, %d checkpoints@ \
     latency cycles: p50 %.0f, p95 %.0f@ throughput: %.1f q/s over %.3e \
     simulated cycles (%.3f s wall)@]"
    s.submitted s.admitted s.pre_demotions s.rejected s.queue_rejections
    s.capacity_rejections s.shed_rejections s.completed s.failed
    s.deadline_misses s.cancelled s.budget_vetoes s.runtime_demotions
    s.breaker_trips s.hedges s.hedge_wins s.hedge_losses s.brownout_entries
    s.shed_entries s.corruptions_detected s.rollbacks s.checkpoints_taken
    s.p50_latency_cycles s.p95_latency_cycles s.throughput_qps
    s.total_cycles s.wall_seconds
