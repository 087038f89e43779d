open Gpu_sim

type t = {
  device : Device.t;
  timing : Timing.params;
  cta_threads : int;
  cap : int;
  min_cap : int;
  aux_factor : int;
  join_expansion : int;
  broadcast_cap : int;
  max_groups : int;
  max_grid : int;
  input_sharing : bool;
  max_retries : int;
  alloc_retries : int;
  transfer_retries : int;
  retry_budget : int option;
  selection_shared_fraction : float;
  jobs : int;
  faults : string option;
  deadline_cycles : float option;
  wall_deadline_s : float option;
  analyze : bool;
  integrity : bool;
  checkpoint : bool;
  checkpoint_budget_frac : float;
  trace : bool;
  trace_out : string option;
  metrics_out : string option;
}

let default =
  {
    device = Device.fermi_c2050;
    timing = Timing.default_params;
    cta_threads = 128;
    cap = 256;
    min_cap = 32;
    aux_factor = 2;
    join_expansion = 2;
    broadcast_cap = 1024;
    max_groups = 512;
    max_grid = 4096;
    input_sharing = true;
    max_retries = 10;
    alloc_retries = 3;
    transfer_retries = 3;
    retry_budget = None;
    selection_shared_fraction = 1.0;
    jobs = 1;
    faults = None;
    deadline_cycles = None;
    wall_deadline_s = None;
    analyze = true;
    integrity = true;
    checkpoint = false;
    checkpoint_budget_frac = 0.5;
    trace = false;
    trace_out = None;
    metrics_out = None;
  }

let with_jobs t jobs =
  if jobs >= 1 then { t with jobs }
  else { t with jobs = Gpu_sim.Domain_pool.default_jobs () }

let budget t =
  {
    Qplan.Selection.max_regs_per_thread = t.device.Device.max_registers_per_thread;
    max_shared_bytes =
      int_of_float
        (t.selection_shared_fraction
        *. float_of_int t.device.Device.max_shared_mem_per_cta);
  }
