exception Runtime_error = Fault.Error

(* raised with an empty [kernel] field; [run] fills it in (Fault.set_kernel)
   when the fault crosses the launch boundary *)
let div_zero () = Fault.raise_ (Fault.Div_by_zero { kernel = "" })

let f32_of_bits v = Int32.float_of_bits (Int32.of_int v)
let bits_of_f32 f = Int32.to_int (Int32.bits_of_float f) land 0xFFFFFFFF

let exec_binop op a b =
  match (op : Kir.binop) with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then div_zero () else a / b
  | Rem -> if b = 0 then div_zero () else a mod b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl b
  | Shr -> a asr b
  | Min -> min a b
  | Max -> max a b
  | Fadd -> bits_of_f32 (f32_of_bits a +. f32_of_bits b)
  | Fsub -> bits_of_f32 (f32_of_bits a -. f32_of_bits b)
  | Fmul -> bits_of_f32 (f32_of_bits a *. f32_of_bits b)
  | Fdiv -> bits_of_f32 (f32_of_bits a /. f32_of_bits b)
  | Fmin -> bits_of_f32 (Float.min (f32_of_bits a) (f32_of_bits b))
  | Fmax -> bits_of_f32 (Float.max (f32_of_bits a) (f32_of_bits b))

let exec_unop op a =
  match (op : Kir.unop) with
  | Not -> if a = 0 then 1 else 0
  | Neg -> -a
  | Fneg -> bits_of_f32 (-.f32_of_bits a)
  | I2f -> bits_of_f32 (float_of_int a)
  | F2i -> int_of_float (f32_of_bits a)

let exec_cmp c a b =
  let r =
    match (c : Kir.cmp) with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Le -> a <= b
    | Gt -> a > b
    | Ge -> a >= b
    | Feq -> f32_of_bits a = f32_of_bits b
    | Fne -> f32_of_bits a <> f32_of_bits b
    | Flt -> f32_of_bits a < f32_of_bits b
    | Fle -> f32_of_bits a <= f32_of_bits b
    | Fgt -> f32_of_bits a > f32_of_bits b
    | Fge -> f32_of_bits a >= f32_of_bits b
  in
  if r then 1 else 0

let exec_atomop op old v =
  match (op : Kir.atomop) with
  | Atom_add -> old + v
  | Atom_min -> min old v
  | Atom_max -> max old v
  | Atom_exch -> v

(* Lock stripes serializing concurrent global atomics. CTAs only contend on
   the same word, and only through Atom, so a small striped set keeps the
   read-modify-write sequences of different words mostly independent. *)
let n_stripes = 64
let atom_stripes = Array.init n_stripes (fun _ -> Mutex.create ())
let stripe_of ~buf ~idx = ((buf * 131) + idx) land (n_stripes - 1)

(* thread status *)
let st_running = 0
let st_at_bar = 1
let st_done = 2

(* Two-entry MRU cache of buffer handle -> backing array, one per worker so
   parallel workers never share it and ping-ponging between two handles
   (e.g. a load loop alternating input and staging buffers) stays hits. *)
let make_buffer_cache mem (k : Kir.kernel) =
  let id0 = ref (-1) and arr0 = ref [||] in
  let id1 = ref (-1) and arr1 = ref [||] in
  fun id ->
    if id = !id0 then !arr0
    else if id = !id1 then begin
      let a = !arr1 in
      id1 := !id0;
      arr1 := !arr0;
      id0 := id;
      arr0 := a;
      a
    end
    else begin
      let arr =
        try Memory.data mem id
        with Not_found | Invalid_argument _ ->
          Fault.raise_ (Fault.Invalid_handle { kernel = k.kname; handle = id })
      in
      id1 := !id0;
      arr1 := !arr0;
      id0 := id;
      arr0 := arr;
      arr
    end

let run ?(max_instructions = 2_000_000_000) ?(jobs = 1)
    ?(cancel = Cancel.none) ?(trace = Weaver_obs.Trace.none) mem
    (k : Kir.kernel) ~params ~grid ~cta =
  let invalid_launch reason =
    Fault.raise_ (Fault.Invalid_launch { kernel = k.kname; reason })
  in
  if Array.length params <> k.params then
    invalid_launch
      (Printf.sprintf "expects %d params, got %d" k.params (Array.length params));
  if grid <= 0 || cta <= 0 then invalid_launch "empty launch";
  let oob ~space ~buffer ~index ~length =
    Fault.raise_
      (Fault.Out_of_bounds
         { kernel = k.kname; space; buffer; index; length })
  in
  let body = k.body in
  let n_instr = Array.length body in
  let labels = k.labels in
  (* Each CTA gets an even slice of the instruction budget so infinite-loop
     detection fires regardless of how CTAs are scheduled over workers. *)
  let budget_slice = max 1 ((max_instructions + grid - 1) / grid) in
  (* Per-worker scratch: one CTA's register file, shared memory and thread
     bookkeeping, reused (and re-zeroed) across the CTAs a worker executes
     so the interpreter does not churn the GC with per-CTA allocation. *)
  let make_ctx () =
    ( Array.make (max k.shared_words 1) 0,
      Array.init cta (fun _ -> Array.make (max k.reg_count 1) 0),
      Array.make cta 0,
      Array.make cta st_running )
  in
  let make_counts () = Array.make (max 1 n_instr) 0 in
  (* Execute one CTA to completion, bumping [counts] (private to the
     calling worker) once per executed instruction. [locked] selects the
     mutex-striped path for global atomics; CTA-private state (registers,
     shared memory) never needs it. *)
  let exec_cta ~counts ~buffer_data ~ctx ~locked ctaid =
    let budget = ref budget_slice in
    let shared, regs, pcs, status = ctx in
    Array.fill shared 0 (Array.length shared) 0;
    Array.fill pcs 0 cta 0;
    Array.fill status 0 cta st_running;
    for tid = 0 to cta - 1 do
      let r = regs.(tid) in
      Array.fill r 0 (Array.length r) 0;
      r.(Kir.reg_tid) <- tid;
      r.(Kir.reg_ctaid) <- ctaid;
      r.(Kir.reg_ntid) <- cta;
      r.(Kir.reg_nctaid) <- grid;
      Array.iteri (fun i v -> r.(Kir.param_reg i) <- v) params
    done;
    let live = ref cta in
    (* Run one thread until it hits a barrier or returns. *)
    let run_thread tid =
      let r = regs.(tid) in
      let value = function Kir.Reg x -> r.(x) | Kir.Imm n -> n in
      let pc = ref pcs.(tid) in
      let continue = ref true in
      while !continue do
        if !pc < 0 || !pc >= n_instr then
          Fault.raise_
            (Fault.Invalid_launch
               {
                 kernel = k.kname;
                 reason = Printf.sprintf "pc %d out of range" !pc;
               });
        decr budget;
        if !budget <= 0 then
          Fault.raise_ (Fault.Budget_exhausted { kernel = k.kname });
        Array.unsafe_set counts !pc (Array.unsafe_get counts !pc + 1);
        let ins = Array.unsafe_get body !pc in
        incr pc;
        match ins with
        | Mov (d, a) -> r.(d) <- value a
        | Bin (op, d, a, b) -> r.(d) <- exec_binop op (value a) (value b)
        | Un (op, d, a) -> r.(d) <- exec_unop op (value a)
        | Cmp (c, d, a, b) -> r.(d) <- exec_cmp c (value a) (value b)
        | Sel (d, c, a, b) ->
            r.(d) <- (if value c <> 0 then value a else value b)
        | Ld { space = Global; dst; base; idx; _ } ->
            let arr = buffer_data (value base) in
            let i = value idx in
            if i < 0 || i >= Array.length arr then
              oob ~space:Fault.Global_space ~buffer:(Some (value base)) ~index:i
                ~length:(Array.length arr);
            r.(dst) <- Array.unsafe_get arr i
        | Ld { space = Shared; dst; base; idx; _ } ->
            let i = value base + value idx in
            if i < 0 || i >= Array.length shared then
              oob ~space:Fault.Shared_space ~buffer:None ~index:i
                ~length:(Array.length shared);
            r.(dst) <- Array.unsafe_get shared i
        | St { space = Global; base; idx; src; _ } ->
            let arr = buffer_data (value base) in
            let i = value idx in
            if i < 0 || i >= Array.length arr then
              oob ~space:Fault.Global_space ~buffer:(Some (value base)) ~index:i
                ~length:(Array.length arr);
            Array.unsafe_set arr i (value src)
        | St { space = Shared; base; idx; src; _ } ->
            let i = value base + value idx in
            if i < 0 || i >= Array.length shared then
              oob ~space:Fault.Shared_space ~buffer:None ~index:i
                ~length:(Array.length shared);
            Array.unsafe_set shared i (value src)
        | Atom { op; space = Shared; dst; base; idx; src } ->
            let i = value base + value idx in
            if i < 0 || i >= Array.length shared then
              oob ~space:Fault.Shared_space ~buffer:None ~index:i
                ~length:(Array.length shared);
            let old = shared.(i) in
            shared.(i) <- exec_atomop op old (value src);
            r.(dst) <- old
        | Atom { op; space = Global; dst; base; idx; src } ->
            let b = value base in
            let arr = buffer_data b in
            let i = value idx in
            if i < 0 || i >= Array.length arr then
              oob ~space:Fault.Global_space ~buffer:(Some b) ~index:i
                ~length:(Array.length arr);
            let old =
              if locked then begin
                let m = atom_stripes.(stripe_of ~buf:b ~idx:i) in
                Mutex.lock m;
                let old = arr.(i) in
                arr.(i) <- exec_atomop op old (value src);
                Mutex.unlock m;
                old
              end
              else begin
                let old = arr.(i) in
                arr.(i) <- exec_atomop op old (value src);
                old
              end
            in
            r.(dst) <- old
        | Br l -> pc := labels.(l)
        | Brz (c, l) -> if value c = 0 then pc := labels.(l)
        | Brnz (c, l) -> if value c <> 0 then pc := labels.(l)
        | Bar ->
            status.(tid) <- st_at_bar;
            continue := false
        | Ret ->
            status.(tid) <- st_done;
            decr live;
            continue := false
        | Trap (f, needed) ->
            let f =
              match needed with
              | Some n -> Fault.set_needed (value n) f
              | None -> f
            in
            Fault.raise_ (Fault.set_kernel k.kname f)
      done;
      pcs.(tid) <- !pc
    in
    while !live > 0 do
      for tid = 0 to cta - 1 do
        if status.(tid) = st_running then run_thread tid
      done;
      (* all live threads are now at a barrier: release them together *)
      for tid = 0 to cta - 1 do
        if status.(tid) = st_at_bar then status.(tid) <- st_running
      done
    done
  in
  (* faults raised below the launch boundary (e.g. Div_by_zero from
     exec_binop) carry an empty kernel field; name them here *)
  let named f = Fault.Error (Fault.set_kernel k.kname f) in
  let jobs = max 1 (min jobs grid) in
  if jobs = 1 then begin
    let counts = make_counts () in
    (* routed through the pool's sequential shortcut (it runs the body on
       this domain) so the worker-0 wall lane exists at any jobs count *)
    Domain_pool.run ~cancel ~trace ~jobs:1 (fun _ ->
        let buffer_data = make_buffer_cache mem k in
        let ctx = make_ctx () in
        try
          for ctaid = 0 to grid - 1 do
            (* same checkpoint cadence as the per-CTA budget slice: a fired
               token stops the launch before the next CTA starts *)
            Cancel.check cancel;
            exec_cta ~counts ~buffer_data ~ctx ~locked:false ctaid
          done
        with Fault.Error f -> raise (named f));
    counts
  end
  else begin
    (* Workers allocate their count arrays on their own domain, publishing
       them here only on completion: arrays created by the main domain
       would sit on adjacent cache lines and every interpreted instruction
       would false-share them. *)
    let worker_counts = Array.make jobs [||] in
    (* chunked self-scheduling over the CTA index space *)
    let next = Atomic.make 0 in
    let chunk = max 1 (grid / (jobs * 8)) in
    (* A CTA that faults stops the launch; record the fault of the lowest
       ctaid so the surfaced error (and any capacity-retry decision made on
       its message) is identical to the sequential schedule's. *)
    let first_error = Atomic.make None in
    let record_error ctaid e =
      let rec cas () =
        let cur = Atomic.get first_error in
        let keep =
          match cur with None -> true | Some (c, _) -> ctaid < c
        in
        if keep && not (Atomic.compare_and_set first_error cur (Some (ctaid, e)))
        then cas ()
      in
      cas ()
    in
    Domain_pool.run ~cancel ~trace ~jobs (fun w ->
        let counts = make_counts () in
        let buffer_data = make_buffer_cache mem k in
        let ctx = make_ctx () in
        let rec loop () =
          if Atomic.get first_error = None then begin
            let start = Atomic.fetch_and_add next chunk in
            if start < grid then begin
              let stop = min grid (start + chunk) in
              (try
                 for ctaid = start to stop - 1 do
                   (* cancellation checkpoint: workers stop within one CTA
                      of the token firing, mid-chunk included *)
                   Cancel.check cancel;
                   exec_cta ~counts ~buffer_data ~ctx ~locked:true ctaid
                 done
               with e -> record_error start e);
              loop ()
            end
          end
        in
        loop ();
        worker_counts.(w) <- counts);
    (* every count is a sum of per-CTA contributions, so the merged totals
       are independent of which worker executed which CTA *)
    let counts = make_counts () in
    Array.iter
      (Array.iteri (fun pc c -> counts.(pc) <- counts.(pc) + c))
      worker_counts;
    match Atomic.get first_error with
    | Some (_, Fault.Error f) -> raise (named f)
    | Some (_, e) -> raise e
    | None -> counts
  end
