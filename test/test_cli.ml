(* The weaver-cli binary at its process boundary: documented exit codes
   for the trace smoke run and for malformed query files. *)

let cli = Filename.concat (Filename.concat Filename.parent_dir_name "bin") "weaver_cli.exe"

(* Run the CLI with [args], discarding its output; returns the exit code. *)
let run_cli args =
  Sys.command
    (String.concat " " (List.map Filename.quote (cli :: args)) ^ " > /dev/null 2>&1")

let with_temp suffix f =
  let path = Filename.temp_file "weaver_cli" suffix in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_trace_q1 () =
  with_temp ".json" (fun trace ->
      with_temp ".prom" (fun metrics ->
          Alcotest.(check int) "trace q1 exits 0" 0
            (run_cli [ "trace"; "q1"; "--trace-out"; trace; "--metrics-out"; metrics ])))

let test_frontend_errors_are_usage () =
  List.iter
    (fun src ->
      with_temp ".dl" (fun path ->
          write_file path src;
          Alcotest.(check int) (String.escaped src) 2 (run_cli [ "plan"; path ])))
    [ ".decl a(k: i32)\nb(K) :- a(K).\n"; ".decl a(k: i32\n"; ".decl a(k: i32)\na(K) :- \"" ]

let valid_programs =
  [
    ".decl items(k: i32, price: f32, disc: f32)\n\
     .decl stock(k: i32, qty: i32)\n\
     .decl result(k: i32, net: f32, qty: i32)\n\
     result(K, P * (1.0 - D), Q) :- items(K, P, D), stock(K, Q), Q > 2.\n\
     .output result\n";
    ".decl r(k: i32, v: i32)\n\
     .decl s(k: i32)\n\
     .decl out(k: i32)\n\
     out(K) :- r(K, V), !s(K), V >= 3.\n\
     .output out\n";
  ]

let fragments =
  [| "("; ")"; ","; "."; ":-"; "!"; ":"; "X"; "zz"; ".decl"; ".output"; "1.5"; "\"";
     ">"; "i32"; "*"; "%"; "\n"; "undeclared" |]

(* One to three edits of a valid program: truncation, a deleted
   character, or an inserted token (an identifier glued to a relation
   name makes it undeclared). *)
let gen_malformed =
  let open QCheck.Gen in
  let edit src =
    let n = String.length src in
    if n = 0 then return src
    else
      int_bound (n - 1) >>= fun i ->
      oneof
        [
          return (String.sub src 0 i);
          return (String.sub src 0 i ^ String.sub src (i + 1) (n - i - 1));
          map
            (fun f -> String.sub src 0 i ^ f ^ String.sub src i (n - i))
            (oneofa fragments);
        ]
  in
  let rec edits k src = if k = 0 then return src else edit src >>= edits (k - 1) in
  oneofl valid_programs >>= fun src -> int_range 1 3 >>= fun k -> edits k src

let prop_malformed_never_125 =
  QCheck.Test.make ~name:"malformed .dl never exits 125" ~count:60
    (QCheck.make ~print:String.escaped gen_malformed)
    (fun src ->
      with_temp ".dl" (fun path ->
          write_file path src;
          match run_cli [ "plan"; path ] with
          | 125 -> QCheck.Test.fail_report "uncaught exception (exit 125)"
          | _ -> true))

let suite =
  [
    Alcotest.test_case "trace q1 exits 0" `Quick test_trace_q1;
    Alcotest.test_case "front-end errors exit 2" `Quick test_frontend_errors_are_usage;
    QCheck_alcotest.to_alcotest prop_malformed_never_125;
  ]
