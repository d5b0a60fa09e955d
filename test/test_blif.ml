(* BLIF frontend: corpus files, cover recognition, typed errors,
   writer round trips. Corpus paths are relative to the test cwd
   (_build/default/test) and declared as deps in test/dune. *)

module Netlist = Bist_circuit.Netlist
module Gate = Bist_circuit.Gate
module Blif_parser = Bist_circuit.Blif_parser
module Blif_writer = Bist_circuit.Blif_writer
module Bench_writer = Bist_circuit.Bench_writer

let corpus_files =
  [ "counter3.blif"; "k12a.blif"; "pipeline_cells.blif"; "s27_yosys.blif" ]

let corpus_path = Testutil.corpus_path

let parse ?(name = "t") text = Blif_parser.parse_string ~name text

let kind_of c signal =
  match Netlist.find c signal with
  | Some n -> Netlist.kind c n
  | None -> Alcotest.failf "signal %S not in netlist" signal

let check_kind c signal expected =
  Alcotest.(check string)
    (Printf.sprintf "kind of %s" signal)
    (Gate.kind_name expected)
    (Gate.kind_name (kind_of c signal))

let expect_error ?line text =
  match parse text with
  | (_ : Netlist.t) -> Alcotest.failf "expected Parse_error, got a netlist"
  | exception Blif_parser.Parse_error { line = l; message } -> (
    match line with
    | Some want ->
      if l <> want then
        Alcotest.failf "expected error at line %d, got line %d: %s" want l
          message
    | None -> ())

(* --- corpus --- *)

let test_corpus_parses () =
  List.iter
    (fun f ->
      match Blif_parser.parse_file (corpus_path f) with
      | (_ : Netlist.t) -> ()
      | exception exn ->
        Alcotest.failf "%s failed to parse: %s" f (Printexc.to_string exn))
    corpus_files

let test_corpus_counter3 () =
  let c = Blif_parser.parse_file (corpus_path "counter3.blif") in
  Alcotest.(check string) "name" "counter3" (Netlist.circuit_name c);
  Alcotest.(check int) "PIs" 3 (Netlist.num_inputs c);
  Alcotest.(check int) "POs" 3 (Netlist.num_outputs c);
  Alcotest.(check int) "FFs" 3 (Netlist.num_dffs c)

let test_corpus_k12a_flattening () =
  let c = Blif_parser.parse_file (corpus_path "k12a.blif") in
  Alcotest.(check int) "FFs" 1 (Netlist.num_dffs c);
  (* Submodel internals get instance-prefixed names; bound formals take
     the outer actuals. *)
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%s exists" s) true
        (Netlist.find c s <> None))
    [ "halfcell$0.r$i"; "halfcell$1.r$i"; "u0"; "u1"; "out" ]

let test_corpus_cells () =
  let c = Blif_parser.parse_file (corpus_path "pipeline_cells.blif") in
  Alcotest.(check int) "FFs" 2 (Netlist.num_dffs c);
  check_kind c "n1" Gate.Nand;
  check_kind c "n4" Gate.Xnor;
  check_kind c "q0" Gate.Dff;
  check_kind c "q1" Gate.Dff;
  (* $_ANDNOT_ decomposes to AND over a fresh NOT. *)
  check_kind c "n3" Gate.And

(* --- cover recognition --- *)

let cover_circuit =
  {|
.model covers
.inputs a b c
.outputs g_and g_nand g_or g_nor g_not g_buf g_xor g_xnor g_c0 g_c1 g_sop
.names a b g_and
11 1
.names a b g_nand
11 0
.names a b c g_or
1-- 1
-1- 1
--1 1
.names a b g_nor
1- 0
-1 0
.names a g_not
0 1
.names a g_buf
1 1
.names a b g_xor
10 1
01 1
.names a b c g_xnor
000 1
011 1
101 1
110 1
.names g_c0
.names g_c1
1
.names a b c g_sop
1-0 1
01- 1
.end
|}

let test_cover_kinds () =
  let c = parse cover_circuit in
  check_kind c "g_and" Gate.And;
  check_kind c "g_nand" Gate.Nand;
  check_kind c "g_or" Gate.Or;
  check_kind c "g_nor" Gate.Nor;
  check_kind c "g_not" Gate.Not;
  check_kind c "g_buf" Gate.Buf;
  check_kind c "g_xor" Gate.Xor;
  check_kind c "g_xnor" Gate.Xnor;
  check_kind c "g_c0" Gate.Const0;
  check_kind c "g_c1" Gate.Const1;
  (* Generic cover: OR over fresh AND/NOT intermediates. *)
  check_kind c "g_sop" Gate.Or;
  Alcotest.(check bool) "fresh $t node" true
    (Netlist.find c "g_sop$t0" <> None)

let test_off_set_covers () =
  let c =
    parse
      {|
.model offset
.inputs a b
.outputs f g
.names a b f
0- 0
-0 0
.names a b g
10 0
01 0
.end
|}
  in
  (* OFF-set one-hot-'0' rows: f = 0 iff some input is 0 = AND; the
     two-row parity OFF-set complements XOR into XNOR. *)
  check_kind c "f" Gate.And;
  check_kind c "g" Gate.Xnor

(* --- typed errors --- *)

let test_latch_errors () =
  let base body =
    Printf.sprintf ".model m\n.inputs clk d\n.outputs q\n%s\n.end\n" body
  in
  expect_error ~line:4 (base ".latch d q re clk 0");
  expect_error ~line:4 (base ".latch d q re clk 1");
  expect_error ~line:4 (base ".latch d q fe clk 2");
  expect_error ~line:4 (base ".latch d q re");
  expect_error ~line:4 (base ".latch d")

let test_structure_errors () =
  (* undefined signal *)
  expect_error ".model m\n.inputs a\n.outputs y\n.names a w y\n11 1\n.end\n";
  (* duplicate definition *)
  expect_error
    ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n.end\n";
  (* mixed cover values *)
  expect_error ~line:6
    ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n";
  (* row width mismatch *)
  expect_error ~line:5
    ".model m\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n";
  (* unknown cell *)
  expect_error ~line:4
    ".model m\n.inputs a\n.outputs y\n.subckt nosuch A=a Y=y\n.end\n";
  (* recursive model instantiation *)
  expect_error
    ".model m\n.inputs a\n.outputs y\n.subckt m x=a r=y\n.end\n";
  (* combinational loop: whole-netlist error, line 0 *)
  expect_error ~line:0
    ".model m\n.inputs a\n.outputs y\n.names y a y\n11 1\n.end\n";
  (* no model at all *)
  expect_error ~line:1 "foo bar\n"

let test_continuation_and_comments () =
  let c =
    parse
      ".model m # trailing comment\n.inputs a \\\nb\n.outputs y\n.names a b \\\ny\n11 1\n.end\n"
  in
  Alcotest.(check int) "PIs" 2 (Netlist.num_inputs c);
  check_kind c "y" Gate.And

(* --- writer round trips --- *)

let bench_of c = Bench_writer.to_string c

let test_teaching_roundtrip () =
  List.iter
    (fun circuit ->
      let c = circuit () in
      let name = Netlist.circuit_name c in
      let c2 = Blif_parser.parse_string ~name (Blif_writer.to_string c) in
      Alcotest.(check string)
        (Printf.sprintf "%s roundtrip" name)
        (bench_of c) (bench_of c2))
    [
      Bist_bench.Teaching.counter3;
      Bist_bench.Teaching.shift4;
      Bist_bench.Teaching.parity_fsm;
      Bist_bench.Teaching.gray3;
      Bist_bench.Teaching.johnson4;
      (fun () -> Bist_bench.Registry.s27.Bist_bench.Registry.circuit ());
    ]

let test_random_roundtrip =
  Testutil.qcheck
    (QCheck.Test.make
       ~name:"Netlist -> BLIF -> Netlist preserves the .bench serialization"
       ~count:60
       QCheck.(int_range 0 400)
       (fun seed ->
         let c = Testutil.small_circuit seed in
         let name = Netlist.circuit_name c in
         let c2 = Blif_parser.parse_string ~name (Blif_writer.to_string c) in
         String.equal (bench_of c) (bench_of c2)))

let test_workloads_deterministic () =
  List.iter
    (fun (name, circuit) ->
      let a = bench_of (circuit ()) in
      let b =
        bench_of
          ((Option.get (Bist_bench.Workloads.find name)) ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s deterministic" name)
        true (String.equal a b))
    (Bist_bench.Workloads.all ())

let test_loader_dispatch () =
  (match Bist_bench.Loader.load_file (corpus_path "counter3.blif") with
  | c -> Alcotest.(check int) "blif via loader" 3 (Netlist.num_dffs c));
  (* The unknown-extension refusal must name both the offending path and
     every supported extension — an operator reading the error should
     not need the docs. *)
  let contains text needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i =
      i + nl <= tl && (String.sub text i nl = needle || go (i + 1))
    in
    go 0
  in
  (match Bist_bench.Loader.load_file "nosuch.v" with
  | (_ : Netlist.t) -> Alcotest.fail "expected Usage_error"
  | exception Bist_bench.Loader.Usage_error msg ->
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "error mentions %s" needle)
          true (contains msg needle))
      ("nosuch.v" :: ".v" :: Bist_bench.Loader.supported_extensions));
  (match Bist_bench.Loader.load_file "noextension" with
  | (_ : Netlist.t) -> Alcotest.fail "expected Usage_error"
  | exception Bist_bench.Loader.Usage_error msg ->
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "no-extension error mentions %s" needle)
          true (contains msg needle))
      ("noextension" :: Bist_bench.Loader.supported_extensions));
  Alcotest.(check bool) "find_named workload" true
    (Bist_bench.Loader.find_named "pipe16" <> None);
  Alcotest.(check bool) "find_named teaching" true
    (Bist_bench.Loader.find_named "gray3" <> None);
  Alcotest.(check bool) "find_named misses files" true
    (Bist_bench.Loader.find_named "../examples/counter3.blif" = None)

let suite =
  [
    Alcotest.test_case "corpus parses" `Quick test_corpus_parses;
    Alcotest.test_case "counter3.blif structure" `Quick test_corpus_counter3;
    Alcotest.test_case "k12a multi-model flattening" `Quick
      test_corpus_k12a_flattening;
    Alcotest.test_case "library cells" `Quick test_corpus_cells;
    Alcotest.test_case "cover recognition" `Quick test_cover_kinds;
    Alcotest.test_case "OFF-set covers" `Quick test_off_set_covers;
    Alcotest.test_case "latch errors are typed" `Quick test_latch_errors;
    Alcotest.test_case "structural errors are typed" `Quick
      test_structure_errors;
    Alcotest.test_case "continuations and comments" `Quick
      test_continuation_and_comments;
    Alcotest.test_case "teaching circuits roundtrip" `Quick
      test_teaching_roundtrip;
    test_random_roundtrip;
    Alcotest.test_case "workloads deterministic" `Quick
      test_workloads_deterministic;
    Alcotest.test_case "loader dispatch" `Quick test_loader_dispatch;
  ]
