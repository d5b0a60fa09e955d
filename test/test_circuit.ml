(* Suites for Bist_circuit: Gate, Bench_parser, Builder, Netlist, Stats. *)

module Gate = Bist_circuit.Gate
module Netlist = Bist_circuit.Netlist
module Parser = Bist_circuit.Bench_parser
module T = Bist_logic.Ternary

let test_gate_eval () =
  let chk = Alcotest.check Testutil.ternary_testable in
  chk "and3" T.Zero (Gate.eval Gate.And [| T.One; T.Zero; T.X |]);
  chk "and3 X" T.X (Gate.eval Gate.And [| T.One; T.One; T.X |]);
  chk "nand" T.One (Gate.eval Gate.Nand [| T.Zero; T.X |]);
  chk "nor" T.Zero (Gate.eval Gate.Nor [| T.One; T.X |]);
  chk "xor3" T.One (Gate.eval Gate.Xor [| T.One; T.One; T.One |]);
  chk "xnor" T.One (Gate.eval Gate.Xnor [| T.One; T.One |]);
  chk "buf" T.X (Gate.eval Gate.Buf [| T.X |]);
  chk "const0" T.Zero (Gate.eval Gate.Const0 [||]);
  chk "const1" T.One (Gate.eval Gate.Const1 [||])

let test_gate_arity () =
  Alcotest.(check bool) "not takes 1" true (Gate.arity_ok Gate.Not 1);
  Alcotest.(check bool) "not rejects 2" false (Gate.arity_ok Gate.Not 2);
  Alcotest.(check bool) "and rejects 1" false (Gate.arity_ok Gate.And 1);
  Alcotest.(check bool) "and takes 4" true (Gate.arity_ok Gate.And 4);
  Alcotest.(check bool) "dff takes 1" true (Gate.arity_ok Gate.Dff 1)

(* Gate.eval and the packed evaluation must agree on every lane. *)
let test_gate_eval_consistency =
  let kinds = [ Gate.Buf; Gate.Not; Gate.And; Gate.Nand; Gate.Or; Gate.Nor; Gate.Xor; Gate.Xnor ] in
  let gen =
    QCheck.Gen.(
      oneofl kinds >>= fun kind ->
      (if Gate.arity_ok kind 1 then return 1 else int_range 2 4) >>= fun k ->
      list_size (return k) (list_size (return 8) Testutil.ternary_gen) >>= fun inputs ->
      return (kind, inputs))
  in
  Testutil.qcheck
    (QCheck.Test.make ~name:"Packed.eval_gate agrees with Gate.eval" ~count:300
       (QCheck.make gen)
       (fun (kind, inputs) ->
         let packed =
           Array.of_list
             (List.map
                (fun lanes ->
                  List.fold_left
                    (fun (w, i) v -> (Packed.set w i v, i + 1))
                    (Packed.all_x, 0) lanes
                  |> fst)
                inputs)
         in
         let word = Packed.eval_gate kind packed in
         List.for_all
           (fun lane ->
             let scalar =
               Gate.eval kind (Array.of_list (List.map (fun l -> List.nth l lane) inputs))
             in
             T.equal scalar (Packed.get word lane))
           (List.init 8 Fun.id)))

let test_gate_names () =
  Alcotest.(check (option bool)) "BUFF accepted" (Some true)
    (Option.map (fun k -> k = Gate.Buf) (Gate.kind_of_name "BUFF"));
  Alcotest.(check (option bool)) "case-insensitive" (Some true)
    (Option.map (fun k -> k = Gate.Nand) (Gate.kind_of_name "nand"));
  Alcotest.(check bool) "unknown" true (Gate.kind_of_name "FOO" = None)

(* Parser *)

let test_parse_s27 () =
  let c = Bist_bench.S27.circuit () in
  Alcotest.(check int) "inputs" 4 (Netlist.num_inputs c);
  Alcotest.(check int) "outputs" 1 (Netlist.num_outputs c);
  Alcotest.(check int) "dffs" 3 (Netlist.num_dffs c);
  Alcotest.(check int) "gates" 10 (Netlist.num_gates c);
  Alcotest.(check string) "PO name" "G17" (Netlist.name c (Netlist.outputs c).(0))

let test_parse_roundtrip () =
  let c = Bist_bench.S27.circuit () in
  let text = Bist_circuit.Bench_writer.to_string c in
  let c2 = Parser.parse_string ~name:"s27" text in
  Alcotest.(check int) "same size" (Netlist.size c) (Netlist.size c2);
  for n = 0 to Netlist.size c - 1 do
    let n2 = Netlist.find_exn c2 (Netlist.name c n) in
    Alcotest.(check bool) "same kind" true (Netlist.kind c n = Netlist.kind c2 n2);
    Alcotest.(check (list string)) "same fanins"
      (Array.to_list (Array.map (Netlist.name c) (Netlist.fanins c n)))
      (Array.to_list (Array.map (Netlist.name c2) (Netlist.fanins c2 n2)))
  done

(* Writer/parser round-trip over a circuit that uses every Gate.kind,
   spelled with the BUFF alias and bare/argful CONST forms on the way
   in. The reparse of the written text must reproduce kinds and fanins
   exactly (canonical spellings are fine). *)
let test_roundtrip_all_kinds () =
  let c =
    Parser.parse_string ~name:"kinds"
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(q)\n\
       zero = CONST0\none = CONST1()\n\
       bf = BUFF(a)\nnt = NOT(b)\n\
       an = AND(bf, nt)\nna = NAND(a, b)\n\
       orr = OR(an, zero)\nno = NOR(na, one)\n\
       xo = XOR(orr, no)\nxn = XNOR(xo, a)\n\
       q = DFF(xn)\ny = BUF(q)\n"
  in
  let kinds_used =
    List.sort_uniq compare
      (List.init (Netlist.size c) (fun n -> Netlist.kind c n))
  in
  Alcotest.(check int) "all 12 kinds present" 12 (List.length kinds_used);
  Alcotest.(check bool) "BUFF parsed as Buf" true
    (Netlist.kind c (Netlist.find_exn c "bf") = Gate.Buf);
  let text = Bist_circuit.Bench_writer.to_string c in
  let c2 = Parser.parse_string ~name:"kinds" text in
  Alcotest.(check int) "same size" (Netlist.size c) (Netlist.size c2);
  for n = 0 to Netlist.size c - 1 do
    let n2 = Netlist.find_exn c2 (Netlist.name c n) in
    Alcotest.(check bool)
      ("kind of " ^ Netlist.name c n)
      true
      (Netlist.kind c n = Netlist.kind c2 n2);
    Alcotest.(check (list string)) ("fanins of " ^ Netlist.name c n)
      (Array.to_list (Array.map (Netlist.name c) (Netlist.fanins c n)))
      (Array.to_list (Array.map (Netlist.name c2) (Netlist.fanins c2 n2)))
  done;
  (* and the rewrite is a fixpoint *)
  Alcotest.(check string) "write . parse . write stable" text
    (Bist_circuit.Bench_writer.to_string c2)

let expect_parse_error text =
  match Parser.parse_string ~name:"bad" text with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Parser.Parse_error _ -> ()

let test_parse_errors () =
  expect_parse_error "INPUT(a";
  expect_parse_error "a = FOO(b)";
  expect_parse_error "a = = AND(b, c)";
  expect_parse_error "INPUT(a) INPUT(b)";
  expect_parse_error "a = INPUT(b)"

let test_parse_comments_and_blanks () =
  let c =
    Parser.parse_string ~name:"t"
      "# header\n\nINPUT(a)  # inline\nOUTPUT(y)\n   y = NOT( a )\n"
  in
  Alcotest.(check int) "one gate" 1 (Netlist.num_gates c)

let test_structural_errors () =
  let fails_at line text =
    match Parser.parse_string ~name:"bad" text with
    | _ -> Alcotest.fail "expected Parse_error"
    | exception Parser.Parse_error e ->
      Alcotest.(check int) "error line" line e.line
  in
  (* duplicate definition *)
  fails_at 4 "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(a)\n";
  (* undefined signal *)
  fails_at 3 "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
  (* undefined output *)
  fails_at 2 "INPUT(a)\nOUTPUT(ghost)\n";
  (* combinational loop: structurally well-formed, rejected in finalize;
     whole-netlist properties report line 0 ("the file as a whole") as a
     Parse_error like every other rejection of input text *)
  fails_at 0 "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = BUF(y)\n"

let test_sequential_loop_ok () =
  (* A loop through a DFF is legal. *)
  let c =
    Parser.parse_string ~name:"loop"
      "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = XOR(q, a)\n"
  in
  Alcotest.(check int) "one dff" 1 (Netlist.num_dffs c)

let test_topo_order () =
  let c = Bist_bench.S27.circuit () in
  let pos = Array.make (Netlist.size c) (-1) in
  Array.iteri (fun i n -> pos.(n) <- i) (Netlist.topo_order c);
  Array.iter
    (fun n ->
      Array.iter
        (fun d ->
          if Gate.is_combinational (Netlist.kind c d) then
            Alcotest.(check bool) "fanin before gate" true (pos.(d) < pos.(n)))
        (Netlist.fanins c n))
    (Netlist.topo_order c)

let test_fanout_counts () =
  let c = Bist_bench.S27.circuit () in
  let g8 = Netlist.find_exn c "G8" in
  (* G8 feeds G15 and G16 *)
  Alcotest.(check int) "G8 drives two pins" 2 (Netlist.fanout_count c g8);
  let g11 = Netlist.find_exn c "G11" in
  (* G11 feeds G17, G10, G6(dff) *)
  Alcotest.(check int) "G11 drives three pins" 3 (Netlist.fanout_count c g11)

let test_stats () =
  let s = Bist_circuit.Stats.of_netlist (Bist_bench.S27.circuit ()) in
  Alcotest.(check int) "gates" 10 s.Bist_circuit.Stats.num_gates;
  Alcotest.(check bool) "depth positive" true (s.max_level >= 3)

(* Structural invariants over random netlists: fanout bookkeeping is
   consistent with the fanin arrays, and the topological order covers
   every combinational node exactly once. *)
let test_netlist_invariants =
  Testutil.qcheck
    (QCheck.Test.make ~name:"netlist invariants on random circuits" ~count:50
       QCheck.(int_range 0 300)
       (fun seed ->
         let c = Testutil.small_circuit seed in
         let n = Netlist.size c in
         (* pin-accurate fanout counts: recount from scratch *)
         let counts = Array.make n 0 in
         for v = 0 to n - 1 do
           Array.iter (fun d -> counts.(d) <- counts.(d) + 1) (Netlist.fanins c v)
         done;
         Array.iter (fun po -> counts.(po) <- counts.(po) + 1) (Netlist.outputs c);
         let fanouts_ok =
           List.for_all
             (fun v -> Netlist.fanout_count c v = counts.(v))
             (List.init n Fun.id)
         in
         (* fanouts lists exactly the distinct consumers *)
         let consumers_ok =
           List.for_all
             (fun v ->
               Array.for_all
                 (fun w -> Array.exists (fun d -> d = v) (Netlist.fanins c w))
                 (Netlist.fanouts c v))
             (List.init n Fun.id)
         in
         (* topo covers every combinational node exactly once *)
         let seen = Array.make n 0 in
         Array.iter (fun v -> seen.(v) <- seen.(v) + 1) (Netlist.topo_order c);
         let topo_ok =
           List.for_all
             (fun v ->
               if Gate.is_combinational (Netlist.kind c v) then seen.(v) = 1
               else seen.(v) = 0)
             (List.init n Fun.id)
         in
         fanouts_ok && consumers_ok && topo_ok))

let test_builder_forward_refs () =
  let b = Bist_circuit.Builder.create ~name:"fw" in
  Bist_circuit.Builder.add_output b "y";
  Bist_circuit.Builder.add_gate b ~output:"y" Gate.And [ "a"; "b" ];
  Bist_circuit.Builder.add_input b "a";
  Bist_circuit.Builder.add_input b "b";
  let c = Bist_circuit.Builder.finalize b in
  Alcotest.(check int) "resolved" 2 (Netlist.num_inputs c)

(* Writer name hygiene *)

module Names = Bist_circuit.Names
module Writer = Bist_circuit.Bench_writer

(* A small fixed-shape circuit over arbitrary (possibly hostile) signal
   names; the "|i" suffix guarantees distinctness without defusing the
   hostility. *)
let hostile_circuit names =
  let nm = Array.mapi (fun i s -> Printf.sprintf "%s|%d" s i) names in
  let b = Bist_circuit.Builder.create ~name:"hostile" in
  Bist_circuit.Builder.add_input b nm.(0);
  Bist_circuit.Builder.add_input b nm.(1);
  Bist_circuit.Builder.add_gate b ~output:nm.(2) Gate.And [ nm.(0); nm.(1) ];
  Bist_circuit.Builder.add_gate b ~output:nm.(3) Gate.Dff [ nm.(2) ];
  Bist_circuit.Builder.add_output b nm.(3);
  Bist_circuit.Builder.finalize b

let contains_substring text sub =
  let n = String.length sub in
  let rec find i =
    i + n <= String.length text
    && (String.sub text i n = sub || find (i + 1))
  in
  find 0

(* Comment lines don't survive a reparse (the rename records are
   comments), so textual idempotence is: netlist content stable
   immediately, full text a fixpoint from the first reparse on. *)
let netlist_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let test_writer_sanitizes () =
  let c = hostile_circuit [| "a b"; "c(d)"; "e,f=#"; "ok" |] in
  let text = Writer.to_string c in
  Alcotest.(check bool) "rename recorded" true
    (contains_substring text "# renamed:");
  let c2 = Parser.parse_string ~name:"hostile" text in
  Alcotest.(check int) "same size" (Netlist.size c) (Netlist.size c2);
  let text2 = Writer.to_string c2 in
  Alcotest.(check (list string)) "content stable"
    (netlist_lines text) (netlist_lines text2);
  Alcotest.(check string) "fixpoint after one reparse" text2
    (Writer.to_string (Parser.parse_string ~name:"hostile" text2));
  (* Originals survive in header comments. *)
  Alcotest.(check bool) "original name in comment" true
    (contains_substring text "was \"a b|0\"")

let test_writer_sanitize_collisions () =
  (* "a b" and "a(b" both mangle to "a_b", which is also taken by a
     valid node: deterministic _2/_3 suffixes, no collisions. *)
  let b = Bist_circuit.Builder.create ~name:"col" in
  Bist_circuit.Builder.add_input b "a b";
  Bist_circuit.Builder.add_input b "a(b";
  Bist_circuit.Builder.add_input b "a_b";
  Bist_circuit.Builder.add_gate b ~output:"y" Gate.And [ "a b"; "a(b" ];
  Bist_circuit.Builder.add_output b "y";
  let c = Bist_circuit.Builder.finalize b in
  let plan = Names.plan Names.Bench c in
  let emitted =
    List.sort_uniq compare
      (List.init (Netlist.size c) (Names.out_name plan))
  in
  Alcotest.(check int) "all names distinct" (Netlist.size c)
    (List.length emitted);
  let renames = List.map (fun (_, e, _) -> e) (Names.renamed plan) in
  Alcotest.(check (list string)) "deterministic suffixes"
    [ "a_b_2"; "a_b_3" ] renames

let test_writer_strict () =
  let c = hostile_circuit [| "a b"; "x"; "y"; "z" |] in
  (match Writer.to_string ~strict:true c with
  | (_ : string) -> Alcotest.fail "expected Invalid_name"
  | exception Names.Invalid_name { name; _ } ->
    Alcotest.(check string) "offender" "a b|0" name);
  let ok = hostile_circuit [| "a"; "x"; "y"; "z" |] in
  Alcotest.(check bool) "valid names pass strict" true
    (String.length (Writer.to_string ~strict:true ok) > 0)

let test_writer_header_newline () =
  let b = Bist_circuit.Builder.create ~name:"evil\nINPUT(zz)" in
  Bist_circuit.Builder.add_input b "a";
  Bist_circuit.Builder.add_gate b ~output:"y" Gate.Buf [ "a" ];
  Bist_circuit.Builder.add_output b "y";
  let c = Bist_circuit.Builder.finalize b in
  let text = Writer.to_string c in
  (* The name is cut at the newline: no line of the output smuggles in
     an INPUT statement. *)
  List.iter
    (fun line ->
      Alcotest.(check bool) "no injected INPUT(zz)" false
        (String.equal line "INPUT(zz)"))
    (String.split_on_char '\n' text);
  let c2 = Parser.parse_string ~name:"evil" text in
  Alcotest.(check int) "still one input" 1 (Netlist.num_inputs c2)

let test_writer_atomic_to_file () =
  let path = Filename.temp_file "bw" ".bench" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = Bist_bench.S27.circuit () in
      Writer.to_file c path;
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "file matches to_string" (Writer.to_string c)
        text)

let hostile_name_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl
      [ ' '; '('; ')'; ','; '='; '#'; '\t'; '\n'; '$'; '.'; '\\'; '|';
        'a'; 'Z'; '0'; '_'; '['; ']' ])
      (int_range 0 6))

let test_hostile_roundtrip =
  Testutil.qcheck
    (QCheck.Test.make
       ~name:"sanitized writer output reparses to the same serialization"
       ~count:200
       (QCheck.make
          QCheck.Gen.(array_size (return 4) hostile_name_gen))
       (fun names ->
         let c = hostile_circuit names in
         let text = Writer.to_string c in
         let c2 = Parser.parse_string ~name:"hostile" text in
         let text2 = Writer.to_string c2 in
         netlist_lines text = netlist_lines text2
         && String.equal text2
              (Writer.to_string (Parser.parse_string ~name:"hostile" text2))))

let suite =
  [
    Alcotest.test_case "gate eval" `Quick test_gate_eval;
    Alcotest.test_case "gate arity" `Quick test_gate_arity;
    test_gate_eval_consistency;
    Alcotest.test_case "gate names" `Quick test_gate_names;
    Alcotest.test_case "parse s27" `Quick test_parse_s27;
    Alcotest.test_case "writer roundtrip" `Quick test_parse_roundtrip;
    Alcotest.test_case "writer roundtrip all kinds" `Quick test_roundtrip_all_kinds;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "comments and blanks" `Quick test_parse_comments_and_blanks;
    Alcotest.test_case "structural errors" `Quick test_structural_errors;
    Alcotest.test_case "sequential loop ok" `Quick test_sequential_loop_ok;
    Alcotest.test_case "topological order" `Quick test_topo_order;
    Alcotest.test_case "fanout counts" `Quick test_fanout_counts;
    Alcotest.test_case "stats" `Quick test_stats;
    test_netlist_invariants;
    Alcotest.test_case "builder forward refs" `Quick test_builder_forward_refs;
    Alcotest.test_case "writer sanitizes hostile names" `Quick
      test_writer_sanitizes;
    Alcotest.test_case "sanitize collisions deterministic" `Quick
      test_writer_sanitize_collisions;
    Alcotest.test_case "strict writer refuses" `Quick test_writer_strict;
    Alcotest.test_case "header newline truncated" `Quick
      test_writer_header_newline;
    Alcotest.test_case "to_file atomic write" `Quick
      test_writer_atomic_to_file;
    test_hostile_roundtrip;
  ]
