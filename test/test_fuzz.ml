(* Parser robustness fuzz smoke.

   Seeded random mutations of the registry's [.bench] sources are fed
   back through [Bench_parser.parse_string]. Each mutant must either
   parse or raise [Parse_error] — any other exception (Failure,
   Invalid_argument, Not_found, an array bound...) is a robustness bug:
   the CLI turns Parse_error into a clean exit 2, while anything else
   escapes as a crash with a backtrace. This suite is the [make
   fuzz-smoke] gate. *)

module Rng = Bist_util.Rng
module Bench_parser = Bist_circuit.Bench_parser
module Bench_writer = Bist_circuit.Bench_writer

let mutations_per_source = 180
let seed = 0x5EED

(* Mutation operators: single byte flip, truncation, random byte insert,
   line deletion, line duplication, and a random splice of two sources.
   Deliberately content-blind — the point is inputs the parser's author
   did not anticipate. *)

let flip_byte rng s =
  if String.length s = 0 then s
  else begin
    let b = Bytes.of_string s in
    let i = Rng.int rng (Bytes.length b) in
    let bit = 1 lsl Rng.int rng 8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
    Bytes.to_string b
  end

let truncate rng s =
  if String.length s = 0 then s else String.sub s 0 (Rng.int rng (String.length s))

let insert_byte rng s =
  let i = Rng.int rng (String.length s + 1) in
  let c = Char.chr (Rng.int rng 256) in
  String.sub s 0 i ^ String.make 1 c ^ String.sub s i (String.length s - i)

let on_lines f rng s =
  let lines = String.split_on_char '\n' s in
  String.concat "\n" (f rng lines)

let delete_line =
  on_lines (fun rng lines ->
      match lines with
      | [] -> []
      | _ ->
        let k = Rng.int rng (List.length lines) in
        List.filteri (fun i _ -> i <> k) lines)

let duplicate_line =
  on_lines (fun rng lines ->
      match lines with
      | [] -> []
      | _ ->
        let k = Rng.int rng (List.length lines) in
        List.concat_map
          (fun (i, l) -> if i = k then [ l; l ] else [ l ])
          (List.mapi (fun i l -> (i, l)) lines))

let splice rng a b =
  let cut s = String.sub s 0 (Rng.int rng (String.length s + 1)) in
  let tail s =
    let i = Rng.int rng (String.length s + 1) in
    String.sub s i (String.length s - i)
  in
  cut a ^ tail b

let mutate rng sources s =
  match Rng.int rng 6 with
  | 0 -> flip_byte rng s
  | 1 -> truncate rng s
  | 2 -> insert_byte rng s
  | 3 -> delete_line rng s
  | 4 -> duplicate_line rng s
  | _ -> splice rng s (Rng.choose rng sources)

(* Several rounds of mutation drift further from well-formed input. *)
let mutant rng sources s =
  let rounds = 1 + Rng.int rng 3 in
  let out = ref s in
  for _ = 1 to rounds do
    out := mutate rng sources !out
  done;
  !out

let sources () =
  let registry =
    List.map
      (fun (e : Bist_bench.Registry.entry) ->
        Bench_writer.to_string (e.circuit ()))
      (Bist_bench.Registry.s27 :: Bist_bench.Registry.evaluation_suite ())
  in
  Bist_bench.S27.bench_text :: registry

let test_fuzz_parse () =
  let sources = Array.of_list (sources ()) in
  let rng = Rng.create seed in
  let total = ref 0 and parsed = ref 0 and rejected = ref 0 in
  Array.iter
    (fun src ->
      for i = 1 to mutations_per_source do
        incr total;
        let text = mutant rng sources src in
        match Bench_parser.parse_string ~name:(Printf.sprintf "fuzz%d" i) text with
        | (_ : Bist_circuit.Netlist.t) -> incr parsed
        | exception Bench_parser.Parse_error _ -> incr rejected
        | exception exn ->
          Alcotest.failf
            "mutant #%d escaped the parser with %s (input %d bytes):\n%s"
            !total (Printexc.to_string exn) (String.length text)
            (if String.length text > 400 then String.sub text 0 400 ^ "..."
             else text)
      done)
    sources;
  (* The gate's floor: at least 500 mutants actually exercised, and the
     corpus wasn't degenerate (both outcomes observed). *)
  Alcotest.(check bool)
    (Printf.sprintf "ran %d mutants (>= 500)" !total)
    true (!total >= 500);
  Alcotest.(check bool) "some mutants were rejected" true (!rejected > 0);
  Alcotest.(check bool) "some mutants still parsed" true (!parsed > 0)

let test_pristine_sources_parse () =
  List.iteri
    (fun i src ->
      match Bench_parser.parse_string ~name:(Printf.sprintf "src%d" i) src with
      | (_ : Bist_circuit.Netlist.t) -> ()
      | exception exn ->
        Alcotest.failf "pristine source %d failed to parse: %s" i
          (Printexc.to_string exn))
    (sources ())

(* Same harness over the BLIF frontend: the checked-in corpus plus
   writer output as seeds, Blif_parser.Parse_error the only permitted
   rejection. *)

module Blif_parser = Bist_circuit.Blif_parser
module Blif_writer = Bist_circuit.Blif_writer

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let blif_corpus_files =
  [ "counter3.blif"; "k12a.blif"; "pipeline_cells.blif"; "s27_yosys.blif" ]

let blif_sources () =
  let corpus = List.map (fun f -> read_file (Testutil.corpus_path f)) blif_corpus_files in
  let written =
    List.map
      (fun circuit -> Blif_writer.to_string (circuit ()))
      [
        (fun () -> Bist_bench.Registry.s27.Bist_bench.Registry.circuit ());
        Bist_bench.Teaching.gray3;
      ]
  in
  corpus @ written

let test_blif_pristine_sources_parse () =
  List.iteri
    (fun i src ->
      match Blif_parser.parse_string ~name:(Printf.sprintf "src%d" i) src with
      | (_ : Bist_circuit.Netlist.t) -> ()
      | exception exn ->
        Alcotest.failf "pristine BLIF source %d failed to parse: %s" i
          (Printexc.to_string exn))
    (blif_sources ())

let test_blif_fuzz_parse () =
  let sources = Array.of_list (blif_sources ()) in
  let rng = Rng.create seed in
  let total = ref 0 and parsed = ref 0 and rejected = ref 0 in
  Array.iter
    (fun src ->
      for i = 1 to mutations_per_source do
        incr total;
        let text = mutant rng sources src in
        match
          Blif_parser.parse_string ~name:(Printf.sprintf "fuzz%d" i) text
        with
        | (_ : Bist_circuit.Netlist.t) -> incr parsed
        | exception Blif_parser.Parse_error _ -> incr rejected
        | exception exn ->
          Alcotest.failf
            "BLIF mutant #%d escaped the parser with %s (input %d bytes):\n%s"
            !total (Printexc.to_string exn) (String.length text)
            (if String.length text > 400 then String.sub text 0 400 ^ "..."
             else text)
      done)
    sources;
  Alcotest.(check bool)
    (Printf.sprintf "ran %d mutants (>= 500)" !total)
    true (!total >= 500);
  Alcotest.(check bool) "some mutants were rejected" true (!rejected > 0);
  Alcotest.(check bool) "some mutants still parsed" true (!parsed > 0)

let suite =
  [
    Alcotest.test_case "pristine sources parse" `Quick test_pristine_sources_parse;
    Alcotest.test_case "mutants only raise Parse_error" `Quick test_fuzz_parse;
    Alcotest.test_case "pristine BLIF sources parse" `Quick
      test_blif_pristine_sources_parse;
    Alcotest.test_case "BLIF mutants only raise Parse_error" `Quick
      test_blif_fuzz_parse;
  ]
