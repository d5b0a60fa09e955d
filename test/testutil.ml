(* Shared generators and helpers for the test suites. *)

module Tseq = Bist_logic.Tseq
module Vector = Bist_logic.Vector
module T = Bist_logic.Ternary

let qcheck = QCheck_alcotest.to_alcotest

(* QCheck generators *)

let ternary_gen = QCheck.Gen.oneofl [ T.Zero; T.One; T.X ]

let binary_gen = QCheck.Gen.oneofl [ T.Zero; T.One ]

let ternary = QCheck.make ~print:(fun t -> String.make 1 (T.to_char t)) ternary_gen

let vector_gen ~width =
  QCheck.Gen.map
    (fun cells -> Vector.init width (fun i -> List.nth cells i))
    (QCheck.Gen.list_size (QCheck.Gen.return width) ternary_gen)

let seq_gen ~width ~max_len =
  QCheck.Gen.(
    int_range 1 max_len >>= fun len ->
    map
      (fun vecs -> Tseq.of_vectors (Array.of_list vecs))
      (list_size (return len) (vector_gen ~width)))

let seq ~width ~max_len =
  QCheck.make
    ~print:(fun s -> String.concat "," (Tseq.to_strings s))
    (seq_gen ~width ~max_len)

let binary_seq_gen ~width ~max_len =
  QCheck.Gen.(
    int_range 1 max_len >>= fun len ->
    map
      (fun seed ->
        let rng = Bist_util.Rng.create seed in
        Tseq.random_binary rng ~width ~length:len)
      (int_range 0 1_000_000))

let binary_seq ~width ~max_len =
  QCheck.make
    ~print:(fun s -> String.concat "," (Tseq.to_strings s))
    (binary_seq_gen ~width ~max_len)

(* Small random circuits for differential testing. *)
let small_profile seed =
  {
    Bist_bench.Synth.name = Printf.sprintf "rand%d" seed;
    num_inputs = 3 + (seed mod 4);
    num_outputs = 2 + (seed mod 3);
    num_ffs = 2 + (seed mod 5);
    num_gates = 20 + (seed mod 30);
    sync_fraction = 0.8;
    seed;
    style = Bist_bench.Synth.Random;
  }

let small_circuit seed = Bist_bench.Synth.generate (small_profile seed)

let circuit_and_seq_gen =
  QCheck.Gen.(
    int_range 0 500 >>= fun cseed ->
    int_range 0 1_000_000 >>= fun sseed ->
    int_range 2 40 >>= fun len ->
    return (cseed, sseed, len))

let circuit_and_seq =
  QCheck.make
    ~print:(fun (c, s, l) -> Printf.sprintf "circuit seed %d, seq seed %d, len %d" c s l)
    circuit_and_seq_gen

(* Whether lane 0 of the packed simulator, which no fault ever forces,
   reproduces the scalar levelized simulator's outputs at every step. *)
let packed_lane0_matches_seq_sim circuit seq =
  let expected = Bist_sim.Seq_sim.run circuit seq in
  let packed = Bist_sim.Packed_sim.create circuit in
  let ok = ref true in
  Tseq.iteri
    (fun u vec ->
      Bist_sim.Packed_sim.step packed vec;
      Array.iteri
        (fun i _ ->
          let got =
            Bist_logic.Packed.get (Bist_sim.Packed_sim.po_value packed i) 0
          in
          if not (T.equal got (Vector.get expected.(u) i)) then ok := false)
        (Bist_circuit.Netlist.outputs circuit))
    seq;
  !ok

(* Alcotest testables *)

let tseq_testable =
  Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (String.concat "," (Tseq.to_strings s)))
    Tseq.equal

let vector_testable =
  Alcotest.testable Vector.pp Vector.equal

let ternary_testable = Alcotest.testable T.pp T.equal

let check_seq = Alcotest.check tseq_testable
let check_vec = Alcotest.check vector_testable
