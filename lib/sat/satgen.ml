(* SAT-backed fault queries: bounded-exact untestability proofs and
   model-derived tests.

   For one fault the protocol is two incremental solves on one
   freshly-loaded solver (see [Cnf.load] for why fresh-per-fault):
   first under the excitation selector — UNSAT proves the site
   unreachable within the bound — then under the detection selector —
   UNSAT proves propagation blocked, a model decodes into an input
   sequence. Every decoded test is validated (and trimmed to its first
   detection) against the fault simulator ([Fsim.single], on the
   [Ppsfp] kernel) before being returned; a model that fails simulation
   would mean the encoding and the simulator disagree, which
   [Error_kind] surfaces loudly instead of silently dropping coverage. *)

module Tseq = Bist_logic.Tseq
module Vector = Bist_logic.Vector
module T = Bist_logic.Ternary
module Netlist = Bist_circuit.Netlist
module Obs = Bist_obs.Obs

type verdict =
  | Unreachable  (** no sequence of length [<= frames] excites the fault *)
  | Blocked  (** excitable, but no sequence of length [<= frames] detects it *)
  | Test of Tseq.t  (** a simulator-validated detecting sequence *)
  | Unknown  (** conflict budget exhausted before a verdict *)

let verdict_name = function
  | Unreachable -> "unreachable"
  | Blocked -> "blocked"
  | Test _ -> "test"
  | Unknown -> "unknown"

let default_conflicts = 20_000

exception
  Encoding_mismatch of {
    circuit : string;
    fault : string;
    frames : int;
  }
(* A SAT model whose decoded sequence the simulator rejects: an
   encoder/simulator divergence, never expected. *)

let () =
  Printexc.register_printer (function
    | Encoding_mismatch { circuit; fault; frames } ->
      Some
        (Printf.sprintf
           "Satgen.Encoding_mismatch: SAT model for %s fault %s (%d frames) \
            failed fault-simulation validation"
           circuit fault frames)
    | _ -> None)

let decode_model view solver =
  let circuit = Cnf.circuit view in
  let k = Cnf.frames view in
  let w = Netlist.num_inputs circuit in
  Tseq.of_vectors
    (Array.init k (fun f ->
         Vector.init w (fun pi ->
             if Solver.model_lit solver (Cnf.pi_one_lit view ~frame:f ~pi) then
               T.One
             else T.Zero)))

(* Validate against the simulator and trim to the first detection. *)
let validate_and_trim view fault seq =
  let circuit = Cnf.circuit view in
  match
    Bist_fault.Fsim.single_detection_time
      (Bist_fault.Fsim.single circuit fault)
      seq
  with
  | Some u -> Tseq.sub seq ~lo:0 ~hi:u
  | None ->
    raise
      (Encoding_mismatch
         {
           circuit = Netlist.circuit_name circuit;
           fault = Bist_fault.Fault.name circuit fault;
           frames = Cnf.frames view;
         })

let solve_fault ?(obs = Obs.null) ?ctl ?(max_conflicts = default_conflicts)
    view fault =
  let result = ref Unknown in
  Obs.span obs ~cat:"sat" "sat.fault"
    ~args:(fun () ->
      [
        ("fault", Bist_fault.Fault.name (Cnf.circuit view) fault);
        ("frames", string_of_int (Cnf.frames view));
        ("verdict", verdict_name !result);
      ])
    (fun () ->
      let solver, q = Cnf.load view fault in
      (match
         Solver.solve ?ctl ~assumptions:[| q.Cnf.excite |] ~max_conflicts
           solver
       with
      | Solver.Unsat -> result := Unreachable
      | Solver.Unknown -> result := Unknown
      | Solver.Sat -> (
        match
          Solver.solve ?ctl ~assumptions:[| q.Cnf.detect |] ~max_conflicts
            solver
        with
        | Solver.Unsat -> result := Blocked
        | Solver.Unknown -> result := Unknown
        | Solver.Sat ->
          result :=
            Test (validate_and_trim view fault (decode_model view solver))));
      !result)
