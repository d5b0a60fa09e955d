module Netlist = Bist_circuit.Netlist
module Validate = Bist_circuit.Validate
module Gate = Bist_circuit.Gate
module Ternary = Bist_logic.Ternary
module Fault = Bist_fault.Fault
module Universe = Bist_fault.Universe
module Bitset = Bist_util.Bitset

type reason =
  | Unexcitable
  | Unobservable
  | Blocked
  | Sat_unreachable
  | Sat_blocked

let reason_name = function
  | Unexcitable -> "unexcitable"
  | Unobservable -> "unobservable"
  | Blocked -> "blocked"
  | Sat_unreachable -> "sat-unreachable"
  | Sat_blocked -> "sat-blocked"

(* How a node can cut propagation when it appears as a side input of a
   gate on the propagation path. *)
type blocker =
  | Not_blocker
  | Solid of Ternary.t  (* always exactly this binary value, never X *)
  | Always_x  (* never leaves X *)

type t = {
  circuit : Netlist.t;
  ach : int array;  (* achievable-value masks, Validate.achievable *)
  blocker : blocker array;
  obs : bool array;  (* observable with every blocker active *)
  obs_structural : bool array;  (* observable ignoring blockers *)
  reaches_blocking : bool array;
      (* nodes whose forward cone contains some node used as a blocking
         side pin somewhere — faults there need per-fault refinement *)
}

let has0 m = m land 0b01 <> 0
let has1 m = m land 0b10 <> 0

(* Nodes that provably never carry X: primary inputs (WLOG binary — any
   X input can be refined to a binary one without losing detections),
   constants, and gates all of whose fanins are never-X or which have a
   solid controlling fanin. Flip-flops are X at power-up, so never. A
   single topological pass suffices: sources are fixed and combinational
   nodes only depend on their fanins. *)
let compute_blockers c ach =
  let n = Netlist.size c in
  let never_x = Array.make n false in
  Array.iter (fun pi -> never_x.(pi) <- true) (Netlist.inputs c);
  Array.iter
    (fun node ->
      let fanins = Netlist.fanins c node in
      let solid_controlling d =
        never_x.(d)
        &&
        match Gate.controlling_value (Netlist.kind c node) with
        | Some Ternary.Zero -> ach.(d) = 0b01
        | Some Ternary.One -> ach.(d) = 0b10
        | _ -> false
      in
      match Netlist.kind c node with
      | Gate.Const0 | Gate.Const1 -> never_x.(node) <- true
      | _ ->
        never_x.(node) <-
          Array.for_all (fun d -> never_x.(d)) fanins
          || Array.exists solid_controlling fanins)
    (Netlist.topo_order c);
  Array.init n (fun node ->
      if ach.(node) = 0 then Always_x
      else if never_x.(node) then
        match ach.(node) with
        | 0b01 -> Solid Ternary.Zero
        | 0b10 -> Solid Ternary.One
        | _ -> Not_blocker
      else Not_blocker)

(* Whether side pin [j] of [gate] cuts a conflict entering through
   another pin, given [active d] saying whether node [d] may serve as a
   blocker (false inside the fault cone during refinement). *)
let side_blocks c blocker ~active gate j =
  let d = (Netlist.fanins c gate).(j) in
  active d
  &&
  match Netlist.kind c gate with
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor -> (
    match blocker.(d) with
    | Always_x -> true
    | Solid v -> Gate.controlling_value (Netlist.kind c gate) = Some v
    | Not_blocker -> false)
  | Gate.Xor | Gate.Xnor -> blocker.(d) = Always_x
  | _ -> false

(* Can a conflict on fanin pin [p] of [gate] reach the gate's output? *)
let pin_passes c blocker ~active gate p =
  let fanins = Netlist.fanins c gate in
  let ok = ref true in
  for j = 0 to Array.length fanins - 1 do
    if j <> p && side_blocks c blocker ~active gate j then ok := false
  done;
  !ok

(* Backward reachability from the primary outputs over the fanin edges
   that pass the blocking test. Plain graph reachability: whether a pin
   passes depends only on static side-pin properties, not on the
   reachability being computed. *)
let compute_obs c blocker ~active =
  let obs = Array.make (Netlist.size c) false in
  let rec visit node =
    if not obs.(node) then begin
      obs.(node) <- true;
      Array.iteri
        (fun p d -> if pin_passes c blocker ~active node p then visit_in d)
        (Netlist.fanins c node)
    end
  and visit_in d = if not obs.(d) then visit d in
  Array.iter visit (Netlist.outputs c);
  obs

let analyze c =
  let ach = Validate.achievable c in
  let blocker = compute_blockers c ach in
  let all _ = true in
  let obs = compute_obs c blocker ~active:all in
  let obs_structural = compute_obs c blocker ~active:(fun _ -> false) in
  (* Mark every node whose forward cone contains a node that actually
     blocks some pin somewhere: backward fanin closure from those
     blocking sides. *)
  let n = Netlist.size c in
  let reaches = Array.make n false in
  let rec back d =
    if not reaches.(d) then begin
      reaches.(d) <- true;
      Array.iter back (Netlist.fanins c d)
    end
  in
  for gate = 0 to n - 1 do
    let fanins = Netlist.fanins c gate in
    for j = 0 to Array.length fanins - 1 do
      if side_blocks c blocker ~active:all gate j then back fanins.(j)
    done
  done;
  { circuit = c; ach; blocker; obs; obs_structural; reaches_blocking = reaches }

(* Forward structural cone of a node: everything the faulty machine can
   possibly deviate on (fanouts, crossing flip-flops over time). *)
let forward_cone c root =
  let inside = Array.make (Netlist.size c) false in
  let rec visit node =
    if not inside.(node) then begin
      inside.(node) <- true;
      Array.iter visit (Netlist.fanouts c node)
    end
  in
  visit root;
  inside

(* Is the fault observable, on the exact line it pins? A stem fault is
   observable iff its node is; a pin fault additionally needs its own
   pin to pass into the gate. *)
let fault_observable c blocker obs ~active f =
  match f.Fault.site with
  | Fault.Output node -> obs.(node)
  | Fault.Pin { gate; pin } ->
    obs.(gate) && pin_passes c blocker ~active gate pin

let fault_root f =
  match f.Fault.site with
  | Fault.Output node -> node
  | Fault.Pin { gate; pin = _ } -> gate

let fault_driver c f =
  match f.Fault.site with
  | Fault.Output node -> node
  | Fault.Pin { gate; pin } -> (Netlist.fanins c gate).(pin)

let check t f =
  let c = t.circuit in
  let driver = fault_driver c f in
  let excitable =
    match f.Fault.stuck with
    | Ternary.Zero -> has1 t.ach.(driver)
    | Ternary.One -> has0 t.ach.(driver)
    | Ternary.X -> invalid_arg "Untestable.check"
  in
  let all _ = true in
  if not excitable then Some Unexcitable
  else if fault_observable c t.blocker t.obs ~active:all f then None
  else begin
    (* Propagation is cut under the full blocker set. Decide why. *)
    let structurally_dead =
      match f.Fault.site with
      | Fault.Output node -> not t.obs_structural.(node)
      | Fault.Pin { gate; _ } -> not t.obs_structural.(gate)
    in
    if structurally_dead then Some Unobservable
    else begin
      (* Cut only by blockers. The proof holds as long as no blocker sits
         inside the fault's own fanout cone; otherwise re-run the
         reachability with in-cone blockers disabled. *)
      let root = fault_root f in
      if not t.reaches_blocking.(root) then Some Blocked
      else begin
        let cone = forward_cone c root in
        let active d = not cone.(d) in
        let obs = compute_obs c t.blocker ~active in
        if fault_observable c t.blocker obs ~active f then None
        else Some Blocked
      end
    end
  end

type prescreen = {
  untestable : Bitset.t;
  unexcitable : int;
  unobservable : int;
  blocked : int;
}

let prescreen_universe u =
  let t = analyze (Universe.circuit u) in
  let untestable = Bitset.create (Universe.size u) in
  let unexcitable = ref 0 and unobservable = ref 0 and blocked = ref 0 in
  Universe.iter
    (fun id f ->
      match check t f with
      | None -> ()
      | Some r ->
        Bitset.add untestable id;
        (match r with
        | Unexcitable -> incr unexcitable
        | Unobservable -> incr unobservable
        | Blocked -> incr blocked
        | Sat_unreachable | Sat_blocked -> assert false (* check is structural *)))
    u;
  {
    untestable;
    unexcitable = !unexcitable;
    unobservable = !unobservable;
    blocked = !blocked;
  }

let total p = p.unexcitable + p.unobservable + p.blocked

(* --- Exact (SAT-backed) prescreen ---------------------------------- *)

type exact_config = {
  frames : int;
  max_conflicts : int;
  sat_cap : int;
  refute_rounds : int;
  refute_length : int;
  seed : int;
}

let default_exact_config =
  {
    frames = 8;
    max_conflicts = 20_000;
    sat_cap = 64;
    refute_rounds = 4;
    refute_length = 48;
    seed = 0xBB5;
  }

type exact = {
  config : exact_config;
  structural : prescreen;
  proved : Bitset.t;
  refuted : Bitset.t;
  unknown : Bitset.t;
  sat_unreachable : int;
  sat_blocked : int;
  sat_attempted : int;
  sat_tests : (int * Bist_logic.Tseq.t) list;
}

let exact_prescreen ?(obs = Bist_obs.Obs.null) ?ctl
    ?(config = default_exact_config) u =
  let circuit = Universe.circuit u in
  let n = Universe.size u in
  let structural =
    Bist_obs.Obs.span obs ~cat:"analyze" "untestable.structural" (fun () ->
        prescreen_universe u)
  in
  let proved = Bitset.copy structural.untestable in
  let refuted = Bitset.create n in
  (* Phase 2: cheap refutation by random simulation — any fault a
     concrete sequence detects is testable, no SAT call needed. Fixed
     seed: lint output and engine behaviour stay deterministic. *)
  Bist_obs.Obs.span obs ~cat:"analyze" "untestable.sim_refute" (fun () ->
      let rng = Bist_util.Rng.create config.seed in
      let targets = Bitset.create n in
      Bitset.fill targets;
      Bitset.diff_into targets proved;
      for _ = 1 to config.refute_rounds do
        if not (Bitset.is_empty targets) then begin
          let seq =
            Bist_logic.Tseq.random_binary rng
              ~width:(Netlist.num_inputs circuit)
              ~length:config.refute_length
          in
          let outcome = Bist_fault.Fsim.run ~obs ?ctl ~targets u seq in
          Bitset.union_into refuted outcome.Bist_fault.Fsim.detected;
          Bitset.diff_into targets outcome.Bist_fault.Fsim.detected
        end
      done);
  (* Phase 3: the hard tail goes to the SAT solver, in fault-id order up
     to [sat_cap] queries ([sat_cap < 0] removes the cap; [sat_cap = 0]
     disables the phase). *)
  let sat_unreachable = ref 0 in
  let sat_blocked = ref 0 in
  let sat_attempted = ref 0 in
  let sat_tests = ref [] in
  let remaining = Bitset.create n in
  Bitset.fill remaining;
  Bitset.diff_into remaining proved;
  Bitset.diff_into remaining refuted;
  if config.sat_cap <> 0 && not (Bitset.is_empty remaining) then
    Bist_obs.Obs.span obs ~cat:"analyze" "untestable.sat"
      ~args:(fun () ->
        [
          ("attempted", string_of_int !sat_attempted);
          ("proved", string_of_int (!sat_unreachable + !sat_blocked));
          ("tests", string_of_int (List.length !sat_tests));
        ])
      (fun () ->
        let view = Bist_sat.Cnf.view ~frames:config.frames circuit in
        Bitset.iter
          (fun id ->
            if config.sat_cap < 0 || !sat_attempted < config.sat_cap then begin
              incr sat_attempted;
              match
                Bist_sat.Satgen.solve_fault ~obs ?ctl
                  ~max_conflicts:config.max_conflicts view (Universe.get u id)
              with
              | Bist_sat.Satgen.Unreachable ->
                incr sat_unreachable;
                Bitset.add proved id
              | Bist_sat.Satgen.Blocked ->
                incr sat_blocked;
                Bitset.add proved id
              | Bist_sat.Satgen.Test seq ->
                Bitset.add refuted id;
                sat_tests := (id, seq) :: !sat_tests
              | Bist_sat.Satgen.Unknown -> ()
            end)
          remaining);
  let unknown = Bitset.create n in
  Bitset.fill unknown;
  Bitset.diff_into unknown proved;
  Bitset.diff_into unknown refuted;
  {
    config;
    structural;
    proved;
    refuted;
    unknown;
    sat_unreachable = !sat_unreachable;
    sat_blocked = !sat_blocked;
    sat_attempted = !sat_attempted;
    sat_tests = List.rev !sat_tests;
  }

let exact_proved_total e = Bitset.cardinal e.proved
