module Tseq = Bist_logic.Tseq
module Rng = Bist_util.Rng
module Fsim = Bist_fault.Fsim
module Obs = Bist_obs.Obs

exception Undetected of { fault : string; udet : int }

let () =
  Printexc.register_printer (function
    | Undetected { fault; udet } ->
      Some
        (Printf.sprintf
           "Procedure2.find: T0[0, %d] does not detect fault %s — udet is not \
            this fault's detection time"
           udet fault)
    | _ -> None)

type strategy = {
  widen : [ `Linear | `Geometric ];
  omission : [ `Restart | `Single_pass | `None ];
  max_omission_trials : int;
}

let paper_strategy =
  { widen = `Linear; omission = `Restart; max_omission_trials = max_int }

let fast_strategy =
  { widen = `Geometric; omission = `Single_pass; max_omission_trials = 2000 }

type outcome = {
  subsequence : Tseq.t;
  ustart : int;
  window_length : int;
  simulations : int;
  simulated_time_units : int;
}

let find ?(strategy = paper_strategy) ?(operators = Ops.all_operators)
    ?(obs = Obs.null) ?ctl ~rng ~n ~t0 ~udet circuit fault =
  if udet < 0 || udet >= Tseq.length t0 then invalid_arg "Procedure2.find: udet out of range";
  let fault_name = Bist_fault.Fault.name circuit fault in
  let sims = ref 0 in
  let time_units = ref 0 in
  let single = Fsim.single circuit fault in
  let detects seq =
    (* Every widen step and omission trial funnels through here, so one
       poll covers both loops at simulation granularity. *)
    Bist_resilience.Ctl.poll ctl;
    let exp = Ops.expand_with ~operators ~n seq in
    incr sims;
    time_units := !time_units + Tseq.length exp;
    Fsim.single_detects ?block:(Ops.block_length ~operators ~n seq) single exp
  in
  let window_of ustart = Tseq.sub t0 ~lo:ustart ~hi:udet in
  let give_up () =
    (* A typed error naming the target: when a caller hands [find] a
       [udet] that is not this fault's detection time, the report must
       say which fault broke the run, not just that something did. *)
    Obs.count obs "proc2.undetected";
    raise (Undetected { fault = fault_name; udet })
  in
  (* Phase 1: widen the window until the expansion detects the fault. *)
  let ustart, window =
    Obs.span obs ~cat:"proc2" "proc2.widen"
      ~args:(fun () ->
        [ ("fault", fault_name); ("udet", string_of_int udet);
          ("sims", string_of_int !sims) ])
      (fun () ->
        match strategy.widen with
        | `Linear ->
          let rec widen ustart =
            let candidate = window_of ustart in
            if detects candidate then (ustart, candidate)
            else if ustart = 0 then give_up ()
            else widen (ustart - 1)
          in
          widen udet
        | `Geometric ->
          let rec widen size =
            let ustart = max 0 (udet - size + 1) in
            let candidate = window_of ustart in
            if detects candidate then (ustart, candidate)
            else if ustart = 0 then give_up ()
            else widen (2 * size)
          in
          widen 1)
  in
  let window_length = udet - ustart + 1 in
  (* Phase 2: vector omission (steps 4-9 of the paper's Procedure 2).
     [`Restart] rescans from a fresh random order after every accepted
     omission; [`Single_pass] visits each position once. *)
  let seq = ref window in
  let trials = ref 0 in
  let budget () = !trials < strategy.max_omission_trials in
  let try_omit u =
    if Tseq.length !seq > 1 && u < Tseq.length !seq then begin
      incr trials;
      let candidate = Tseq.omit !seq u in
      if detects candidate then begin
        seq := candidate;
        true
      end
      else false
    end
    else false
  in
  Obs.span obs ~cat:"proc2" "proc2.omit"
    ~args:(fun () ->
      [ ("fault", fault_name); ("trials", string_of_int !trials);
        ("kept", string_of_int (Tseq.length !seq));
        ("window", string_of_int window_length) ])
    (fun () ->
      match strategy.omission with
      | `None -> ()
      | `Single_pass ->
        (* Scan positions once, highest first, so accepted omissions never
           shift a position that is still to be visited. *)
        let len = Tseq.length !seq in
        for u = len - 1 downto 0 do
          if budget () then ignore (try_omit u : bool)
        done
      | `Restart ->
        let continue = ref true in
        while !continue && budget () do
          let order = Rng.permutation rng (Tseq.length !seq) in
          let accepted = ref false in
          let i = ref 0 in
          while (not !accepted) && !i < Array.length order && budget () do
            if try_omit order.(!i) then accepted := true;
            incr i
          done;
          if not !accepted then continue := false
        done);
  Obs.count obs ~by:!sims "proc2.simulations";
  Obs.count obs ~by:!time_units "proc2.time_units";
  {
    subsequence = !seq;
    ustart;
    window_length;
    simulations = !sims;
    simulated_time_units = !time_units;
  }
