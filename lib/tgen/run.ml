module Checkpoint = Bist_resilience.Checkpoint
module Io = Checkpoint.Io

type params = {
  seed : int;
  directed : int;
  trials : int;
  sat_budget : int;
  sat_frames : int;
  sat_conflicts : int;
}

type stage =
  | Generating of Engine.snapshot
  | Compacting of Engine.stats * Compaction.snapshot

exception Interrupted of stage

let encode_payload p stage =
  let w = Io.writer () in
  Io.u32 w p.seed;
  Io.u32 w p.directed;
  Io.u32 w p.trials;
  Io.u32 w p.sat_budget;
  Io.u32 w p.sat_frames;
  Io.u32 w p.sat_conflicts;
  (match stage with
  | Generating s ->
    Io.u8 w 0;
    Engine.encode_snapshot w s
  | Compacting (stats, cs) ->
    Io.u8 w 1;
    Io.u32 w stats.Engine.rounds;
    Io.u32 w stats.segments_accepted;
    Io.u32 w stats.detected;
    Io.u32 w stats.total_faults;
    Io.u32 w stats.statically_untestable;
    Io.u32 w stats.sat_proved;
    Io.u32 w stats.sat_tests;
    Compaction.encode_snapshot w cs);
  Io.contents w

let decode_payload p payload =
  let r = Io.reader payload in
  let echo what expected =
    let got = Io.r_u32 r in
    if got <> expected then
      raise
        (Checkpoint.Mismatch
           (Printf.sprintf
              "checkpoint was written with %s %d, this run uses %d — \
               re-invoke with the original parameters"
              what got expected))
  in
  echo "--seed" p.seed;
  echo "--directed" p.directed;
  echo "--compact-trials" p.trials;
  echo "--sat-budget" p.sat_budget;
  echo "--sat-frames" p.sat_frames;
  echo "--sat-conflicts" p.sat_conflicts;
  let stage =
    match Io.r_u8 r with
    | 0 -> Generating (Engine.decode_snapshot r)
    | 1 ->
      let rounds = Io.r_u32 r in
      let segments_accepted = Io.r_u32 r in
      let detected = Io.r_u32 r in
      let total_faults = Io.r_u32 r in
      let statically_untestable = Io.r_u32 r in
      let sat_proved = Io.r_u32 r in
      let sat_tests = Io.r_u32 r in
      let stats =
        { Engine.rounds; segments_accepted; detected; total_faults;
          statically_untestable; sat_proved; sat_tests }
      in
      Compacting (stats, Compaction.decode_snapshot r)
    | tag ->
      raise (Checkpoint.Corrupt (Printf.sprintf "unknown tgen stage tag %d" tag))
  in
  Io.expect_end r;
  stage

let execute ?(obs = Bist_obs.Obs.null) ?pool ?ctl ?resume p universe =
  let circuit = Bist_fault.Universe.circuit universe in
  let config =
    {
      (Engine.default_config circuit) with
      Engine.directed_budget = p.directed;
      sat_budget = p.sat_budget;
      sat_frames = p.sat_frames;
      sat_conflicts = p.sat_conflicts;
    }
  in
  let rng = Bist_util.Rng.create p.seed in
  (* A run that generates [T0] hands the engine's closing simulation of
     it to compaction as the baseline. *)
  let t0, stats, baseline =
    match resume with
    | Some (Compacting (stats, cs)) -> (cs.Compaction.seq, stats, None)
    | (None | Some (Generating _)) as r -> (
      let engine_resume =
        match r with Some (Generating s) -> Some s | _ -> None
      in
      try
        let t0, stats, final =
          Engine.generate_with_coverage ~config ~obs ?pool ?ctl ?resume:engine_resume ~rng
            universe
        in
        (t0, stats, Some final)
      with Engine.Interrupted s -> raise (Interrupted (Generating s)))
  in
  let compact_resume =
    match resume with Some (Compacting (_, cs)) -> Some cs | _ -> None
  in
  let t0, cstats =
    try
      Compaction.compact ~max_trials:p.trials ~obs ?pool ?ctl
        ?resume:compact_resume ?baseline universe t0
    with Compaction.Interrupted cs -> raise (Interrupted (Compacting (stats, cs)))
  in
  (t0, stats, cstats)
