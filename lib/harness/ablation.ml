module Ops = Bist_core.Ops
module Procedure1 = Bist_core.Procedure1
module Procedure2 = Bist_core.Procedure2
module Postprocess = Bist_core.Postprocess

type variant = {
  label : string;
  operators : Ops.operator list;
  strategy : Procedure2.strategy;
  fault_order : [ `Max_udet | `Min_udet | `Random ];
  passes : Postprocess.pass list;
}

let paper =
  {
    label = "paper (all ops, max-udet, restart)";
    operators = Ops.all_operators;
    strategy = Procedure2.paper_strategy;
    fault_order = `Max_udet;
    passes = Postprocess.default_passes;
  }

let variants =
  [
    paper;
    { paper with label = "fault order: min udet"; fault_order = `Min_udet };
    { paper with label = "fault order: random"; fault_order = `Random };
    { paper with label = "no vector omission";
      strategy = { Procedure2.paper_strategy with omission = `None } };
    { paper with label = "fast strategy (geometric, 1 pass)";
      strategy = Procedure2.fast_strategy };
    { paper with label = "operators: repeat only"; operators = [ Ops.Repeat ] };
    { paper with label = "operators: repeat+complement";
      operators = [ Ops.Repeat; Ops.Complement ] };
    { paper with label = "operators: no shift";
      operators = [ Ops.Repeat; Ops.Complement; Ops.Reverse ] };
    { paper with label = "compaction: single pass";
      passes = [ Postprocess.Reverse_generation ] };
    { paper with label = "compaction: none"; passes = [] };
  ]

type row = {
  variant : variant;
  count : int;
  total_length : int;
  max_length : int;
  covers : bool;
}

let run ?(seed = 5) ~n ~t0 universe =
  List.map
    (fun v ->
      let rng = Bist_util.Rng.create seed in
      let r =
        Procedure1.run ~strategy:v.strategy ~operators:v.operators
          ~fault_order:v.fault_order ~rng ~n ~t0 universe
      in
      let post =
        Postprocess.run ~passes:v.passes ~operators:v.operators
          ~known:(Procedure1.known r) ~n ~targets:r.Procedure1.t0_detected
          universe (Procedure1.sequences r)
      in
      let kept = post.Postprocess.kept in
      {
        variant = v;
        count = List.length kept;
        total_length = Procedure1.total_length kept;
        max_length = Procedure1.max_length kept;
        covers =
          Bist_core.Scheme.verify_coverage ~operators:v.operators ~n universe
            r.Procedure1.t0_detected kept;
      })
    variants

let render rows =
  let module At = Bist_util.Ascii_table in
  let table =
    At.create
      ~headers:
        [ ("variant", At.Left); ("|S|", At.Right); ("tot len", At.Right);
          ("max len", At.Right); ("covers F", At.Right) ]
  in
  List.iter
    (fun r ->
      At.add_row table
        [ r.variant.label; string_of_int r.count; string_of_int r.total_length;
          string_of_int r.max_length; string_of_bool r.covers ])
    rows;
  At.render table
