module Netlist = Bist_circuit.Netlist
module Validate = Bist_circuit.Validate
module Fault = Bist_fault.Fault
module Universe = Bist_fault.Universe

type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type finding = {
  severity : severity;
  category : string;
  message : string;
  nodes : string list;
}

type report = { circuit : string; findings : finding list }

let max_named_nodes = 8

let names c nodes = List.sort compare (List.map (Netlist.name c) nodes)

let truncate nodes =
  let n = List.length nodes in
  if n <= max_named_nodes then nodes
  else List.filteri (fun i _ -> i < max_named_nodes) nodes @ [ "..." ]

let plural n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s")

let validate_findings c =
  let r = Validate.check c in
  let finding severity category noun rest nodes =
    if nodes = [] then []
    else
      [
        {
          severity;
          category;
          message = plural (List.length nodes) noun ^ " " ^ rest;
          nodes = truncate (names c nodes);
        };
      ]
  in
  finding Warning "dangling" "dangling node" "(no fanout, not a primary output)"
    r.Validate.dangling
  @ finding Warning "unobservable" "node" "with no path to any primary output"
      r.Validate.unobservable
  @ finding Error "uncontrollable-ff" "flip-flop"
      "unreachable from any primary input" r.Validate.uncontrollable_ffs
  @ finding Warning "uninitializable-ff" "flip-flop"
      "that can never leave X under 3-valued simulation"
      r.Validate.maybe_uninitializable_ffs

(* The untestability section distinguishes three exact buckets: faults
   {e proved} untestable (one warning, the actionable set), faults
   {e refuted} by a concrete detecting test (info — they are ordinary
   testable faults and never count against a warning budget), and the
   {e unknown} residue. Without a SAT config the proofs are the
   structural ones and unknown is informational; with SAT enabled the
   report is exact up to the frame bound, so a non-empty unknown set
   is itself a warning (raise the frame bound or budgets to clear
   it). *)
let untestable_findings ?sat c =
  let u = Universe.collapsed c in
  let config =
    match sat with
    | Some cfg -> cfg
    | None -> { Untestable.default_exact_config with Untestable.sat_cap = 0 }
  in
  let sat_on = config.Untestable.sat_cap <> 0 in
  let e = Untestable.exact_prescreen ~config u in
  let fault_names set =
    List.map (fun id -> Fault.name c (Universe.get u id))
      (Bist_util.Bitset.elements set)
  in
  let total = Universe.size u in
  let n_proved = Bist_util.Bitset.cardinal e.Untestable.proved in
  let n_refuted = Bist_util.Bitset.cardinal e.Untestable.refuted in
  let n_unknown = Bist_util.Bitset.cardinal e.Untestable.unknown in
  let p = e.Untestable.structural in
  let proved_finding =
    if n_proved = 0 then []
    else
      [
        {
          severity = Warning;
          category = "untestable-faults";
          message =
            Printf.sprintf
              "%s proved untestable (of %d collapsed): %d unexcitable, %d \
               unobservable, %d propagation-blocked%s"
              (plural n_proved "fault") total p.Untestable.unexcitable
              p.Untestable.unobservable p.Untestable.blocked
              (if sat_on then
                 Printf.sprintf
                   ", %d SAT-unreachable, %d SAT-blocked (frame bound %d)"
                   e.Untestable.sat_unreachable e.Untestable.sat_blocked
                   config.Untestable.frames
               else "");
          nodes = truncate (fault_names e.Untestable.proved);
        };
      ]
  in
  let refuted_finding =
    if n_refuted = 0 then []
    else
      [
        {
          severity = Info;
          category = "refuted-faults";
          message =
            Printf.sprintf
              "%d of %d collapsed faults refuted by a concrete test%s"
              n_refuted total
              (match List.length e.Untestable.sat_tests with
              | 0 -> ""
              | k -> Printf.sprintf " (%d via SAT-derived tests)" k);
          nodes = [];
        };
      ]
  in
  let unknown_finding =
    if n_unknown = 0 then []
    else
      [
        {
          severity = (if sat_on then Warning else Info);
          category = "unknown-testability";
          message =
            Printf.sprintf
              "%s unresolved (no untestability proof, no detecting test%s)"
              (plural n_unknown "fault")
              (if sat_on then
                 Printf.sprintf " within %d frames / %d conflicts / cap %d"
                   config.Untestable.frames config.Untestable.max_conflicts
                   config.Untestable.sat_cap
               else " found by simulation");
          nodes = truncate (fault_names e.Untestable.unknown);
        };
      ]
  in
  proved_finding @ refuted_finding @ unknown_finding

let sgraph_findings c =
  let g = Sgraph.analyze c in
  if Sgraph.num_ffs g = 0 then []
  else begin
    let info =
      {
        severity = Info;
        category = "s-graph";
        message =
          Printf.sprintf
            "%s, %s (largest %d, %d cyclic), sequential depth %d"
            (plural (Sgraph.num_ffs g) "flip-flop")
            (plural (Sgraph.num_sccs g) "SCC")
            (Sgraph.largest_scc g) (Sgraph.nontrivial_sccs g) (Sgraph.depth g);
        nodes = [];
      }
    in
    let risk = Sgraph.x_risk g in
    let risk_finding =
      if risk = [] then []
      else
        [
          {
            severity = Warning;
            category = "x-risk";
            message =
              Printf.sprintf
                "%s may hold X indefinitely (cyclic state core with no \
                 round-0 synchronization) — X-contaminated MISR signatures \
                 likely"
                (plural (List.length risk) "flip-flop");
            nodes = truncate (names c risk);
          };
        ]
    in
    info :: risk_finding
  end

let scoap_findings c =
  let s = Scoap.compute c in
  let sum = Scoap.summarize s (Universe.collapsed c) in
  [
    {
      severity = Info;
      category = "scoap";
      message =
        Printf.sprintf
          "SCOAP over %s: median cost %d, max finite %d, %d saturated"
          (plural sum.Scoap.faults "collapsed fault")
          sum.Scoap.median_cost sum.Scoap.max_finite_cost sum.Scoap.saturated;
      nodes = [];
    };
  ]

let run ?sat c =
  {
    circuit = Netlist.circuit_name c;
    findings =
      validate_findings c @ untestable_findings ?sat c @ sgraph_findings c
      @ scoap_findings c;
  }

let count sev r =
  List.length (List.filter (fun f -> f.severity = sev) r.findings)

let errors = count Error
let warnings = count Warning
let infos = count Info

let pp fmt r =
  List.iter
    (fun f ->
      Format.fprintf fmt "%s: %s[%s]: %s" r.circuit (severity_name f.severity)
        f.category f.message;
      if f.nodes <> [] then
        Format.fprintf fmt " (%s)" (String.concat " " f.nodes);
      Format.fprintf fmt "@.")
    r.findings;
  Format.fprintf fmt "%s: %d error(s), %d warning(s), %d info(s)@." r.circuit
    (errors r) (warnings r) (infos r)

let json_string s = "\"" ^ Bist_obs.Trace.escape_json s ^ "\""

let to_json r =
  let finding f =
    Printf.sprintf "{\"severity\":%s,\"category\":%s,\"message\":%s,\"nodes\":[%s]}"
      (json_string (severity_name f.severity))
      (json_string f.category) (json_string f.message)
      (String.concat "," (List.map json_string f.nodes))
  in
  Printf.sprintf
    "{\"circuit\":%s,\"errors\":%d,\"warnings\":%d,\"infos\":%d,\"findings\":[%s]}"
    (json_string r.circuit) (errors r) (warnings r) (infos r)
    (String.concat "," (List.map finding r.findings))
