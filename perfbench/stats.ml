(* Summary statistics and host probes shared by the workloads. *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile xs p =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* p95, when at least ten samples lie beyond it; below 200 samples the
   median stands in, since the maximum of a handful of ops is one
   sample's noise and spread by a fifth between runs of identical work.
   Not p99: over ten runs of the same bistd mix, p99 spread 0.17 to 0.35
   of its median, as host stalls hit one job in a hundred in some runs
   and not in others, where p95 spread 0.10. A fixed percentile also
   keeps a faster run from reporting a different one. Returns (label,
   value, samples). *)
let tail xs =
  let n = List.length xs in
  if float_of_int n *. 0.05 >= 10.0 then ("p95", percentile xs 95.0, n)
  else ("p50", median xs, n)

let time f =
  let t0 = Span.now () in
  let v = f () in
  (v, Span.now () -. t0)

(* Peak resident set of a process, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
        | Some kb -> float_of_int kb /. 1024.0
        | None -> acc)
      nan (String.split_on_char '\n' text)

(* A fixed integer loop that calls nothing in the program: its time
   tracks host speed, so drift between runs shows up next to the
   results. *)
let calibrate () =
  let once () =
    snd
      (time (fun () ->
           let x = ref 1 in
           for i = 1 to 30_000_000 do
             x := (!x * 1103515245 + i) land 0x3fffffff
           done;
           ignore (Sys.opaque_identity !x)))
  in
  median (List.init 3 (fun _ -> once ()))
