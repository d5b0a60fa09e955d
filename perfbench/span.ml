(* Spans recorded from outside the program, around calls into one layer's
   public functions. Spans stay in memory until [to_trace] at exit. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 for an op's root span. *)
  start : float;
  mutable stop : float;
  mutable alloc_words : float;  (** Minor words allocated inside the span. *)
}

type t = {
  origin : float;
  mutable spans : span list;  (** Newest first. *)
  mutable stack : span list;
  mutable next_id : int;
}

let create () = { origin = now (); spans = []; stack = []; next_id = 0 }

let record t ~op name f =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s =
    { id = t.next_id; name; op; parent; start = now (); stop = nan;
      alloc_words = 0.0 }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- s :: t.stack;
  let words = Gc.minor_words () in
  let finish () =
    s.alloc_words <- Gc.minor_words () -. words;
    s.stop <- now ();
    t.stack <- List.tl t.stack;
    t.spans <- s :: t.spans
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

(* A span's self time is its duration minus its direct children's. *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    (spans t)

(* Per-op totals of [f span self] over the spans named [name]. *)
let per_op t ~ops name f =
  let selfs = self_times t in
  List.map
    (fun op ->
      List.fold_left
        (fun acc (s, self) -> if s.op = op && s.name = name then acc +. f s self else acc)
        0.0 selfs)
    ops

(* Chrome trace-event document; [summary] lands in the args of a final
   zero-length "perfbench.summary" event. *)
let to_trace t ~summary =
  let trace = Bist_obs.Trace.create () in
  let us x = x *. 1e6 in
  List.iter
    (fun (s, self) ->
      Bist_obs.Trace.add trace ~name:s.name ~cat:"perfbench"
        ~ts_us:(us (s.start -. t.origin)) ~dur_us:(us (duration s)) ~tid:0
        ~args:
          [ ("id", string_of_int s.id); ("op", string_of_int s.op);
            ("parent", string_of_int s.parent);
            ("self_us", Printf.sprintf "%.3f" (us self));
            ("alloc_words", Printf.sprintf "%.0f" s.alloc_words) ])
    (self_times t);
  Bist_obs.Trace.add trace ~name:"perfbench.summary" ~cat:"perfbench"
    ~ts_us:(us (now () -. t.origin)) ~dur_us:0.0 ~tid:0 ~args:summary;
  trace
