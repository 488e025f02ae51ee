(* In-memory span recorder for the benchmark's traced runs.

   Spans are taken in the benchmark's own code, around its calls into
   each layer's public functions; the library itself is not
   instrumented.  Recording is off unless [enabled] is set, and when
   off a span costs two clock reads (the duration is still returned
   so the benchmark can keep per-layer samples).  Spans are kept in
   memory and written once, at the end, as Chrome trace-event JSON. *)

type t = {
  id : int;
  name : string;
  parent : int;  (** 0 = no parent *)
  op : int;  (** the operation (pass, query, edit) this span serves; 0 = none *)
  tid : int;
  t0 : float;
  t1 : float;
}

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = ref 1

(* Open spans per thread: (span id, op id) stacks keyed by Thread.id,
   so client threads in the serving loop nest independently. *)
let stacks : (int, (int * int) list) Hashtbl.t = Hashtbl.create 8

let with_lock f =
  Mutex.lock lock;
  match f () with
  | v ->
    Mutex.unlock lock;
    v
  | exception e ->
    Mutex.unlock lock;
    raise e

(* Run [f] inside a span; [op] starts a new operation id for this span
   and its children.  Returns [f]'s result and the span's duration. *)
let timed ?(op = false) name f =
  if not !enabled then begin
    let t0 = now () in
    let v = f () in
    (v, now () -. t0)
  end
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent, op_id =
      with_lock (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
          let parent, outer_op = match stack with (p, o) :: _ -> (p, o) | [] -> (0, 0) in
          let op_id = if op then id else outer_op in
          Hashtbl.replace stacks tid ((id, op_id) :: stack);
          (id, parent, op_id))
    in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      with_lock (fun () ->
          (match Hashtbl.find_opt stacks tid with
          | Some (_ :: rest) -> Hashtbl.replace stacks tid rest
          | _ -> ());
          recorded := { id; name; parent; op = op_id; tid; t0; t1 } :: !recorded);
      t1 -. t0
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

let span ?op name f = fst (timed ?op name f)

let spans () = with_lock (fun () -> List.rev !recorded)

(* Self time of every span: its duration minus the union of its
   children's intervals (children of one parent may overlap when they
   run on different threads). *)
let self_times (all : t list) =
  let children = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) all;
  List.map
    (fun s ->
      let kids = List.sort (fun a b -> compare a.t0 b.t0) (Hashtbl.find_all children s.id) in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) k ->
            let lo = Float.max k.t0 reach and hi = Float.min k.t1 s.t1 in
            if hi > lo then (acc +. (hi -. lo), hi) else (acc, Float.max reach k.t1))
          (0.0, s.t0) kids
      in
      (s, Float.max 0.0 (s.t1 -. s.t0 -. covered)))
    all

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON ("X" complete events, microseconds), one
   process id per workload run; opens in Perfetto or chrome://tracing. *)
let write_chrome ~path ~pid (all : t list) =
  let origin = List.fold_left (fun m s -> Float.min m s.t0) infinity all in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"op\":%d}}"
        (if i = 0 then "" else ",\n")
        (json_string s.name)
        ((s.t0 -. origin) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        pid s.tid s.id s.parent s.op)
    all;
  output_string oc "\n]}\n";
  close_out oc
