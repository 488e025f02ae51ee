(* perfbench: the repository benchmark.

   One executable, three seeded workloads, each driving the public
   library API the way a user of [ptacli] would:

   - cs-cold: the full [analyze -a cs] pipeline (parse, fact
     extraction, Algorithm 3, context numbering, Algorithm 5 prepare,
     CS fixpoint) on gantt and megamek.  Solver and BDD kernel work
     only; no store, serve or certify on the clock.
   - serve-warm: a gantt CS store is built, loaded and frozen during
     set-up, then two client threads run a closed loop against a
     two-worker [Serve.Pool] with a points-to / alias / leak mix.  The
     engine never runs on the clock.
   - edit-stream: a gantt Algorithm 3 store receives a seeded script of
     [Synth.Edits] in blocks of four, each edit taken through the
     [update --watch] path (load, incremental update, certify, save,
     mark, follower poll) until the follower serves the certified
     snapshot.

   Every answer is checked outside the clock (certification, CS-within-
   CI containment, golden satcounts on the default seed, served answers
   against tuples enumerated from the live relation, follower answers
   against the updated engine); failures count against [attempted].

   Usage: bench.exe --workload W --seed N --seconds S --trace 0|1
                    [--scale F] [--inject] [--commit C]
   run from the repository root (perfbench/run.py builds and runs it). *)

module Engine = Datalog.Engine
module Analyses = Pta.Analyses
module Serve = Pta.Serve

(* ---------------- arguments ---------------- *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref false
let scale = ref 0.02
let inject = ref false
let out_dir = ".bench_build/perfbench"
let commit = ref "unknown"
let golden_file = "perfbench/golden.txt"

let usage () =
  prerr_endline
    "usage: bench.exe --workload cs-cold|serve-warm|edit-stream --seed N --seconds S --trace 0|1 [--scale F] \
     [--inject] [--commit ID]";
  exit 2

let parse_args () =
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := v = "1"; go rest
    | "--scale" :: v :: rest -> scale := float_of_string v; go rest
    | "--inject" :: rest -> inject := true; go rest
    | "--commit" :: v :: rest -> commit := v; go rest
    | a :: _ ->
      Printf.eprintf "bench: unknown argument %s\n" a;
      usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload [ "cs-cold"; "serve-warm"; "edit-stream" ]) then usage ();
  if !seconds <= 0.0 then usage ()

(* ---------------- statistics ---------------- *)

(* Linear-interpolation quantile, q in [0, 1]. *)
let quantile xs q =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float pos in
    if i + 1 >= Array.length a then a.(Array.length a - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = List.fold_left ( +. ) 0.0 xs

(* The highest percentile with at least ten samples beyond it, if any. *)
let tail ops =
  let n = List.length ops in
  if n >= 1000 then Some ("p99", quantile ops 0.99) else if n >= 100 then Some ("p90", quantile ops 0.9) else None

(* Log-linear histogram of durations in seconds: 64 sub-buckets per
   power of two of nanoseconds (about 1.5% resolution), in constant
   memory, so that recording a query's latency neither grows the heap
   whose peak is measured nor adds collections to the serving loop. *)
module Hist = struct
  let sub = 64
  let buckets = 48 * sub

  type t = { counts : int array; mutable n : int }

  let create () = { counts = Array.make buckets 0; n = 0 }

  let lower i = Float.ldexp (1.0 +. (float_of_int (i mod sub) /. float_of_int sub)) (i / sub) *. 1e-9

  let add h secs =
    let ns = secs *. 1e9 in
    let i =
      if ns < 1.0 then 0
      else
        let m, e = Float.frexp ns in
        (* ns = m * 2^e with m in [0.5, 1) *)
        min (buckets - 1) (((e - 1) * sub) + int_of_float (((2.0 *. m) -. 1.0) *. float_of_int sub))
    in
    h.counts.(i) <- h.counts.(i) + 1;
    h.n <- h.n + 1

  let merge_into dst src =
    Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
    dst.n <- dst.n + src.n

  (* Interpolated within the bucket holding the rank. *)
  let quantile h q =
    if h.n = 0 then 0.0
    else begin
      let rank = q *. float_of_int (h.n - 1) in
      let rec go i seen =
        let c = h.counts.(i) in
        if c > 0 && float_of_int (seen + c) > rank then
          lower i +. ((lower (i + 1) -. lower i) *. ((rank -. float_of_int seen +. 0.5) /. float_of_int c))
        else if i + 1 >= buckets then lower i
        else go (i + 1) (seen + c)
      in
      go 0 0
    end
end

(* ---------------- correctness accounting ---------------- *)

let attempted = Atomic.make 0
let failed = Atomic.make 0

let check what ok =
  Atomic.incr attempted;
  if not ok then begin
    Atomic.incr failed;
    Printf.eprintf "bench: check failed: %s\n%!" what
  end

(* ---------------- per-layer samples ---------------- *)

let samples : (string, float list) Hashtbl.t = Hashtbl.create 64
let sample_lock = Mutex.create ()

let sample name v =
  Mutex.lock sample_lock;
  Hashtbl.replace samples name (v :: Option.value (Hashtbl.find_opt samples name) ~default:[]);
  Mutex.unlock sample_lock

let samples_of name = Option.value (Hashtbl.find_opt samples name) ~default:[]

(* Time one call into a layer: a span when tracing, a duration sample
   under the span's name always. *)
let layer name f =
  let v, d = Span.timed name f in
  sample name d;
  v

let record_bdd (s : Engine.stats) =
  let lookups, hits = List.fold_left (fun (l, h) (_, hh, mm) -> (l + hh + mm, h + hh)) (0, 0) s.Engine.op_cache in
  let ratio cls =
    match List.find_opt (fun (n, _, _) -> n = cls) s.Engine.op_cache with
    | Some (_, h, m) when h + m > 0 -> float_of_int h /. float_of_int (h + m)
    | _ -> 0.0
  in
  sample "bdd.peak_nodes" (float_of_int s.Engine.peak_live_nodes);
  sample "bdd.table_bytes" (float_of_int s.Engine.arena.Bdd.table_bytes);
  sample "bdd.cache_lookups" (float_of_int lookups);
  sample "bdd.cache_hit_ratio" (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups);
  sample "bdd.relprod_hit_ratio" (ratio "relprod");
  sample "bdd.replace_hit_ratio" (ratio "replace");
  sample "bdd.gcs" (float_of_int s.Engine.gcs);
  sample "bdd.evictions" (float_of_int s.Engine.arena.Bdd.evictions)

let record_alg3 (s : Engine.stats) =
  sample "alg3.rounds" (float_of_int s.Engine.iterations);
  sample "alg3.rule_apps" (float_of_int s.Engine.rule_applications);
  sample "alg3.peak_nodes" (float_of_int s.Engine.peak_live_nodes)

let record_engine (s : Engine.stats) =
  sample "engine.rounds" (float_of_int s.Engine.iterations);
  sample "engine.rule_apps" (float_of_int s.Engine.rule_applications);
  let secs = List.map (fun r -> r.Engine.rs_seconds) s.Engine.rule_stats in
  let total = sum secs in
  sample "engine.top_rule_share" (if total > 0.0 then List.fold_left Float.max 0.0 secs /. total else 0.0);
  record_bdd s

(* ---------------- inputs ---------------- *)

let profile name =
  match Synth.Profiles.find name with Some p -> p | None -> failwith ("unknown profile " ^ name)

let rng salt = Synth.Rng.create ((!seed * 1_000_003) + salt)

(* Edits that make a run's program a seeded variant of its
   profile's program (the one [ptacli gen] writes at this scale).  The
   generator's own seed is left alone on purpose: programs from
   different generator seeds, or with a seeded add-method (a new root),
   differ in analysis cost by a third or more, which would swamp any
   change a run is meant to detect.  Removing allocation sites keeps
   the cost within a few percent. *)
let prefix_edits = 2

let variant_edits name =
  let g = rng (Hashtbl.hash name) in
  List.init prefix_edits (fun _ -> { Synth.Edits.kind = Synth.Edits.Remove_alloc; seed = Synth.Rng.int g 1_000_000 })

let spec_string (e : Synth.Edits.spec) =
  Printf.sprintf "%s:%d"
    (match e.Synth.Edits.kind with
    | Synth.Edits.Add_method -> "add-method"
    | Synth.Edits.Add_alloc -> "add-alloc"
    | Synth.Edits.Remove_alloc -> "remove-alloc")
    e.Synth.Edits.seed

(* How to regenerate a run's program with the CLI. *)
let print_program name =
  Printf.printf "# program %s: ptacli gen %s --scale %g %s\n" name name !scale
    (String.concat " " (List.map (fun e -> "--edit " ^ spec_string e) (variant_edits name)))

let generate name =
  let p = Synth.Generator.generate (Synth.Profiles.params ~scale:!scale (profile name)) in
  List.iter (fun e -> ignore (Synth.Edits.apply p e)) (variant_edits name);
  p

(* ---------------- relation helpers ---------------- *)

let attr_index rel name =
  let rec go i = function
    | [] -> failwith ("no attribute " ^ name)
    | (a : Relation.attr) :: rest -> if a.Relation.attr_name = name then i else go (i + 1) rest
  in
  go 0 (Relation.attrs rel)

let attr_domain rel name = (Relation.find_attr rel name).Relation.block.Space.dom

(* The (variable, heap) pairs of a points-to relation, context
   projected away. *)
let pt_pairs rel =
  let proj = Relation.project rel [ "variable"; "heap" ] in
  let iv = attr_index proj "variable" and ih = attr_index proj "heap" in
  let pairs = Relation.fold_tuples proj ~init:[] ~f:(fun acc t -> (t.(iv), t.(ih)) :: acc) in
  Relation.dispose proj;
  pairs

(* How a query names an element: by its name, or by its decimal
   ordinal (which the protocol also accepts) when the name is not
   unique in its domain — e.g. every add-method edit labels its
   allocation site "edit" — or would not survive tokenizing. *)
let addresser dom =
  let n = Domain.size dom in
  let seen = Hashtbl.create n in
  for i = 0 to n - 1 do
    let name = Domain.element_name dom i in
    Hashtbl.replace seen name (1 + Option.value (Hashtbl.find_opt seen name) ~default:0)
  done;
  fun i ->
    let name = Domain.element_name dom i in
    if Hashtbl.find seen name = 1 && not (String.exists (fun c -> c = ' ' || c = '\t' || c = '#') name) then name
    else string_of_int i

let index_pairs pairs =
  let by_var = Hashtbl.create 4096 and by_heap = Hashtbl.create 4096 in
  List.iter
    (fun (v, h) ->
      Hashtbl.add by_var v h;
      Hashtbl.add by_heap h v)
    pairs;
  let sorted tbl k = List.sort_uniq compare (Hashtbl.find_all tbl k) in
  ((fun v -> sorted by_var v), fun h -> sorted by_heap h)

let certify ~algo fg eng =
  let v = layer "certify" (fun () -> Pta.Certify.certify_engine ~algo ~fresh_inputs:(Pta.Programs.input_relations fg) eng) in
  if not (Pta.Certify.passed v) then List.iter prerr_endline (Pta.Certify.verdict_lines v);
  Pta.Certify.passed v

(* Remove every (variable, heap) pair [v, h] from a points-to relation
   (all contexts): the self-test's injected wrong answer. *)
let drop_pair rel (v, h) =
  let victim = Relation.select (Relation.select rel "variable" v) "heap" h in
  Relation.set_bdd rel (Relation.bdd (Relation.diff rel victim))

(* ---------------- the CS pipeline ---------------- *)

type cs = { fg : Jir.Factgen.t; ci : Analyses.result; eng : Engine.t }

let analyze_cs text =
  let p = layer "jir.parse" (fun () -> Jir.Jparser.parse text) in
  let fg = layer "jir.factgen" (fun () -> Jir.Factgen.extract p) in
  let ci = layer "alg3.solve" (fun () -> Analyses.run_basic ~algo:Analyses.Algo3 fg) in
  let ctx = layer "context.number" (fun () -> Analyses.make_context fg ~ie:(Analyses.ie_tuples ci)) in
  let eng, _ = layer "engine.prepare" (fun () -> Analyses.prepare_cs fg ctx) in
  let stats = layer "engine.solve" (fun () -> Engine.run eng) in
  record_alg3 ci.Analyses.stats;
  record_engine stats;
  sample "context.csize" (float_of_int (Pta.Context.csize ctx));
  { fg; ci; eng }

(* ---------------- golden satcounts ---------------- *)

(* Lines "<profile> <scale> IE=<n> vP=<n> vPC=<n> hP=<n>": the
   default seed's program of each profile. *)
let golden () =
  match open_in golden_file with
  | exception Sys_error _ -> []
  | ic ->
    let rec read acc =
      match input_line ic with
      | exception End_of_file ->
        close_in ic;
        acc
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | name :: sc :: counts when String.length name > 0 && name.[0] <> '#' ->
          let kv =
            List.filter_map
              (fun c ->
                match String.split_on_char '=' c with [ k; v ] -> Some (k, float_of_string v) | _ -> None)
              counts
          in
          read (((name, float_of_string sc), kv) :: acc)
        | _ -> read acc)
    in
    read []

let satcounts r =
  [
    ("IE", Analyses.count r.ci "IE");
    ("vP", Analyses.count r.ci "vP");
    ("vPC", Relation.count (Engine.relation r.eng "vPC"));
    ("hP", Relation.count (Engine.relation r.eng "hP"));
  ]

(* ---------------- end-to-end result ---------------- *)

type e2e = {
  setup : float list;  (** seconds per set-up repetition *)
  n : int;  (** measured operations *)
  p50 : float;  (** median operation latency, seconds *)
  tail : (string * float) option;  (** highest percentile with ten samples beyond it *)
  total : float;  (** seconds the measured operations took, summed *)
  rate : float;  (** operations completed per second *)
  op_name : string;
  peak_rss_kb : int;
  overhead : float option;  (** traced / untraced operation time - 1, traced runs only *)
}

let peak_rss_kb () = Option.value (Meminfo.peak_rss_kb ()) ~default:0

(* The peak RSS of the measured operations only: [rss_reset] before an
   operation resets the high-water mark (after a compaction, so garbage
   left by set-up or by the previous operation's checks does not
   count), [rss_read] right after it, before any check runs.  The
   figure is the largest reading. *)
let rss_peak_kb = ref 0

let rss_reset () =
  Gc.compact ();
  try
    let oc = open_out "/proc/self/clear_refs" in
    output_string oc "5";
    close_out oc
  with Sys_error _ -> ()

let rss_read () = rss_peak_kb := max !rss_peak_kb (peak_rss_kb ())

let set_up reps f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    Gc.compact ();
    let t0 = Span.now () in
    let v, excluded = f () in
    times := (Span.now () -. t0 -. excluded) :: !times;
    last := Some v
  done;
  (List.rev !times, Option.get !last)

(* Set-up repetitions; [setup_s] is their median.  A set-up made only
   at the start of a run shows the host's speed of that moment, so
   cs-cold and edit-stream also repeat theirs during the run, off the
   clock, and the median samples the whole run as the operations do:
   cs-cold [cs_setup_reps] times (about 10ms each) before the first
   pass and after every pass, edit-stream [edit_setup_reps] times and
   then once before every block of edits.  serve-warm sets up
   [setup_reps] times before its loop. *)
let setup_reps = 5
let cs_setup_reps = 8
let edit_setup_reps = 3

let e2e_of_ops ~setup ~op_name ?overhead secs =
  let n = List.length secs and total = sum secs in
  let peak_rss_kb = !rss_peak_kb in
  {
    setup;
    n;
    p50 = median secs;
    tail = tail secs;
    total;
    rate = float_of_int n /. total;
    op_name;
    peak_rss_kb;
    overhead;
  }

(* ---------------- cs-cold ---------------- *)

let cs_profiles = [ "gantt"; "megamek" ]

let run_cs_cold () =
  let golden = golden () in
  (* Every pass analyses the same two programs, so that the passes of
     one run differ only by the host's noise. *)
  let make_texts () = (List.map (fun name -> (name, Jir.Jprinter.to_string (generate name))) cs_profiles, 0.0) in
  let setup, texts = set_up cs_setup_reps make_texts in
  let setup = ref setup in
  List.iter (fun name -> print_program name) cs_profiles;
  (* One pass: both programs analysed; the oracles run between them,
     off the clock. *)
  let pass () =
    List.fold_left
      (fun acc (name, text) ->
        rss_reset ();
        let r, d = Span.timed ~op:true "analyze" (fun () -> analyze_cs text) in
        rss_read ();
        if !inject then drop_pair (Engine.relation r.eng "vPC") (List.hd (pt_pairs (Engine.relation r.eng "vPC")));
        check (name ^ " algo3 certify") (certify ~algo:"algo3" r.fg r.ci.Analyses.engine);
        check (name ^ " algo5 certify") (certify ~algo:"algo5" r.fg r.eng);
        sample "certify.share"
          (match samples_of "certify" with c :: _ -> c /. List.hd (samples_of "engine.solve") | [] -> 0.0);
        let vp = Relation.fold_tuples (Analyses.relation r.ci "vP") ~init:[] ~f:(fun acc t -> (t.(0), t.(1)) :: acc) in
        let tbl = Hashtbl.create 4096 in
        List.iter (fun p -> Hashtbl.replace tbl p ()) vp;
        check (name ^ " vPC within vP")
          (List.for_all (fun p -> Hashtbl.mem tbl p) (pt_pairs (Engine.relation r.eng "vPC")));
        (if !seed = 1 then
           let expected = Option.value (List.assoc_opt (name, !scale) golden) ~default:[] in
           let got = satcounts r in
           check
             (Printf.sprintf "%s golden satcounts (%s at scale %g)" name golden_file !scale)
             (List.length expected = 4 && List.for_all (fun (k, v) -> List.assoc_opt k got = Some v) expected));
        acc +. d)
      0.0 texts
  in
  (* Passes until [budget] seconds of measured (not oracle) time. *)
  let run_passes ~budget ~limit =
    let rec go index acc =
      if index >= limit || (index > 0 && sum acc >= budget) then List.rev acc
      else begin
        let op = pass () in
        setup := !setup @ fst (set_up cs_setup_reps make_texts);
        go (index + 1) (op :: acc)
      end
    in
    go 0 []
  in
  if not !trace then begin
    let ops = run_passes ~budget:!seconds ~limit:max_int in
    e2e_of_ops ~setup:!setup ~op_name:"analyze pass" ops
  end
  else begin
    (* Untraced first half, then the same passes again traced. *)
    let plain = run_passes ~budget:(!seconds /. 2.0) ~limit:max_int in
    Span.enabled := true;
    let traced = run_passes ~budget:infinity ~limit:(List.length plain) in
    Span.enabled := false;
    e2e_of_ops ~setup:!setup ~op_name:"analyze pass" ~overhead:((sum traced /. sum plain) -. 1.0) traced
  end

(* ---------------- stores ---------------- *)

let work_dir () = Filename.concat out_dir (Printf.sprintf "work.%d" (Unix.getpid ()))

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.fold_left (fun acc f -> acc + dir_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

let key_of ~algo text = Digest.to_hex (Digest.string (algo ^ "\x00" ^ text))

(* ---------------- serve-warm ---------------- *)

type served_program = {
  server : Serve.t;
  queries : (string * string list) array;  (** protocol line, expected reply lines *)
  sweep : (string * string list) list;  (** one points-to query per variable *)
}

let serve_clients = 2
let serve_workers = 2

(* Run [f] in a child process, wait for it, and return its result with
   the per-layer samples and checks it recorded.  serve-warm analyses in
   a child so that the serving process holds what a [ptacli serve]
   process holds (the loaded store, the server, the expected answers)
   and not the heap the analysis grew: its peak RSS is the serving
   path's.  No domain has been spawned yet, so the fork is allowed. *)
let in_child f =
  let file = Filename.concat (work_dir ()) "child.result" in
  match Unix.fork () with
  | 0 ->
    Hashtbl.reset samples;
    Atomic.set attempted 0;
    Atomic.set failed 0;
    let code =
      match f () with
      | v ->
        let recorded = Hashtbl.fold (fun k vs acc -> (k, vs) :: acc) samples [] in
        let oc = open_out_bin file in
        Marshal.to_channel oc (v, recorded, Atomic.get attempted, Atomic.get failed) [];
        close_out oc;
        0
      | exception e ->
        prerr_endline ("bench: set-up child: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid -> (
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 ->
      let ic = open_in_bin file in
      let v, recorded, a, fl = Marshal.from_channel ic in
      close_in ic;
      Sys.remove file;
      List.iter (fun (k, vs) -> List.iter (sample k) (List.rev vs)) recorded;
      ignore (Atomic.fetch_and_add attempted a);
      ignore (Atomic.fetch_and_add failed fl);
      v
    | _ -> failwith "set-up child failed")

(* The gantt CS store at [dir], and the expected answers to the query
   mix and the sweep. *)
let analyze_served dir =
  let text = Jir.Jprinter.to_string (generate "gantt") in
  let r = analyze_cs text in
  (* Expected answers, from tuples enumerated out of the live relation
     (off the clock). *)
  let (queries, sweep), oracle_s =
    Span.timed "oracle" (fun () ->
        let vpc = Engine.relation r.eng "vPC" in
        let vdom = attr_domain vpc "variable" and hdom = attr_domain vpc "heap" in
        let pairs = pt_pairs vpc in
        let heaps_of, vars_of = index_pairs pairs in
        let vname = Domain.element_name vdom and hname = Domain.element_name hdom in
        let vaddr = addresser vdom and haddr = addresser hdom in
        let vars = Array.of_list (List.sort_uniq compare (List.map fst pairs)) in
        let heaps = Array.of_list (List.sort_uniq compare (List.map snd pairs)) in
        let g = rng 17 in
        let pick_var () =
          if Synth.Rng.bool g 0.9 then Synth.Rng.pick_array g vars else Synth.Rng.int g (Domain.size vdom)
        in
        let query _ =
          let x = Synth.Rng.float g in
          if x < 0.5 then
            let v = pick_var () in
            ("points-to " ^ vaddr v, List.map hname (heaps_of v))
          else if x < 0.8 then begin
            let v1 = pick_var () and v2 = pick_var () in
            let shared = List.filter (fun h -> List.mem h (heaps_of v2)) (heaps_of v1) in
            (Printf.sprintf "alias %s %s" (vaddr v1) (vaddr v2),
             (if shared = [] then "no" else "yes") :: List.map hname shared)
          end
          else
            let h = Synth.Rng.pick_array g heaps in
            ("leak " ^ haddr h, List.map vname (vars_of h))
        in
        let queries = Array.init 4096 query in
        let sweep =
          List.init (Domain.size vdom) (fun v -> ("points-to " ^ vaddr v, List.map hname (heaps_of v)))
        in
        (queries, sweep))
  in
  let key = key_of ~algo:"algo5" text in
  layer "store.save" (fun () ->
      Store.save ~dir ~key ~config:[ ("algo", "algo5") ] ~space:(Engine.space r.eng)
        ~relations:(Engine.declared_relations r.eng));
  (queries, sweep, oracle_s)

let build_served dir =
  let queries, sweep, oracle_s = in_child (fun () -> analyze_served dir) in
  let st = layer "store.load" (fun () -> Store.load ~dir) in
  (if !inject then
     match Store.find st "vPC" with
     | Some vpc -> drop_pair vpc (List.hd (pt_pairs vpc))
     | None -> ());
  let server = layer "serve.make" (fun () -> Serve.make st) in
  ({ server; queries; sweep }, oracle_s)

let run_serve_warm () =
  let dir = Filename.concat (work_dir ()) "serve" in
  let setup, sp = set_up setup_reps (fun () -> build_served dir) in
  print_program "gantt";
  rss_reset ();
  let stats = Serve.make_stats () in
  let source = Serve.Source.create sp.server in
  let pool = Serve.Pool.create ~stats ~workers:serve_workers source in
  let lat_lock = Mutex.create () in
  (* Closed loop: each client sends its next query only after the
     previous answer arrived. *)
  let cmd_index = function "points-to" -> 0 | "alias" -> 1 | "leak" -> 2 | _ -> 3 in
  let loop ~duration =
    let latency = Hist.create () and wait = Hist.create () in
    let eval = Array.init 4 (fun _ -> Hist.create ()) in
    let windows = Array.make (max 1 (int_of_float duration)) 0 in
    let t0 = Span.now () in
    let deadline = t0 +. duration in
    let client c =
      let g = rng (100 + c) in
      let lat = Hist.create () and wt = Hist.create () and ev = Array.init 4 (fun _ -> Hist.create ()) in
      let win = Array.make (Array.length windows) 0 in
      while Span.now () < deadline do
        let line, expected = sp.queries.(Synth.Rng.int g (Array.length sp.queries)) in
        let served, d = Span.timed ~op:true "serve.request" (fun () -> Serve.Pool.run pool line) in
        let o = served.Serve.outcome in
        let eval_s = served.Serve.latency_us *. 1e-6 in
        Hist.add lat d;
        Hist.add wt (d -. eval_s);
        Hist.add ev.(cmd_index o.Serve.command) eval_s;
        let w = int_of_float (Span.now () -. t0) in
        if w < Array.length win then win.(w) <- win.(w) + 1;
        check line (o.Serve.ok && o.Serve.lines = expected)
      done;
      Mutex.lock lat_lock;
      Hist.merge_into latency lat;
      Hist.merge_into wait wt;
      Array.iteri (fun i h -> Hist.merge_into eval.(i) h) ev;
      Array.iteri (fun i c -> windows.(i) <- windows.(i) + c) win;
      Mutex.unlock lat_lock
    in
    let threads = List.init serve_clients (fun c -> Thread.create client c) in
    List.iter Thread.join threads;
    (latency, wait, eval, windows)
  in
  let merge runs =
    let latency = Hist.create () and wait = Hist.create () and eval = Array.init 4 (fun _ -> Hist.create ()) in
    List.iter
      (fun (l, w, e, _) ->
        Hist.merge_into latency l;
        Hist.merge_into wait w;
        Array.iteri (fun i h -> Hist.merge_into eval.(i) h) e)
      runs;
    (latency, wait, eval, Array.concat (List.map (fun (_, _, _, w) -> w) runs))
  in
  let summarize (latency, wait, eval, windows) =
    sample "serve.queue_wait_us" (Hist.quantile wait 0.5 *. 1e6);
    List.iteri
      (fun i cmd -> if eval.(i).Hist.n > 0 then sample ("serve.eval_us." ^ cmd) (Hist.quantile eval.(i) 0.5 *. 1e6))
      [ "points-to"; "alias"; "leak" ];
    let n = latency.Hist.n in
    let tail = if n >= 1000 then Some ("p99", Hist.quantile latency 0.99) else None in
    (* Throughput as the median over whole one-second windows, so a
       transient stall of the shared host moves one window, not the
       figure. *)
    let rate = median (Array.to_list (Array.map float_of_int windows)) in
    (n, Hist.quantile latency 0.5, tail, rate)
  in
  let e2e =
    if not !trace then begin
      let r = loop ~duration:!seconds in
      rss_read ();
      let n, p50, tail, rate = summarize r in
      { setup; n; p50; tail; total = !seconds; rate; op_name = "query"; peak_rss_kb = !rss_peak_kb; overhead = None }
    end
    else begin
      (* Quarters alternate untraced and traced, so host drift touches
         both sides of the overhead ratio alike. *)
      let quarter traced =
        Span.enabled := traced;
        let r = loop ~duration:(!seconds /. 4.0) in
        Span.enabled := false;
        r
      in
      let p1 = quarter false in
      let t1 = quarter true in
      let p2 = quarter false in
      let t2 = quarter true in
      rss_read ();
      let _, plain_p50, _, _ = summarize (merge [ p1; p2 ]) in
      let n, p50, tail, rate = summarize (merge [ t1; t2 ]) in
      {
        setup;
        n;
        p50;
        tail;
        total = !seconds /. 2.0;
        rate;
        op_name = "query";
        peak_rss_kb = !rss_peak_kb;
        overhead = Some ((p50 /. plain_p50) -. 1.0);
      }
    end
  in
  Serve.Pool.shutdown pool;
  sample "serve.errors" (float_of_int (Atomic.get stats.Serve.s_err));
  (* Completeness sweep: every variable's points-to set, served. *)
  let ctx = Serve.new_ctx sp.server in
  let sweep_stats = Serve.make_stats () in
  List.iter
    (fun (line, expected) ->
      let s = Serve.serve_line ~stats:sweep_stats sp.server ctx line in
      check ("sweep " ^ line) (s.Serve.outcome.Serve.ok && s.Serve.outcome.Serve.lines = expected))
    sp.sweep;
  sample "store.bytes" (float_of_int (dir_bytes dir));
  e2e

(* ---------------- edit-stream ---------------- *)

let compact_every = 3
let edit_probes = 16

type follower = {
  dir : string;
  prog : Jir.Ir.t;  (** the developer's program, edited in place *)
  mutable key : string;
  source : Serve.Source.source;
  follow : Serve.Follow.state;
  stats : Serve.server_stats;
  mutable ctx : Bdd.ctx;  (** the follower's evaluation ctx, rebuilt after each swap *)
}

(* A follower serving the store at [dir], as [serve --follow
   --require-certified] would.  It answers through [Serve.serve_line],
   the per-request path of every serving driver; the worker pool is
   serve-warm's subject. *)
let follower ~dir ~prog ~key =
  let st = layer "store.load" (fun () -> Store.load ~dir) in
  let server = layer "serve.make" (fun () -> Serve.make st) in
  let source = Serve.Source.create server in
  let follow = Serve.Follow.make ~require_certified:true ~dir source in
  { dir; prog; key; source; follow; stats = Serve.make_stats (); ctx = Serve.new_ctx server }

let serve f line = Serve.serve_line ~stats:f.stats (Serve.Source.current f.source) f.ctx line

(* The certified base store at [dir]; returns its key and the time
   its certification (a check, off the clock) took. *)
let build_base ~dir =
  rm_rf dir;
  let prog = generate "gantt" in
  let text = Jir.Jprinter.to_string prog in
  let p = layer "jir.parse" (fun () -> Jir.Jparser.parse text) in
  let fg = layer "jir.factgen" (fun () -> Jir.Factgen.extract p) in
  let r = layer "alg3.solve" (fun () -> Analyses.run_basic ~algo:Analyses.Algo3 fg) in
  record_alg3 r.Analyses.stats;
  let eng = r.Analyses.engine in
  let key = key_of ~algo:"algo3" text in
  layer "store.save" (fun () ->
      Store.save ~dir ~key ~config:[ ("algo", "algo3") ] ~space:(Engine.space eng)
        ~relations:(Engine.declared_relations eng));
  (* Not through [certify]: certify.s and certify.share describe the
     edits' certifications. *)
  let v, oracle_s =
    Span.timed "oracle" (fun () ->
        Pta.Certify.certify_engine ~algo:"algo3" ~fresh_inputs:(Pta.Programs.input_relations fg) eng)
  in
  if not (Pta.Certify.passed v) then List.iter prerr_endline (Pta.Certify.verdict_lines v);
  check "base store certify" (Pta.Certify.passed v);
  ignore (layer "store.mark" (fun () -> Store.mark_certified ~dir));
  (key, oracle_s)

(* The edit script, in blocks of four: three add-method edits (the
   incremental path, then compaction at three layers) and one
   remove-alloc (a retraction, so the cold path).  A fixed mix keeps
   the median on the incremental path.  The add-method edits come from
   a fixed script, the same in every run: which method is added
   changes an edit's cost by up to 1.7x, so seeded add-methods would
   move the median with the seed.  The seed picks the remove-alloc
   edits (and the probes).  add-alloc is left out: a second add-alloc
   into the same method declares its locals twice, and the printed
   program no longer parses. *)
let add_method_script = Synth.Rng.create 4099

let edit_spec g i =
  if i mod 4 = 3 then { Synth.Edits.kind = Synth.Edits.Remove_alloc; seed = Synth.Rng.int g 1_000_000 }
  else { Synth.Edits.kind = Synth.Edits.Add_method; seed = Synth.Rng.int add_method_script 1_000_000 }

(* One edit through the [update --watch] path, from the edited program
   text to the follower answering from the certified snapshot.
   Returns the wall time, or None when the edit changed nothing. *)
let edit_once f g i =
  let spec = edit_spec g i in
  ignore (Synth.Edits.apply f.prog spec);
  let text = Jir.Jprinter.to_string f.prog in
  let key = key_of ~algo:"algo3" text in
  if key = f.key then None
  else begin
    let probe = ref (-1) and engine = ref None and committed = ref false in
    rss_reset ();
    let (), d =
      Span.timed ~op:true "edit" (fun () ->
          let p = layer "jir.parse" (fun () -> Jir.Jparser.parse text) in
          let fg = layer "jir.factgen" (fun () -> Jir.Factgen.extract p) in
          let st = layer "store.load" (fun () -> Store.load ~dir:f.dir) in
          match layer "incr.update" (fun () -> Pta.Incr.update ~algo:Analyses.Algo3 ~store:st fg) with
          | Error e -> check ("incr.update: " ^ Solver_error.to_string e) false
          | Ok o ->
            let eng = o.Pta.Incr.engine in
            engine := Some eng;
            let cold = match o.Pta.Incr.verdict with Pta.Incr.Cold _ -> true | _ -> false in
            sample "incr.incremental" (if o.Pta.Incr.verdict = Pta.Incr.Incremental then 1.0 else 0.0);
            (match o.Pta.Incr.stats with
            | Some s -> if cold then record_alg3 s else record_engine s
            | None -> ());
            if !inject then begin
              let vp = Engine.relation eng "vP" in
              drop_pair vp (List.hd (pt_pairs vp))
            end;
            let certified = certify ~algo:"algo3" fg eng in
            check (Printf.sprintf "edit %d certify" i) certified;
            if certified then begin
              let config = [ ("algo", "algo3") ] in
              if cold then
                layer "store.save" (fun () ->
                    Store.save ~dir:f.dir ~key ~config ~space:(Engine.space eng)
                      ~relations:(Engine.declared_relations eng))
              else
                ignore
                  (layer "store.save_delta" (fun () ->
                       Store.save_delta ~dir:f.dir ~key ~config ~space:(Engine.space eng)
                         ~deltas:o.Pta.Incr.deltas));
              ignore (layer "store.mark" (fun () -> Store.mark_certified ~dir:f.dir));
              if Option.value (Store.read_layers ~dir:f.dir) ~default:0 >= compact_every then begin
                ignore (layer "store.compact" (fun () -> Store.compact ~dir:f.dir));
                ignore (layer "store.mark" (fun () -> Store.mark_certified ~dir:f.dir))
              end;
              committed := true;
              f.key <- key;
              (match layer "follow.poll" (fun () -> Serve.Follow.poll f.follow) with
              | Serve.Follow.Swapped { seconds; _ } ->
                sample "follow.swap" seconds;
                f.ctx <- Serve.new_ctx (Serve.Source.current f.source)
              | Serve.Follow.Unchanged -> check (Printf.sprintf "edit %d follower swap (unchanged)" i) false
              | Serve.Follow.Rejected { reason } ->
                check (Printf.sprintf "edit %d follower swap (%s)" i reason) false);
              (* The first answer from the new snapshot ends the
                 operation. *)
              let vdom = attr_domain (Engine.relation eng "vP") "variable" in
              probe := Synth.Rng.int g (Domain.size vdom);
              ignore
                (Span.span "serve.request" (fun () ->
                     serve f ("points-to " ^ string_of_int !probe)))
            end)
    in
    rss_read ();
    (* Off the clock: the follower must answer exactly as the updated
       engine does. *)
    (match (!engine, !committed) with
    | Some eng, true ->
      let vp = Engine.relation eng "vP" in
      let vdom = attr_domain vp "variable" and hdom = attr_domain vp "heap" in
      let heaps_of, _ = index_pairs (pt_pairs vp) in
      let vaddr = addresser vdom in
      let probes = !probe :: List.init edit_probes (fun _ -> Synth.Rng.int g (Domain.size vdom)) in
      List.iter
        (fun v ->
          let served = serve f ("points-to " ^ vaddr v) in
          check
            (Printf.sprintf "edit %d follower answer for %s" i (Domain.element_name vdom v))
            (served.Serve.outcome.Serve.ok
            && served.Serve.outcome.Serve.lines = List.map (Domain.element_name hdom) (heaps_of v)))
        probes
    | _ -> ());
    Some d
  end

let run_edit_stream () =
  let dir = Filename.concat (work_dir ()) "edit" in
  let make_base () =
    let key, excluded = build_base ~dir in
    (follower ~dir ~prog:(generate "gantt") ~key, excluded)
  in
  let setup, f = set_up edit_setup_reps make_base in
  let setup = ref setup in
  print_program "gantt";
  let g = rng 23 in
  let next = ref 0 and f = ref f in
  (* Blocks of four edits until [seconds] of measured (not oracle)
     time.  Every block after the first starts from a fresh set-up,
     timed like the first ones, so that the program does not grow with
     the number of edits a run happens to reach and [setup_s] samples
     the whole run.  A traced run traces alternate blocks, so host
     drift touches both sides of the overhead ratio alike. *)
  let plain = ref [] and traced = ref [] in
  while sum !plain +. sum !traced < !seconds || !plain = [] || (!trace && !traced = []) do
    if !next > 0 then begin
      let t, f' = set_up 1 make_base in
      setup := !setup @ t;
      f := f'
    end;
    let tracing = !trace && !next / 4 mod 2 = 1 in
    for _ = 1 to 4 do
      Span.enabled := tracing;
      (match edit_once !f g !next with
      | Some d -> if tracing then traced := d :: !traced else plain := d :: !plain
      | None -> ());
      Span.enabled := false;
      incr next
    done
  done;
  let e2e =
    if not !trace then e2e_of_ops ~setup:!setup ~op_name:"edit to served" (List.rev !plain)
    else
      e2e_of_ops ~setup:!setup ~op_name:"edit to served"
        ~overhead:((median !traced /. median !plain) -. 1.0)
        (List.rev !traced)
  in
  sample "store.bytes" (float_of_int (dir_bytes dir));
  e2e

(* ---------------- output ---------------- *)

(* Layers whose self time a traced run reports, by span name. *)
let traced_layers =
  [
    "jir.parse"; "jir.factgen"; "alg3.solve"; "context.number"; "engine.prepare"; "engine.solve"; "store.save";
    "store.load"; "store.save_delta"; "store.compact"; "store.mark"; "incr.update"; "certify"; "follow.poll";
    "serve.make"; "serve.request";
  ]

let per_layer_metrics (e : e2e) =
  let med name = median (samples_of name) in
  (* Self time inside measured operations only: spans that start an
     operation (analyze, edit, serve.request) and their descendants.
     Oracles run outside them, so they are not counted. *)
  let selfs = List.filter (fun (s, _) -> s.Span.op <> 0) (Span.self_times (Span.spans ())) in
  let op_total = sum (List.filter_map (fun (s, _) -> if s.Span.op = s.Span.id then Some (s.Span.t1 -. s.Span.t0) else None) selfs) in
  let self_of name = sum (List.filter_map (fun (s, t) -> if s.Span.name = name then Some t else None) selfs) in
  let glue = sum (List.filter_map (fun (s, t) -> if s.Span.op = s.Span.id && not (List.mem s.Span.name traced_layers) then Some t else None) selfs) in
  let share name = if op_total > 0.0 then self_of name /. op_total else 0.0 in
  [
    ("alg3.solve_s", med "alg3.solve", "s");
    ("alg3.rounds", med "alg3.rounds", "count");
    ("alg3.rule_apps", med "alg3.rule_apps", "count");
    ("alg3.peak_nodes", med "alg3.peak_nodes", "nodes");
    ("engine.prepare_s", med "engine.prepare", "s");
    ("engine.solve_s", med "engine.solve", "s");
    ("engine.rounds", med "engine.rounds", "count");
    ("engine.rule_apps", med "engine.rule_apps", "count");
    ("engine.top_rule_share", med "engine.top_rule_share", "ratio");
    ("bdd.peak_nodes", med "bdd.peak_nodes", "nodes");
    ("bdd.table_bytes", med "bdd.table_bytes", "bytes");
    ("bdd.cache_lookups", med "bdd.cache_lookups", "count");
    ("bdd.cache_hit_ratio", med "bdd.cache_hit_ratio", "ratio");
    ("bdd.relprod_hit_ratio", med "bdd.relprod_hit_ratio", "ratio");
    ("bdd.replace_hit_ratio", med "bdd.replace_hit_ratio", "ratio");
    ("bdd.gcs", med "bdd.gcs", "count");
    ("bdd.evictions", med "bdd.evictions", "count");
    ("jir.parse_s", med "jir.parse", "s");
    ("jir.factgen_s", med "jir.factgen", "s");
    ("context.number_s", med "context.number", "s");
    ("context.csize", med "context.csize", "count");
    ("incr.update_s", med "incr.update", "s");
    ("incr.incremental_ratio", (match samples_of "incr.incremental" with [] -> 0.0 | l -> sum l /. float_of_int (List.length l)), "ratio");
    ("certify.s", med "certify", "s");
    ("certify.share", (match e.op_name with
       | "edit to served" -> if op_total > 0.0 then self_of "certify" /. op_total else 0.0
       | _ -> med "certify.share"), "ratio");
    ("store.load_s", med "store.load", "s");
    ("store.save_s", med "store.save", "s");
    ("store.save_delta_s", med "store.save_delta", "s");
    ("store.compact_s", med "store.compact", "s");
    ("store.bytes", med "store.bytes", "bytes");
    ("follow.swap_s", med "follow.swap", "s");
    ("serve.make_s", med "serve.make", "s");
    ("serve.eval_p50_us.points-to", med "serve.eval_us.points-to", "us");
    ("serve.eval_p50_us.alias", med "serve.eval_us.alias", "us");
    ("serve.eval_p50_us.leak", med "serve.eval_us.leak", "us");
    ("serve.queue_wait_p50_us", med "serve.queue_wait_us", "us");
    ("serve.p99_us", (match (e.op_name, e.tail) with "query", Some (_, v) -> v *. 1e6 | _ -> 0.0), "us");
    ("serve.errors", med "serve.errors", "count");
  ]
  @ List.map (fun l -> ("self_share." ^ l, share l, "ratio")) traced_layers
  @ [
      ("self_share.unattributed", (if op_total > 0.0 then glue /. op_total else 0.0), "ratio");
      ("trace.ops_s", op_total, "s");
      ("trace.overhead", Option.value e.overhead ~default:0.0, "ratio");
      ("trace.spans", float_of_int (List.length selfs), "count");
    ]
  |> List.map (fun (n, v, u) -> (n, (if Float.is_finite v then v else 0.0), u))

let end_to_end_metrics (e : e2e) =
  [
    ("setup_s", median e.setup, "s");
    ("op_p50_ms", e.p50 *. 1e3, "ms");
    ("peak_rss_mib", float_of_int e.peak_rss_kb /. 1024.0, "MiB");
  ]

(* The same figures under the names the workloads' users know them by. *)
let named_figures (e : e2e) =
  let p50 = e.p50 in
  match !workload with
  | "cs-cold" -> [ ("analyze_s", p50, "s") ]
  | "serve-warm" ->
    [ ("query_qps", e.rate, "1/s"); ("query_p50_us", p50 *. 1e6, "us") ]
    @ (match e.tail with Some (_, v) -> [ ("query_p99_us", v *. 1e6, "us") ] | None -> [])
  | _ ->
    [
      ("edit_to_serve_p50_s", p50, "s");
      (Printf.sprintf "edit_stream_s(%d edits)" e.n, e.total, "s");
    ]

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let print_result metrics =
  let a = Atomic.get attempted and f = Atomic.get failed in
  let fields =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Span.json_string n) (json_number v) (Span.json_string u))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" (f = 0 && a > 0) (max a 1) f
    (String.concat ", " fields)

let () =
  parse_args ();
  mkdir_p out_dir;
  mkdir_p (work_dir ());
  Printf.printf "# perfbench workload=%s seed=%d scale=%g seconds=%g trace=%d nproc=%d ocaml=%s commit=%s\n%!" !workload
    !seed !scale !seconds
    (if !trace then 1 else 0)
    (Stdlib.Domain.recommended_domain_count ())
    Sys.ocaml_version !commit;
  let e =
    Fun.protect
      ~finally:(fun () -> rm_rf (work_dir ()))
      (fun () ->
        match !workload with
        | "cs-cold" -> run_cs_cold ()
        | "serve-warm" -> run_serve_warm ()
        | _ -> run_edit_stream ())
  in
  let a = Atomic.get attempted and f = Atomic.get failed in
  Printf.printf "# %d %s operations measured, %.3fs, %.6g/s; p50 %.4f ms%s; set-up median %.4fs of %d (%.4f-%.4f)\n" e.n
    e.op_name e.total e.rate (e.p50 *. 1e3)
    (match e.tail with Some (q, v) -> Printf.sprintf ", %s %.4f ms" q (v *. 1e3) | None -> "")
    (median e.setup) (List.length e.setup) (quantile e.setup 0.25) (quantile e.setup 0.75);
  List.iter (fun (n, v, u) -> Printf.printf "# %s %.6g %s\n" n v u) (named_figures e);
  Printf.printf "# checks: %d attempted, %d failed, op_fail_ratio %g\n" a f
    (if a = 0 then 0.0 else float_of_int f /. float_of_int a);
  if !trace then begin
    let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" !workload !seed) in
    Span.write_chrome ~path ~pid:(Unix.getpid ()) (Span.spans ());
    Printf.printf "# trace: %s\n" path;
    let m = per_layer_metrics e in
    List.iter (fun (n, v, u) -> Printf.printf "#   %-32s %.6g %s\n" n v u) m;
    print_result m
  end
  else begin
    let m = end_to_end_metrics e in
    List.iter (fun (n, v, u) -> Printf.printf "#   %-32s %.6g %s\n" n v u) m;
    print_result m
  end
