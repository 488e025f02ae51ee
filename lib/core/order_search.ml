module Factgen = Jir.Factgen
module Engine = Datalog.Engine

type candidate = { order : string list; seconds : float; cache_misses : int; peak_nodes : int; rule_applications : int }
type job = Basic of Analyses.basic | Context_sensitive of Context.t

let declaration_order = function
  | Basic _ -> [ "V"; "H"; "F"; "T"; "I"; "N"; "M"; "Z" ]
  | Context_sensitive _ -> [ "V"; "H"; "F"; "T"; "I"; "N"; "M"; "Z"; "C" ]

let committed_order = function
  | Basic _ -> Programs.domain_order
  | Context_sensitive _ -> Programs.domain_order @ [ "C" ]

(* A tiny deterministic shuffler (no dependency on the synth library). *)
let shuffle seed xs =
  let state = ref (seed * 2654435761 land max_int) in
  let next bound =
    state := ((!state * 1103515245) + 12345) land max_int;
    !state / 65536 mod bound
  in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = next (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let prepare ?domain_order fg job =
  let text =
    match job with
    | Basic Analyses.Algo1 -> Programs.algo1 fg
    | Basic Analyses.Algo2 -> Programs.algo2 fg
    | Basic Analyses.Algo3 -> Programs.algo3 fg
    | Context_sensitive ctx -> Programs.algo5 fg ~csize:(Context.csize ctx)
  in
  let eng = Engine.parse_and_create ~element_names:(Factgen.element_names fg) ?domain_order text in
  List.iter
    (fun (name, tuples) -> Engine.set_tuples eng name (List.map Array.of_list tuples))
    (Programs.input_relations fg);
  (match job with
  | Context_sensitive ctx -> Analyses.install_context_inputs eng ctx
  | Basic _ -> ());
  eng

let cache_misses (s : Engine.stats) = List.fold_left (fun acc (_, _, m) -> acc + m) 0 s.Engine.op_cache

let measure fg job order =
  let t0 = Unix.gettimeofday () in
  let s = Engine.run (prepare ~domain_order:order fg job) in
  {
    order;
    seconds = Unix.gettimeofday () -. t0;
    cache_misses = cache_misses s;
    peak_nodes = s.Engine.peak_live_nodes;
    rule_applications = s.Engine.rule_applications;
  }

let search ?(budget = 6) ?(seed = 1) fg job =
  let base = declaration_order job in
  let candidates =
    base :: committed_order job :: List.rev base :: List.init budget (fun i -> shuffle (seed + i) base)
  in
  (* Deduplicate orders (a shuffle may reproduce one already tried). *)
  let seen = Hashtbl.create 8 in
  let candidates =
    List.filter
      (fun o ->
        let key = String.concat "," o in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      candidates
  in
  let results = List.map (measure fg job) candidates in
  List.sort (fun a b -> compare (a.cache_misses, a.seconds) (b.cache_misses, b.seconds)) results
