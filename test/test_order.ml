(* Regression lock on the committed BDD variable order
   ([Programs.domain_order], emitted as every program's .bddvarorder
   line):

   - layout: every program text, with and without query suffixes,
     creates an engine whose first variable blocks are N, M and I, and
     the context-sensitive programs put C last;
   - answers: at scale 0.005 on gantt and megamek, the IE/vP/vPC/hP
     satcounts under the committed order equal those under an explicit
     declaration order (the order only moves the physical layout);
   - kernel work: Algorithm 3 and Algorithm 5 do at most 0.75x the
     op-cache misses of the declaration order (a deterministic count);
   - stores saved under another order are refused by layout, with a
     message naming the first moved block, both by Incr.update and by
     Certify.certify_store. *)

module Analyses = Pta.Analyses
module Order_search = Pta.Order_search
module Programs = Pta.Programs
module Queries = Pta.Queries
module Factgen = Jir.Factgen

let gen profile =
  let p = Option.get (Synth.Profiles.find profile) in
  Factgen.extract (Synth.Generator.generate (Synth.Profiles.params ~scale:0.005 p))

(* Domain names in the order of their lowest variable id. *)
let block_order eng =
  let sp = Engine.space eng in
  Space.domains sp
  |> List.map (fun d ->
         let low =
           List.fold_left
             (fun acc (b : Space.block) -> Array.fold_left min acc b.Space.bits)
             max_int (Space.instances sp d)
         in
         (low, Domain.name d))
  |> List.sort compare |> List.map snd

let test_layout () =
  let fg = gen "gantt" in
  let check label ?(cs = false) text =
    let eng = Engine.parse_and_create ~element_names:(Factgen.element_names fg) text in
    let order = block_order eng in
    Alcotest.(check (list string)) (label ^ ": first blocks") [ "N"; "M"; "I" ] (List.filteri (fun i _ -> i < 3) order);
    if cs then Alcotest.(check string) (label ^ ": C last") "C" (List.nth order (List.length order - 1))
  in
  check "algo1" (Programs.algo1 fg);
  check "algo2" (Programs.algo2 fg);
  check "algo3" (Programs.algo3 fg);
  check "algo1+refinement" (Programs.algo1 ~query:Queries.refinement_ci fg);
  check "algo2+refinement" (Programs.algo2 ~query:Queries.refinement_ci fg);
  List.iter
    (fun (label, text) -> check label ~cs:true text)
    [
      ("algo5", Programs.algo5 fg ~csize:8);
      ("algo5-otf", Programs.algo5_otf fg ~csize:8);
      ("algo6", Programs.algo6 fg ~csize:8);
      ("algo7", Programs.algo7 fg ~csize:8);
      ("algo5+projected", Programs.algo5 ~query:Queries.refinement_projected_cs fg ~csize:8);
      ("algo5+full", Programs.algo5 ~query:Queries.refinement_full_cs fg ~csize:8);
      ("algo5+modref", Programs.algo5 ~query:Queries.mod_ref fg ~csize:8);
      ("algo6+projected", Programs.algo6 ~query:Queries.refinement_projected_ts fg ~csize:8);
      ("algo6+full", Programs.algo6 ~query:Queries.refinement_full_ts fg ~csize:8);
    ]

(* One profile's Algorithm 3 and Algorithm 5 solves under both orders:
   the committed default and the explicit declaration order. *)
let solves profile =
  let fg = gen profile in
  let run job order =
    let eng = Order_search.prepare ?domain_order:order fg job in
    let s = Engine.run eng in
    (eng, Order_search.cache_misses s)
  in
  let declared job = Some (Order_search.declaration_order job) in
  let ci = Order_search.Basic Analyses.Algo3 in
  let ((e3, _) as a3) = run ci None in
  let a3_decl = run ci (declared ci) in
  let ie = List.map (fun t -> (t.(0), t.(1))) (Relation.tuples (Engine.relation e3 "IE")) in
  let cs = Order_search.Context_sensitive (Analyses.make_context fg ~ie) in
  (a3, a3_decl, run cs None, run cs (declared cs))

let all_solves = lazy (List.map (fun p -> (p, solves p)) [ "gantt"; "megamek" ])

let test_same_answers () =
  List.iter
    (fun (profile, ((e3, _), (d3, _), (e5, _), (d5, _))) ->
      let same eng decl name =
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s %s satcount" profile name)
          (Relation.count (Engine.relation decl name))
          (Relation.count (Engine.relation eng name))
      in
      same e3 d3 "IE";
      same e3 d3 "vP";
      same e5 d5 "vPC";
      same e5 d5 "hP")
    (Lazy.force all_solves)

let test_less_kernel_work () =
  List.iter
    (fun (profile, ((_, m3), (_, d3), (_, m5), (_, d5))) ->
      let at_most label committed declared =
        let ratio = float_of_int committed /. float_of_int declared in
        if ratio > 0.75 then
          Alcotest.failf "%s %s: committed order did %d op-cache misses, declaration order %d (ratio %.2f > 0.75)"
            profile label committed declared ratio
      in
      at_most "Algorithm 3" m3 d3;
      at_most "Algorithm 5" m5 d5)
    (Lazy.force all_solves)

let tmp_dir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "whalelam-%s-%d" name (Unix.getpid ())) in
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
  dir

(* A store saved under the declaration order holds the same relations
   at other variable ids: both the incremental driver and the
   certifier must refuse to read it, and say which block moved. *)
let test_moved_store_refused () =
  let fg = gen "gantt" in
  let job = Order_search.Basic Analyses.Algo3 in
  let eng = Order_search.prepare ~domain_order:(Order_search.declaration_order job) fg job in
  ignore (Engine.run eng);
  let dir = tmp_dir "order-moved" in
  Store.save ~dir ~key:"declaration-order" ~config:[ ("algo", "algo3") ] ~space:(Engine.space eng)
    ~relations:(Engine.declared_relations eng);
  let store = Store.load ~dir in
  let moved msg =
    let words = String.split_on_char ' ' msg in
    List.mem "moved" words && not (List.mem "widths" words)
  in
  (match Pta.Incr.update ~algo:Analyses.Algo3 ~store fg with
  | Ok { Pta.Incr.verdict = Pta.Incr.Cold (Pta.Incr.Layout_changed msg); _ } ->
    Alcotest.(check bool) ("update names a moved block: " ^ msg) true (moved msg)
  | Ok o -> Alcotest.failf "expected Cold (Layout_changed _), got %s" (Pta.Incr.verdict_to_string o.Pta.Incr.verdict)
  | Error e -> Alcotest.failf "update failed: %s" (Solver_error.to_string e));
  let v = Pta.Certify.certify_store fg store in
  (match v.Pta.Certify.v_failure with
  | Some (Pta.Certify.Shape_mismatch msg) ->
    Alcotest.(check bool) ("certify names a moved block: " ^ msg) true (moved msg)
  | Some f -> Alcotest.failf "expected Shape_mismatch, got %s" (Pta.Certify.failure_to_string f)
  | None -> Alcotest.fail "expected Shape_mismatch, certification passed");
  ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))

let () =
  Alcotest.run "order"
    [
      ( "committed order",
        [
          Alcotest.test_case "N M I blocks first" `Quick test_layout;
          Alcotest.test_case "same satcounts as declaration order" `Quick test_same_answers;
          Alcotest.test_case "at most 0.75x the op-cache misses" `Quick test_less_kernel_work;
          Alcotest.test_case "moved store refused by layout" `Quick test_moved_store_refused;
        ] );
    ]
