(* IR, textual format, local copy elimination, and fact extraction. *)

module Ir = Jir.Ir
module Hier = Jir.Hier
module Jparser = Jir.Jparser
module Jprinter = Jir.Jprinter
module Local_opt = Jir.Local_opt
module Factgen = Jir.Factgen

let sample =
  {|
class A extends Object {
  field f : Object
  method set(v : Object) : void {
    this.f = v
  }
  method get() : Object {
    var r : Object
    r = this.f
    return r
  }
}
class B extends A {
  method get() : Object {
    var x : Object
    x = new Object() @ "B.get:new"
    return x
  }
}
class Main extends Object {
  static field shared : Object
  static method id(x : Object) : Object {
    return x
  }
  static method main() : void {
    var a1 : A
    var a2 : A
    var o1 : Object
    var o2 : Object
    var r1 : Object
    var r2 : Object
    a1 = new A() @ "A1"
    a2 = new B() @ "A2"
    o1 = new Object() @ "O1"
    o2 = new Object() @ "O2"
    a1.set(o1)
    a2.set(o2)
    r1 = a1.get()
    r2 = a2.get()
    Main.shared = r1
    r2 = Main.shared
    sync r2
  }
}
entry Main.main
|}

let parse () = Jparser.parse sample

let test_parse_counts () =
  let p = parse () in
  (* Object, Thread, String + A, B, Main. *)
  Alcotest.(check int) "classes" 6 (Ir.num_classes p);
  (* The 5 program allocations, plus the built-in global heap (id 0). *)
  Alcotest.(check int) "heaps" 6 (Ir.num_heaps p);
  Alcotest.(check bool) "A exists" true (Ir.find_class p "A" <> None);
  Alcotest.(check int) "entries" 1 (List.length (Ir.entries p));
  (* 5 allocs = 5 init sites, plus 4 calls (set x2, get x2). *)
  Alcotest.(check int) "invoke sites" 9 (Ir.num_invokes p)

let test_hierarchy () =
  let p = parse () in
  let a = Option.get (Ir.find_class p "A") in
  let b = Option.get (Ir.find_class p "B") in
  let main = Option.get (Ir.find_class p "Main") in
  Alcotest.(check bool) "B <= A" true (Hier.subclass_of p b a);
  Alcotest.(check bool) "A </= B" false (Hier.subclass_of p a b);
  Alcotest.(check bool) "A <= Object" true (Hier.subclass_of p a (Ir.object_class p));
  Alcotest.(check bool) "assignable A := B" true (Hier.assignable p a b);
  Alcotest.(check bool) "not assignable B := A" false (Hier.assignable p b a);
  (* Dispatch: B overrides get, inherits set. *)
  let a_get = Option.get (Ir.find_method p a "get") in
  let b_get = Option.get (Ir.find_method p b "get") in
  let a_set = Option.get (Ir.find_method p a "set") in
  Alcotest.(check bool) "dispatch B.get" true (Hier.dispatch p b "get" = Some b_get);
  Alcotest.(check bool) "dispatch A.get" true (Hier.dispatch p a "get" = Some a_get);
  Alcotest.(check bool) "dispatch B.set inherited" true (Hier.dispatch p b "set" = Some a_set);
  Alcotest.(check bool) "no dispatch on Main.get" true (Hier.dispatch p main "get" = None);
  Alcotest.(check bool) "Main not a thread" false (Hier.is_thread p main)

let test_parse_errors () =
  let cases =
    [
      "class A extends Nope {}";
      "class A extends Object { method m() : void { x = y } }";
      "class A extends Object { method m() : void { var x : A\nvar x : A } }";
      "class A extends A {}";
      "class A extends Object {} class A extends Object {}";
      "class A extends Object { method m() : void { var v : A\nv = w.f } }";
      "entry A.main";
      "class A extends Object { method m(v : Object) : void { v.nope = v } }";
    ]
  in
  List.iter
    (fun src ->
      match Jparser.parse src with
      | exception Jparser.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected parse error for %S" src)
    cases

let facts_of p = (Factgen.extract ~local_opt:false p).Factgen.relations

let test_printer_roundtrip () =
  let p1 = parse () in
  let printed = Jprinter.to_string p1 in
  let p2 = Jparser.parse printed in
  Alcotest.(check int) "classes preserved" (Ir.num_classes p1) (Ir.num_classes p2);
  Alcotest.(check int) "methods preserved" (Ir.num_methods p1) (Ir.num_methods p2);
  Alcotest.(check int) "stmts preserved" (Ir.stmt_count p1) (Ir.stmt_count p2);
  let f1 = facts_of (parse ()) and f2 = facts_of (Jparser.parse printed) in
  List.iter2
    (fun (n1, t1) (n2, t2) ->
      Alcotest.(check string) "relation name" n1 n2;
      Alcotest.(check (list (list int))) (Printf.sprintf "facts of %s" n1) (List.sort compare t1) (List.sort compare t2))
    f1 f2

let test_local_opt () =
  let src =
    {|
class A extends Object {
  field f : Object
  method m(v : Object) : void {
    var a : Object
    var b : Object
    a = v
    b = a
    this.f = b
  }
}
entry A.m
|}
  in
  let p = Jparser.parse src in
  let removed = Local_opt.run p in
  Alcotest.(check int) "copies removed" 2 removed;
  let a = Option.get (Ir.find_class p "A") in
  let m = Option.get (Ir.find_method p a "m") in
  let body = (Ir.meth p m).Ir.m_body in
  Alcotest.(check int) "single statement left" 1 (List.length body);
  (match body with
  | [ Ir.Store { src = s; _ } ] ->
    (* The store now uses the formal v directly. *)
    Alcotest.(check string) "store source is v" "v" (Ir.var p s).Ir.v_name
  | _ -> Alcotest.fail "expected a single store")

let test_local_opt_kill () =
  (* A redefinition must kill the copy: the load result, not the stale
     copy source, flows onward. *)
  let src =
    {|
class A extends Object {
  field f : Object
  method m(v : Object, w : A) : Object {
    var a : Object
    a = v
    a = w.f
    return a
  }
}
entry A.m
|}
  in
  let p = Jparser.parse src in
  ignore (Local_opt.run p);
  let a = Option.get (Ir.find_class p "A") in
  let m = Option.get (Ir.find_method p a "m") in
  match (Ir.meth p m).Ir.m_body with
  | [ Ir.Load { dst; _ }; Ir.Return r ] ->
    Alcotest.(check int) "return the loaded value" dst r
  | _ -> Alcotest.fail "expected load then return"

let find_rel facts name = List.assoc name facts

let test_factgen_tuples () =
  let p = parse () in
  let fg = Factgen.extract ~local_opt:false p in
  let facts = fg.Factgen.relations in
  let a = Option.get (Ir.find_class p "A") in
  let b = Option.get (Ir.find_class p "B") in
  (* aT is reflexive and transitive along the hierarchy. *)
  let at = find_rel facts "aT" in
  Alcotest.(check bool) "aT(A, B)" true (List.mem [ a; b ] at);
  Alcotest.(check bool) "aT(A, A)" true (List.mem [ a; a ] at);
  Alcotest.(check bool) "aT(Object, B)" true (List.mem [ Ir.object_class p; b ] at);
  Alcotest.(check bool) "no aT(B, A)" false (List.mem [ b; a ] at);
  (* vP0: one tuple per allocation. *)
  Alcotest.(check int) "vP0 count" 5 (List.length (find_rel facts "vP0"));
  Alcotest.(check int) "global seed" 1 (List.length (find_rel facts "vP0g"));
  (* Static accesses go through the global variable. *)
  let gv = Ir.global_var p in
  let stores = find_rel facts "store" in
  Alcotest.(check bool) "static store via global" true (List.exists (fun t -> List.hd t = gv) stores);
  let loads = find_rel facts "load" in
  Alcotest.(check bool) "static load via global" true (List.exists (fun t -> List.hd t = gv) loads);
  (* hT covers the synthetic global object. *)
  let ht = find_rel facts "hT" in
  Alcotest.(check bool) "global object typed Object" true (List.mem [ Factgen.global_heap fg; Ir.object_class p ] ht);
  (* Each allocation produced a constructor-call edge in IE0. *)
  let ie0 = find_rel facts "IE0" in
  Alcotest.(check bool) "IE0 has constructor edges" true (List.length ie0 >= 5);
  (* syncs has the one sync. *)
  Alcotest.(check int) "syncs" 1 (List.length (find_rel facts "syncs"));
  (* cha dispatch rows: get on B resolves to B.get. *)
  let cha = find_rel facts "cha" in
  let b_get = Option.get (Ir.find_method p b "get") in
  let names = Option.get (Factgen.element_names fg "N") in
  let get_name_idx = ref (-1) in
  Array.iteri (fun i n -> if n = "get" then get_name_idx := i) names;
  Alcotest.(check bool) "cha(B, get, B.get)" true (List.mem [ b; !get_name_idx; b_get ] cha)

let test_factgen_domains () =
  let p = parse () in
  let fg = Factgen.extract ~local_opt:false p in
  (* V already includes one exception variable per method (real vars
     allocated at method creation), H the built-in global heap. *)
  Alcotest.(check int) "V size" (Ir.num_vars p) (Factgen.dom_size fg "V");
  Alcotest.(check bool) "V has an exc var per method" true (Ir.num_vars p > Ir.num_methods p);
  Alcotest.(check int) "H size" (Ir.num_heaps p) (Factgen.dom_size fg "H");
  Alcotest.(check int) "T size" (Ir.num_classes p) (Factgen.dom_size fg "T");
  (* Element names resolve. *)
  let h_names = Option.get (Factgen.element_names fg "H") in
  Alcotest.(check bool) "A1 label present" true (Array.exists (fun n -> n = "A1") h_names);
  Alcotest.(check string) "global heap is element 0" "<global>" h_names.(0)

let test_redeclare_init () =
  let src =
    {|
class A extends Object {
  field f : Object
  method <init>(v : Object) : void {
    this.f = v
  }
}
class Main extends Object {
  static method main() : void {
    var o : Object
    var a : A
    o = new Object()
    a = new A(o)
  }
}
entry Main.main
|}
  in
  let p = Jparser.parse src in
  let a = Option.get (Ir.find_class p "A") in
  let init = Ir.init_method p a in
  Alcotest.(check int) "init has this + v" 2 (List.length (Ir.meth p init).Ir.m_formals);
  Alcotest.(check int) "init body" 1 (List.length (Ir.meth p init).Ir.m_body);
  (* actual(init_site, 1, o) must exist. *)
  let fg = Factgen.extract ~local_opt:false p in
  let actuals = List.assoc "actual" fg.Factgen.relations in
  Alcotest.(check bool) "constructor argument bound" true (List.exists (fun t -> List.nth t 1 = 1) actuals)

let test_generator_sanity () =
  let params = { Synth.Generator.default_params with n_classes = 16; n_thread_classes = 2; jce_flavor = true } in
  let p = Synth.Generator.generate params in
  Alcotest.(check bool) "has classes" true (Ir.num_classes p > 16);
  Alcotest.(check bool) "has statements" true (Ir.stmt_count p > 50);
  Alcotest.(check bool) "has entries" true (List.length (Ir.entries p) >= 1);
  Alcotest.(check bool) "has PBEKeySpec" true (Ir.find_class p "PBEKeySpec" <> None);
  (* Determinism. *)
  let p2 = Synth.Generator.generate params in
  Alcotest.(check int) "deterministic stmts" (Ir.stmt_count p) (Ir.stmt_count p2);
  let f1 = facts_of p and f2 = facts_of p2 in
  List.iter2 (fun (n, t1) (_, t2) -> Alcotest.(check int) (n ^ " deterministic") (List.length t1) (List.length t2)) f1 f2

(* Relation schemas, for mapping fact tuples to element names (ids are
   renumbered by a parse round-trip; names are stable). *)
let schemas =
  [
    ("vP0", [ "V"; "H" ]);
    ("vP0g", [ "V"; "H" ]);
    ("copyAssign", [ "V"; "V" ]);
    ("store", [ "V"; "F"; "V" ]);
    ("load", [ "V"; "F"; "V" ]);
    ("vT", [ "V"; "T" ]);
    ("hT", [ "H"; "T" ]);
    ("aT", [ "T"; "T" ]);
    ("cha", [ "T"; "N"; "M" ]);
    ("chaT", [ "T"; "N"; "M" ]);
    ("actual", [ "I"; "Z"; "V" ]);
    ("formal", [ "M"; "Z"; "V" ]);
    ("IE0", [ "I"; "M" ]);
    ("mI", [ "M"; "I"; "N" ]);
    ("Mret", [ "M"; "V" ]);
    ("Mthr", [ "M"; "V" ]);
    ("Iret", [ "I"; "V" ]);
    ("mV", [ "M"; "V" ]);
    ("mH", [ "M"; "H" ]);
    ("syncs", [ "V" ]);
    ("Mentry", [ "M" ]);
    ("Mcls", [ "M"; "T" ]);
    ("hRun", [ "H"; "M" ]);
  ]

let named_facts p =
  let fg = Factgen.extract ~local_opt:false p in
  List.map
    (fun (name, tuples) ->
      let doms = List.assoc name schemas in
      let named =
        List.map (fun t -> List.map2 (fun d v -> (Option.get (Factgen.element_names fg d)).(v)) doms t) tuples
      in
      (name, List.sort compare named))
    fg.Factgen.relations

let test_generator_roundtrip () =
  let params = { Synth.Generator.default_params with n_classes = 10; n_thread_classes = 1; jce_flavor = true } in
  let p = Synth.Generator.generate params in
  let printed = Jprinter.to_string p in
  let p2 = Jparser.parse printed in
  Alcotest.(check int) "stmt count" (Ir.stmt_count p) (Ir.stmt_count p2);
  (* Compare name-level facts: entity ids may be renumbered by the
     round-trip, but every named tuple must survive. *)
  let f1 = named_facts (Synth.Generator.generate params) and f2 = named_facts p2 in
  List.iter2
    (fun (n1, t1) (_, t2) -> Alcotest.(check (list (list string))) (Printf.sprintf "facts of %s" n1) t1 t2)
    f1 f2

(* The same add-alloc applied twice lands in the same method body; the
   edited program must still print, parse and analyze. *)
let test_add_alloc_twice () =
  let p = Synth.Generator.generate (Synth.Profiles.params ~scale:0.01 (Option.get (Synth.Profiles.find "freetts"))) in
  let spec = { Synth.Edits.kind = Synth.Edits.Add_alloc; seed = 1 } in
  let d1 = Synth.Edits.apply p spec and d2 = Synth.Edits.apply p spec in
  Alcotest.(check string) "both edits hit the same body" d1 d2;
  let p2 = Jparser.parse (Jprinter.to_string p) in
  Alcotest.(check int) "stmt count" (Ir.stmt_count p) (Ir.stmt_count p2);
  let r = Pta.Analyses.run_basic ~algo:Pta.Analyses.Algo2 (Factgen.extract p2) in
  let vp = Datalog.Engine.relation r.Pta.Analyses.engine "vP" in
  let vdom = (List.hd (Relation.attrs vp)).Relation.block.Space.dom in
  let is_edit_local t =
    let local = List.hd (List.rev (String.split_on_char '.' (Domain.element_name vdom t.(0)))) in
    String.starts_with ~prefix:"editv" local
  in
  Alcotest.(check int) "each edit local points to its allocation" 2
    (List.length (List.filter is_edit_local (Relation.tuples vp)))

let test_arrays_and_exceptions () =
  let src =
    {|
class A extends Object {
  method fill(arr : Object, v : Object) : void {
    arr[] = v
  }
  method fetch(arr : Object) : Object {
    var r : Object
    r = arr[]
    return r
  }
  method risky() : void {
    var e : Object
    e = new Object() @ "BOOM"
    throw e
  }
  method guard() : Object {
    var caught : Object
    caught = catch
    return caught
  }
}
entry A.risky
|}
  in
  let p = Jparser.parse src in
  let fg = Factgen.extract ~local_opt:false p in
  let facts = fg.Factgen.relations in
  (* Array accesses become load/store through the special field. *)
  let af = Ir.array_field p in
  Alcotest.(check bool) "array store" true (List.exists (fun t -> List.nth t 1 = af) (find_rel facts "store"));
  Alcotest.(check bool) "array load" true (List.exists (fun t -> List.nth t 1 = af) (find_rel facts "load"));
  (* Every method has an exception variable in Mthr. *)
  Alcotest.(check int) "Mthr arity = methods" (Ir.num_methods p) (List.length (find_rel facts "Mthr"));
  (* throw/catch show up as copies involving the exception variable. *)
  let a = Option.get (Ir.find_class p "A") in
  let risky = Option.get (Ir.find_method p a "risky") in
  let exc_of_risky = List.assoc risky (List.map (function [ m; v ] -> (m, v) | _ -> (-1, -1)) (find_rel facts "Mthr")) in
  Alcotest.(check bool) "throw assigns into exc var" true
    (List.exists (fun t -> List.hd t = exc_of_risky) (find_rel facts "copyAssign"));
  (* Round-trips through the printer. *)
  let p2 = Jparser.parse (Jprinter.to_string p) in
  Alcotest.(check int) "roundtrip stmts" (Ir.stmt_count p) (Ir.stmt_count p2)

let test_interfaces () =
  let src =
    {|
interface Readable {
}
interface Closeable {
}
interface Stream extends Readable, Closeable {
}
class File extends Object implements Stream {
  method read(this2 : Readable) : void {
  }
}
class Sock extends File {
}
class Main extends Object {
  static method main() : void {
    var f : File
    var r : Readable
    f = new File()
    r = f
    r.read(r)
  }
}
entry Main.main
|}
  in
  let p = Jparser.parse src in
  let file = Option.get (Ir.find_class p "File") in
  let sock = Option.get (Ir.find_class p "Sock") in
  let readable = Option.get (Ir.find_class p "Readable") in
  let stream = Option.get (Ir.find_class p "Stream") in
  let closeable = Option.get (Ir.find_class p "Closeable") in
  Alcotest.(check bool) "File : Stream" true (Hier.assignable p stream file);
  Alcotest.(check bool) "File : Readable via extends" true (Hier.assignable p readable file);
  Alcotest.(check bool) "Sock inherits conformance" true (Hier.assignable p closeable sock);
  Alcotest.(check bool) "Readable not assignable from Main" false
    (Hier.assignable p readable (Option.get (Ir.find_class p "Main")));
  Alcotest.(check bool) "interface not assignable to class" false (Hier.assignable p file readable);
  (* aT includes the interface rows. *)
  let fg = Factgen.extract ~local_opt:false p in
  let at = List.assoc "aT" fg.Factgen.relations in
  Alcotest.(check bool) "aT(Readable, Sock)" true (List.mem [ readable; sock ] at);
  (* Interfaces cannot be instantiated. *)
  (match Jparser.parse "interface I {}\nclass M extends Object { static method main() : void { var x : I\nx = new I() } }\nentry M.main" with
  | exception Jparser.Parse_error _ -> ()
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of interface instantiation");
  (* Round-trip. *)
  let p2 = Jparser.parse (Jprinter.to_string p) in
  Alcotest.(check int) "classes preserved" (Ir.num_classes p) (Ir.num_classes p2);
  Alcotest.(check bool) "interface flag preserved" true
    (Ir.cls p2 (Option.get (Ir.find_class p2 "Stream"))).Ir.cls_interface

let test_profiles () =
  Alcotest.(check int) "21 benchmarks" 21 (List.length Synth.Profiles.all);
  let pmd = Option.get (Synth.Profiles.find "pmd") in
  Alcotest.(check string) "pmd paths" "5e23" pmd.Synth.Profiles.paper_paths;
  Alcotest.(check bool) "pmd single-threaded" true pmd.Synth.Profiles.single_threaded;
  let params = Synth.Profiles.params ~scale:0.02 pmd in
  Alcotest.(check bool) "pmd fan-out is widest" true (params.Synth.Generator.calls_per_method >= 5);
  let p = Synth.Generator.generate params in
  Alcotest.(check bool) "generates" true (Ir.num_methods p > 10)

let () =
  Alcotest.run "jir"
    [
      ( "parser",
        [
          Alcotest.test_case "counts" `Quick test_parse_counts;
          Alcotest.test_case "hierarchy" `Quick test_hierarchy;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "printer roundtrip" `Quick test_printer_roundtrip;
          Alcotest.test_case "redeclare init" `Quick test_redeclare_init;
        ] );
      ( "local_opt",
        [
          Alcotest.test_case "copy chains removed" `Quick test_local_opt;
          Alcotest.test_case "redefinition kills" `Quick test_local_opt_kill;
        ] );
      ( "factgen",
        [
          Alcotest.test_case "tuples" `Quick test_factgen_tuples;
          Alcotest.test_case "domains" `Quick test_factgen_domains;
        ] );
      ( "synth",
        [
          Alcotest.test_case "generator sanity" `Quick test_generator_sanity;
          Alcotest.test_case "generator roundtrip" `Quick test_generator_roundtrip;
          Alcotest.test_case "add-alloc twice parses and analyzes" `Quick test_add_alloc_twice;
          Alcotest.test_case "arrays and exceptions" `Quick test_arrays_and_exceptions;
          Alcotest.test_case "interfaces" `Quick test_interfaces;
          Alcotest.test_case "profiles" `Quick test_profiles;
        ] );
    ]
