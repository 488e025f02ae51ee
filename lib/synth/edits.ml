module Ir = Jir.Ir

type kind = Add_method | Add_alloc | Remove_alloc

type spec = { kind : kind; seed : int }

let kind_names = [ ("add-method", Add_method); ("add-alloc", Add_alloc); ("remove-alloc", Remove_alloc) ]

let names = List.map fst kind_names

let parse s =
  let name, seed =
    match String.index_opt s ':' with
    | None -> (s, 0)
    | Some i -> (String.sub s 0 i, int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) |> Option.value ~default:(-1))
  in
  if seed < 0 then Error (Printf.sprintf "bad edit seed in %S" s)
  else
    match List.assoc_opt name kind_names with
    | Some kind -> Ok { kind; seed }
    | None -> Error (Printf.sprintf "unknown edit %S (expected %s)" name (String.concat " | " names))

(* Concrete classes declaring at least one instance method besides the
   constructor — the dispatch targets an added call can exercise. *)
let concrete_with_methods ir =
  let cands = ref [] in
  Ir.iter_classes ir (fun c ->
      if not c.Ir.cls_interface then begin
        let ms =
          List.filter
            (fun mid ->
              let m = Ir.meth ir mid in
              (not m.Ir.m_static) && m.Ir.m_name <> "<init>")
            c.Ir.cls_methods
        in
        if ms <> [] then cands := (c, ms) :: !cands
      end);
  List.rev !cands

(* Classes whose implicit constructor takes no arguments, so an added
   [new] site needs no plumbing. *)
let default_constructible ir =
  let cands = ref [] in
  Ir.iter_classes ir (fun c ->
      if (not c.Ir.cls_interface) && List.length (Ir.meth ir (Ir.init_method ir c.Ir.cls_id)).Ir.m_formals <= 1 then
        cands := c :: !cands);
  List.rev !cands

(* Append a self-contained entry: a new class subclassing an existing
   one, plus a static entry method that allocates it, copies it through
   a local, and calls an inherited virtual method.  Every new entity id
   (class, method, vars, heap site, invoke sites) is allocated past the
   existing ones, so the edit diffs as pure additions — the
   incremental-friendly shape. *)
let add_method ir rng =
  match concrete_with_methods ir with
  | [] -> "add-method: no concrete class with instance methods; program unchanged"
  | cands ->
    let c, ms = Rng.pick rng cands in
    let name = Printf.sprintf "EditC%d" (Ir.num_classes ir) in
    let cid = Ir.add_class ir ~name ~super:c.Ir.cls_id in
    let entry = Ir.add_method ir ~name:"editEntry" ~owner:cid ~static:true ~formals:[] ~ret:None in
    let o = Ir.add_local ir entry ~name:"o" ~ty:cid in
    let p = Ir.add_local ir entry ~name:"p" ~ty:c.Ir.cls_id in
    ignore (Ir.emit_new ir ~label:"edit" entry ~dst:o ~cls:cid ~args:[]);
    Ir.emit_assign ir entry ~dst:p ~src:o;
    let target = Ir.meth ir (Rng.pick rng ms) in
    let args = List.map (fun _ -> o) (List.tl target.Ir.m_formals) in
    ignore (Ir.emit_invoke_virtual ir ~label:"edit" entry ~base:p ~name:target.Ir.m_name ~args);
    Ir.add_entry ir entry;
    Printf.sprintf "add-method: appended class %s extending %s with entry calling %s.%s" name c.Ir.cls_name
      c.Ir.cls_name target.Ir.m_name

(* Append an allocation and a copy inside an {e existing} method body.
   The new entities still get fresh trailing ids, but touching an
   existing body can change how {!Jir.Local_opt} factors its copy
   chains, so the extracted relations may shift — the edit that
   exercises the cold fall-back without renumbering anything. *)
let add_alloc ir rng =
  let bodies = ref [] in
  Ir.iter_methods ir (fun m -> if m.Ir.m_body <> [] && m.Ir.m_name <> "<init>" then bodies := m :: !bodies);
  match (List.rev !bodies, default_constructible ir) with
  | [], _ | _, [] -> "add-alloc: no editable method body; program unchanged"
  | bodies, ctors ->
    let m = Rng.pick rng bodies in
    let c = Rng.pick rng ctors in
    (* Name each local after its fresh var id: a second add-alloc into
       the same body must not redeclare the first one's locals. *)
    let local prefix =
      Ir.add_local ir m.Ir.m_id ~name:(Printf.sprintf "%s%d" prefix (Ir.num_vars ir)) ~ty:c.Ir.cls_id
    in
    let v = local "editv" in
    let w = local "editw" in
    ignore (Ir.emit_new ir ~label:"edit-alloc" m.Ir.m_id ~dst:v ~cls:c.Ir.cls_id ~args:[]);
    Ir.emit_assign ir m.Ir.m_id ~dst:w ~src:v;
    Printf.sprintf "add-alloc: new %s plus copy appended to %s.%s" c.Ir.cls_name (Ir.cls ir m.Ir.m_owner).Ir.cls_name
      m.Ir.m_name

(* Delete one [New] from some method body: a guaranteed retraction.
   The allocation's vP0 tuple is unique to its (now silent) heap site
   and allocations survive local copy factoring, so the extracted
   relations always shrink and an incremental update must take the
   cold path.  (Deleting a plain [Assign] would be weaker: copy
   propagation can make it invisible in the extracted facts.) *)
let remove_alloc ir rng =
  let cands = ref [] in
  Ir.iter_methods ir (fun m ->
      let n = List.length (List.filter (function Ir.New _ -> true | _ -> false) m.Ir.m_body) in
      if n > 0 then cands := (m, n) :: !cands);
  match List.rev !cands with
  | [] -> "remove-alloc: no allocation to remove; program unchanged"
  | cands ->
    let m, n = Rng.pick rng cands in
    let victim = Rng.int rng n in
    let seen = ref 0 in
    m.Ir.m_body <-
      List.filter
        (function
          | Ir.New _ ->
            let keep = !seen <> victim in
            incr seen;
            keep
          | _ -> true)
        m.Ir.m_body;
    Printf.sprintf "remove-alloc: dropped allocation %d of %d from %s.%s" (victim + 1) n
      (Ir.cls ir m.Ir.m_owner).Ir.cls_name m.Ir.m_name

let apply ir { kind; seed } =
  let rng = Rng.create (0x5eed1 + seed) in
  match kind with
  | Add_method -> add_method ir rng
  | Add_alloc -> add_alloc ir rng
  | Remove_alloc -> remove_alloc ir rng
