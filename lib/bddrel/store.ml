(* On-disk results database: domains + variable layout + relation BDDs.

   The manifest is a small line-oriented text file; the BDD payload is
   one Bdd.serialize dump whose roots are the relations in manifest
   order.  Write protocol for crash safety:

   - every file goes through temp + fsync + rename + directory fsync
     (a write barrier: the rename only becomes the commit of that file
     once its content is durable, and the rename itself is durable
     once the directory is);
   - data files are written before the manifest, and an existing
     manifest is removed first (and the removal fsynced) when
     overwriting — the manifest's presence is the commit point of the
     whole store;
   - the manifest records a CRC-32 + size for every data file and a
     CRC-32 of itself (the [selfsum] line), so any corruption between
     save and load is reported as a structured checksum error instead
     of a deserializer crash or, worse, silently wrong answers.

   Every file-system mutation is announced through [Faults.fs_op]
   immediately before it happens, which lets the robustness suite
   enumerate the crash points of a save and simulate a kill at each
   one (see test/test_store.ml's crash matrix). *)

type t = {
  st_key : string;
  st_snapshot : int;
  st_config : (string * string) list;
  st_space : Space.t;
  st_domains : (string * Domain.t) list;
  st_rels : (string * Relation.t) list; (* manifest order *)
  st_layers : int; (* delta layers folded into this load *)
}

(* v2: checksummed manifest + WLBDD02 checksummed BDD framing.
   v3: a [snapshot <n>] identity line — a per-directory save counter
   that lets followers (and their routers) tell two saves of the same
   content key apart and assert exactly which snapshot answered.
   v4: a BDD dump's [checksum] line records the CRC-32 of the dump
   without its 4-byte CRC trailer.  The CRC-32 of a whole dump is the
   constant residue of a CRC-terminated message, so under v3 only the
   size tied a manifest to its dump.  v3 stores are still read.

   Independent of the base format, a store may carry a chain of delta
   layers ([layer.<n>.*] files, format [whalelam-layer 2]): each layer
   is a self-committed append describing per-relation added/removed
   tuple sets against the state below it.  [load] folds the chain;
   [save] and [compact] squash it back to a single base.  Layer
   format 2 changes dump checksums exactly as base format 4 does;
   layer format 1 is still read. *)
let format_version = 4
let layer_format_version = 2

let subdir dir = Filename.concat dir "store"
let store_path dir file = Filename.concat (subdir dir) file

(* A store is a chain of elements: the base (element 0) and the delta
   layers 1, 2, ... above it.  Layer files live next to the base under
   numeric names; each element's manifest is its single commit point,
   and the base manifest is the commit point of the whole store. *)
let manifest_file n = if n = 0 then "manifest" else Printf.sprintf "layer.%d.manifest" n
let bdd_file n = if n = 0 then "relations.bdd" else Printf.sprintf "layer.%d.bdd" n
let map_file n dom_name = if n = 0 then dom_name ^ ".map" else Printf.sprintf "layer.%d.%s.map" n dom_name
let manifest_path dir = store_path dir (manifest_file 0)

(* [layer.<n>.<rest>] → [Some n]; anything else → [None]. *)
let layer_file_index f =
  if String.length f > 6 && String.sub f 0 6 = "layer." then
    match String.index_from_opt f 6 '.' with
    | Some dot -> int_of_string_opt (String.sub f 6 (dot - 6))
    | None -> None
  else None

let bad ~path ~line fmt = Solver_error.raise_bad_input ~file:path ~line fmt

let rec mkdir_p path =
  if path <> "" && path <> "/" && path <> "." && not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.is_directory path -> ()
  end

(* Directory fsync: makes a completed rename/remove durable.  Best
   effort — some filesystems refuse to fsync a directory fd; the
   in-file checksums still catch whatever such a crash leaves. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* Atomic durable write: the destination either keeps its old content
   or gets the complete new content, never a prefix — and once the
   rename is visible, the content is already on disk (fsync before
   rename, directory fsync after).  The [Faults.fs_op] announcements
   split the path into its crash points; a simulated kill
   ([Faults.Crashed]) stops the protocol dead, leaving the temp file
   behind exactly as a real kill would. *)
let write_atomic path content =
  let tmp = path ^ ".tmp" in
  Faults.fs_op ("create " ^ tmp);
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let write_slice pos len =
    let b = Bytes.unsafe_of_string content in
    let rec go pos len =
      if len > 0 then begin
        let n = Unix.write fd b pos len in
        go (pos + n) (len - n)
      end
    in
    go pos len
  in
  (try
     let n = String.length content in
     let half = n / 2 in
     Faults.fs_op ("write " ^ tmp);
     write_slice 0 half;
     if half < n then Faults.fs_op ("write-rest " ^ tmp);
     write_slice half (n - half);
     Faults.fs_op ("fsync " ^ tmp);
     Unix.fsync fd;
     Unix.close fd
   with
   | Faults.Crashed _ as e ->
     (* Simulated process death: the kernel reclaims the descriptor
        and nothing else runs — the partial temp file stays. *)
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e
   | e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Faults.fs_op ("rename " ^ path);
  Sys.rename tmp path;
  Faults.fs_op ("fsync-dir " ^ Filename.dirname path);
  fsync_dir (Filename.dirname path)

let check_name what s =
  if s = "" || String.exists (fun c -> c = ' ' || c = ':' || c = '\n' || c = '\t' || c = '/') s then
    invalid_arg (Printf.sprintf "Store: %s name %S must be non-empty without spaces, colons or slashes" what s)

(* The snapshot counter's durable home: a one-line [serial] file next
   to the manifest, committed (atomically, before the old manifest is
   even touched) at the start of every save.  A save that crashes at
   any later point — including the torn window where the manifest has
   been removed but the new one is not yet committed — therefore never
   resets the counter: the next save reads the serial file and keeps
   counting.  The manifest scan below is only a fallback for stores
   written before the serial file existed. *)
let serial_path dir = store_path dir "serial"

(* Best-effort removal of every delta-layer file.  Called after the
   commit point of a full [save] (which orphans any chain the
   directory carried) and by [compact]: correctness never depends on
   it, because a layer whose [base-snapshot] does not match the
   current base is ignored by the chain walk — this only reclaims the
   disk.  Layer manifests go first so a crash mid-cleanup cannot leave
   a committed layer manifest pointing at removed data. *)
let remove_layer_files dir =
  match Sys.readdir (subdir dir) with
  | exception Sys_error _ -> ()
  | entries ->
    let files = Array.to_list entries |> List.filter (fun f -> layer_file_index f <> None) in
    if files <> [] then begin
      let manifests, rest = List.partition (fun f -> Filename.check_suffix f ".manifest") files in
      List.iter
        (fun f ->
          let path = store_path dir f in
          Faults.fs_op ("remove " ^ path);
          try Sys.remove path with Sys_error _ -> ())
        (manifests @ rest);
      Faults.fs_op ("fsync-dir " ^ subdir dir);
      fsync_dir (subdir dir)
    end

(* The first line of [path] that [f] accepts, found with a plain scan
   (no full parse: an old manifest may be torn or corrupt, and a save
   must still go through — it starts a fresh history then); [None]
   when no line matches or the file is missing or unreadable. *)
let scan_lines path f =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go () = match f (input_line ic) with Some _ as found -> found | None -> go () in
        try go () with End_of_file | Sys_error _ -> None)

let non_negative = function Some n when n >= 0 -> Some n | Some _ | None -> None
let read_serial path = scan_lines path (fun l -> non_negative (int_of_string_opt (String.trim l)))

(* The previous save's snapshot counter, for stores whose serial file
   predates it. *)
let scan_snapshot path =
  scan_lines path (fun l ->
      match String.split_on_char ' ' l with [ "snapshot"; n ] -> non_negative (int_of_string_opt n) | _ -> None)

(* --- The manifest codec ---

   Base and layer manifests share one line format.  Both carry the
   magic line, [key], [snapshot], [config], [nvars], [domain] and
   [checksum] lines, then [selfsum] and the [end] trailer.  A base adds
   [block], [relation] and [certified] lines; a layer adds its [layer]
   index, [base-snapshot], [prev-snapshot] and [delta] lines.  One
   record holds either kind: the base is element 0, and the fields of
   the other kind stay empty. *)

type manifest = {
  m_index : int; (* 0 for the base, n for layer n *)
  m_key : string; (* content key of the chain up to and including this element *)
  m_snapshot : int;
  m_base_snapshot : int; (* layer: the base save this layer extends *)
  m_prev_snapshot : int; (* layer: the element directly below (base or layer n-1) *)
  m_config : (string * string) list;
  m_nvars : int;
  m_domains : (string * int * bool) list; (* name, size, carries an element-name map *)
  m_blocks : (string * int * int array) list; (* base: dom, instance, bits *)
  m_relations : (string * (string * string * int) list) list; (* base: rel, attrs (name, dom, instance) *)
  m_deltas : string list; (* layer: relation names; dump roots are (added, removed) pairs in this order *)
  m_checksums : (string * int * int) list; (* file, size, crc32 *)
  m_certified : (string * int) option; (* base: chain-tip (key, snapshot) a semantic certification vouched for *)
  m_legacy : bool; (* base format 3 / layer format 1: a dump's checksum covers its trailer too *)
}

let empty =
  {
    m_index = 0;
    m_key = "";
    m_snapshot = 0;
    m_base_snapshot = 0;
    m_prev_snapshot = 0;
    m_config = [];
    m_nvars = 0;
    m_domains = [];
    m_blocks = [];
    m_relations = [];
    m_deltas = [];
    m_checksums = [];
    m_certified = None;
    m_legacy = false;
  }

let magic ~layer ~legacy =
  if layer then Printf.sprintf "whalelam-layer %d" (if legacy then 1 else layer_format_version)
  else Printf.sprintf "whalelam-store %d" (if legacy then 3 else format_version)

(* The bytes a dump's [checksum] line covers: all but the 4-byte CRC
   trailer [Bdd.serialize] appends, unless the manifest is legacy. *)
let trailer_bytes = 4

let checked_len ~legacy file data =
  let n = String.length data in
  if legacy || (not (Filename.check_suffix file ".bdd")) || n < trailer_bytes then n else n - trailer_bytes

let render m =
  let layer = m.m_index > 0 in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s\n" (magic ~layer ~legacy:m.m_legacy);
  if layer then Printf.bprintf b "layer %d\n" m.m_index;
  Printf.bprintf b "key %s\n" m.m_key;
  Printf.bprintf b "snapshot %d\n" m.m_snapshot;
  if layer then Printf.bprintf b "base-snapshot %d\nprev-snapshot %d\n" m.m_base_snapshot m.m_prev_snapshot;
  List.iter (fun (k, v) -> Printf.bprintf b "config %s %s\n" k v) m.m_config;
  Printf.bprintf b "nvars %d\n" m.m_nvars;
  List.iter
    (fun (name, size, mapped) -> Printf.bprintf b "domain %s %d %d\n" name size (if mapped then 1 else 0))
    m.m_domains;
  List.iter
    (fun (dname, instance, bits) ->
      Printf.bprintf b "block %s %d %s\n" dname instance
        (String.concat " " (List.map string_of_int (Array.to_list bits))))
    m.m_blocks;
  List.iter
    (fun (rname, attrs) ->
      Printf.bprintf b "relation %s %s\n" rname
        (String.concat " " (List.map (fun (a, d, i) -> Printf.sprintf "%s:%s:%d" a d i) attrs)))
    m.m_relations;
  List.iter (fun name -> Printf.bprintf b "delta %s\n" name) m.m_deltas;
  List.iter
    (fun (file, size, crc) -> Printf.bprintf b "checksum %s %d %s\n" file size (Crc32.to_hex crc))
    m.m_checksums;
  Option.iter (fun (k, s) -> Printf.bprintf b "certified %s %d\n" k s) m.m_certified;
  (* Self-checksum over every preceding byte: a flipped bit anywhere
     above is caught before any field is believed. *)
  Printf.bprintf b "selfsum %s\n" (Crc32.to_hex (Crc32.string (Buffer.contents b)));
  Buffer.add_string b "end\n";
  Buffer.contents b

let read_lines path =
  let ic = try open_in path with Sys_error msg -> bad ~path ~line:0 "%s" msg in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      List.rev !lines)

let split_ws s = String.split_on_char ' ' s |> List.filter (fun f -> f <> "")

(* The manifest self-checksum: the second-to-last line must be
   [selfsum <crc>] where <crc> is the CRC-32 of every line before it
   (each with its '\n' back).  Verified before any field is
   interpreted, so a corrupted manifest is one uniform structured
   error rather than whichever field-level symptom the flip causes. *)
let verify_selfsum path lines =
  let arr = Array.of_list lines in
  let n = Array.length arr in
  if n < 3 then bad ~path ~line:n "manifest too short (%d lines)" n;
  match split_ws arr.(n - 2) with
  | [ "selfsum"; hex ] -> (
    match Crc32.of_hex hex with
    | None -> bad ~path ~line:(n - 1) "malformed selfsum value %s" hex
    | Some recorded ->
      let b = Buffer.create 512 in
      for i = 0 to n - 3 do
        Buffer.add_string b arr.(i);
        Buffer.add_char b '\n'
      done;
      let actual = Crc32.string (Buffer.contents b) in
      if actual <> recorded then
        bad ~path ~line:(n - 1)
          "manifest checksum mismatch: selfsum says crc32 %s, content is %s (corrupt manifest)"
          (Crc32.to_hex recorded) (Crc32.to_hex actual))
  | _ -> bad ~path ~line:(n - 1) "missing selfsum line before the end trailer (truncated manifest)"

let parse_manifest ~layer path =
  let what = if layer then "layer manifest" else "manifest" in
  let lines = read_lines path in
  let legacy =
    match lines with
    | first :: _ when first = magic ~layer ~legacy:false -> false
    | first :: _ when first = magic ~layer ~legacy:true -> true
    | first :: _ -> bad ~path ~line:1 "unsupported %s format: %s" (if layer then "layer" else "store") first
    | [] -> bad ~path ~line:1 "empty %s" what
  in
  (match List.rev lines with
  | "end" :: _ -> ()
  | _ -> bad ~path ~line:(List.length lines) "missing end trailer (truncated %s)" what);
  verify_selfsum path lines;
  let index = ref None
  and key = ref None
  and snapshot = ref None
  and base_snapshot = ref None
  and prev_snapshot = ref None
  and config = ref []
  and nvars = ref None
  and domains = ref []
  and blocks = ref []
  and relations = ref []
  and deltas = ref []
  and checksums = ref []
  and certified = ref None in
  List.iteri
    (fun i line ->
      let line_no = i + 1 in
      let int_field what s =
        match int_of_string_opt s with
        | Some v when v >= 0 -> v
        | Some _ | None -> bad ~path ~line:line_no "%s: not a non-negative integer: %s" what s
      in
      if i > 0 && line <> "end" then
        match (split_ws line, layer) with
        | [ "key"; k ], _ -> key := Some k
        | [ "snapshot"; n ], _ -> snapshot := Some (int_field "snapshot" n)
        | "config" :: k :: _, _ ->
          (* The value is everything after the key, spaces included. *)
          let prefix = "config " ^ k ^ " " in
          let v =
            if String.length line >= String.length prefix then
              String.sub line (String.length prefix) (String.length line - String.length prefix)
            else ""
          in
          config := (k, v) :: !config
        | [ "nvars"; n ], _ -> nvars := Some (int_field "nvars" n)
        | [ "domain"; name; size; mapped ], _ ->
          domains := (name, int_field "domain size" size, mapped = "1") :: !domains
        | [ "checksum"; file; size; crc ], _ -> (
          match Crc32.of_hex crc with
          | Some c -> checksums := (file, int_field "checksum size" size, c) :: !checksums
          | None -> bad ~path ~line:line_no "malformed checksum value %s" crc)
        | [ "selfsum"; _ ], _ -> () (* verified up front by [verify_selfsum] *)
        | "block" :: dname :: inst :: bits, false ->
          blocks := (dname, int_field "instance" inst, Array.of_list (List.map (int_field "bit") bits)) :: !blocks
        | "relation" :: rname :: attrs, false ->
          let parse_attr spec =
            match String.split_on_char ':' spec with
            | [ a; d; inst ] -> (a, d, int_field "attr instance" inst)
            | _ -> bad ~path ~line:line_no "malformed attribute spec %s" spec
          in
          relations := (rname, List.map parse_attr attrs) :: !relations
        | [ "certified"; k; s ], false -> certified := Some (k, int_field "certified snapshot" s)
        | [ "layer"; n ], true -> index := Some (int_field "layer" n)
        | [ "base-snapshot"; n ], true -> base_snapshot := Some (int_field "base-snapshot" n)
        | [ "prev-snapshot"; n ], true -> prev_snapshot := Some (int_field "prev-snapshot" n)
        | [ "delta"; rname ], true -> deltas := rname :: !deltas
        | _ -> bad ~path ~line:line_no "unrecognized %s line: %s" what line)
    lines;
  let require name = function
    | Some v -> v
    | None -> bad ~path ~line:0 "%s is missing its %s line" what name
  in
  let layer_only name v = if layer then require name v else 0 in
  {
    m_index = layer_only "layer" !index;
    m_key = require "key" !key;
    m_snapshot = require "snapshot" !snapshot;
    m_base_snapshot = layer_only "base-snapshot" !base_snapshot;
    m_prev_snapshot = layer_only "prev-snapshot" !prev_snapshot;
    m_config = List.rev !config;
    m_nvars = require "nvars" !nvars;
    m_domains = List.rev !domains;
    m_blocks = List.rev !blocks;
    m_relations = List.rev !relations;
    m_deltas = List.rev !deltas;
    m_checksums = List.rev !checksums;
    m_certified = !certified;
    m_legacy = legacy;
  }

(* --- Writing a chain element --- *)

let check_config caller config =
  List.iter
    (fun (k, v) ->
      check_name "config" k;
      if String.contains v '\n' then invalid_arg (Printf.sprintf "Store.%s: config value contains newline" caller))
    config

(* Element-name maps of the mapped domains, one name per line.  Every
   data file is rendered up front so the checksums the manifest
   records are over the exact bytes written. *)
let render_maps doms =
  List.filter_map
    (fun d ->
      Option.map
        (fun names ->
          let b = Buffer.create 1024 in
          for i = 0 to Domain.size d - 1 do
            Buffer.add_string b names.(i);
            Buffer.add_char b '\n'
          done;
          (Domain.name d, Buffer.contents b))
        (Domain.element_names d))
    doms

let space_blocks space =
  List.concat_map
    (fun d ->
      List.map (fun (b : Space.block) -> (Domain.name d, b.Space.instance, b.Space.bits)) (Space.instances space d))
    (Space.domains space)

(* Commit one chain element [m] (the base when [m.m_index = 0]) with
   its [maps] and BDD [dump], filling in its snapshot and checksums.

   The snapshot is a monotonic per-directory save counter: the
   follower swap protocol distinguishes "same key, re-saved" (snapshot
   bumps) from "nothing changed" (identical key and snapshot).  It is
   allocated from the dedicated serial file (max'd against the base
   manifest for stores predating it, and against [floor]) and committed
   durably first — before a base save invalidates the old manifest —
   so a save torn at any later crash point cannot make the counter go
   backwards.  Then, base only, the old manifest is removed and the
   removal made durable: a crash after this point must read as "no
   store", never as the old manifest over new data files.  Then the
   maps, the dump, and last the manifest: its rename is the commit
   point of the element. *)
let commit dir ~floor ~maps ~dump m =
  let n = m.m_index in
  let snapshot =
    1
    + List.fold_left
        (fun acc o -> match o with Some s -> max acc s | None -> acc)
        floor
        [ read_serial (serial_path dir); scan_snapshot (manifest_path dir) ]
  in
  let checksums =
    (bdd_file n, String.length dump, Crc32.update 0 dump ~pos:0 ~len:(checked_len ~legacy:false (bdd_file n) dump))
    :: List.map (fun (dn, content) -> (map_file n dn, String.length content, Crc32.string content)) maps
  in
  mkdir_p (subdir dir);
  write_atomic (serial_path dir) (string_of_int snapshot ^ "\n");
  let mpath = store_path dir (manifest_file n) in
  if n = 0 && Sys.file_exists mpath then begin
    Faults.fs_op ("remove " ^ mpath);
    (try Sys.remove mpath with Sys_error _ -> ());
    Faults.fs_op ("fsync-dir " ^ subdir dir);
    fsync_dir (subdir dir)
  end;
  List.iter (fun (dn, content) -> write_atomic (store_path dir (map_file n dn)) content) maps;
  write_atomic (store_path dir (bdd_file n)) dump;
  write_atomic mpath (render { m with m_snapshot = snapshot; m_checksums = checksums; m_legacy = false })

let save ~dir ~key ~config ~space ~relations =
  List.iter
    (fun r ->
      check_name "relation" (Relation.name r);
      if Relation.space r != space then invalid_arg "Store.save: relation from a different space")
    relations;
  let names = List.map Relation.name relations in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Store.save: duplicate relation names";
  check_config "save" config;
  let doms = Space.domains space in
  List.iter (fun d -> check_name "domain" (Domain.name d)) doms;
  let attr_spec (a : Relation.attr) =
    (a.Relation.attr_name, Domain.name a.Relation.block.Space.dom, a.Relation.block.Space.instance)
  in
  commit dir ~floor:0 ~maps:(render_maps doms)
    ~dump:(Bdd.serialize (Space.man space) (List.map Relation.bdd relations))
    {
      empty with
      m_key = key;
      m_config = config;
      m_nvars = Space.num_vars space;
      m_domains = List.map (fun d -> (Domain.name d, Domain.size d, Domain.element_names d <> None)) doms;
      m_blocks = space_blocks space;
      m_relations = List.map (fun r -> (Relation.name r, List.map attr_spec (Relation.attrs r))) relations;
    };
  (* The new base orphans any delta chain the directory carried (its
     layers name the previous base's snapshot); reclaim the files. *)
  remove_layer_files dir

let exists ~dir = Sys.file_exists (manifest_path dir)

(* --- The chain walk --- *)

(* Walk the committed chain above a base manifest.  The walk stops
   cleanly at the first missing layer manifest (a torn [save_delta]
   never commits one, so its debris is invisible) and at the first
   {e orphan} — a layer whose [base-snapshot] is not the current
   base's, i.e. a leftover from before a [compact] or full [save]
   whose cleanup did not finish.  A layer that is committed but does
   not parse, misnumbers itself, or breaks the prev-snapshot link is
   {e corruption}: the walk reports it instead of silently serving a
   shorter chain. *)
let read_chain dir (m : manifest) =
  let rec go n prev acc =
    let path = store_path dir (manifest_file n) in
    if not (Sys.file_exists path) then (List.rev acc, None)
    else
      match parse_manifest ~layer:true path with
      | exception Solver_error.Error e -> (List.rev acc, Some (n, Solver_error.to_string e))
      | l ->
        if l.m_base_snapshot <> m.m_snapshot then (List.rev acc, None) (* orphan: ignore *)
        else if l.m_index <> n then
          (List.rev acc, Some (n, Printf.sprintf "%s: layer line says %d, file name says %d" path l.m_index n))
        else if l.m_prev_snapshot <> prev then
          ( List.rev acc,
            Some
              ( n,
                Printf.sprintf "%s: prev-snapshot %d does not match the element below (snapshot %d)" path
                  l.m_prev_snapshot prev ) )
        else go (n + 1) l.m_snapshot (l :: acc)
  in
  go 1 m.m_snapshot []

(* The base manifest and its committed layers, or a [Bad_input] when
   there is no store or the chain is broken ([broken] says what the
   caller could not do with it). *)
let open_chain ~broken dir =
  let mpath = manifest_path dir in
  if not (Sys.file_exists mpath) then bad ~path:mpath ~line:0 "no store at %s" dir;
  let m = parse_manifest ~layer:false mpath in
  match read_chain dir m with
  | layers, None -> (m, layers)
  | _, Some (n, msg) -> bad ~path:(store_path dir (manifest_file n)) ~line:0 "%s: %s" broken msg

(* The chain tip: the last committed layer, or the base itself when
   there is none.  Its key, snapshot and config describe the store. *)
let tip (m, layers) = match List.rev layers with [] -> m | l :: _ -> l

(* The element whose map file holds domain [name]'s element names: the
   topmost layer carrying a replacement map, else the base. *)
let map_provider (m, layers) name =
  let carries e = List.exists (fun (n, _, mapped) -> n = name && mapped) e.m_domains in
  match List.find_opt carries (List.rev layers) with Some l -> l | None -> m

(* The cheap readers parse manifests only, and read as [None] when
   there is no complete, well-formed store or its chain is corrupt
   (not merely torn).  Chain-aware: a base that has since been
   extended by [save_delta] can never masquerade as current. *)
let read_chain_opt ~dir f =
  match open_chain ~broken:"broken delta chain" dir with
  | chain -> Some (f chain)
  | exception Solver_error.Error _ -> None

let read_key ~dir = read_chain_opt ~dir (fun chain -> (tip chain).m_key)

(* The (key, snapshot) pair is the identity followers watch: equal
   pairs mean the same committed chain tip. *)
let read_ident ~dir =
  read_chain_opt ~dir (fun chain ->
      let t = tip chain in
      (t.m_key, t.m_snapshot))

let read_snapshot ~dir = Option.map snd (read_ident ~dir)
let read_layers ~dir = read_chain_opt ~dir (fun (_, layers) -> List.length layers)
let read_certified ~dir = Option.join (read_chain_opt ~dir (fun (m, _) -> m.m_certified))

(* Stat triples (inode, mtime, size) of the base manifest followed by
   every consecutive layer manifest on disk: the cheap
   has-anything-changed probe a follower compares between polls.  No
   parsing, no checksums — a changed list only means "look closer".
   The walk does not validate chain links, so orphaned tails appear
   here too; that is fine, the slow path sorts them out. *)
let tip_stat ~dir =
  let stat path =
    match Unix.stat path with
    | st -> Some (st.Unix.st_ino, st.Unix.st_mtime, st.Unix.st_size)
    | exception Unix.Unix_error _ -> None
  in
  let rec go n acc =
    match stat (store_path dir (manifest_file n)) with
    | None -> List.rev acc
    | Some s -> go (n + 1) (s :: acc)
  in
  go 0 []

let read_file path =
  let ic = try open_in_bin path with Sys_error msg -> bad ~path ~line:0 "%s" msg in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Read a data file and verify it against the recorded size and CRC-32
   of element [e]'s manifest before a single byte of it is
   interpreted. *)
let verified_read dir (e : manifest) file =
  let path = store_path dir file in
  match List.find_opt (fun (f, _, _) -> f = file) e.m_checksums with
  | None -> bad ~path:(store_path dir (manifest_file e.m_index)) ~line:0 "no checksum recorded for %s" file
  | Some (_, size, crc) ->
    let data = read_file path in
    if String.length data <> size then
      bad ~path ~line:0 "size mismatch: manifest says %d bytes, file has %d (corrupt or torn write)" size
        (String.length data);
    let checked = checked_len ~legacy:e.m_legacy file data in
    let actual = Crc32.update 0 data ~pos:0 ~len:checked in
    if actual <> crc then
      bad ~path ~line:0 "checksum mismatch: manifest says crc32 %s, content is %s (corrupt store)"
        (Crc32.to_hex crc) (Crc32.to_hex actual);
    (* The trailer a checksum leaves out holds the dump's own CRC of
       the same bytes: it must agree, so every byte is checked here. *)
    if checked < size then begin
      let trailer = Int32.to_int (String.get_int32_le data checked) land 0xFFFFFFFF in
      if trailer <> crc then
        bad ~path ~line:0 "checksum mismatch: manifest says crc32 %s, dump trailer says %s (corrupt store)"
          (Crc32.to_hex crc) (Crc32.to_hex trailer)
    end;
    data

let lines_of_string s =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rest -> List.rev rest (* drop the final newline's empty split *)
  | _ -> String.split_on_char '\n' s

let load_with ?mem_cap_bytes ~dir () =
  let ((m, layers) as chain) = open_chain ~broken:"broken delta chain" dir in
  let mpath = manifest_path dir in
  let t = tip chain in
  (* Domains are created at their {e final} sizes (the tip's domain
     lines), and each mapped domain's element names come from its map
     provider — the base, or the topmost layer whose edit grew or
     renamed the domain. *)
  let final_domains =
    List.map
      (fun (name, _, mapped) ->
        match List.find_opt (fun (n, _, _) -> n = name) t.m_domains with
        | Some (_, final_size, _) -> (name, final_size, mapped)
        | None ->
          bad ~path:(store_path dir (manifest_file t.m_index)) ~line:0 "layer %d is missing domain %s" t.m_index
            name)
      m.m_domains
  in
  (* A capped load spills under the store's own directory (the scratch
     file is lazily created, not in the manifest, and ignored by
     [verify]/[load] — debris at worst, removed on [dispose]).  The
     name embeds our pid so the sweep below — run on every load — can
     reclaim scratch files that earlier, since-killed processes never
     disposed, without ever touching a live concurrent loader's. *)
  ignore (Bdd.sweep_stale_spills ~dir:(subdir dir) ());
  let spill = store_path dir (Printf.sprintf "arena.%d.spill" (Unix.getpid ())) in
  let space = Space.create ?mem_cap_bytes ~spill_path:spill () in
  let domains =
    List.map
      (fun (name, size, mapped) ->
        let element_names =
          if not mapped then None
          else begin
            let p = map_provider chain name in
            let file = map_file p.m_index name in
            let names = Array.of_list (lines_of_string (verified_read dir p file)) in
            if Array.length names < size then
              bad ~path:(store_path dir file) ~line:(Array.length names) "map has %d entries, domain %s needs %d"
                (Array.length names) name size;
            Some names
          end
        in
        (name, Domain.make ?element_names ~name ~size ()))
      final_domains
  in
  let find_domain ~line name =
    match List.assoc_opt name domains with
    | Some d -> d
    | None -> bad ~path:mpath ~line "unknown domain %s" name
  in
  let blocks = Hashtbl.create 16 in
  List.iter
    (fun (dname, instance, bits) ->
      let d = find_domain ~line:0 dname in
      let b =
        try Space.restore_block space d ~instance ~bits
        with Invalid_argument msg -> bad ~path:mpath ~line:0 "%s" msg
      in
      Hashtbl.replace blocks (dname, instance) b)
    m.m_blocks;
  if Space.num_vars space > m.m_nvars then
    bad ~path:mpath ~line:0 "blocks use %d variables but nvars says %d" (Space.num_vars space) m.m_nvars;
  Bdd.extend_vars (Space.man space) (List.fold_left (fun acc l -> max acc l.m_nvars) m.m_nvars layers);
  let rels =
    List.map
      (fun (rname, attr_specs) ->
        let attrs =
          List.map
            (fun (aname, dname, instance) ->
              match Hashtbl.find_opt blocks (dname, instance) with
              | Some b -> { Relation.attr_name = aname; block = b }
              | None -> bad ~path:mpath ~line:0 "relation %s: no block %s#%d" rname dname instance)
            attr_specs
        in
        (rname, Relation.make space ~name:rname attrs))
      m.m_relations
  in
  let bpath = store_path dir (bdd_file 0) in
  let roots = Bdd.deserialize ~source:bpath (Space.man space) (verified_read dir m (bdd_file 0)) in
  if List.length roots <> List.length rels then
    bad ~path:bpath ~line:0 "dump has %d roots, manifest lists %d relations" (List.length roots)
      (List.length rels);
  List.iter2 (fun (_, r) root -> Relation.set_bdd r root) rels roots;
  (* Fold each layer over the state below it:
     rel := (rel \ removed) ∪ added, per delta line. *)
  let man = Space.man space in
  List.iter
    (fun l ->
      let lmpath = store_path dir (manifest_file l.m_index) in
      let lpath = store_path dir (bdd_file l.m_index) in
      let roots = Bdd.deserialize ~source:lpath man (verified_read dir l (bdd_file l.m_index)) in
      if List.length roots <> 2 * List.length l.m_deltas then
        bad ~path:lpath ~line:0 "layer dump has %d roots, manifest lists %d delta relations" (List.length roots)
          (List.length l.m_deltas);
      let rec fold names roots =
        match (names, roots) with
        | [], [] -> ()
        | name :: names, added :: removed :: roots ->
          (match List.assoc_opt name rels with
          | None -> bad ~path:lmpath ~line:0 "layer %d: delta for unknown relation %s" l.m_index name
          | Some r -> Relation.set_bdd r (Bdd.mk_or man (Bdd.mk_diff man (Relation.bdd r) removed) added));
          fold names roots
        | _ -> bad ~path:lpath ~line:0 "layer %d: root/delta count mismatch" l.m_index
      in
      fold l.m_deltas roots)
    layers;
  {
    st_key = t.m_key;
    st_snapshot = t.m_snapshot;
    st_config = t.m_config;
    st_space = space;
    st_domains = domains;
    st_rels = rels;
    st_layers = List.length layers;
  }

let load ~dir = load_with ~dir ()

(* --- Delta layers: append and squash --- *)

(* Append one delta layer to the chain at [dir], committed exactly
   like a base save (see [commit]): a crash anywhere before the layer
   manifest's rename leaves the previous chain tip serving unchanged. *)
let save_delta ~dir ~key ~config ~space ~deltas =
  if not (exists ~dir) then invalid_arg (Printf.sprintf "Store.save_delta: no base store at %s" dir);
  let ((m, layers) as chain) = open_chain ~broken:"cannot append to a broken delta chain" dir in
  (* The layer's BDDs only mean anything under the base's variable
     layout; refuse to append across a layout change. *)
  let block_eq (n1, i1, b1) (n2, i2, b2) = n1 = n2 && i1 = i2 && b1 = b2 in
  let blocks = space_blocks space in
  if
    List.length blocks <> List.length m.m_blocks
    || not (List.for_all (fun sb -> List.exists (block_eq sb) m.m_blocks) blocks)
  then invalid_arg "Store.save_delta: variable layout differs from the base store (cold save required)";
  List.iter
    (fun (name, _, _) ->
      check_name "relation" name;
      if not (List.mem_assoc name m.m_relations) then
        invalid_arg (Printf.sprintf "Store.save_delta: relation %s is not in the base store" name))
    deltas;
  check_config "save_delta" config;
  (* Element-name maps: a layer carries a replacement map for a domain
     only when the rendered content differs from what the chain below
     already provides (detected by CRC against the map provider's
     recorded checksum) — growth or renames write a full new map,
     untouched domains write nothing. *)
  let maps =
    List.filter
      (fun (name, content) ->
        let p = map_provider chain name in
        List.find_map (fun (f, _, crc) -> if f = map_file p.m_index name then Some crc else None) p.m_checksums
        <> Some (Crc32.string content))
      (render_maps (Space.domains space))
  in
  let n = List.length layers + 1 in
  let prev = (tip chain).m_snapshot in
  commit dir ~floor:prev ~maps
    ~dump:(Bdd.serialize (Space.man space) (List.concat_map (fun (_, a, r) -> [ a; r ]) deltas))
    {
      empty with
      m_index = n;
      m_key = key;
      m_base_snapshot = m.m_snapshot;
      m_prev_snapshot = prev;
      m_config = config;
      m_nvars = Space.num_vars space;
      m_domains =
        List.map
          (fun d -> (Domain.name d, Domain.size d, List.mem_assoc (Domain.name d) maps))
          (Space.domains space);
      m_deltas = List.map (fun (name, _, _) -> name) deltas;
    };
  n

(* Squash the chain back to a single base (LSM compaction): load the
   folded state, full-save it under the tip's key and config — which
   both orphans and then removes the old layers — and report how many
   layers were squashed.  Crash-safe by construction: every
   intermediate state is either the old chain (before the new base
   manifest commits) or the new base plus ignorable orphans. *)
let compact ~dir =
  let st = load ~dir in
  if st.st_layers = 0 then 0
  else begin
    save ~dir ~key:st.st_key ~config:st.st_config ~space:st.st_space ~relations:(List.map snd st.st_rels);
    st.st_layers
  end

(* --- Semantic certification marks --- *)

(* Record that an independent fixpoint check ({!Pta.Certify}) vouched
   for the current chain tip: a [certified <key> <snapshot>] line in
   the base manifest, rewritten through the same atomic barrier as
   every other manifest write.  The mark names the tip {e identity},
   so it self-invalidates: a later [save_delta] moves the tip snapshot
   past the recorded one, and [save]/[compact] rewrite the manifest
   without the line.  Returns the recorded pair. *)
let mark_certified ~dir =
  let ((m, _) as chain) = open_chain ~broken:"cannot certify a broken delta chain" dir in
  let t = tip chain in
  write_atomic (manifest_path dir) (render { m with m_certified = Some (t.m_key, t.m_snapshot) });
  (t.m_key, t.m_snapshot)

(* Test-only semantic corruption: delete the first tuple of [relation]
   (or insert an all-zeros tuple when it is empty) and re-save the
   folded state under the same key and config — through the ordinary
   write barrier, so every CRC and the manifest selfsum are freshly
   consistent and byte-level [verify] stays green.  Deletion is the
   interesting direction: a deleted derived tuple is re-derived by its
   own rule in one application, and a deleted input tuple fails input
   containment, so semantic certification must catch what nothing
   byte-level can.  The re-save bumps the snapshot (a new identity
   followers will consider) and carries no [certified] line. *)
let corrupt_tuple_for_tests ~dir ~relation =
  let st = load ~dir in
  match List.assoc_opt relation st.st_rels with
  | None -> invalid_arg (Printf.sprintf "Store.corrupt_tuple_for_tests: no relation %s" relation)
  | Some r ->
    let man = Space.man st.st_space in
    let first = ref None in
    (try
       Relation.iter_tuples r (fun tu ->
           first := Some (Array.copy tu);
           raise Exit)
     with Exit -> ());
    let tmp = Relation.make st.st_space ~name:(relation ^ "#corrupt") (Relation.attrs r) in
    (match !first with
    | Some tu ->
      Relation.set_tuples tmp [ tu ];
      Relation.set_bdd r (Bdd.mk_diff man (Relation.bdd r) (Relation.bdd tmp))
    | None ->
      Relation.set_tuples tmp [ Array.make (Relation.arity r) 0 ];
      Relation.set_bdd r (Bdd.mk_or man (Relation.bdd r) (Relation.bdd tmp)));
    Relation.dispose tmp;
    save ~dir ~key:st.st_key ~config:st.st_config ~space:st.st_space ~relations:(List.map snd st.st_rels)

(* --- Verification and repair --- *)

type check = { chk_name : string; chk_ok : bool; chk_detail : string }

let verify ?(structural = true) ~dir () =
  let checks = ref [] in
  let push name ok detail = checks := { chk_name = name; chk_ok = ok; chk_detail = detail } :: !checks in
  let mpath = manifest_path dir in
  if not (Sys.file_exists mpath) then push "manifest" false (Printf.sprintf "no store at %s" dir)
  else begin
    (match parse_manifest ~layer:false mpath with
    | exception Solver_error.Error e -> push "manifest" false (Solver_error.to_string e)
    | m ->
      let check_files e =
        List.iter
          (fun (file, size, crc) ->
            match verified_read dir e file with
            | exception Solver_error.Error e -> push file false (Solver_error.to_string e)
            | _ -> push file true (Printf.sprintf "crc32 %s, %d bytes" (Crc32.to_hex crc) size))
          e.m_checksums
      in
      push "manifest" true
        (Printf.sprintf "key %s, %d relations, %d checksummed files" m.m_key (List.length m.m_relations)
           (List.length m.m_checksums));
      check_files m;
      (* Walk the delta chain: per-layer parse + selfsum, link
         validity, and per-layer data-file checksums.  A broken layer
         condemns only the tail from that index up — the base (and any
         layers below it) stay healthy and [quarantine_layers] can cut
         the tail off.  Orphaned layers (a base-snapshot from before a
         compact) and uncommitted debris (layer data with no manifest)
         are ignorable by construction and reported as healthy. *)
      let layers, chain_err = read_chain dir m in
      List.iter
        (fun l ->
          push (manifest_file l.m_index) true
            (Printf.sprintf "key %s, snapshot %d, %d delta relations" l.m_key l.m_snapshot
               (List.length l.m_deltas));
          check_files l)
        layers;
      (match chain_err with
      | Some (n, msg) -> push (manifest_file n) false msg
      | None -> ());
      (* Anything with a layer index beyond the valid chain that is
         not condemned above is orphaned/uncommitted debris. *)
      let chain_end = List.length layers in
      let broken_at = match chain_err with Some (n, _) -> Some n | None -> None in
      (match Sys.readdir (subdir dir) with
      | exception Sys_error _ -> ()
      | entries ->
        Array.iter
          (fun f ->
            match layer_file_index f with
            | Some i when i > chain_end && broken_at = None ->
              push f true "orphaned or uncommitted layer debris (ignored by load)"
            | _ -> ())
          entries));
    if structural && List.for_all (fun c -> c.chk_ok) !checks then
      match load ~dir with
      | exception Solver_error.Error e -> push "structural load" false (Solver_error.to_string e)
      | exception e -> push "structural load" false (Printexc.to_string e)
      | st ->
        push "structural load" true
          (Printf.sprintf "%d relations, %d delta layers, %d live BDD nodes" (List.length st.st_rels)
             st.st_layers
             (Bdd.live_nodes (Space.man st.st_space)))
  end;
  List.rev !checks

(* The smallest layer index named by a failing check, when the base
   itself is healthy — the cut point for [quarantine_layers]. *)
let first_broken_layer checks =
  let base_broken =
    List.exists (fun c -> (not c.chk_ok) && layer_file_index c.chk_name = None) checks
  in
  if base_broken then None
  else
    List.fold_left
      (fun acc c ->
        if c.chk_ok then acc
        else
          match (layer_file_index c.chk_name, acc) with
          | Some i, Some j -> Some (min i j)
          | Some i, None -> Some i
          | None, _ -> acc)
      None checks

let quarantine ~dir =
  let sd = subdir dir in
  if not (Sys.file_exists sd) then None
  else begin
    let rec fresh i =
      let cand = Printf.sprintf "%s.broken.%d" sd i in
      if Sys.file_exists cand then fresh (i + 1) else cand
    in
    let dest = fresh 1 in
    Faults.fs_op ("rename " ^ dest);
    Sys.rename sd dest;
    fsync_dir dir;
    Some dest
  end

(* Cut a broken tail off the delta chain: move every layer file with
   index >= [from_layer] into a fresh [store/layers.broken.<k>/]
   directory.  The base and the layers below the cut keep serving —
   this is the surgical repair for a corrupted append, where full
   [quarantine] would throw away a healthy base. *)
let quarantine_layers ~dir ~from_layer =
  let sd = subdir dir in
  if not (Sys.file_exists sd) then None
  else begin
    let victims =
      match Sys.readdir sd with
      | exception Sys_error _ -> []
      | entries ->
        Array.to_list entries
        |> List.filter (fun f -> match layer_file_index f with Some i -> i >= from_layer | None -> false)
    in
    if victims = [] then None
    else begin
      let rec fresh i =
        let cand = Filename.concat sd (Printf.sprintf "layers.broken.%d" i) in
        if Sys.file_exists cand then fresh (i + 1) else cand
      in
      let dest = fresh 1 in
      mkdir_p dest;
      (* Manifests first: once a layer's manifest is gone it is
         uncommitted, so a crash mid-quarantine can only make the
         chain shorter, never inconsistent. *)
      let manifests, rest = List.partition (fun f -> Filename.check_suffix f ".manifest") victims in
      List.iter
        (fun f ->
          let src = Filename.concat sd f in
          Faults.fs_op ("rename " ^ Filename.concat dest f);
          try Sys.rename src (Filename.concat dest f) with Sys_error _ -> ())
        (manifests @ rest);
      fsync_dir sd;
      Some dest
    end
  end

let key t = t.st_key
let snapshot t = t.st_snapshot
let layers t = t.st_layers
let config t = t.st_config
let config_value t k = List.assoc_opt k t.st_config
let space t = t.st_space
let domains t = List.map snd t.st_domains
let domain t name = List.assoc_opt name t.st_domains
let relations t = List.map snd t.st_rels
let find t name = List.assoc_opt name t.st_rels
