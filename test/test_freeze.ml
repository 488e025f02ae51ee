(* Differential unit suite for [Bdd.freeze] / [Bdd.eval_ctx]: the
   frozen snapshot plus per-domain evaluation contexts that back the
   parallel warm-query daemon.

   A ctx runs the same kernels as the live manager, but over shared
   frozen pages, a copied bucket array and a reset-able private range.
   Ground truth is the *live* manager: every ctx operation is mirrored
   by the same operation on it and both results are compared as
   explicit satisfying-assignment sets (14 variables, so full
   enumeration is cheap).  Covered:

   - frozen handles evaluate identically before and after the live
     manager is mutated and collected (snapshot isolation);
   - a long random op sequence (and/or/diff/not/exist/relprod) in a
     ctx matches the live kernels, across [ctx_reset]s, with the
     sequence replayed twice to pin determinism;
   - >= 3 ctxs over one frozen space evaluate the same op sequence
     concurrently (one domain each) and agree bit-for-bit;
   - [satcount] / [const_value] / [cube_of_vars] differentials in a
     ctx, and the per-ctx budget kill + recovery;
   - two domains growing and resetting their ctxs leave every frozen
     page and the frozen bucket array byte-identical;
   - a cached [and] over frozen handles survives a reset, one whose
     result was ctx-local does not. *)

let nvars = 14
let all_vars = Array.init nvars Fun.id

(* Semantic fingerprint: sorted satisfying assignments as bitmasks. *)
let mask_of bits =
  let m = ref 0 in
  Array.iteri (fun i b -> if b then m := !m lor (1 lsl i)) bits;
  !m

let sats_live man f =
  let acc = ref [] in
  Bdd.iter_sat man ~vars:all_vars (fun bits -> acc := mask_of bits :: !acc) f;
  List.sort compare !acc

let sats_ctx ctx f =
  let acc = ref [] in
  Bdd.iter_sat ctx ~vars:all_vars (fun bits -> acc := mask_of bits :: !acc) f;
  List.sort compare !acc

(* A pool of rooted BDDs over a fresh manager: all literals plus
   [extra] random combinations.  Collections (the one inside [freeze]
   included) renumber, so callers read the pool back from its root
   after [freeze] returns. *)
let build_pool rng man extra =
  let pool = ref [] in
  let add f = pool := f :: !pool in
  for i = 0 to nvars - 1 do
    add (Bdd.ithvar man i);
    add (Bdd.nithvar man i)
  done;
  for _ = 1 to extra do
    let pick () = List.nth !pool (Random.State.int rng (List.length !pool)) in
    add
      (match Random.State.int rng 5 with
      | 0 -> Bdd.mk_and man (pick ()) (pick ())
      | 1 -> Bdd.mk_or man (pick ()) (pick ())
      | 2 -> Bdd.mk_diff man (pick ()) (pick ())
      | 3 -> Bdd.mk_xor man (pick ()) (pick ())
      | _ -> Bdd.mk_not man (pick ()))
  done;
  Bdd.add_root_hook man (fun f -> pool := List.map f !pool);
  pool

(* A fresh manager and pool, frozen; the pool is read back after the
   freeze, so its handles are valid both live and in the snapshot. *)
let setup_frozen ?(extra = 60) seed =
  let rng = Random.State.make [| seed |] in
  let man = Bdd.create ~node_hint:256 ~nvars () in
  let pool = build_pool rng man extra in
  let fz = Bdd.freeze man in
  (rng, man, fz, Array.of_list !pool)

(* --- snapshot isolation --------------------------------------------- *)

let test_frozen_matches_live () =
  let rng = Random.State.make [| 0xF7EE2E |] in
  let man = Bdd.create ~node_hint:256 ~nvars () in
  let rooted = build_pool rng man 60 in
  let pool = Array.of_list !rooted in
  (* Unrooted garbage, so the freeze-time GC has something to collect. *)
  for _ = 1 to 50 do
    ignore (Bdd.mk_and man pool.(Random.State.int rng (Array.length pool)) (Bdd.ithvar man 0))
  done;
  let reference = Array.map (sats_live man) pool in
  let fz = Bdd.freeze man in
  let pool = Array.of_list !rooted in
  Alcotest.(check int) "frozen nvars" nvars (Bdd.frozen_nvars fz);
  Alcotest.(check bool) "frozen live nodes positive" true (Bdd.frozen_live_nodes fz > 0);
  let ctx = Bdd.eval_ctx fz in
  Array.iteri
    (fun i f -> Alcotest.(check (list int)) (Printf.sprintf "pool %d via ctx" i) reference.(i) (sats_ctx ctx f))
    pool;
  (* Mutate and collect the live manager: the snapshot must not move. *)
  for _ = 1 to 200 do
    ignore
      (Bdd.mk_or man
         pool.(Random.State.int rng (Array.length pool))
         (Bdd.mk_not man pool.(Random.State.int rng (Array.length pool))))
  done;
  Bdd.gc man;
  Array.iteri
    (fun i f ->
      Alcotest.(check (list int))
        (Printf.sprintf "pool %d via ctx after live churn+gc" i)
        reference.(i) (sats_ctx ctx f))
    pool;
  (* And the live handles, read back from their root after the
     collection, still answer the same too. *)
  List.iteri
    (fun i f -> Alcotest.(check (list int)) (Printf.sprintf "pool %d live" i) reference.(i) (sats_live man f))
    !rooted

(* --- random op differential, live kernels as oracle ------------------ *)

(* One op described abstractly so it can be interpreted against the
   live manager, a ctx, or several ctxs in different domains. *)
type op =
  | Op2 of int * int * int (* kernel 0=and 1=or 2=diff, operand indices *)
  | Op_not of int
  | Op_exist of int * int list (* operand, cube vars *)
  | Op_relprod of int * int * int list

let random_ops rng pool_len count =
  (* Operand indices may also point at results of earlier ops:
     index < pool_len + k for the k-th op. *)
  List.init count (fun k ->
      let pick () = Random.State.int rng (pool_len + k) in
      let cube () =
        List.sort_uniq compare (List.init (1 + Random.State.int rng 3) (fun _ -> Random.State.int rng nvars))
      in
      match Random.State.int rng 6 with
      | 0 -> Op2 (0, pick (), pick ())
      | 1 -> Op2 (1, pick (), pick ())
      | 2 -> Op2 (2, pick (), pick ())
      | 3 -> Op_not (pick ())
      | 4 -> Op_exist (pick (), cube ())
      | _ -> Op_relprod (pick (), pick (), cube ()))

let run_ops_live man pool ops =
  let results = ref [] in
  Bdd.add_root_hook man (fun f -> results := List.map f !results);
  let vals = ref (Array.to_list pool) in
  let get i = List.nth !vals i in
  List.iter
    (fun op ->
      let f =
        match op with
        | Op2 (0, i, j) -> Bdd.mk_and man (get i) (get j)
        | Op2 (1, i, j) -> Bdd.mk_or man (get i) (get j)
        | Op2 (_, i, j) -> Bdd.mk_diff man (get i) (get j)
        | Op_not i -> Bdd.mk_not man (get i)
        | Op_exist (i, vs) -> Bdd.exist man ~cube:(Bdd.cube_of_vars man vs) (get i)
        | Op_relprod (i, j, vs) -> Bdd.relprod man ~cube:(Bdd.cube_of_vars man vs) (get i) (get j)
      in
      results := f :: !results;
      vals := !vals @ [ f ])
    ops;
  List.map (sats_live man) (List.rev !results)

let run_ops_ctx ctx pool ops =
  let vals = ref (Array.to_list pool) in
  let get i = List.nth !vals i in
  let sats = ref [] in
  List.iter
    (fun op ->
      let f =
        match op with
        | Op2 (0, i, j) -> Bdd.mk_and ctx (get i) (get j)
        | Op2 (1, i, j) -> Bdd.mk_or ctx (get i) (get j)
        | Op2 (_, i, j) -> Bdd.mk_diff ctx (get i) (get j)
        | Op_not i -> Bdd.mk_not ctx (get i)
        | Op_exist (i, vs) -> Bdd.exist ctx ~cube:(Bdd.cube_of_vars ctx vs) (get i)
        | Op_relprod (i, j, vs) ->
          Bdd.relprod ctx ~cube:(Bdd.cube_of_vars ctx vs) (get i) (get j)
      in
      sats := sats_ctx ctx f :: !sats;
      vals := !vals @ [ f ])
    ops;
  List.rev !sats

let test_ctx_differential () =
  let rng, man, fz, pool = setup_frozen 0xD1FF in
  let ctx = Bdd.eval_ctx fz in
  (* Three rounds against the live oracle, resetting the ctx between
     rounds: every round restarts from frozen handles only, so reset
     correctness (dead arena, swept cache) is on the line each time. *)
  for round = 1 to 3 do
    let ops = random_ops rng (Array.length pool) 70 in
    let live = run_ops_live man pool ops in
    let via_ctx = run_ops_ctx ctx pool ops in
    List.iteri
      (fun i (l, c) ->
        Alcotest.(check (list int)) (Printf.sprintf "round %d op %d" round i) l c)
      (List.combine live via_ctx);
    (* Determinism: replaying the identical sequence on a fresh ctx
       reproduces the same answers. *)
    let fresh = Bdd.eval_ctx fz in
    Alcotest.(check bool)
      (Printf.sprintf "round %d replay on fresh ctx identical" round)
      true
      (run_ops_ctx fresh pool ops = via_ctx);
    Bdd.ctx_reset ctx
  done;
  Alcotest.(check int) "reset leaves no ctx-local nodes" 0 (Bdd.live_nodes ctx)

(* --- concurrent ctxs -------------------------------------------------- *)

let test_concurrent_ctxs () =
  let rng, man, fz, pool = setup_frozen 0xC0C0 in
  let ops = random_ops rng (Array.length pool) 60 in
  let reference = run_ops_live man pool ops in
  let n_ctxs = 4 in
  let domains =
    List.init n_ctxs (fun _ ->
        Stdlib.Domain.spawn (fun () ->
            let ctx = Bdd.eval_ctx fz in
            run_ops_ctx ctx pool ops))
  in
  let transcripts = List.map Stdlib.Domain.join domains in
  List.iteri
    (fun d transcript ->
      Alcotest.(check bool) (Printf.sprintf "ctx %d agrees with live oracle" d) true (transcript = reference))
    transcripts

(* --- counting, constants, budget ------------------------------------- *)

let wide_union c =
  (* A deliberately wide disjunction of two-block value pairs:
     thousands of fresh intermediate nodes, enough to cross the
     amortized budget-check interval several times. *)
  let evens = Array.init 7 (fun k -> 2 * k) and odds = Array.init 7 (fun k -> (2 * k) + 1) in
  let acc = ref Bdd.bdd_false in
  for i = 0 to 2999 do
    (* A mixed 14-bit value per step: ~3k distinct points, so the
       growing union keeps allocating instead of cache-hitting. *)
    let v = i * 2654435761 land 16383 in
    let pair =
      Bdd.mk_and c
        (Bdd.const_value c ~bits:evens (v land 127))
        (Bdd.const_value c ~bits:odds (v lsr 7))
    in
    acc := Bdd.mk_or c !acc pair
  done;
  !acc

let test_ctx_counting_and_budget () =
  let rng, man, fz, pool = setup_frozen ~extra:40 0x5A7C0 in
  let ctx = Bdd.eval_ctx fz in
  Array.iteri
    (fun i f ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "satcount pool %d" i)
        (Bdd.satcount man ~vars:all_vars f)
        (Bdd.satcount ctx ~vars:all_vars f))
    pool;
  (* const_value over a random 6-bit block agrees with the live one. *)
  let bits = Array.init 6 (fun i -> 2 * i) in
  for v = 0 to 63 do
    ignore (Random.State.int rng 2);
    Alcotest.(check (list int))
      (Printf.sprintf "const_value %d" v)
      (sats_live man (Bdd.const_value man ~bits v))
      (sats_ctx ctx (Bdd.const_value ctx ~bits v))
  done;
  (* Budget: a cap resolved against the ctx's counters kills a fresh
     build at the amortized check site; after reset + uncapping the
     same build succeeds, from a clean arena. *)
  Bdd.set_budget ctx (Some (Budget.make ~max_allocations:(Bdd.allocations ctx + 8) ()));
  let killed = match wide_union ctx with _ -> false | exception Bdd.Limit_exceeded _ -> true in
  Alcotest.(check bool) "tight ctx budget kills the build" true killed;
  Bdd.set_budget ctx None;
  Bdd.ctx_reset ctx;
  let full = wide_union ctx in
  Alcotest.(check bool) "recovered build is non-trivial" true (Bdd.satcount ctx ~vars:all_vars full > 0.0)

(* --- the shared spine ------------------------------------------------ *)

(* A ctx reads the frozen pages in place and links its own nodes in
   front of the frozen bucket chains; none of that may write to the
   snapshot.  Tiny pages (16 slots) make every round grow the ctxs past
   many private pages, and past the size of the bucket array; the ops run on two domains at once, each with
   its own ctx, resetting between rounds. *)
let test_frozen_pages_untouched () =
  let rng = Random.State.make [| 0x5EA1ED |] in
  let man = Bdd.create ~node_hint:256 ~page_bits:4 ~nvars () in
  let rooted = build_pool rng man 60 in
  let fz = Bdd.freeze man in
  let pool = Array.of_list !rooted in
  (* Every frozen page array and the bucket array, byte for byte. *)
  let digest () = Digest.to_hex (Digest.string (Marshal.to_string fz [])) in
  let before = digest () in
  let rounds = List.init 3 (fun _ -> random_ops rng (Array.length pool) 60) in
  let reference = List.map (run_ops_live man pool) rounds in
  let wide = Bdd.satcount man ~vars:all_vars (wide_union man) in
  let domains =
    List.init 2 (fun _ ->
        Stdlib.Domain.spawn (fun () ->
            let ctx = Bdd.eval_ctx fz in
            let frozen_pages = (Bdd.arena_stats ctx).Bdd.pages_total in
            let grown = ref 0 in
            let transcripts =
              List.map
                (fun ops ->
                  let t = run_ops_ctx ctx pool ops in
                  (* Enough fresh nodes to outgrow the bucket array. *)
                  let t = if Bdd.satcount ctx ~vars:all_vars (wide_union ctx) = wide then t else [] in
                  grown := max !grown ((Bdd.arena_stats ctx).Bdd.pages_total - frozen_pages);
                  Bdd.ctx_reset ctx;
                  t)
                rounds
            in
            (!grown, transcripts)))
  in
  List.iteri
    (fun d (grown, transcripts) ->
      Alcotest.(check bool) (Printf.sprintf "ctx %d grew past one private page" d) true (grown >= 2);
      Alcotest.(check bool) (Printf.sprintf "ctx %d agrees with live oracle" d) true (transcripts = reference))
    (List.map Stdlib.Domain.join domains);
  Alcotest.(check string) "frozen pages and buckets unchanged" before (digest ())

(* --- the op cache across resets --------------------------------------- *)

let test_cache_across_reset () =
  let man = Bdd.create ~node_hint:256 ~nvars () in
  let x = Bdd.ithvar man in
  let f = Bdd.mk_or man (x 0) (x 2) and g = Bdd.mk_or man (x 1) (x 3) in
  let fg = Bdd.mk_and man f g in
  let p = Bdd.mk_or man (x 4) (x 6) and q = Bdd.mk_or man (x 5) (x 7) in
  let held = [| f; g; fg; p; q |] in
  Bdd.add_root_hook man (fun h -> Array.iteri (fun i b -> held.(i) <- h b) held);
  let fz = Bdd.freeze man in
  let f = held.(0) and g = held.(1) and fg = held.(2) and p = held.(3) and q = held.(4) in
  let ctx = Bdd.eval_ctx fz in
  (* An [and] whose result the snapshot already holds is cached under
     frozen handles only, so it still hits after a reset. *)
  Alcotest.(check int) "and of frozen handles is the frozen node" (fg :> int) (Bdd.mk_and ctx f g :> int);
  let allocs = Bdd.allocations ctx and hits, misses = Bdd.cache_stats ctx in
  Bdd.ctx_reset ctx;
  Alcotest.(check int) "same node after reset" (fg :> int) (Bdd.mk_and ctx f g :> int);
  let hits', misses' = Bdd.cache_stats ctx in
  Alcotest.(check int) "one hit after reset" (hits + 1) hits';
  Alcotest.(check int) "no miss after reset" misses misses';
  Alcotest.(check int) "no allocation after reset" allocs (Bdd.allocations ctx);
  (* An [and] whose result is ctx-local must not be answered from the
     cache once a reset has handed that handle to another node. *)
  let oracle = sats_live man (Bdd.mk_and man p q) in
  let pq = Bdd.mk_and ctx p q in
  Alcotest.(check (list int)) "ctx-local and" oracle (sats_ctx ctx pq);
  let local = Bdd.live_nodes ctx in
  Alcotest.(check bool) "result is ctx-local" true (local > 0);
  Bdd.ctx_reset ctx;
  (* [pq] was the last node allocated; refill the ctx past its slot
     with nodes over variables [p] and [q] do not mention. *)
  let bits = Array.init 6 (fun i -> 8 + i) in
  let v = ref 0 in
  while Bdd.live_nodes ctx < local do
    ignore (Bdd.const_value ctx ~bits !v);
    incr v
  done;
  Alcotest.(check bool) "handle reused for another node" true (sats_ctx ctx pq <> oracle);
  Alcotest.(check (list int)) "re-asked after reuse" oracle (sats_ctx ctx (Bdd.mk_and ctx p q))

let () =
  Alcotest.run "freeze"
    [
      ( "frozen",
        [ Alcotest.test_case "frozen eval matches live, isolated from churn" `Quick test_frozen_matches_live ] );
      ( "ctx",
        [
          Alcotest.test_case "random ops vs live kernels across resets" `Quick test_ctx_differential;
          Alcotest.test_case "satcount/const_value differential + budget kill" `Quick
            test_ctx_counting_and_budget;
        ] );
      ( "concurrent",
        [ Alcotest.test_case "4 ctxs, 1 frozen space, identical answers" `Quick test_concurrent_ctxs ] );
      ( "shared",
        [
          Alcotest.test_case "2 domains grow and reset, frozen pages unchanged" `Quick test_frozen_pages_untouched;
          Alcotest.test_case "op cache across reset: frozen hits, local retired" `Quick test_cache_across_reset;
        ] );
    ]
