(** The paper's algorithms and queries as Datalog program text.

    Like the paper (§6.1: "The input to bddbddb is more or less the
    Datalog programs exactly as they are presented in this paper"),
    the Datalog below {e is} the implementation; the drivers in
    {!Analyses} only marshal inputs and outputs.  Each function
    instantiates the DOMAINS section with the program-under-analysis's
    actual sizes from {!Jir.Factgen}.

    Differences from the paper's listings, as recorded in DESIGN.md:
    - [assign] is computed by rules from the extracted [actual]/
      [formal]/[Iret]/[Mret] relations (plus [copyAssign] for local
      copies surviving {!Jir.Local_opt}) instead of arriving
      precomputed;
    - rule (14)'s [IEC(c,h,_,_)] — which exploits H ⊆ I at the domain
      level — is expressed as [hC(c,h) :- mC(c,m), mH(m,h)], with the
      same meaning;
    - the global variable's points-to seed [vP0g] is injected into
      every context ([anyC]);
    - heads that the paper leaves context-unbound (rules (22)/(23) and
      the first mV*C rule of §5.4) are bound through [mC]. *)

type query_suffix = { q_relations : string; q_rules : string }
(** Extra RELATIONS/RULES text appended before the engine runs; see
    {!Queries}. *)

val no_query : query_suffix

val domain_order : string list
(** The committed relative order of the variable blocks, emitted as
    every program's [.bddvarorder] line: [N M I V F T H Z].  The
    context domain [C], declared only by the context-sensitive
    programs, goes last.  An explicit [?domain_order] given to
    {!Datalog.Engine.create} overrides it. *)

val algo1 : ?query:query_suffix -> Jir.Factgen.t -> string
(** Context-insensitive points-to, CHA call graph, no type filter
    (Algorithm 1).  Outputs [vP(v,h)], [hP(h1,f,h2)]. *)

val algo2 : ?query:query_suffix -> Jir.Factgen.t -> string
(** Algorithm 1 + type filtering (Algorithm 2). *)

val algo3 : ?query:query_suffix -> Jir.Factgen.t -> string
(** On-the-fly call graph discovery (Algorithm 3).  Adds output
    [IE(i,m)]. *)

val algo5 : ?query:query_suffix -> Jir.Factgen.t -> csize:int -> string
(** Context-sensitive points-to over the cloned graph (Algorithm 5).
    Inputs [IEC] and [mC] are provided by {!Context}; outputs
    [vPC(c,v,h)] and [hP]. *)

val algo5_otf : ?query:query_suffix -> Jir.Factgen.t -> csize:int -> string
(** §4.2's closing variant: contexts numbered over a conservative
    (CHA) call graph, invocation edges discovered on the fly from the
    context-sensitive points-to results.  Adds output [IECd], the
    discovered context-sensitive call graph. *)

val algo6 : ?query:query_suffix -> Jir.Factgen.t -> csize:int -> string
(** Context-sensitive type analysis (Algorithm 6).  Outputs
    [vTC(c,v,t)], [fT(f,t)]. *)

val algo7 : ?query:query_suffix -> Jir.Factgen.t -> csize:int -> string
(** Thread-sensitive points-to and escape analysis (Algorithm 7).
    Inputs [HT]/[vP0T] provided by {!Analyses.thread_escape}; outputs
    [vPT], [hPT], [escaped], [captured], [neededSyncs]. *)

val input_relations : Jir.Factgen.t -> (string * int list list) list
(** The extracted relations every algorithm declares as input. *)
