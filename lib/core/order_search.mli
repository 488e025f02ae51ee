(** Empirical variable-order search.

    Finding the best BDD variable order is NP-complete (§2.4.2); the
    paper's bddbddb "automatically explores different alternatives
    empirically to find an effective ordering" [35].  This module does
    the same at the granularity the engine controls: the relative
    order of the logical domains' variable blocks.  Candidates are the
    declaration order, the committed order ({!Programs.domain_order}),
    the declaration order's reverse, and seeded random permutations;
    each candidate solves the given program and is scored by the
    kernel work it does — total BDD op-cache misses, a deterministic
    count — with ties broken by time.  Peak live nodes is reported but
    not ranked on: it can favour an order that does twice the work. *)

type candidate = {
  order : string list;
  seconds : float;
  cache_misses : int;  (** op-cache misses summed over every operation class *)
  peak_nodes : int;
  rule_applications : int;
}

type job =
  | Basic of Analyses.basic
  | Context_sensitive of Context.t  (** Algorithm 5 *)

val declaration_order : job -> string list
(** The domains in the order the program declares them:
    [V H F T I N M Z], then [C] for a context-sensitive job. *)

val committed_order : job -> string list
(** {!Programs.domain_order}, with [C] last for a context-sensitive
    job — the order the job's program runs in when none is given. *)

val prepare : ?domain_order:string list -> Jir.Factgen.t -> job -> Datalog.Engine.t
(** The job's engine with every input installed, not yet run, under
    [domain_order] (default: the program's committed order). *)

val cache_misses : Datalog.Engine.stats -> int
(** Total op-cache misses of a solve, over every operation class. *)

val search : ?budget:int -> ?seed:int -> Jir.Factgen.t -> job -> candidate list
(** [search ~budget fg job] runs [3 + budget] candidates (default
    budget 6; fewer when a shuffle repeats an order) and returns them
    best-first. *)
