(** Regeneration of every table and figure in the paper's evaluation (§3–5).

    Each function runs the relevant benchmarks and prints the corresponding
    artifact: the exact rows of the paper's Figure 2 table, the data series
    plus an ASCII rendering of the scatter plots of Figures 3–6, and the
    SEP_THOLD selection of §4.1. Deadlines are per-run CPU budgets — the
    laptop-scale analog of the paper's 30-minute wall-clock limit. *)

val figure2 : ?deadline_s:float -> Format.formatter -> unit
(** Effect of the encoding on the SAT solver: CNF clauses, conflict clauses
    and SAT time for SD vs EIJ on five of the larger sample benchmarks. *)

val figure3 : ?deadline_s:float -> Format.formatter -> unit
(** Normalized total time (sec/Knodes) against the number of separation
    predicates, for SD and EIJ over the 16-benchmark sample. *)

val threshold_selection : ?deadline_s:float -> Format.formatter -> int
(** The §4.1 statistical procedure: clusters the sample's EIJ normalized
    run-times and returns the selected SEP_THOLD. *)

val figure4 : ?deadline_s:float -> Format.formatter -> unit
(** HYBRID (the paper's rule at the default threshold, [Hybrid_at 700])
    against SD and EIJ on the 39 non-invariant benchmarks. *)

val figure5 : ?deadline_s:float -> Format.formatter -> unit
(** HYBRID (SEP_THOLD = 100) against SD and EIJ on the 10 invariant-checking
    benchmarks. *)

val figure6 : ?deadline_s:float -> Format.formatter -> unit
(** HYBRID (the paper's rule, [Hybrid_at 700]) against the SVC-style and
    CVC-style (lazy) baselines on the 39 non-invariant benchmarks. *)

val figure_hybrid : ?deadline_s:float -> Format.formatter -> unit
(** Sequential [Hybrid_default] (the fill-checked rule) on pipe.3, pipe.5,
    cache.5, lsu.3, tv.1 and batch.1/3/4, with the elim/encode/cnf/sat split
    of each run: the HYBRID rows of the perf-gate baseline. *)

val ablation_threshold : ?deadline_s:float -> Format.formatter -> unit
(** Design-choice ablation: total time of the paper's HYBRID rule at each
    SEP_THOLD in [0; 50; 200; 400; 700; 2000; ∞] on six representative
    benchmarks, one cold {!Runner.run} per cell ([∞] is [Eij]), showing what
    each threshold costs on its own. *)

val ablation_positive_equality : ?deadline_s:float -> Format.formatter -> unit
(** Design-choice ablation: encoding cost with and without the
    positive-equality analysis (all constants forced into [V_g]), measuring
    what the Bryant-German-Velev optimization buys. *)

val all : ?deadline_s:float -> Format.formatter -> unit
(** Every artifact in paper order, then the ablations. *)
