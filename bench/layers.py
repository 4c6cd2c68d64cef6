"""The single table of wrapped boundaries: layer -> dotted paths.

Layers are this repo's packages, listed top of the call stack first.
``bench/tracing.py`` installs one timing wrapper per path (traced runs
only) around the layer's public entry points, so a span's *self time* --
its duration minus the part covered by child spans -- is the time spent
in that layer's own code.

A path is ``package.module.attr`` or ``package.module.Class.method`` and
names the binding callers look up at call time (hence
``repro.api.run_governed_top_k``: ``api`` imported the name, so its calls
go through that binding).  A path that no longer resolves makes its
layer's self time ``null`` with a warning, never a failed run.
"""

BOUNDARIES = {
    "service": (
        "repro.service.service.QueryService.query",
        "repro.service.service.QueryService._dispatch",
    ),
    "exec": (
        "repro.api.run_governed_top_k",
        "repro.api.run_governed_multi_way",
    ),
    "api": (
        "repro.api.two_way_join",
        "repro.api.multi_way_join",
    ),
    "planner": (
        "repro.planner.plan.resolve_spec_plan",
        "repro.planner.plan.choose_plan",
        "repro.planner.stats.GraphStats.__init__",
    ),
    "core.nway": (
        "repro.core.nway.partial_join_inc.PartialJoinIncremental.run",
        "repro.core.nway.partial_join.PartialJoin.run",
        "repro.core.nway.all_pairs.AllPairsJoin.run",
    ),
    "rankjoin": (
        "repro.rankjoin.pbrj.PBRJ.run",
    ),
    "core.two_way": (
        "repro.core.two_way.backward.BackwardBasicJoin.top_k",
        "repro.core.two_way.backward.BackwardBasicJoin.all_pairs",
        "repro.core.two_way.backward.BackwardIDJ.top_k",
        "repro.core.two_way.forward.ForwardBasicJoin.top_k",
        "repro.core.two_way.forward.ForwardBasicJoin.all_pairs",
        "repro.core.two_way.forward.ForwardIDJ.top_k",
        "repro.core.two_way.incremental.IncrementalTwoWayJoin.top",
        "repro.core.two_way.incremental.IncrementalTwoWayJoin.next_pair",
    ),
    "extensions": (
        "repro.extensions.series_join.SeriesBackwardJoin.top_k",
        "repro.extensions.series_join.SeriesIDJ.top_k",
        "repro.extensions.series_join.SeriesPartialJoin.run",
        "repro.extensions.measures.TruncatedPPR.backward_scores_block",
    ),
    "bounds_cache": (
        "repro.bounds_cache.cache.BoundPlanCache.y_bound",
        "repro.bounds_cache.cache.BoundPlanCache.x_bound",
        "repro.bounds_cache.cache.BoundPlanCache.tail_plan",
    ),
    "walks.rounds": (
        "repro.walks.rounds.DeepeningRounds.walk_level",
        "repro.walks.rounds.DeepeningRounds.repack",
        "repro.walks.rounds.DeepeningRounds.donate_pruned",
    ),
    "walks.cache": (
        "repro.walks.cache.WalkCache.scores",
        "repro.walks.cache.WalkCache.peek",
        "repro.walks.cache.WalkCache.put_scores",
        "repro.walks.cache.WalkCache.adopt",
    ),
    "walks.engine": (
        "repro.walks.engine.WalkEngine.backward_block_step",
        "repro.walks.engine.WalkEngine.backward_onehot_step",
        "repro.walks.engine.WalkEngine.backward_first_hit_block",
        "repro.walks.engine.WalkEngine.backward_first_hit_series",
        "repro.walks.engine.WalkEngine.forward_first_hit_series",
        "repro.walks.engine.WalkEngine.reach_mass_series",
    ),
}
