"""RL002 good: the same loop over block peeks, made interruptible by
one counted governor visit per group."""


def triage_groups(engine, cache, groups, level, rows):
    hits = []
    for group in groups:
        engine.checkpoint("cache", count=len(group))
        found, block, _ = cache.peek_block(group, level, rows)
        if found:
            hits.append(block)
    return hits
