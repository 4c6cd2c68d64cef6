"""RL002 bad: a loop over block peeks — one ``peek_block`` per group of
targets — with no governor checkpoint reachable in its body."""


def triage_groups(cache, groups, level, rows):
    hits = []
    for group in groups:
        found, block, _ = cache.peek_block(group, level, rows)
        if found:
            hits.append(block)
    return hits
