"""The committed lint baseline: deliberate, justified exceptions.

Format — one entry per line, justification mandatory::

    # comment lines and blanks are ignored
    RL001:src/repro/foo.py:Class.method:attr  # why this one is deliberate

Keys are :attr:`repro.analysis.findings.Finding.key` values (no line
numbers, so entries survive unrelated edits).  An entry without a
``# justification`` trailer is a hard error: the whole point of the
baseline is that every suppressed finding carries its reason in the
diff that added it.
"""

from pathlib import Path

BASELINE_NAME = ".repro-lint-baseline"


class BaselineError(ValueError):
    """A malformed baseline file (bad key shape or missing reason)."""


def load_baseline(path):
    """Return {finding_key: justification}; {} if the file is absent."""
    path = Path(path)
    if not path.is_file():
        return {}
    entries = {}
    for number, raw in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, reason = line.partition("#")
        key = key.strip()
        reason = reason.strip()
        if not sep or not reason:
            raise BaselineError(
                f"{path}:{number}: baseline entry '{key}' has no "
                "'# justification' — every deliberate exception must "
                "say why"
            )
        if key.count(":") != 3 or not key.startswith("RL"):
            raise BaselineError(
                f"{path}:{number}: malformed baseline key '{key}' "
                "(expected RULE:path:scope:symbol)"
            )
        entries[key] = reason
    return entries
