"""Validate an observability artifact directory from the command line.

Usage::

    python -m repro.obs.validate RUN_DIR [RUN_DIR ...]

Checks each directory's ``manifest.json`` / ``metrics.jsonl`` (required)
and ``session_journal.jsonl`` / ``spans.jsonl`` / ``provenance.jsonl`` /
``spans_chrome.json`` (optional) against the schemas in
:mod:`repro.obs.export`.  Exit code 0 when every directory
validates, 1 otherwise -- the CI observability job gates on this.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from repro.obs.export import SchemaError, validate_artifacts


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Validate each directory argument; prints one line per file."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print(
            "usage: python -m repro.obs.validate RUN_DIR [RUN_DIR ...]",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for directory in argv:
        try:
            counts = validate_artifacts(directory)
        except (SchemaError, OSError) as exc:
            print(f"{directory}: INVALID: {exc}")
            failures += 1
            continue
        detail = ", ".join(
            f"{name} ({n} record{'s' if n != 1 else ''})"
            for name, n in sorted(counts.items())
        )
        print(f"{directory}: ok: {detail}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
