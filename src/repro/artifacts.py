"""JSON artifacts and checked-in baselines, written one way.

The command-line tools write two reports (``BENCH_gate.json`` and
``BENCH_resilience.json``) and keep one baseline file,
``benchmarks/baselines/gate_baseline.json``.  This module owns what they
share; each report module keeps only its own body.

* Stamping: :func:`stamp` names the schema, the producing tool, the
  git SHA and the environment of a report.
* Canonical JSON: sorted keys, two-space indent, trailing newline, so a
  write → load → write round trip is byte-stable and diffs show only
  changed values.
* The baseline document ``{"schema_version", "updated_from_git_sha",
  "modes": {mode: entries}}``: :func:`baseline_path` resolves it from
  the source tree, so a tool finds it from any working directory;
  :func:`load_baseline` checks its schema; :func:`merge_baseline`
  replaces one mode's entries; :func:`write_json` saves it.
"""

from __future__ import annotations

import json
import platform
import subprocess
from pathlib import Path
from typing import Any, Mapping

from .errors import ConfigError

__all__ = [
    "SCHEMA_VERSION",
    "BASELINE_DIR",
    "git_sha",
    "environment",
    "stamp",
    "write_json",
    "baseline_path",
    "load_baseline",
    "baseline_mode",
    "merge_baseline",
]

#: Schema version of every report and baseline document.
SCHEMA_VERSION = 1

#: ``benchmarks/baselines`` of the source checkout this package lives in
#: (``src/repro`` → repository root).  An install without the
#: benchmarks tree gets a directory that does not exist, so baseline
#: loads find no file.
BASELINE_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"


def git_sha() -> str:
    """The commit hash of the source tree, or ``"unknown"`` outside one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def environment() -> dict[str, str]:
    """Interpreter, numpy, package and platform versions."""
    import numpy

    from ._version import __version__

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": __version__,
        "platform": platform.platform(),
    }


def stamp(generated_by: str) -> dict[str, Any]:
    """The header fields every report starts with."""
    return {
        "schema_version": SCHEMA_VERSION,
        "generated_by": generated_by,
        "git_sha": git_sha(),
        "environment": environment(),
    }


def write_json(payload: Any, path: str | Path) -> Path:
    """Write ``payload`` as canonical JSON, creating parent directories."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


def baseline_path(filename: str) -> Path:
    """Where the baseline file ``filename`` lives in the source tree."""
    return BASELINE_DIR / filename


def load_baseline(path: str | Path) -> dict | None:
    """Load a baseline document, or None when the file does not exist.

    Raises :class:`ConfigError` for an unreadable file or a document
    with the wrong schema.
    """
    target = Path(path)
    if not target.is_file():
        return None
    try:
        document = json.loads(target.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"unreadable baseline file {target}: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"baseline file {target} is not a JSON object")
    if document.get("schema_version") != SCHEMA_VERSION:
        raise ConfigError(
            f"baseline file {target} has schema "
            f"{document.get('schema_version')!r}, expected {SCHEMA_VERSION}"
        )
    if not isinstance(document.get("modes", {}), dict):
        raise ConfigError(f"baseline file {target}: 'modes' is not an object")
    return document


def baseline_mode(document: Mapping | None, mode: str) -> dict:
    """One mode's entries of a baseline document (``{}`` when absent)."""
    if document is None:
        return {}
    entries = document.get("modes", {}).get(mode, {})
    if not isinstance(entries, dict):
        raise ConfigError(f"baseline mode {mode!r} is not a JSON object")
    return entries


def merge_baseline(
    document: Mapping | None, mode: str, entries: Mapping[str, Any]
) -> dict:
    """A new document with ``mode``'s entries replaced.

    Other modes are kept, so fast and full baselines can be refreshed
    independently.  The result is stamped with the current git SHA.
    """
    modes = dict(document.get("modes", {})) if document is not None else {}
    modes[mode] = dict(entries)
    return {
        "schema_version": SCHEMA_VERSION,
        "updated_from_git_sha": git_sha(),
        "modes": modes,
    }
