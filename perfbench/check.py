"""Output checks: stored reference values with per-field tolerances, and
the invariants used when a seed has no stored reference.

An operation's outputs are plain JSON data: dicts, lists, bools, None and
floats. Every float leaf is compared under the tolerance of the nearest
enclosing field name; a field without an entry here is a mismatch, so a
new output cannot slip through unchecked.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# field -> (rtol, atol); None means exact equality.
TOLERANCES = {
    "success": None,
    "success_rate": None,
    "good_grasp_rate": None,
    "pos_err": (1e-6, 1e-9),          # metres
    "yaw_err": (1e-6, 1e-9),          # radians
    "proposal_px_err": (1e-6, 1e-6),  # pixels
    "loss": (1e-6, 1e-12),            # per-epoch mean L1, normalised units
    "final_loss": (1e-6, 1e-12),
}

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def compare(ref, got, field: str | None = None, path: str = "") -> list[str]:
    """Mismatches between a reference and an output, one line each."""
    where = path or "<root>"
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            return [f"{where}: keys differ"]
        out = []
        for key in sorted(ref):
            out += compare(ref[key], got[key], key, f"{path}.{key}" if path else key)
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{where}: length differs"]
        out = []
        for i, (r, g) in enumerate(zip(ref, got)):
            out += compare(r, g, field, f"{path}[{i}]")
        return out
    if field not in TOLERANCES:
        return [f"{where}: no tolerance defined for field {field!r}"]
    tol = TOLERANCES[field]
    if tol is None or not isinstance(ref, float) or not isinstance(got, float):
        if type(ref) is not type(got) or ref != got:
            return [f"{where}: expected {ref!r}, got {got!r}"]
        return []
    rtol, atol = tol
    if not math.isfinite(got) or abs(got - ref) > atol + rtol * abs(ref):
        return [f"{where}: expected {ref!r} within rtol={rtol} atol={atol}, got {got!r}"]
    return []


def non_finite(value, path: str = "") -> list[str]:
    """Paths of float leaves that are NaN or infinite."""
    if isinstance(value, dict):
        return [p for k in sorted(value)
                for p in non_finite(value[k], f"{path}.{k}" if path else k)]
    if isinstance(value, list):
        return [p for i, v in enumerate(value) for p in non_finite(v, f"{path}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [f"{path or '<root>'}: non-finite value {value!r}"]
    return []


def fingerprint(value) -> str:
    """Bit-exact text form: json writes floats with repr, which round-trips."""
    return json.dumps(value, sort_keys=True)


def load_reference(path=REFERENCE_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def reference_ops(reference: dict, workload: str, params: dict, seed: int):
    """Stored outputs of each operation for this workload and seed, or None
    when the seed has none. Raises ValueError when the stored entry was made
    with other workload parameters, since its values would not apply."""
    entry = reference.get("workloads", {}).get(workload)
    if entry is None:
        return None
    if entry.get("params") != params:
        raise ValueError(f"reference for {workload} was made with params "
                         f"{entry.get('params')}, workload has {params}")
    return entry.get("seeds", {}).get(str(seed))
