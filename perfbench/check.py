"""Independent output checker, run after the timed loop.

It reads ``value=``, ``eloise=`` and ``abelard=`` from the machine output and
re-certifies them against the game matrix with its own integer arithmetic:
the minimum over columns of mu . col must equal the value, and so must the
maximum over rows of row . nu.  It also checks the printed floor and ceiling,
closed-form values of the case studies, ``verified=true`` on ``hashing``
output, and that ``--no-collapse`` leaves the value unchanged.  No ifgames
routine takes part in a verdict; the only ifgames call is the ``matrix``
command that prints the game of a sentence op.
"""

from __future__ import annotations

import math

import numpy as np

_INT64_SAFE = 2**62


def parse_output(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"not a key=value line: {line[:80]!r}")
        out[key] = value
    return out


def parse_frac(text: str) -> tuple[int, int]:
    p, sep, q = text.partition("/")
    num, den = int(p), int(q) if sep else 1
    if den <= 0 or math.gcd(num, den) != 1:
        raise ValueError(f"not a reduced fraction: {text!r}")
    return num, den


def parse_strategy(text: str, size: int) -> tuple[dict[int, int], int]:
    """Printed support ``i:p/q ...`` as (index -> numerator, common denominator)."""
    entries = {}
    for token in text.split():
        i, _, frac = token.partition(":")
        index = int(i)
        if not 0 <= index < size or index in entries:
            raise ValueError(f"bad strategy index {index} for {size} strategies")
        entries[index] = parse_frac(frac)
    if not entries:
        raise ValueError("empty strategy")
    den = math.lcm(*(q for _, q in entries.values()))
    nums = {i: p * (den // q) for i, (p, q) in entries.items()}
    if any(n <= 0 for n in nums.values()):
        raise ValueError("printed probabilities must be positive")
    if sum(nums.values()) != den:
        raise ValueError("probabilities do not sum to 1")
    return nums, den


def parse_matrix_text(text: str) -> np.ndarray:
    """The ``matrix`` command's output: an ``m n`` header, then m rows of 0/1."""
    lines = text.splitlines()
    m, n = (int(x) for x in lines[0].split())
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} matrix rows, found {len(lines) - 1}")
    arr = np.empty((m, n), dtype=np.uint8)
    for i, line in enumerate(lines[1:]):
        raw = np.frombuffer(line.encode("ascii"), dtype=np.uint8)
        if raw.size != 2 * n - 1 or (raw[1::2] != ord(" ")).any():
            raise ValueError(f"bad matrix row {i}")
        row = raw[::2] - ord("0")
        if (row > 1).any():
            raise ValueError(f"bad matrix entry in row {i}")
        arr[i] = row
    return arr


def _weighted(a: np.ndarray, nums: dict[int, int], den: int, axis: int) -> list[int]:
    """Integer sums of weights times entries, over rows (axis 0) or columns (axis 1)."""
    idx = sorted(nums)
    sub = a[idx, :] if axis == 0 else a[:, idx]
    if den * len(idx) < _INT64_SAFE:
        w = np.array([nums[i] for i in idx], dtype=np.int64)
        sums = w @ sub.astype(np.int64) if axis == 0 else sub.astype(np.int64) @ w
        return [int(x) for x in sums]
    ws = [nums[i] for i in idx]
    vectors = sub.T if axis == 0 else sub
    return [sum(w for w, e in zip(ws, vec) if e) for vec in vectors]


def row_guarantee(a: np.ndarray, nums: dict[int, int], den: int) -> tuple[int, int]:
    """min over columns of mu . col, as (numerator, denominator)."""
    return min(_weighted(a, nums, den, axis=0)), den


def column_cap(a: np.ndarray, nums: dict[int, int], den: int) -> tuple[int, int]:
    """max over rows of row . nu, as (numerator, denominator)."""
    return max(_weighted(a, nums, den, axis=1)), den


def _same(x: tuple[int, int], y: tuple[int, int]) -> bool:
    return x[0] * y[1] == y[0] * x[1]


def certify_value(out: dict[str, str], a: np.ndarray) -> list[str]:
    """Problems with a ``value`` output on game ``a`` (empty when it certifies)."""
    m, n = a.shape
    problems = []
    if (int(out["rows"]), int(out["cols"])) != (m, n):
        problems.append(f"shape {out['rows']}x{out['cols']} but the game is {m}x{n}")
        return problems
    if not _same(parse_frac(out["floor"]), (int(a.sum(axis=0).min()), m)):
        problems.append(f"floor {out['floor']} is not the least column sum over {m}")
    if not _same(parse_frac(out["ceil"]), (int(a.sum(axis=1).max()), n)):
        problems.append(f"ceil {out['ceil']} is not the largest row sum over {n}")
    value = parse_frac(out["value"])
    mu = parse_strategy(out["eloise"], m)
    nu = parse_strategy(out["abelard"], n)
    if not _same(row_guarantee(a, *mu), value):
        problems.append(f"eloise guarantees {row_guarantee(a, *mu)}, not value {out['value']}")
    if not _same(column_cap(a, *nu), value):
        problems.append(f"abelard caps at {column_cap(a, *nu)}, not value {out['value']}")
    if not out.get("method"):
        problems.append("no method label")
    return problems


def certify_hashing(out: dict[str, str], a: np.ndarray, row_of: list[int]) -> list[str]:
    """Problems with a ``hashing`` output.  ``a`` is the same game with hash
    function c on row ``row_of[c]``; only Eloise's strategy is printed, so it
    must guarantee the value against every column."""
    problems = []
    if out.get("verified") != "true":
        problems.append(f"verified={out.get('verified')}")
    if (int(out["rows"]), int(out["cols"])) != a.shape:
        problems.append(f"shape {out['rows']}x{out['cols']} but the game is {a.shape}")
        return problems
    nums, den = parse_strategy(out["eloise"], a.shape[0])
    moved = {row_of[c]: w for c, w in nums.items()}
    if not _same(row_guarantee(a, moved, den), parse_frac(out["value"])):
        problems.append(f"eloise guarantees {row_guarantee(a, moved, den)}, not {out['value']}")
    return problems


def denominator_bits(text: str) -> int:
    """Bit length of the largest denominator printed in ``p/q`` form."""
    bits = 0
    for token in text.replace(":", " ").replace("=", " ").split():
        p, sep, q = token.partition("/")
        if sep and p.lstrip("-").isdigit() and q.isdigit():
            bits = max(bits, int(q).bit_length())
    return bits


def check_workload(ops, results, fetch_matrix) -> dict[str, list[str]]:
    """Problems per op id.  ``results`` maps op id to (exit code, stdout,
    traceback or None) of its first run; ``fetch_matrix(op)`` returns the
    game of a sentence op.  Refused ops (exit 4 on a game allowed to exceed
    the strategy cap) have no problems and are not certified."""
    problems: dict[str, list[str]] = {}
    parsed: dict[str, dict[str, str]] = {}
    games: dict[str, np.ndarray] = {}
    for op in ops:
        code, text, tb = results[op.id]
        found = problems.setdefault(op.id, [])
        if tb is not None:
            found.append("traceback: " + tb.strip().splitlines()[-1])
            continue
        if code == 4 and op.refusable:
            continue
        if code != 0:
            found.append(f"exit code {code}")
            continue
        try:
            out = parse_output(text)
            parsed[op.id] = out
            if out.get("command") != op.argv[0]:
                found.append(f"command={out.get('command')}")
            if op.argv[0] == "hashing":
                found.extend(certify_hashing(out, games[op.expect["game_of"]], op.expect["row_of"]))
            else:
                a = np.array(op.expect["matrix"], dtype=np.uint8) if "matrix" in op.expect else fetch_matrix(op)
                games[op.id] = a
                found.extend(certify_value(out, a))
            if "closed" in op.expect and not _same(parse_frac(out["value"]), parse_frac(op.expect["closed"])):
                found.append(f"value {out['value']} differs from the closed form {op.expect['closed']}")
            other = op.expect.get("same_value_as")
            if other is not None:
                if other not in parsed:
                    found.append(f"the collapsed run {other} has no value")
                elif parsed[other]["value"] != out["value"]:
                    found.append(f"value {out['value']} but {parsed[other]['value']} with collapse")
        except (KeyError, ValueError) as e:
            found.append(f"unreadable output: {e!r}")
    return {k: v for k, v in problems.items() if v}
