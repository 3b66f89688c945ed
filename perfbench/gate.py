"""Correctness gate for every request the benchmark sends.

Nothing here imports qcore.  The values are checked three ways:

- c5 against the divisor sum c5(n) = sum over d | n+1 of (d/5) (n+1)/d,
  with (d/5) the Legendre symbol (Garvan, Kim & Stanton, "Cranks and
  t-cores", Invent. Math. 1990), at seeded sample indices up to the order;
- a5 and b5 through relations that reduce them to c5:
  a5(5n+2) = 4 c5(5n+1), b5(10n+1) = c5(5n+1), b5(10n+6) = b5(10n+8) = 0;
- SHA-256 digests of every coefficient list the benchmark reads, and the
  census fractions and record ids, as recorded from the seed program in
  ``reference.json`` (see ``make_reference.py``).

t-core counts from ``qcore oracle`` are checked against the product
prod_k (1 - q^(tk))^t / (1 - q^k), expanded here with plain lists, and for
t=5 also against the divisor sum.

Each check returns None when the request behaved as documented, or a
Failure with a one-line reason.  ``value_error`` marks failures where a
computed value was wrong, as opposed to a wrong exit code or a crash.
qcore exits 1 without a traceback when it finds a wrong value itself (a
``verify`` record that does not match, ``oracle`` disagreeing with c5, a
``bfile check`` discrepancy); that is a value failure too, and the output
is still read so that the failure names the record or index.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

SAMPLES = 200
ORACLE_CEILING = 60  # the largest n ``qcore oracle`` enumerates by default

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
# Request kinds whose qcore command reports wrong values by EXIT_MISMATCH.
REPORTS_MISMATCH = ("verify", "verify-all", "oracle", "bfile")


@dataclass(frozen=True)
class Failure:
    """Why a request failed; ``value_error`` is true when a value was wrong."""

    reason: str
    value_error: bool = False


# -- independent arithmetic ----------------------------------------------------


def _legendre5(d: int) -> int:
    r = d % 5
    if r == 0:
        return 0
    return 1 if r in (1, 4) else -1


def c5(n: int) -> int:
    """Number of 5-cores of n, by the divisor sum (O(sqrt n))."""
    m = n + 1
    total = 0
    d = 1
    while d * d <= m:
        if m % d == 0:
            e = m // d
            total += _legendre5(d) * e
            if e != d:
                total += _legendre5(e) * d
        d += 1
    return total


def t_core_counts(t: int, n_max: int) -> List[int]:
    """Coefficients 0..n_max of prod_{k>=1} (1 - q^(tk))^t / (1 - q^k)."""
    out = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for i in range(k, n_max + 1):  # times 1/(1 - q^k)
            out[i] += out[i - k]
    step = t
    while step <= n_max:
        for _ in range(t):  # times (1 - q^step)
            for i in range(n_max, step - 1, -1):
                out[i] -= out[i - step]
        step += t
    return out


def digest(coeffs: Sequence[int]) -> str:
    return hashlib.sha256(",".join(map(str, coeffs)).encode("ascii")).hexdigest()


def digest_key(name: str, order: int) -> str:
    return f"{name}@{order}"


# -- output parsing ------------------------------------------------------------


def _lines(output: bytes) -> List[str]:
    return output.decode("utf-8", "replace").strip().splitlines() or [""]


def _crashed(stderr: bytes) -> bool:
    return b"Traceback (most recent call last)" in stderr


def _outcome(rc: int, stdout: bytes, stderr: bytes, expected_rc: int) -> Optional[Failure]:
    crashed = _crashed(stderr)
    if rc == expected_rc and not crashed:
        return None
    what = "crashed" if crashed else "wrong exit code"
    said = _lines(stderr)[-1] or _lines(stdout)[0]  # the exception, else the first report
    return Failure(f"{what}: exit {rc}, expected {expected_rc} ({said})")


def parse_coefficients(stdout: bytes) -> List[int]:
    text = stdout.decode("ascii").strip()
    if text.startswith("{"):
        return [int(c) for c in json.loads(text)["coefficients"]]
    return [int(tok) for tok in text.split()]


def parse_bfile_values(text: str) -> List[int]:
    values = []
    for expected_index, line in enumerate(text.splitlines()):
        index, value = line.split()
        if int(index) != expected_index:
            raise ValueError(f"b-file index {index} where {expected_index} was expected")
        values.append(int(value))
    return values


# -- the gate ------------------------------------------------------------------


class Gate:
    """Checks request outcomes against the recorded reference and the
    independent formulas; ``rng`` chooses the sample indices."""

    def __init__(self, reference: dict, rng):
        self.digests = reference["digests"]
        self.census = reference["census"]
        self.record_ids = reference["record_ids"]
        self.rng = rng
        self._cores = {}

    def check(self, request, outputs, bfile_text: Optional[str] = None) -> Optional[Failure]:
        """``outputs`` holds (exit code, stdout, stderr) per invocation."""
        kind = request.kind
        if kind == "malformed":
            return _outcome(*outputs[0], EXIT_USAGE)
        mismatch = None
        for i, (rc, out, err) in enumerate(outputs):
            reported = kind in REPORTS_MISMATCH and i == len(outputs) - 1  # bfile: the check
            if rc == EXIT_MISMATCH and reported and not _crashed(err):
                mismatch = _lines(out)[-1]  # the values below say what was wrong
                continue
            bad = _outcome(rc, out, err, EXIT_OK)
            if bad:
                return bad
        try:
            bad = self._values(request, outputs, bfile_text)
        except (ValueError, KeyError, IndexError) as exc:
            return Failure(f"unreadable output: {exc!r}", value_error=True)
        if bad is None and mismatch is not None:
            return Failure(f"exit {EXIT_MISMATCH} (mismatch) with output {mismatch!r}",
                           value_error=True)
        return bad

    def _values(self, request, outputs, bfile_text: Optional[str]) -> Optional[Failure]:
        kind, out = request.kind, outputs[0][1]
        if kind == "expand":
            return self.sequence(request.params["name"], request.params["order"],
                                 parse_coefficients(out))
        if kind == "bfile":
            return self.bfile(request.params, outputs, bfile_text)
        if kind in ("verify", "verify-all"):
            ids = [request.params["id"]] if kind == "verify" else self.record_ids
            return self.verify_report(out, ids, request.params["order"])
        if kind == "census":
            return self.census_line(out, request.params["name"], request.params["order"])
        if kind == "oracle":
            return self.oracle(out, request.params["n"], request.params["t"])
        raise TypeError(f"no check for request kind {kind!r}")

    def sequence(self, name: str, order: int, coeffs: Sequence[int]) -> Optional[Failure]:
        if len(coeffs) != order + 1:
            return Failure(f"{len(coeffs)} coefficients for order {order}", value_error=True)
        bad = self._relations(name, order, coeffs)
        if bad:
            return Failure(bad, value_error=True)
        want = self.digests.get(digest_key(name, order))
        if want is None:
            return Failure(f"no recorded digest for {name} at order {order}", value_error=True)
        if digest(coeffs) != want:
            return Failure(f"{name} to order {order}: SHA-256 differs from the recorded digest",
                           value_error=True)
        return None

    def _sample(self, top: int) -> List[int]:
        """Seeded sample of 0..top, always including both ends."""
        if top < 0:
            return []
        picks = set(self.rng.sample(range(top + 1), min(SAMPLES, top + 1)))
        return sorted(picks | {0, top})

    def _relations(self, name: str, order: int, a: Sequence[int]) -> Optional[str]:
        if name == "c5":
            for n in self._sample(order):
                if a[n] != c5(n):
                    return f"c5({n}) = {a[n]}, divisor sum gives {c5(n)}"
        elif name == "a5bar":
            for n in self._sample((order - 2) // 5):
                if a[5 * n + 2] != 4 * c5(5 * n + 1):
                    return f"a5({5 * n + 2}) = {a[5 * n + 2]} != 4 c5({5 * n + 1})"
        elif name == "b5bar":
            for n in self._sample((order - 1) // 10):
                if a[10 * n + 1] != c5(5 * n + 1):
                    return f"b5({10 * n + 1}) = {a[10 * n + 1]} != c5({5 * n + 1})"
            for r in (6, 8):
                for idx in range(r, order + 1, 10):
                    if a[idx]:
                        return f"b5({idx}) = {a[idx]}, expected 0"
        return None

    def bfile(self, params, outputs, text: Optional[str]) -> Optional[Failure]:
        name, order = params["name"], params["order"]
        wrote, checked = outputs[0][1].decode(), outputs[1][1].decode()
        if not wrote.startswith(f"wrote {order + 1} lines to "):
            return Failure(f"export reported {wrote.strip()!r}", value_error=True)
        if checked.strip() != f"no discrepancies over indices 0..{order}":
            return Failure(f"check reported {checked.strip()!r}", value_error=True)
        if text is None:
            return Failure("exported b-file is missing", value_error=True)
        return self.sequence(name, order, parse_bfile_values(text))

    def verify_report(self, out: bytes, ids: Sequence[str], order: int) -> Optional[Failure]:
        lines = out.decode().strip().splitlines()
        summary = re.match(r"(\d+) records: (\d+) exact-match", lines[-1])
        if summary is None:
            return Failure(f"no summary line in {lines[-1]!r}", value_error=True)
        seen, wrong = [], []
        for line in lines[:-1]:
            rid, status, n_field = line.split()[:3]
            if status != "exact-match":
                wrong.append(f"{rid}: {line[len(rid) + 1:]}")
            elif n_field != f"N={order}":
                wrong.append(f"{rid}: reported {n_field}, asked for N={order}")
            seen.append(rid)
        if wrong:
            more = f" (and {len(wrong) - 1} more records)" if len(wrong) > 1 else ""
            return Failure(wrong[0] + more, value_error=True)
        if seen != list(ids):
            missing = sorted(set(ids) - set(seen))
            extra = sorted(set(seen) - set(ids))
            return Failure(f"reported records differ: missing {missing}, extra {extra}",
                           value_error=True)
        total, matched = int(summary.group(1)), int(summary.group(2))
        if total != len(ids) or matched != len(ids):
            return Failure(f"summary {lines[-1]!r} for {len(ids)} records", value_error=True)
        return None

    def census_line(self, out: bytes, name: str, order: int) -> Optional[Failure]:
        m = re.fullmatch(
            rf"{re.escape(name)} sign census over n=1\.\.{order}: "
            r"zero (\S+), positive (\S+), negative (\S+)",
            out.decode().strip())
        if m is None:
            return Failure(f"unexpected census line {out.decode().strip()!r}", value_error=True)
        got = tuple(Fraction(g) for g in m.groups())
        want = tuple(Fraction(w) for w in self.census[digest_key(name, order)])
        if got != want:
            return Failure(f"census of {name} to {order}: got {got}, recorded {want}",
                           value_error=True)
        return None

    def oracle(self, out: bytes, n: int, t: int) -> Optional[Failure]:
        lines = out.decode().strip().splitlines()
        m = re.fullmatch(rf"count_t_cores\({n}, {t}\) = (-?\d+)", lines[0])
        if m is None:
            return Failure(f"unexpected oracle line {lines[0]!r}", value_error=True)
        if t not in self._cores:
            self._cores[t] = t_core_counts(t, ORACLE_CEILING)
        want = self._cores[t][n]
        if int(m.group(1)) != want:
            return Failure(f"{t}-cores of {n}: got {m.group(1)}, product formula gives {want}",
                           value_error=True)
        if t == 5:
            agree = f"series coefficient c5({n}) = {c5(n)}: agrees"
            if len(lines) < 2 or lines[1] != agree:
                return Failure(f"expected {agree!r}, got {lines[1:]!r}", value_error=True)
        return None
