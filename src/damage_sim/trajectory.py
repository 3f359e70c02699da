"""Trajectory containers and byte-stable serialization.

A trajectory is an ordered list of state snapshots plus per-step solver
reports.  Serialization writes one CSV per snapshot (columns x, u, v, chi
and, in strong mode, omega, omega_t, chi_t), a manifest of times, and a JSON
run report.  JSON keys are sorted, so identical inputs reproduce
byte-identical files.

Every CSV number is the exact text of "%.17g" % value.  An array kernel
writes it for blocks of a few thousand values at once (several snapshots
per block in ``Trajectory.save``):
  * for 1e-4 <= |v| < 1e16, Dekker's error-free product (Dekker 1971) gives
    |v| 10^(16-k) = p + e exactly; p >= 2^53 is an even integer, so
    N = p + rint(e) is the 17-digit significand rounded half to even, as
    dtoa rounds it;
  * zeros take the same path, with the digit 0;
  * the fixed-point texts are laid out in groups of equal sign and decimal
    exponent with slice copies, then joined by a length mask;
  * the remaining values (non-finite, below 1e-4 in magnitude, which %g
    writes with an exponent, or from 1e16 up) go through "%.17g" % v one
    at a time.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .discretization import Mesh1D, Operators
from .forcing import SampledForcing

__all__ = ["Snapshot", "StepReport", "Trajectory", "write_csv", "write_json"]

SCHEMA_VERSION = 1

# values per kernel call: at one 201 x 5 snapshot per call the fixed cost
# of the call about doubles the time per value; a block's working arrays
# take about 0.6 MB
_BLOCK_VALUES = 4096
_WIDTH = 25               # longest "%.17g" text (24 bytes) and a separator
_ZERO, _DOT, _MINUS = 48, 46, 45
_COMMA, _NEWLINE = 44, 10


def _split(a):
    """Dekker's split a = hi + lo into halves of at most 26 bits."""
    c = 134217729.0 * a                # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10 = 10.0 ** np.arange(21)        # exact up to 10^22
_POW10_HI, _POW10_LO = _split(_POW10)
# "%04d" % q for q < 10^4 as four ASCII bytes in one uint32
_QUADS = (_ZERO + np.arange(10000, dtype=np.uint16)[:, None]
          // np.array([1000, 100, 10, 1], np.uint16) % 10
          ).astype(np.uint8).view(np.uint32)
_PREFIX = np.tri(_WIDTH, dtype=bool)  # row L keeps columns 0..L


def _two_product(a, a_hi, a_lo, j):
    """(p, e) with p = fl(a 10^j) and p + e = a 10^j exactly (Dekker)."""
    b_hi, b_lo = np.take(_POW10_HI, j), np.take(_POW10_LO, j)
    p = a * np.take(_POW10, j)
    return p, a_lo * b_lo - (((p - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo)


def _significands(a):
    """(N, X): 10^16 <= N < 10^17 is a 10^(16-X) rounded half to even, for
    1e-4 <= a < 1e16."""
    j = 16 - np.clip(np.floor(np.log10(a)), -4, 15).astype(np.intp)
    a_hi, a_lo = _split(a)
    p, e = _two_product(a, a_hi, a_lo, j)
    # next to a power of ten log10 may be one off: move j where the exact
    # product p + e falls outside [10^16, 10^17)
    fix = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if fix.size:
        pf, ef = p[fix], e[fix]
        j[fix] += (((pf < 1e16) | ((pf == 1e16) & (ef < 0))).astype(np.intp)
                   - ((pf > 1e17) | ((pf == 1e17) & (ef >= 0))))
        p[fix], e[fix] = _two_product(a[fix], a_hi[fix], a_lo[fix], j[fix])
    # p + e < 10^17 - 1/2: the largest double below each power of ten up
    # to 10^16 is more than 5e-18 of it below, so rounding never carries
    return p.astype(np.int64) + np.rint(e).astype(np.int64), 16 - j


def _digit_chunks(N):
    """(n, 5) indices of N < 10^17: its leading digit, then 4-digit chunks."""
    chunks = np.empty((N.size, 5), np.int32)
    for col in (4, 3, 2, 1):
        high = N // 10 ** 4
        np.subtract(N, high * 10 ** 4, out=chunks[:, col])
        N = high
    chunks[:, 0] = N
    return chunks


def _lay_out(text, digits, neg: int, x: int) -> None:
    """Fixed-point %g texts of one (sign, exponent x) group into rows of
    '0's: the sign, x + 1 integer digits (one '0' for x < 0), the point,
    -x - 1 zeros for x < 0, then the remaining digits."""
    if neg:
        text[:, 0] = _MINUS
    if x >= 0:
        text[:, neg:neg + x + 1] = digits[:, :x + 1]
        text[:, neg + x + 1] = _DOT
        text[:, neg + x + 2:neg + 18] = digits[:, x + 1:]
    else:
        text[:, neg + 1] = _DOT
        text[:, neg + 1 - x:neg + 18 - x] = digits


def _texts(v):
    """(text, length): "%.17g" % value of each value of v, left-aligned in
    a row of _WIDTH bytes, and its length."""
    n = v.size
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    zero = v == 0
    a[~fast] = 1.0                       # placeholder digits for the rest
    N, X = _significands(a)
    # 17 ASCII digits in bytes 3-19 of each row
    digits = np.take(_QUADS, _digit_chunks(N)).view(np.uint8)
    nd = 17 - np.argmax(digits[:, :2:-1] != _ZERO, axis=1)   # to last nonzero
    digits[zero, 3] = _ZERO              # zeros: the text of 1 with digit 0
    neg = np.signbit(v)
    # fixed point: x + 1 integer digits, then the point and the fraction if
    # any; for x < 0, "0." and -x - 1 zeros before the digits
    length = neg + np.where(X >= 0, np.maximum(X + 1, nd + (nd > X + 1)),
                            nd + 1 - X)
    group = (20 * neg + X + 4).astype(np.uint8)
    order = np.argsort(group, kind="stable")
    digits = np.take(digits, order, axis=0)[:, 3:]
    text = np.full((n, _WIDTH), _ZERO, np.uint8)
    start = 0
    for code, count in enumerate(np.bincount(group, minlength=40).tolist()):
        if count:
            stop = start + count
            neg_code, x_code = divmod(code, 20)
            _lay_out(text[start:stop], digits[start:stop], neg_code, x_code - 4)
            start = stop
    rank = np.empty(n, np.intp)
    rank[order] = np.arange(n)
    text = np.take(text, rank, axis=0)
    rest = np.flatnonzero(~(fast | zero))
    if rest.size:
        texts = [b"%.17g" % value for value in v[rest].tolist()]
        length[rest] = [len(s) for s in texts]
        text[rest] = np.frombuffer(b"".join(s.ljust(_WIDTH) for s in texts),
                                   np.uint8).reshape(-1, _WIDTH)
    return text, length


def _csv_lines(rows) -> tuple:
    """Bytes of the CSV lines of a (R, C) float array, each value written as
    "%.17g" % value writes it, and the byte count of each line.  Formats
    at most _BLOCK_VALUES values (or one row) at a time."""
    n_rows, n_cols = rows.shape
    step = max(1, _BLOCK_VALUES // n_cols)
    if n_rows > step:
        parts = [_csv_lines(rows[i:i + step]) for i in range(0, n_rows, step)]
        return (b"".join(body for body, _ in parts),
                np.concatenate([counts for _, counts in parts]))
    text, length = _texts(rows.ravel())
    seps = np.full((n_rows, n_cols), _COMMA, np.uint8)
    seps[:, -1] = _NEWLINE
    text.ravel()[np.arange(0, text.size, _WIDTH) + length] = seps.ravel()
    body = text[np.take(_PREFIX, length, axis=0)].tobytes()
    return body, (length + 1).reshape(n_rows, n_cols).sum(axis=1)


def write_csv(path, header, columns) -> None:
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode() + _csv_lines(rows)[0])


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=True)
        fh.write("\n")


@dataclass
class Snapshot:
    t: float
    u: np.ndarray
    v: np.ndarray
    chi: np.ndarray
    chi_t: np.ndarray
    omega: Optional[np.ndarray] = None
    omega_t: Optional[np.ndarray] = None


@dataclass
class StepReport:
    step: int
    inner_iterations: int = 0   # strong stage outer iterations; 0 in weak mode
    kkt_residual: float = 0.0
    active_count: int = 0
    linear_residual: float = 0.0
    newton_iterations: int = 0


@dataclass
class Trajectory:
    mode: str
    mesh: Mesh1D
    ops: Operators
    material: object
    potential: object
    snapshots: list = field(default_factory=list)
    step_reports: list = field(default_factory=list)
    tau: float = 0.0
    forcing_means: Optional[SampledForcing] = None   # weak: fbar_k, gbar_k
    extras: dict = field(default_factory=dict)

    def append(self, snap: Snapshot) -> None:
        self.snapshots.append(snap)

    def __len__(self) -> int:
        return len(self.snapshots)

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.snapshots], dtype=float)

    def require_every_step(self, check: str) -> None:
        """Raise ValueError unless the snapshots are the initial state and
        one per step report, so that ``check`` may read snapshots k - 1 and
        k as the two ends of step k (output stride 1)."""
        if len(self.snapshots) != len(self.step_reports) + 1:
            stride = self.extras["config"].output_stride
            raise ValueError(
                f"{check} reads consecutive snapshots as consecutive steps, "
                f"but this trajectory records {len(self.snapshots)} snapshots "
                f"of {len(self.step_reports)} steps (output stride {stride})")

    @contextmanager
    def failing_at(self, step: int, *errors):
        """An error of the types ``errors`` raised in the block leaves with
        this trajectory as ``partial_trajectory`` and ``step`` as
        ``failed_step``."""
        try:
            yield
        except errors as exc:
            exc.partial_trajectory = self
            exc.failed_step = step
            raise

    # -- serialization -------------------------------------------------------
    def run_report(self) -> dict:
        """Payload of run_report.json: run metadata and the step reports."""
        return {
            "schema_version": SCHEMA_VERSION,
            "mode": self.mode,
            "steps": len(self.step_reports),
            "tau": self.tau,
            "mesh": {"N": self.mesh.N, "L": self.mesh.L},
            "step_reports": [vars(r) for r in self.step_reports],
        }

    def save(self, outdir: str) -> list:
        """Write the snapshot CSVs, manifest_times.csv and run_report.json.

        Snapshots are formatted in blocks of about _BLOCK_VALUES values (at
        least one snapshot), so the text held at once does not grow with
        the number of snapshots."""
        os.makedirs(outdir, exist_ok=True)
        written = []
        x = self.mesh.nodes
        strong = self.mode == "strong"
        header = b"x,u,v,chi,chi_t" + (b",omega,omega_t\n" if strong
                                       else b"\n")
        per_block = max(1, _BLOCK_VALUES // (x.size * (7 if strong else 5)))
        for b in range(0, len(self.snapshots), per_block):
            rows = np.concatenate([np.column_stack(
                [x, s.u, s.v, s.chi, s.chi_t]
                + ([s.omega, s.omega_t] if strong else []))
                for s in self.snapshots[b:b + per_block]])
            body, line_bytes = _csv_lines(rows)
            ends = np.cumsum(line_bytes)[x.size - 1::x.size].tolist()
            for start, end in zip([0] + ends, ends):
                name = f"snap_{len(written):05d}.csv"
                with open(os.path.join(outdir, name), "wb") as fh:
                    fh.write(header + body[start:end])
                written.append(name)
        write_csv(os.path.join(outdir, "manifest_times.csv"),
                  ["index", "t"],
                  [np.arange(len(self.snapshots)), self.times])
        written.append("manifest_times.csv")
        write_json(os.path.join(outdir, "run_report.json"), self.run_report())
        written.append("run_report.json")
        return written
