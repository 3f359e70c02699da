import json
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from damage_sim import trajectory
from damage_sim.config import load_scenario
from damage_sim.discretization import assemble_operators, build_mesh
from damage_sim.trajectory import (
    Snapshot,
    StepReport,
    Trajectory,
    write_csv,
    write_json,
)
from damage_sim.weak_stepper import run_weak

from suite_configs import CONFIG_DIR


def _write_csv_per_value(path, header, columns):
    """Reference writer: formats every value on its own with %.17g."""
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    lines = [",".join(header)]
    lines.extend(",".join(f"{float(v):.17g}" for v in row) for row in rows)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_write_csv_bytes_match_per_value_formatting(tmp_path):
    rng = np.random.default_rng(5)
    special = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 0.0, -1e300, 0.1]
    n = len(special)
    cases = [
        (["index", "t"], [np.arange(n), np.linspace(0.0, 1.0, n)]),
        (["x", "u", "chi"], [special, rng.standard_normal(n),
                             rng.uniform(size=n) * 1e-17]),
        (["a"], [np.array([3, -7, 2 ** 60], dtype=np.int64)]),
        (["t", "E"], [np.array([]), np.array([])]),
    ]
    for i, (header, cols) in enumerate(cases):
        fast, ref = tmp_path / f"fast{i}.csv", tmp_path / f"ref{i}.csv"
        write_csv(fast, header, cols)
        _write_csv_per_value(ref, header, cols)
        assert fast.read_bytes() == ref.read_bytes()


def _kernel_matches_percent_format(values):
    """The kernel's lines of values (four per line) against "%.17g" % v,
    2^16 values at a time."""
    values = np.asarray(values, dtype=float)
    values = np.append(values, np.zeros(-values.size % 4)).reshape(-1, 4)
    for i in range(0, values.shape[0], 2 ** 14):
        rows = values[i:i + 2 ** 14]
        body, line_bytes = trajectory._csv_lines(rows)
        lines = [",".join("%.17g" % v for v in row) + "\n"
                 for row in rows.tolist()]
        assert body == "".join(lines).encode()
        assert line_bytes.tolist() == [len(line) for line in lines]


def _ties_at_the_18th_digit(rng):
    """Doubles n / 2^s whose exact decimal expansion has 18 significant
    digits, the last a 5: n 5^s has 18 digits."""
    ties = []
    for s in range(1, 26):
        lo, hi = -(-10 ** 17 // 5 ** s), min((10 ** 18 - 1) // 5 ** s, 2 ** 53)
        if lo > hi:
            continue                    # n / 2^s would not be a double
        for n in rng.integers(lo, hi + 1, size=40).tolist():
            n |= 1
            x = n / 2 ** s
            digits = Decimal(x).normalize().as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties.append(x)
    return np.array(ties)


def test_kernel_matches_percent_format_on_random_bit_patterns():
    # every binade, subnormals, nan and inf included; about 3% of uniform
    # bit patterns fall in the array path, so a second million draws the
    # exponent from the binades of [1e-4, 1e16)
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64)
    _kernel_matches_percent_format(bits.view(np.float64))
    exponent = rng.integers(1023 - 14, 1023 + 54, size=10 ** 6, dtype=np.uint64)
    bits = ((bits & np.uint64(2 ** 52 - 1)) | (exponent << np.uint64(52))
            | (bits & np.uint64(2 ** 63)))
    values = bits.view(np.float64)
    assert np.mean((np.abs(values) >= 1e-4) & (np.abs(values) < 1e16)) > 0.9
    _kernel_matches_percent_format(values)


def test_kernel_matches_percent_format_on_edge_values():
    powers = np.array([float(f"1e{k}") for k in range(-30, 31)])
    edges = [1e-4, 1e16, 2.0 ** 53, 2.0 ** 53 - 1, 2.0 ** 53 + 2,
             9999999999999998.0, 0.5, 1.0, 123.0, 1e15 + 0.25]
    ties = _ties_at_the_18th_digit(np.random.default_rng(7))
    in_fast_range = (np.abs(ties) >= 1e-4) & (np.abs(ties) < 1e16)
    assert in_fast_range.sum() >= 300
    for values in (powers, np.nextafter(powers, 0.0),
                   np.nextafter(powers, np.inf), edges,
                   np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                   np.arange(-1000, 1001), [2 ** 60, -(2 ** 60), 2 ** 63],
                   [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324],
                   ties):
        values = np.asarray(values, dtype=float)
        _kernel_matches_percent_format(np.concatenate([values, -values]))


def _trajectory(N, K, strong, seed=0):
    """K random snapshots on an N-node mesh, magnitudes from 1e-9 to 1e3,
    with zeros and signed zeros."""
    rng = np.random.default_rng(seed)
    mesh = build_mesh(N, 1.0)
    traj = Trajectory(mode="strong" if strong else "weak", mesh=mesh,
                      ops=assemble_operators(mesh), material=None,
                      potential=None, tau=1.0 / K)

    def field():
        z = rng.standard_normal(N) * 10.0 ** rng.integers(-9, 4, N)
        z[rng.integers(0, N, 3)] = 0.0
        z[rng.integers(0, N, 2)] = -0.0
        return z

    for k in range(K):
        traj.append(Snapshot(t=k / K, u=field(), v=field(), chi=field(),
                             chi_t=field(),
                             omega=field() if strong else None,
                             omega_t=field() if strong else None))
        traj.step_reports.append(StepReport(step=k + 1))
    return traj


@pytest.mark.parametrize("N,K,strong", [(201, 11, False), (101, 13, True),
                                        (1025, 2, True)])
def test_save_matches_per_value_writer(tmp_path, N, K, strong):
    # 11 and 13 snapshots are not multiples of the 4 and 5 snapshots per
    # block; one 1025 x 7 snapshot spans two blocks
    traj = _trajectory(N, K, strong)
    written = traj.save(tmp_path / "fast")
    assert len(written) == K + 2
    header = ["x", "u", "v", "chi", "chi_t"] + (["omega", "omega_t"]
                                                if strong else [])
    for i, s in enumerate(traj.snapshots):
        cols = [traj.mesh.nodes, s.u, s.v, s.chi, s.chi_t]
        cols += [s.omega, s.omega_t] if strong else []
        _write_csv_per_value(tmp_path / "ref.csv", header, cols)
        assert ((tmp_path / "fast" / f"snap_{i:05d}.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())
    _write_csv_per_value(tmp_path / "ref.csv", ["index", "t"],
                         [np.arange(K), traj.times])
    assert ((tmp_path / "fast" / "manifest_times.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


def test_save_peak_memory_does_not_grow_with_snapshot_count(tmp_path):
    peaks = {}
    for K in (100, 400):
        traj = _trajectory(201, K, strong=False)
        traj.step_reports.clear()
        tracemalloc.start()
        traj.save(tmp_path / str(K))
        peaks[K] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[400] < 1.1 * peaks[100]


def test_write_json_bytes_match_json_dump(tmp_path):
    payload = {
        "zeta": [np.nan, np.inf, -np.inf, -0.0, 1e-300, 0.1],
        "alpha": {"b": {"z": 1, "a": [True, None, "s"]}, "a": []},
        "Mid": np.float64(2.5),
        "n": 3,
        "empty": {},
        "text": "\u00e9\n\"",
    }
    got, ref = tmp_path / "got.json", tmp_path / "ref.json"
    write_json(got, payload)
    with open(ref, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, allow_nan=True)
        fh.write("\n")
    assert got.read_bytes() == ref.read_bytes()
    assert b"NaN" in got.read_bytes() and b"-Infinity" in got.read_bytes()


def test_write_json_streams_the_text(tmp_path):
    # json.dump writes the encoder's chunks as they come: what it holds is
    # encoder state and the text file's pending chunks (up to 8 KB of
    # text), not the whole text, whereas building the text first holds its
    # pieces, the joined text and its copy with the newline
    cfg, _ = load_scenario(str(CONFIG_DIR / "quadratic.cfg"), {"mesh.N": 41})
    payload = run_weak(cfg).run_report()
    assert payload["steps"] == 400
    path = tmp_path / "run_report.json"
    tracemalloc.start()
    write_json(path, payload)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2 * path.stat().st_size
