import json

import numpy as np

from damage_sim.trajectory import write_csv, write_json


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
