"""CSV writers: byte-identical to a per-float formatting reference."""

import math

import numpy as np
import pytest

from thirdkind.serialize import (
    write_grid_function_csv,
    write_kernel_grid_csv,
    write_matrix_csv,
)

SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e16, math.pi, -math.pi, math.nan, math.inf, -math.inf]


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def reference_matrix_csv(matrix) -> str:
    lines = []
    for row in np.asarray(matrix, dtype=complex):
        lines.append(",".join(f"{_fmt(z.real)},{_fmt(z.imag)}" for z in row))
    return "\n".join(lines) + "\n"


def reference_grid_function_csv(values) -> str:
    lines = ["cell_index,re,im"]
    for i, z in enumerate(np.asarray(values, dtype=complex)):
        lines.append(f"{i},{_fmt(z.real)},{_fmt(z.imag)}")
    return "\n".join(lines) + "\n"


def reference_kernel_grid_csv(s, t, samples) -> str:
    lines = ["s,t,re,im"]
    for i, sv in enumerate(s):
        for j, tv in enumerate(t):
            z = complex(samples[i, j])
            lines.append(f"{_fmt(sv)},{_fmt(tv)},{_fmt(z.real)},{_fmt(z.imag)}")
    return "\n".join(lines) + "\n"


def special_matrix(rows, cols):
    """Every special value appears in both parts once there are 10 entries."""
    count = rows * cols
    m = np.empty(count, dtype=complex)
    m.real = np.resize(SPECIAL, count)
    m.imag = np.resize(SPECIAL[3:] + SPECIAL[:3], count)
    return m.reshape(rows, cols)


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (6, 6)])
def test_matrix_csv_bytes(tmp_path, shape):
    m = special_matrix(*shape)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert path.read_text() == reference_matrix_csv(m)


def test_matrix_csv_real_and_random(tmp_path):
    rng = np.random.default_rng(6)
    for m in (rng.standard_normal((4, 7)), rng.standard_normal((5, 5)) * 1e-300):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        assert path.read_text() == reference_matrix_csv(m)


def test_matrix_csv_of_transposed_view(tmp_path):
    m = special_matrix(4, 6).T
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert path.read_text() == reference_matrix_csv(m)


def special_real_matrix(rows, cols):
    return np.resize(np.array(SPECIAL), rows * cols).reshape(rows, cols)


@pytest.mark.parametrize(
    "m", [special_real_matrix(3, 5), special_real_matrix(4, 6).T], ids=["rows", "view"]
)
def test_real_matrix_csv_bytes(tmp_path, m):
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    assert path.read_text() == reference_matrix_csv(m)


def test_real_matrix_writes_as_its_complex_form(tmp_path):
    m = np.random.default_rng(8).standard_normal((6, 9))
    m[0, :4] = [-0.0, 5e-324, -math.inf, math.nan]
    real, wide = tmp_path / "real.csv", tmp_path / "wide.csv"
    write_matrix_csv(real, m)
    write_matrix_csv(wide, m.astype(complex))
    assert real.read_bytes() == wide.read_bytes()


def test_grid_function_csv_bytes(tmp_path):
    values = special_matrix(1, 12)[0]
    path = tmp_path / "f.csv"
    write_grid_function_csv(path, values)
    assert path.read_text() == reference_grid_function_csv(values)
    write_grid_function_csv(path, np.arange(5.0))
    assert path.read_text() == reference_grid_function_csv(np.arange(5.0))


def test_kernel_grid_csv_bytes(tmp_path):
    s = np.array([-math.pi, -0.0, 1e16, 5e-324])
    t = np.linspace(-8.0, 8.0, 3)
    samples = special_matrix(4, 3)
    path = tmp_path / "k.csv"
    write_kernel_grid_csv(path, s, t, samples)
    assert path.read_text() == reference_kernel_grid_csv(s, t, samples)


def joined_rows(header, fmt, rows) -> str:
    """The writers' earlier output: every row formatted, then joined once."""
    return "\n".join(header + [fmt % tuple(row) for row in rows.tolist()]) + "\n"


def test_streamed_matrix_csv_matches_joined_formatting(tmp_path):
    rng = np.random.default_rng(9)
    m = rng.standard_normal((7, 5)) + 1j * rng.standard_normal((7, 5))
    m[0, :3] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    m[3, 4] = complex(-1e-300, 5e-324)
    pairs = np.ascontiguousarray(m).view(np.float64)
    path = tmp_path / "m.csv"
    write_matrix_csv(path, m)
    expected = joined_rows([], ",".join(["%.17g"] * pairs.shape[1]), pairs)
    assert path.read_bytes() == expected.encode()
    assert "-0,0,0,-0,-0,-0," in expected
