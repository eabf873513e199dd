"""The exit-code contract over the config schema: a derandomized property test.

Configs are drawn over every top-level key (`config._TOP_KEYS`), every
built-in coefficient and kernel with its keys (`_FUNCTION_KEYS`,
`_KERNEL_KEYS`), `probe` and `tolerances`, each value valid or not, at depth
at most 4, and run in-process through `cli.main` for all three commands.
"""

import contextlib
import io
import json
import math
import tempfile
import threading
import warnings
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from thirdkind import cli  # noqa: E402
from thirdkind.config import (  # noqa: E402
    _FUNCTION_KEYS,
    _KERNEL_KEYS,
    _TOP_KEYS,
    DEFAULT_TOLERANCES,
)

REPORT = {"build-sequence": "sequence.json", "reduce": "report.json", "verify": "verify.json"}
# stderr lines of a failure that writes no error payload: failed checks, and
# strict mode's passage residual
NO_PAYLOAD = ("failed checks:", "strict mode:")

INVALID = st.sampled_from(
    ["x", None, True, [], {}, [1.0], [1.0, 2.0, 3.0], float("nan"), float("inf"), -1, 0, 1e308]
)
REAL = st.floats(-2.0, 2.0)
NUMBER = st.one_of(REAL, st.tuples(REAL, REAL).map(list))
SCALE = st.floats(-3.0, 3.0)


def spec(kind: str, values: dict):
    """A built-in's spec: "kind", and each of its keys present or not."""
    return st.fixed_dictionaries({"kind": st.just(kind)}, optional=values)


FUNCTION_VALUES = {"value": NUMBER, "scale": SCALE, "offset": REAL}
FUNCTION = st.sampled_from(sorted(_FUNCTION_KEYS)).flatmap(
    lambda kind: spec(kind, {k: FUNCTION_VALUES[k] for k in sorted(_FUNCTION_KEYS[kind])})
)
# H(y) = scale y + offset, so that alpha in (0, 1) mostly lies on its range
COEFFICIENT = st.one_of(
    spec("linear", {"scale": st.floats(0.5, 2.0), "offset": st.floats(-0.2, 0.2)}),
    FUNCTION,
)
KERNEL_VALUES = {"value": NUMBER, "scale": SCALE, "left": FUNCTION, "right": FUNCTION}
KERNEL = st.sampled_from(sorted(_KERNEL_KEYS)).flatmap(
    lambda kind: spec(kind, {k: KERNEL_VALUES[k] for k in sorted(_KERNEL_KEYS[kind])})
)


@st.composite
def valid_configs(draw):
    """A config that parses, over every top-level key: the required three,
    `depth_max` (which bounds the grid refinements) and each other key
    present or not. Shallow grids, wide eps0 and many bands leave a band
    empty (exit 2), so depth 4, alpha inside H's range, eps0 below 1/2 and
    two bands come first."""
    depth = draw(st.sampled_from([4, 3, 2, 1]))
    optional = {
        "lambda": st.one_of(NUMBER, st.lists(st.tuples(REAL, REAL).map(list), min_size=1, max_size=3)),
        "ratio": st.floats(0.3, 0.7),
        "basis_size": st.one_of(st.just("full"), st.integers(1, 2**depth)),
        "probe": st.fixed_dictionaries(
            {}, optional={"bound": st.floats(1.0, 12.0), "points": st.integers(3, 30)}
        ),
        "cutoff": st.floats(1e-12, 1e-3),
        "seed": st.integers(0, 1000),
        "strict": st.booleans(),
        "tolerances": st.fixed_dictionaries(
            {}, optional={k: st.floats(1e-12, 1.0) for k in sorted(DEFAULT_TOLERANCES)}
        ),
        "out": st.just("unused"),  # --out overrides it
    }
    config = {
        "depth": depth,
        "depth_max": draw(st.integers(depth, depth + 2)),
        "alpha": draw(st.one_of(st.floats(0.05, 0.95), st.just(0.0), NUMBER)),
        "eps0": draw(st.floats(0.15, 0.45)),
        "bands": draw(st.sampled_from([2, 1, 3])),
        "coefficient": draw(COEFFICIENT),
        "kernel": draw(KERNEL),
    }
    assert set(optional) | set(config) == _TOP_KEYS
    for key in sorted(optional):
        if draw(st.booleans()):
            config[key] = draw(optional[key])
    return config


@st.composite
def configs(draw):
    """(command, config): half the configs valid, the other half with one
    value, at the top or inside `coefficient`, `kernel`, `probe` or
    `tolerances`, replaced by one of the wrong type or range, or one
    unknown key added."""
    command = draw(st.sampled_from(sorted(REPORT)))
    config = draw(valid_configs())
    if draw(st.booleans()):
        return command, config
    places = [(config, key) for key in sorted(_TOP_KEYS)]
    for key in ("coefficient", "kernel", "probe", "tolerances"):
        inner = config.get(key)
        if isinstance(inner, dict):
            places += [(inner, k) for k in sorted(inner) if k != "kind"]
            places += [(inner, "kind"), (inner, "colour")]
    places.append((config, "colour"))
    where, key = draw(st.sampled_from(places))
    where[key] = draw(INVALID)
    return command, config


def non_finite(value) -> bool:
    """Whether a parsed JSON value holds a number that is not finite; the
    writer spells those as the strings "nan", "inf" and "-inf"."""
    if isinstance(value, dict):
        return any(non_finite(v) for v in value.values())
    if isinstance(value, list):
        return any(non_finite(v) for v in value)
    if isinstance(value, str):
        return value in ("nan", "inf", "-inf")
    if isinstance(value, float):
        return not math.isfinite(value)
    return False


def assert_finite_outputs(out: Path):
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            assert not non_finite(json.loads(path.read_text())), path.name
        elif path.suffix == ".csv":
            lines = path.read_text().split("\n")
            fields = ",".join(line for line in lines if line and not line[0].isalpha())
            assert all(math.isfinite(float(x)) for x in fields.split(",") if x), path.name


def threads_left() -> list[str]:
    return [t.name for t in threading.enumerate() if t.name.startswith("thirdkind-")]


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(configs())
def test_exit_code_contract(drawn):
    command, config = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([command, "--config", str(path), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        event(f"{command} exit {code} {stderr.getvalue()[:90]}")
        assert [str(w.message) for w in caught] == []
        assert threads_left() == []
        lines = stderr.getvalue().splitlines()
        report = out / REPORT[command]
        if code == 0:
            assert lines == []
            assert_finite_outputs(out)
            return
        assert len(lines) == 1, lines
        if out.exists() and not lines[0].startswith(NO_PAYLOAD):
            # the config was read and the output directory made: the failure
            # went through the command's guard, which writes its payload
            error = json.loads(report.read_text())["error"]
            assert {"type", "message"} <= set(error)
