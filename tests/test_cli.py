"""CLI contract: config validation, file outputs, exit codes, determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import thirdkind.cli
import thirdkind.kernels
import thirdkind.solvers
from thirdkind.cli import main
from thirdkind.config import ConfigError, load_config, parse_config
from thirdkind.kernels import probe_grid
from thirdkind.reduction import UnitarySurrogate
from thirdkind.serialize import (
    dump_json,
    read_grid_function_csv,
    read_matrix_csv,
    write_grid_function_csv,
    write_matrix_csv,
)

BASE = {
    "depth": 6,
    "depth_max": 12,
    "alpha": 0.25,
    "lambda": 0.3,
    "eps0": 0.25,
    "ratio": 0.5,
    "bands": 3,
    "basis_size": "full",
    "coefficient": {"kind": "linear"},
    "kernel": {"kind": "exp_xy", "scale": 1.0},
    "seed": 11,
}


def write_config(tmp_path, name="config.json", **overrides):
    cfg = dict(BASE)
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigParsing:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config({**BASE, "typo_key": 1})

    def test_depth_range(self):
        with pytest.raises(ConfigError):
            parse_config({**BASE, "depth": 0})
        with pytest.raises(ConfigError):
            parse_config({**BASE, "depth": 30})

    def test_complex_pairs(self):
        cfg = parse_config({**BASE, "alpha": [0.1, -0.2], "lambda": [[1.0, 0.5], [0.0, 2.0]]})
        assert cfg.alpha == 0.1 - 0.2j
        assert cfg.lambdas == (1.0 + 0.5j, 2.0j)

    def test_ratio_range(self):
        with pytest.raises(ConfigError):
            parse_config({**BASE, "ratio": 1.0})

    def test_missing_required(self):
        bad = dict(BASE)
        del bad["coefficient"]
        with pytest.raises(ConfigError, match="coefficient"):
            parse_config(bad)

    def test_tolerance_keys_validated(self):
        with pytest.raises(ConfigError):
            parse_config({**BASE, "tolerances": {"no_such_check": 1.0}})

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"eps0": "abc"}, "'eps0' must be a number"),
            ({"eps0": float("nan")}, "'eps0' must be finite"),
            ({"ratio": None}, "'ratio' must be a number"),
            ({"cutoff": float("inf")}, "'cutoff' must be finite"),
            ({"probe": {"bound": float("nan")}}, "'bound' must be finite"),
            ({"probe": {"points": "x"}}, "points an integer"),
            ({"probe": {"points": 12.5}}, "points an integer"),
            ({"tolerances": {"round_trip": float("nan")}}, "'round_trip' must be finite"),
            ({"tolerances": {"gram_defect": "1e-10"}}, "'gram_defect' must be a number"),
            ({"strict": "no"}, "strict must be true or false"),
            ({"depth": True}, "depth must be an integer"),
            ({"lambda": float("nan")}, "lambda must be finite"),
            ({"lambda": [[0.3, float("inf")]]}, "lambda (im) must be finite"),
            ({"alpha": float("nan")}, "alpha must be finite"),
            ({"alpha": [0.25]}, "alpha: expected a number or [re, im] pair"),
            ({"probe": {"bound": 1e160}}, "probe bound 1e+160 is too large"),
            ({"probe": {"bound": 1.5e308}}, "probe bound 1.5e+308 is too large"),
        ],
    )
    def test_values_checked_before_use(self, tmp_path, capsys, override, message):
        cfg = write_config(tmp_path, **override)
        code = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("command", ["build-sequence", "reduce", "verify"])
    def test_underflowing_epsilon_schedule_exit_one(self, tmp_path, capsys, command):
        # 5e-324 * 0.5 rounds to 0: the first band would be (0, 0]
        cfg = write_config(tmp_path, eps0=5e-324, ratio=0.5)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: eps0 * ratio**k underflows")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "eps0, ratio, bands, code",
        [(1e-320, 0.5, 3, 0), (1e-322, 0.5, 3, 0), (1e-322, 0.5, 4, 1), (5e-324, 0.75, 1, 1)],
    )
    def test_epsilon_schedule_decreases_strictly(self, eps0, ratio, bands, code):
        # band n is eps0 * ratio**(n + 1) < |H - alpha| <= eps0 * ratio**n; at
        # 5e-324 * 0.75 the product rounds back to 5e-324, an empty interval
        config = {**BASE, "eps0": eps0, "ratio": ratio, "bands": bands}
        if code:
            with pytest.raises(ConfigError, match="underflows"):
                parse_config(config)
        else:
            assert parse_config(config).eps0 == eps0

    @pytest.mark.parametrize("bound, code", [(1.5e308, 1), (1e150, 0)])
    def test_probe_bound_the_hermite_values_can_take(self, tmp_path, bound, code):
        # 0.5 * bound**2 overflows from about 1.9e154 on, and the probes'
        # Hermite values with it: such a bound is a config error
        cfg = write_config(tmp_path, probe={"bound": bound})
        out = tmp_path / "o"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "thirdkind.cli", "reduce", "--config", str(cfg)]
        done = subprocess.run(
            [*argv, "--out", str(out)], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == code
        if code:
            assert done.stderr.startswith("config error: probe bound")
            assert done.stderr.count("\n") == 1
            assert "Traceback" not in done.stderr
            assert not out.exists()
        else:
            assert done.stderr == ""
            assert (out / "report_lambda0.json").exists()

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)


class TestBuildSequenceCommand:
    def test_happy_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = main(["build-sequence", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        report = json.loads((tmp_path / "o" / "sequence.json").read_text())
        assert len(report["bands"]) == 3
        for band in report["bands"]:
            assert band["norm_S1"] <= band["epsilon"]
            assert band["norm_S2_sum"] <= 1.0 / band["n"]

    def test_empty_band_exit_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            coefficient={"kind": "constant", "value": 5.0},
            alpha=3.0,
            kernel={"kind": "constant"},
        )
        code = main(["build-sequence", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        report = json.loads((tmp_path / "o" / "sequence.json").read_text())
        assert report["error"]["type"] == "EmptyBand"
        assert report["error"]["band"] == 1

    def test_multiplier_key_exit_one(self, tmp_path, capsys):
        # the Gaussian multiplier is fixed; the key used to be parsed and ignored
        cfg = write_config(tmp_path, multiplier={"kind": "gaussian"})
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reduce", "verify"])
    @pytest.mark.parametrize("size", [2, 100000])
    def test_basis_size_off_the_grid_exit_one(self, tmp_path, capsys, command, size):
        # three bands on the final grid of 64 cells: the size must lie in [3, 64]
        cfg = write_config(tmp_path, basis_size=size)
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: basis_size") and "[3, 64]" in err

    def test_basis_size_not_read_by_build_sequence(self, tmp_path):
        cfg = write_config(tmp_path, basis_size=100000)
        code = main(["build-sequence", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0

    def test_kernel_csv_with_nan_exit_one(self, tmp_path, capsys):
        from thirdkind import MeasureSpace

        c = MeasureSpace(6).centers()
        entries = np.exp(np.outer(c, c))
        entries[3, 5] = np.nan
        write_matrix_csv(tmp_path / "k.csv", entries)
        cfg = write_config(tmp_path, kernel={"kind": "csv", "path": "k.csv"})
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "non-finite" in err

    def test_kernel_csv_odd_row_exit_one(self, tmp_path, capsys):
        (tmp_path / "k.csv").write_text("1.0,0.0,2.0\n")
        cfg = write_config(tmp_path, kernel={"kind": "csv", "path": "k.csv"})
        code = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "re/im pairs" in err

    def test_missing_coefficient_csv_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, coefficient={"kind": "csv", "path": "absent.csv"})
        code = main(["build-sequence", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_config_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"depth": "six"}')
        code = main(["build-sequence", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        [
            {"kernel": {"kind": "exp_xy", "scale": 900}},
            {"coefficient": {"kind": "exp", "scale": 1000}},
            {"kernel": {"kind": "rank_one", "left": {"kind": "exp", "scale": 400},
                        "right": {"kind": "exp", "scale": 400}}},
        ],
    )
    def test_overflowing_builtin_exit_one(self, tmp_path, capsys, override):
        cfg = write_config(tmp_path, **override)
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and "finite" in err
        assert "overflow" not in err  # numpy's RuntimeWarning is not printed

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"kernel": {"kind": "exp_xy", "scal": 2}}, "['scal']"),
            ({"kernel": {"kind": "product_xy", "scale": 3}}, "['scale']"),
            ({"coefficient": {"kind": "identity", "scale": 3}}, "['scale']"),
            ({"coefficient": {"kind": "csv", "path": "h.csv", "scale": 2}}, "['scale']"),
            ({"kernel": {"kind": "rank_one", "left": {"kind": "exp", "offset": 1}}},
             "kernel.left: unknown keys ['offset']"),
            ({"kernel": {"kind": "rank_one", "right": {"kind": "csv", "path": "h.csv"}}},
             "kernel.right: unknown kind 'csv'"),
            ({"kernel": {"kind": "rank_one", "left": 3}}, "kernel.left must be an object"),
            ({"kernel": {"kind": "exp_xy", "scale": "2"}}, "'scale' must be a number"),
        ],
    )
    def test_builtin_keys_validated_per_kind(self, tmp_path, capsys, override, message):
        cfg = write_config(tmp_path, **override)
        code = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "constant", "value": [1.0, 0.5]},
            {"kind": "exp_xy", "scale": 1.0},
            {"kind": "product_xy"},
            {"kind": "rank_one", "left": {"kind": "linear", "scale": 2.0, "offset": 1.0},
             "right": {"kind": "exp", "scale": -1.0}},
            {"kind": "rank_one", "left": {"kind": "constant", "value": 2.0},
             "right": {"kind": "identity"}},
        ],
    )
    def test_every_builtin_key_accepted(self, spec):
        from thirdkind import MeasureSpace
        from thirdkind.config import make_coefficient, make_kernel

        space = MeasureSpace(3)
        K = make_kernel(spec, space)
        assert K.entries.shape == (8, 8)
        if spec["kind"] == "rank_one":
            a = make_coefficient(spec["left"], space).values
            b = make_coefficient(spec["right"], space).values
            np.testing.assert_array_equal(K.entries, np.outer(a, np.conj(b)))

    @pytest.mark.parametrize("value", [2.5, [0.5, -0.25], -0.0])
    def test_rank_one_builtins_sample_bit_for_bit(self, value):
        """constant (value x identity) and product_xy (linear x linear) go
        through the rank-one product and keep the entries of np.full and x y."""
        from thirdkind import MeasureSpace
        from thirdkind.config import make_kernel

        space = MeasureSpace(6)
        x = space.centers()
        fill = complex(*value) if isinstance(value, list) else value
        for spec, expected in (
            ({"kind": "constant", "value": value}, np.full((64, 64), fill)),
            ({"kind": "product_xy"}, x[:, None] * x[None, :]),
        ):
            entries = make_kernel(spec, space).entries
            assert entries.dtype == expected.dtype
            assert entries.tobytes() == expected.tobytes()


class TestReduceCommand:
    def test_outputs_present_and_residual_small(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "red"
        assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
        for name in (
            "a0.csv",
            "a.csv",
            "sequence.json",
            "kernel_lambda0_i0_j0.csv",
            "kernel_lambda0_i1_j0.csv",
            "kernel_lambda0_i0_j1.csv",
            "report_lambda0.json",
        ):
            assert (out / name).exists(), name
        report = json.loads((out / "report_lambda0.json").read_text())
        assert report["passage_residual"] <= 1e-9

    def test_matrices_identical_across_lambda(self, tmp_path):
        cfg1 = write_config(tmp_path, name="c1.json", **{"lambda": 0.3})
        cfg2 = write_config(tmp_path, name="c2.json", **{"lambda": [[1.2, -0.7]]})
        main(["reduce", "--config", str(cfg1), "--out", str(tmp_path / "r1")])
        main(["reduce", "--config", str(cfg2), "--out", str(tmp_path / "r2")])
        for name in ("a0.csv", "a.csv"):
            b1 = (tmp_path / "r1" / name).read_bytes()
            b2 = (tmp_path / "r2" / name).read_bytes()
            assert b1 == b2, f"{name} depends on lambda"

    def test_lambda_sweep_one_report_each(self, tmp_path):
        cfg = write_config(tmp_path, **{"lambda": [[0.1, 0.0], [0.9, 0.2]]})
        out = tmp_path / "sweep"
        assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "report_lambda0.json").exists()
        assert (out / "report_lambda1.json").exists()

    def test_deterministic_outputs(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "d1")])
        main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "d2")])
        for name in ("a0.csv", "a.csv", "report_lambda0.json", "sequence.json"):
            assert (tmp_path / "d1" / name).read_bytes() == (
                tmp_path / "d2" / name
            ).read_bytes()

    def test_strict_projected_exit_three(self, tmp_path, capsys):
        cfg = write_config(tmp_path, basis_size=16, strict=True)
        code = main(["reduce", "--config", str(cfg), "--out", str(tmp_path / "p")])
        assert code == 3
        report = json.loads((tmp_path / "p" / "report_lambda0.json").read_text())
        assert report["projected"] is True
        assert report["passage_residual"] > 1e-9


class TestThreadCountIndependence:
    """Outputs do not depend on the BLAS thread count the process starts
    with: every report runs on one thread, at every size."""

    def run_cli(self, command, cfg, out, threads):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads)}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "thirdkind.cli", command, "--config", str(cfg)]
        done = subprocess.run(
            [*argv, "--out", str(out)], env=env, capture_output=True, timeout=120
        )
        assert done.returncode == 0, done.stderr.decode()

    @pytest.mark.parametrize("command", ["reduce", "verify"])
    def test_outputs_byte_identical_on_one_and_two_threads(self, tmp_path, command):
        cfg = write_config(tmp_path, depth=7, **{"lambda": [[0.3, 0.2], [0.6, -0.15]]})
        self.check_identical(tmp_path, command, cfg)

    def test_reduce_at_the_single_thread_size(self, tmp_path):
        # depth 9 is N = 512, where alpha I + D's values-only SVD runs beside
        # the factorization of D
        cfg = write_config(tmp_path, depth=9, **{"lambda": [[0.39, -0.26]]})
        self.check_identical(tmp_path, "reduce", cfg)

    def test_reduce_at_1024(self, tmp_path):
        # depth 10 is N = 1024, whose SVDs ran on the inherited thread count
        # and whose outputs then differed between one and two threads
        cfg = write_config(tmp_path, depth=10, **{"lambda": [[0.39, -0.26]]})
        self.check_identical(tmp_path, "reduce", cfg)

    def check_identical(self, tmp_path, command, cfg):
        outs = [tmp_path / f"t{threads}" for threads in (1, 2)]
        for threads, out in zip((1, 2), outs):
            self.run_cli(command, cfg, out, threads)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


class TestVerifyCommand:
    def test_demo_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "v"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "verify.json").read_text())
        assert result["passed"] is True

    def test_alpha_zero_has_first_kind_section(self, tmp_path):
        cfg = write_config(tmp_path, alpha=0.0)
        out = tmp_path / "v0"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        result = json.loads((out / "verify.json").read_text())
        names = {c["name"] for c in result["checks"]}
        assert "first_kind_residual" in names
        assert "hs_bound_slack" in names
        assert "first_kind" in result["reports"][0]

    def test_tight_tolerance_exit_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, depth=4, bands=2, eps0=1.0,
            tolerances={"passage_residual": 1e-18, "round_trip": 1e-18},
        )
        out = tmp_path / "tight"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 3
        result = json.loads((out / "verify.json").read_text())
        failing = [c["name"] for c in result["checks"] if not c["passed"]]
        assert failing
        assert "failed checks" in capsys.readouterr().err


def assert_all_finite(out):
    # the JSON writer and the CSVs' %.17g spell a non-finite number so
    for path in sorted(out.iterdir()):
        assert not re.search(r"\b(nan|inf)\b", path.read_text()), path.name


class TestConditionGate:
    """With alpha != 0, a report whose condition is not finite or exceeds
    CONDITION_LIMIT (1e12) stops `reduce` and `verify` with exit 3 and names
    its lambda; with alpha = 0 no report is gated."""

    @pytest.mark.parametrize(
        "command, report", [("reduce", "report.json"), ("verify", "verify.json")]
    )
    def test_over_the_limit_exit_three(self, tmp_path, capsys, command, report):
        cfg = write_config(tmp_path, **{"lambda": [[0.3, 0.0], [1e300, 0.0]]})
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        error = json.loads((out / report).read_text())["error"]
        assert error["type"] == "NearSingular"
        assert error["lambda_index"] == 1 and error["lambda"] == [1e300, 0.0]
        assert error["condition"] == pytest.approx(6.28e18, rel=1e-2)
        assert "at lambda 1" in capsys.readouterr().err
        assert not (out / "report_lambda0.json").exists()
        if command == "reduce":
            # the lambda-free files are written beside the lambda loop, and
            # are complete when the gate stops it: those of lambda 0 alone
            alone = tmp_path / "alone"
            cfg0 = write_config(tmp_path, name="alone.json", **{"lambda": [[0.3, 0.0]]})
            assert main(["reduce", "--config", str(cfg0), "--out", str(alone)]) == 0
            for name in ("sequence.json", "phi.csv", "a0.csv", "a.csv"):
                assert (out / name).read_bytes() == (alone / name).read_bytes(), name

    def test_non_finite_condition_exit_three(self, tmp_path, monkeypatch):
        original = thirdkind.pipeline.verify_equivalence

        def nan_condition(*args, **kwargs):
            report, fact = original(*args, **kwargs)
            return dataclasses.replace(report, condition=float("nan")), fact

        monkeypatch.setattr(thirdkind.pipeline, "verify_equivalence", nan_condition)
        cfg = write_config(tmp_path)
        out = tmp_path / "nan"
        assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 3
        error = json.loads((out / "report.json").read_text())["error"]
        assert error["type"] == "NearSingular" and error["lambda_index"] == 0

    @pytest.mark.parametrize("command", ["reduce", "verify"])
    def test_near_a_characteristic_value_under_the_limit_exit_zero(self, tmp_path, command):
        """lambda = 0.158133 lies 8e-7 from the smallest characteristic value
        at depth 6: condition 1.03e8, under the limit."""
        cfg = write_config(tmp_path, **{"lambda": 0.158133})
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        if command == "reduce":
            report = json.loads((out / "report_lambda0.json").read_text())
        else:
            report = json.loads((out / "verify.json").read_text())["reports"][0]
        assert 1e8 < report["condition"] < 1.1e8

    def test_alpha_zero_not_gated(self, tmp_path):
        cfg = write_config(tmp_path, alpha=0.0, **{"lambda": 1e300})
        out = tmp_path / "alpha0"
        assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0


class TestHugeLambda:
    @pytest.mark.parametrize("alpha", [0.25, 0.0])
    def test_reduce_writes_finite_numbers_without_warnings(self, tmp_path, recwarn, alpha):
        """With lambda = 1e300, A0 - lambda A has entries near 1e300, whose
        squares overflow: the report's norms, and with alpha = 0 the
        first-kind solve's discarded energy, are scaled, so every number
        written is finite and numpy warns of no overflow. With alpha != 0
        the report's condition, 6.3e18, is over CONDITION_LIMIT: `reduce`
        exits 3 with the NearSingular payload, and the report's numbers are
        read from `verify_equivalence` itself."""
        cfg = write_config(tmp_path, alpha=alpha, **{"lambda": 1e300})
        out = tmp_path / "huge"
        code = main(["reduce", "--config", str(cfg), "--out", str(out)])
        if alpha == 0:
            assert code == 0
            report = json.loads((out / "report_lambda0.json").read_text())
        else:
            assert code == 3
            error = json.loads((out / "report.json").read_text())["error"]
            assert error["type"] == "NearSingular" and error["condition"] > 1e18
            config = load_config(cfg)
            seq = thirdkind.pipeline.prepare(config)
            phi = thirdkind.pipeline.random_grid_function(np.random.default_rng(1), seq.space)
            run = thirdkind.solvers.Reduction(
                seq, UnitarySurrogate.from_sequence(seq), probe_grid(), phi
            )
            report = thirdkind.solvers.verify_equivalence(run, 1e300)[0].to_dict()
            assert np.isfinite(report["condition"]) and np.isfinite(report["tail_sup"])
        assert [str(w.message) for w in recwarn] == []
        assert report["passage_residual"] < 1e-12
        assert report["hs_norm"] > 1e299
        assert_all_finite(out)

    def test_first_kind_with_a_huge_kernel_writes_finite_numbers(self, tmp_path, recwarn):
        """exp_xy at scale 709 has entries near 8e307: with alpha = 0 the
        squares of w's norm overflow at an ordinary lambda."""
        kernel = {"kind": "exp_xy", "scale": 709}
        cfg = write_config(tmp_path, alpha=0.0, kernel=kernel, **{"lambda": [0.3, 0.1]})
        out = tmp_path / "huge"
        assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
        assert [str(w.message) for w in recwarn] == []
        report = json.loads((out / "report_lambda0.json").read_text())
        assert 0 <= report["discarded_energy"] < 1e-12
        assert report["first_kind"]["discarded_energy"] == report["discarded_energy"]
        assert_all_finite(out)


class TestRightHandSideOverflow:
    @pytest.mark.parametrize(
        "command, report", [("reduce", "report.json"), ("verify", "verify.json")]
    )
    @pytest.mark.parametrize(
        "overrides",
        [
            {"alpha": 0.0, "kernel": {"kind": "exp_xy", "scale": 709}},
            {"depth": 5, "bands": 2, "kernel": {"kind": "constant", "value": 1e300}},
        ],
        ids=["exp_xy-709-alpha-0", "constant-1e300"],
    )
    def test_exit_three_without_traceback(
        self, tmp_path, capsys, recwarn, command, report, overrides
    ):
        """lambda K phi overflows at lambda = 1e300: the manufactured problem
        cannot be represented, which is a numerical failure, not a crash."""
        cfg = write_config(tmp_path, **overrides, **{"lambda": 1e300})
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert [str(w.message) for w in recwarn] == []
        payload = json.loads((out / report).read_text())
        assert payload["error"]["type"] == "RightHandSideOverflow"
        assert "overflows" in payload["error"]["message"]
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1


class TestLinAlgFailure:
    @pytest.mark.parametrize(
        "command, report", [("reduce", "report.json"), ("verify", "verify.json")]
    )
    def test_svd_failure_exit_three(self, tmp_path, capsys, monkeypatch, command, report):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        # every module of the package that binds an SVD entry point
        for module in (thirdkind.kernels, thirdkind.solvers):
            monkeypatch.setattr(module, "gesdd", no_convergence)
        monkeypatch.setattr(thirdkind.kernels, "gesdd_probes", no_convergence)
        cfg = write_config(tmp_path)
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        payload = json.loads((out / report).read_text())
        assert payload == {
            "error": {"type": "LinAlg", "message": "SVD did not converge"}
        }
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("alpha", [0.25, 0.0])
    def test_route_failure_exit_three(self, tmp_path, capsys, monkeypatch, alpha):
        """Only D's probe route fails, on a NaN entry of D: with alpha != 0
        alpha I + D's values on the lane succeed beside it. The report exits
        3 with the LinAlg payload and leaves no thread of the package."""
        original = thirdkind.kernels.gesdd_probes

        def nan_entry(a, values):
            a[1, 0] = np.nan
            return original(a, values)

        monkeypatch.setattr(thirdkind.kernels, "gesdd_probes", nan_entry)
        cfg = write_config(tmp_path, alpha=alpha)
        out = tmp_path / "reduce"
        assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 3
        assert not [t for t in threading.enumerate() if t.name.startswith("thirdkind-")]
        payload = json.loads((out / "report.json").read_text())
        assert payload == {"error": {"type": "LinAlg", "message": "SVD did not converge"}}
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error, kind",
        [
            (np.linalg.LinAlgError("SVD did not converge"), "LinAlg"),
            (MemoryError("out of memory"), "Memory"),
        ],
    )
    def test_lane_failure_exit_three(self, tmp_path, capsys, monkeypatch, error, kind):
        """alpha I + D's values-only SVD fails on its own thread: the report
        still ends with both SVDs finished and that thread gone."""
        original = thirdkind.solvers.gesdd

        def values_fail(a, *, vectors):
            if not vectors:
                raise error
            return original(a, vectors=vectors)

        monkeypatch.setattr(thirdkind.solvers, "gesdd", values_fail)
        cfg = write_config(tmp_path)
        out = tmp_path / "verify"
        before = threading.active_count()
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 3
        assert threading.active_count() == before
        payload = json.loads((out / "verify.json").read_text())
        assert payload == {"error": {"type": kind, "message": str(error)}}
        assert "Traceback" not in capsys.readouterr().err


def numpy_allocation_error():
    """The MemoryError subclass numpy raises when an array cannot be
    allocated (named _ArrayMemoryError), built without allocating."""
    exceptions = pytest.importorskip("numpy._core._exceptions")
    return exceptions._ArrayMemoryError((2**31, 2**31), np.dtype(np.float64))


class TestMemoryFailure:
    """A failed allocation exits 3 with a "Memory" payload, not a traceback."""

    @pytest.mark.parametrize(
        "command, target, report",
        [
            ("build-sequence", "prepare", "sequence.json"),
            ("reduce", "run_reduction", "report.json"),
            ("verify", "run_verification", "verify.json"),
        ],
    )
    @pytest.mark.parametrize("error", ["plain", "numpy"])
    def test_exit_three_with_payload(
        self, tmp_path, capsys, monkeypatch, command, target, report, error
    ):
        exc = MemoryError("out of memory") if error == "plain" else numpy_allocation_error()

        def fail(config, *write):
            raise exc

        monkeypatch.setattr(thirdkind.cli, target, fail)
        cfg = write_config(tmp_path)
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        payload = json.loads((out / report).read_text())
        assert payload == {"error": {"type": "Memory", "message": str(exc)}}
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err


class TestFailurePayloads:
    """Every failure after the output directory exists writes its JSON."""

    REPORTS = [
        ("build-sequence", "sequence.json"),
        ("reduce", "report.json"),
        ("verify", "verify.json"),
    ]

    @pytest.mark.filterwarnings("error")  # numpy's overflow warnings stay silent
    @pytest.mark.parametrize("command, report", REPORTS)
    @pytest.mark.parametrize(
        "kernel",
        [
            # a rounding residue of the cancelling sums overflows the norm
            {"kind": "constant", "value": 1e306},
            # ||K R|| itself is about 1e299, so its squares overflow
            {"kind": "rank_one", "left": {"kind": "constant", "value": 1e300},
             "right": {"kind": "linear"}},
        ],
    )
    def test_overflowing_kernel_image_exit_two(
        self, tmp_path, capsys, command, report, kernel
    ):
        cfg = write_config(tmp_path, kernel=kernel)
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        payload = json.loads((out / report).read_text())["error"]
        assert payload["type"] == "ToleranceUnreachable"
        assert payload["achieved"] == "inf"
        assert payload["message"].startswith("the kernel image overflows at depth 6")
        err = capsys.readouterr().err
        assert err == f"construction failed: {payload['message']}\n"

    @pytest.mark.parametrize("command, report", REPORTS)
    def test_config_error_writes_payload(self, tmp_path, capsys, command, report):
        cfg = write_config(tmp_path, kernel={"kind": "csv", "path": "absent.csv"})
        out = tmp_path / command
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        payload = json.loads((out / report).read_text())
        assert set(payload) == {"error"}
        assert payload["error"]["type"] == "Config"
        assert "cannot read" in payload["error"]["message"]
        err = capsys.readouterr().err
        assert err == f"config error: {payload['error']['message']}\n"

    @pytest.mark.parametrize("command, report", REPORTS)
    @pytest.mark.parametrize("target", ["afile", "afile/sub"])
    def test_unusable_out_exit_one(self, tmp_path, capsys, command, report, target):
        # an existing file, or a path through one, cannot be the output
        # directory; no directory exists, so no JSON is written either
        cfg = write_config(tmp_path)
        (tmp_path / "afile").write_text("kept")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot use") and err.count("\n") == 1
        assert "Traceback" not in err
        assert (tmp_path / "afile").read_text() == "kept"
        assert not list(tmp_path.glob(f"**/{report}"))


    @pytest.mark.parametrize(
        "command, blocked, report, how",
        [
            ("build-sequence", "sequence.json", "sequence.json", "directory"),
            # a0.csv and a.csv are written on the writer thread, beside the
            # lambda loop
            ("reduce", "a0.csv", "report.json", "directory"),
            ("reduce", "a.csv", "report.json", "full disk"),
            ("reduce", "report_lambda0.json", "report.json", "directory"),
            ("verify", "verify.json", "verify.json", "directory"),
        ],
    )
    def test_unwritable_output_exit_one(self, tmp_path, capsys, command, blocked, report, how):
        """An output that cannot be written (a directory in its place, or a
        full disk: /dev/full) exits 1 with one stderr line naming it, and the
        command's error JSON when that file can still be written."""
        cfg = write_config(tmp_path)
        out = tmp_path / command
        out.mkdir()
        if how == "directory":
            (out / blocked).mkdir()
        elif os.path.exists("/dev/full"):
            (out / blocked).symlink_to("/dev/full")
        else:
            pytest.skip("no /dev/full")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot write output: ") and err.count("\n") == 1
        assert str(out / blocked) in err
        if blocked != report:
            error = json.loads((out / report).read_text())["error"]
            assert error["type"] == "Output" and error["path"] == str(out / blocked)
        else:
            assert not list((out / report).iterdir())


class TestSerialization:
    def test_matrix_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(81)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        np.testing.assert_array_equal(read_matrix_csv(path), m)

    def test_grid_function_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(82)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        path = tmp_path / "f.csv"
        write_grid_function_csv(path, v)
        np.testing.assert_array_equal(read_grid_function_csv(path), v)

    def test_json_floats_round_trip(self):
        values = [1.0 / 3.0, 2.0**-52, 1e300, -0.0, 6.02e23]
        text = dump_json({"xs": values})
        parsed = json.loads(text)
        assert parsed["xs"] == values

    def test_json_handles_nonfinite(self):
        text = dump_json({"c": float("inf"), "n": float("nan")})
        parsed = json.loads(text)
        assert parsed["c"] == "inf"
        assert parsed["n"] == "nan"

    def test_csv_coefficient_input(self, tmp_path):
        # a coefficient supplied as a file reproduces the sampled built-in
        from thirdkind import GridFunction, MeasureSpace
        from thirdkind.config import make_coefficient

        space = MeasureSpace(4)
        direct = GridFunction.sample(space, lambda y: y)
        path = tmp_path / "h.csv"
        write_grid_function_csv(path, direct.values)
        loaded = make_coefficient({"kind": "csv", "path": str(path)}, space)
        np.testing.assert_array_equal(loaded.values, direct.values)

    def test_csv_kernel_input(self, tmp_path):
        from thirdkind import GridKernel, MeasureSpace
        from thirdkind.config import make_kernel

        space = MeasureSpace(3)
        c = space.centers()
        direct = GridKernel(space, np.exp(np.outer(c, c)))
        path = tmp_path / "k.csv"
        write_matrix_csv(path, direct.entries)
        loaded = make_kernel({"kind": "csv", "path": str(path)}, space)
        np.testing.assert_array_equal(loaded.entries, direct.entries)

    def test_reduce_exports_solution(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sol"
        assert main(["reduce", "--config", str(cfg), "--out", str(out)]) == 0
        phi = read_grid_function_csv(out / "phi.csv")
        assert phi.size == 64

    def test_relative_csv_path_resolved_against_config(self, tmp_path):
        from thirdkind import GridFunction, MeasureSpace
        from thirdkind.config import make_coefficient

        space = MeasureSpace(4)
        direct = GridFunction.sample(space, lambda y: 2.0 * y)
        write_grid_function_csv(tmp_path / "h.csv", direct.values)
        cfg_path = write_config(
            tmp_path, coefficient={"kind": "csv", "path": "h.csv"}
        )
        cfg = load_config(cfg_path)
        loaded = make_coefficient(cfg.coefficient, space)
        np.testing.assert_array_equal(loaded.values, direct.values)


def _libc_has_mallopt():
    import ctypes

    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


# in a child: main's allocator policy, then a 16 MiB array made and freed
# twice, printing the resident bytes each free left behind
_FREED_TWICE = """
import os, sys
import numpy as np
from thirdkind.cli import main

main(["verify", "--config", os.devnull])  # a config error, after the policy
page = os.sysconf("SC_PAGE_SIZE")

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * page

for _ in range(2):
    before = resident()
    block = np.ones(2 << 20)
    del block
    print(resident() - before)
"""


@pytest.mark.skipif(
    not (_libc_has_mallopt() and os.path.exists("/proc/self/statm")),
    reason="needs glibc's mallopt and /proc/self/statm",
)
def test_freed_arrays_leave_the_resident_set():
    """After `main` fixes the mmap threshold, freeing a 16 MiB array returns
    its pages every time. With glibc's dynamic threshold the second one came
    from the heap and stayed resident (16 MiB above the first)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _FREED_TWICE], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    left = [int(line) for line in done.stdout.split()]
    assert len(left) == 2
    assert all(abs(b) <= 1 << 20 for b in left), left
