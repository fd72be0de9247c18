"""End-to-end checks of the experiment drivers, run in process."""
import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize

import linevidence
from linevidence import (
    ConsistencyError,
    DegenerateFitWarning,
    EvidenceReport,
    GaussianBelief,
    _claims,
    cli,
    gaussian_prior,
    improper_prior,
    oracles,
)
from linevidence.cli import main


def read_table(path):
    """Split a metadata-headed CSV into (meta dict, header, data rows)."""
    meta = {}
    body = []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif line:
            body.append(line)
    rows = list(csv.reader(body))
    return meta, rows[0], rows[1:]


class TestTable2:
    def test_values_and_metadata(self, tmp_path):
        with pytest.warns(DegenerateFitWarning) as record:
            code = main(["table2", "--out", str(tmp_path)])
        assert code == 0
        degenerate = [str(w.message) for w in record if w.category is DegenerateFitWarning]
        assert len(degenerate) == 1 and degenerate[0].startswith("c=0:")
        meta, header, rows = read_table(tmp_path / "table2.csv")
        assert meta["experiment"] == "table2"
        assert meta["seed"] == "none"
        assert header == ["c", "sigma2_ml", "sigma2_area"]
        table = {int(r[0]): (float(r[1]), float(r[2])) for r in rows}
        assert sorted(table) == [0, 1, 2, 3]
        for c in range(4):
            assert table[c][0] == float(c * c)
        assert table[0][1] == pytest.approx(0.0, abs=1e-2)
        assert table[1][1] == pytest.approx(2.0, abs=1e-2)
        assert table[2][1] == pytest.approx(8.0, abs=1e-2)
        assert table[3][1] == pytest.approx(18.0, abs=1e-2)

    def test_json_format(self, tmp_path):
        with pytest.warns(DegenerateFitWarning):
            assert main(["table2", "--out", str(tmp_path), "--format", "json"]) == 0
        payload = json.loads((tmp_path / "table2.json").read_text())
        assert payload["columns"] == ["c", "sigma2_ml", "sigma2_area"]
        assert len(payload["rows"]) == 4
        assert payload["meta"]["experiment"] == "table2"


class TestAsymptote:
    def test_columns_and_tail(self, tmp_path):
        assert main(["asymptote", "--out", str(tmp_path)]) == 0
        meta, header, rows = read_table(tmp_path / "asymptote.csv")
        assert header == [
            "sigma_p", "sigma_p2", "log_Z", "part1", "part2",
            "log_S", "log_Z_alt", "log_Z_diff",
        ]
        assert len(rows) == 141
        values = np.array([[float(v) for v in row] for row in rows])
        # the evidence keeps falling as the prior widens while the area is flat
        tail = values[values[:, 0] >= 10.0]
        assert np.all(np.diff(tail[:, 2]) < 0)
        assert np.unique(values[:, 5]).size == 1
        assert tail[-1, 2] < tail[-1, 5] - 10.0
        # the two noise levels settle to a constant evidence gap
        diffs = tail[:, 7]
        assert abs(diffs[-1] - diffs[-2]) < 1e-3

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["asymptote", "--out", str(a)]) == 0
        assert main(["asymptote", "--out", str(b)]) == 0
        assert (a / "asymptote.csv").read_bytes() == (b / "asymptote.csv").read_bytes()


class TestExample2:
    def test_replicates_and_summary(self, tmp_path):
        code = main(["example2", "--runs", "3", "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        meta, header, rows = read_table(tmp_path / "example2_replicates.csv")
        assert meta["runs"] == "3"
        assert meta["seed"] == "7"
        assert header == ["rep", "alpha1_hat", "alpha2_hat", "theta1_hat", "theta2_hat"]
        assert [r[0] for r in rows] == ["0", "1", "2"]
        for row in rows:
            # centers stay ordered and inside the search box
            lo, hi = float(row[1]), float(row[2])
            assert -10.0 <= lo < hi <= 10.0
        _, sum_header, sum_rows = read_table(tmp_path / "example2_summary.csv")
        summary = dict(zip(sum_header, sum_rows[0]))
        assert float(summary["mse_theta"]) >= 0.0
        assert len(json.loads(summary["alpha_var"])) == 2

    def test_rerun_and_jobs_are_byte_identical(self, tmp_path):
        dirs = [tmp_path / name for name in ("a", "b", "c")]
        args = ["example2", "--runs", "3", "--seed", "11"]
        assert main(args + ["--out", str(dirs[0])]) == 0
        assert main(args + ["--out", str(dirs[1])]) == 0
        assert main(args + ["--out", str(dirs[2]), "--jobs", "2"]) == 0
        reference = (dirs[0] / "example2_replicates.csv").read_bytes()
        assert (dirs[1] / "example2_replicates.csv").read_bytes() == reference
        assert (dirs[2] / "example2_replicates.csv").read_bytes() == reference
        sum_ref = (dirs[0] / "example2_summary.csv").read_bytes()
        assert (dirs[2] / "example2_summary.csv").read_bytes() == sum_ref

    def test_refine_converges_before_its_cap(self, monkeypatch):
        # log S is resolved only to ~1e-7 on this study; a score tolerance
        # below that lets the simplex shrink onto rounding noise until the
        # 400-evaluation cap (replicate 5 still reaches it at fatol = 1e-7)
        minimize = scipy.optimize.minimize
        refines = []

        def recorded(*args, **kwargs):
            result = minimize(*args, **kwargs)
            refines.append((kwargs["options"], result))
            return result

        monkeypatch.setattr(scipy.optimize, "minimize", recorded)
        for rep in range(30):
            cli._example2_replicate((20250811, rep))
        assert len(refines) == 30
        capped = [
            (rep, result.status, result.nfev)
            for rep, (_, result) in enumerate(refines)
            if result.status != 0 or result.nfev >= 400
        ]
        assert capped == []
        for options, _ in refines:
            assert options["fatol"] == options["xatol"] == 1e-6


def verify_one(monkeypatch, tmp_path, claim):
    """Exit code of verify on ``claim`` alone, and its checks' verdicts by measurement."""
    monkeypatch.setattr(cli, "_CHECKS", [entry for entry in cli._CHECKS if entry[0] is claim])
    code = main(["verify", "--out", str(tmp_path)])
    checks = json.loads((tmp_path / "verify_report.json").read_text())["checks"]
    return code, {c["name"].partition(".")[2]: c["passed"] for c in checks}


class TestVerify:
    # two full runs: the shared verify_run and one rerun; each planted fault
    # runs verify on the one claim it targets

    def test_all_checks_pass(self, verify_run):
        code, path = verify_run
        report = json.loads(path.read_text())
        assert code == 0
        assert report["passed"] is True
        assert report["meta"]["seed"] == 20250811
        claims = {claim.__name__ for claim, _, _ in cli._CHECKS}
        assert {c["name"].partition(".")[0] for c in report["checks"]} == claims
        assert all(c["passed"] for c in report["checks"])

    def test_rerun_is_identical(self, verify_run, tmp_path):
        assert main(["verify", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "verify_report.json").read_bytes() == verify_run[1].read_bytes()

    def test_degenerate_fits_are_recorded_and_other_warnings_surface(self, tmp_path, monkeypatch):
        def warning_claim():
            warnings.warn("c=0: expected", DegenerateFitWarning)
            warnings.warn("unexpected", UserWarning)
            return {"gap": 0.0}

        monkeypatch.setattr(cli, "_CHECKS", [(warning_claim, None, {"gap": ("<=", 1.0)})])
        with pytest.warns(UserWarning, match="unexpected") as record:
            assert main(["verify", "--out", str(tmp_path)]) == 0
        assert [w.category for w in record] == [UserWarning]
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["warnings"] == [
            {"claim": "warning_claim", "category": "DegenerateFitWarning", "message": "c=0: expected"}
        ]

    def test_corrupted_noise_is_caught(self, tmp_path, monkeypatch):
        closed_form = improper_prior.log_area_under_likelihood

        def doubled_noise(y, design, sigma_e2):
            return closed_form(y, design, 2.0 * sigma_e2)

        monkeypatch.setattr(improper_prior, "log_area_under_likelihood", doubled_noise)
        code, passed = verify_one(monkeypatch, tmp_path, _claims.area_vs_quadrature)
        assert (code, passed) == (1, {"worst_rel_gap": False})

    def test_shifted_evidence_is_caught(self, tmp_path, monkeypatch):
        closed_form = gaussian_prior.log_marginal_likelihood

        def shifted(*args):
            z = closed_form(*args)
            return EvidenceReport.from_terms(z.fitting_term - 1.0, z.penalty_term, z.constant_term)

        monkeypatch.setattr(gaussian_prior, "log_marginal_likelihood", shifted)
        code, passed = verify_one(monkeypatch, tmp_path, _claims.evidence_vs_monte_carlo)
        assert (code, passed) == (1, {"worst_se_multiple": False})

    def test_perturbed_posterior_mean_is_caught(self, tmp_path, monkeypatch):
        posterior = gaussian_prior.posterior_coefficients

        def perturbed(*args):
            belief = posterior(*args)
            return GaussianBelief(mean=belief.mean * (1.0 + 1e-8), cov=belief.cov)

        monkeypatch.setattr(gaussian_prior, "posterior_coefficients", perturbed)
        code, passed = verify_one(monkeypatch, tmp_path, _claims.algebraic_identities)
        assert code == 1
        assert passed == {"route_gap": False, "energy_gap": True, "shift_gap": True, "orth_gap": True}

    def test_raising_claim_fails_its_checks(self, tmp_path, monkeypatch):
        def broken(*args):
            raise ConsistencyError("planted")

        monkeypatch.setattr(oracles, "quadrature_log_area", broken)
        code, passed = verify_one(monkeypatch, tmp_path, _claims.area_vs_quadrature)
        assert (code, passed) == (1, {"worst_rel_gap": False})
        check = json.loads((tmp_path / "verify_report.json").read_text())["checks"][0]
        assert check["measured"] == "ConsistencyError: planted"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["linetable"],
            ["example2", "--runs", "3"],
            ["example2", "--seed", "1"],
            ["example2", "--runs", "0", "--seed", "1"],
            ["example2", "--runs", "2", "--seed", "1", "--jobs", "0"],
            ["table2", "--format", "xml"],
            ["example2", "--runs", "1", "--seed", "1"],
            ["example2", "--runs", "2.5", "--seed", "1"],
            ["example2", "--runs", "2", "--seed", "1", "--jobs", "-1"],
        ],
    )
    def test_exit_code_2(self, argv, tmp_path):
        if argv and argv[0] in ("example2", "table2"):
            argv = argv + ["--out", str(tmp_path)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_module_entry_point(tmp_path):
    # the child process must import the same package as this test, which
    # pytest may have put on sys.path without exporting PYTHONPATH
    src = str(Path(linevidence.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "linevidence", "table2", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert (tmp_path / "table2.csv").exists()
    assert "sigma2_area" in proc.stdout
