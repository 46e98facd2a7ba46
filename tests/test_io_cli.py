"""JSON file format and the command-line front end."""

import argparse
import json

import numpy as np
import pytest

from dualgi import (DualMatrix, DualVector, dcepgi, dcepgi_bruteforce_oracle,
                    dcepgi_compact, ddgi, dual_core_ep_decompose)
from dualgi.cli import (EXIT_HYPOTHESIS, EXIT_NOT_EXIST, EXIT_NUMERICAL,
                        EXIT_OK, EXIT_USAGE, main)
from dualgi.errors import DimensionError, DualgiError, NumericalError
from dualgi.io import (dual_vector_to_dict, read_dual_matrix,
                       read_dual_vector, write_dual_matrix)
from helpers import (Frame, existing_dual, existing_dual_b3, random_dual,
                     random_dual_vector, random_frame)

RNG = np.random.default_rng(20240823)


def write_vector(path, vh, name=""):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dual_vector_to_dict(vh, name), fh)


@pytest.fixture
def existing_file(tmp_path):
    f = random_frame(RNG)
    ah = existing_dual(RNG, f)
    path = tmp_path / "existing.json"
    write_dual_matrix(path, ah, name="existing")
    return str(path), ah


@pytest.fixture
def nonexisting_file(tmp_path):
    f = random_frame(RNG)
    ah = random_dual(RNG, f)
    path = tmp_path / "nonexisting.json"
    write_dual_matrix(path, ah, name="nonexisting")
    return str(path), ah


class TestIO:
    def test_matrix_roundtrip(self, tmp_path):
        f = random_frame(RNG)
        ah = random_dual(RNG, f)
        path = tmp_path / "m.json"
        write_dual_matrix(path, ah, name="m")
        name, back = read_dual_matrix(path)
        assert name == "m"
        assert (back - ah).norm() == 0.0

    def test_vector_roundtrip(self, tmp_path):
        vh = random_dual_vector(RNG, 5)
        path = tmp_path / "v.json"
        write_vector(path, vh, name="v")
        name, back = read_dual_vector(path)
        assert name == "v"
        assert (back - vh).norm() == 0.0

    def test_missing_part_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2,
                                    "standard": [[1, 0], [0, 1]]}))
        with pytest.raises(ValueError):
            read_dual_matrix(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2,
                                    "standard": [[1, 0], [0, 1]],
                                    "infinitesimal": [[1, 0, 0], [0, 1, 0]]}))
        with pytest.raises(DimensionError):
            read_dual_matrix(path)

    @pytest.mark.parametrize("rows, cols", [
        (2.9, True), (2.0, 2), (True, 2), (2, "2")],
        ids=["float-bool", "float", "bool", "string"])
    def test_non_integer_shape_rejected(self, rows, cols, tmp_path, capsys):
        # int() would truncate each of these to a shape the arrays have
        shape = (int(rows), int(cols))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "rows": rows, "cols": cols, "standard": np.eye(*shape).tolist(),
            "infinitesimal": np.zeros(shape).tolist()}))
        with pytest.raises(ValueError, match="must be integers"):
            read_dual_matrix(path)
        assert main(["inverse", "--kind", "mpdgi", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")


class TestCLIExitCodes:
    def test_inverse_exists(self, existing_file, capsys):
        path, ah = existing_file
        assert main(["inverse", "--kind", "cep", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["exists"] is True
        got = DualMatrix(np.array(report["result"]["standard"]),
                         np.array(report["result"]["infinitesimal"]))
        assert (got - dcepgi(ah)).norm() < 1e-9
        assert report["certificate"]["exists"] is True

    def test_inverse_not_exists(self, nonexisting_file, capsys):
        path, _ = nonexisting_file
        assert main(["inverse", "--kind", "cep", path]) == EXIT_NOT_EXIST
        report = json.loads(capsys.readouterr().out)
        assert report["exists"] is False
        assert report["certificate"]["exists"] is False

    def test_usage_error_on_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["inverse", "--kind", "cep", missing]) == EXIT_USAGE

    def test_usage_error_on_bad_args(self):
        assert main(["inverse", "--kind", "bogus", "x.json"]) == EXIT_USAGE
        assert main(["no-such-command"]) == EXIT_USAGE

    @pytest.mark.parametrize("doc", [
        [1, 2],
        {"rows": None, "cols": 2, "standard": [[1, 0], [0, 1]],
         "infinitesimal": [[0, 0], [0, 0]]}])
    def test_usage_error_on_malformed_json(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["inverse", "--kind", "cep", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_seed_only_on_solve(self, existing_file, capsys):
        path, _ = existing_file
        assert main(["inverse", "--kind", "cep", "--seed", "1",
                     path]) == EXIT_USAGE
        assert main(["decompose", "--seed", "1", path]) == EXIT_USAGE

    def test_hypothesis_exit(self, tmp_path, capsys):
        for _ in range(10):
            ah = existing_dual_b3(RNG, random_frame(RNG))
            if ah is None:
                continue
            mat = tmp_path / "m.json"
            rhs = tmp_path / "b.json"
            write_dual_matrix(mat, ah)
            write_vector(rhs, random_dual_vector(RNG, ah.shape[0]))
            code = main(["solve", str(mat), str(rhs),
                         "--mode", "unique-in-range"])
            if code == EXIT_HYPOTHESIS:
                return
        pytest.skip("no hypothesis violation drawn")


class TestCLICommands:
    def test_decompose(self, existing_file, capsys):
        path, ah = existing_file
        assert main(["decompose", path]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["reconstruction_residual"] < 1e-9
        assert report["dcepgi_certificate"]["exists"] is True
        assert "core_part" in report

    def test_solve_general(self, existing_file, tmp_path, capsys):
        path, ah = existing_file
        rhs = tmp_path / "b.json"
        write_vector(rhs, random_dual_vector(RNG, ah.shape[0]))
        assert main(["solve", path, str(rhs), "--spot-checks", "3"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["residual"] < 1e-9
        assert all(r < 1e-8 for r in report["spot_check_residuals"])

    @pytest.mark.parametrize("c", [1e-8, 1e8])
    def test_solve_spot_checks_scale_free(self, tmp_path, capsys, c):
        # the shifts yhat are not scaled with A and B: their roundoff in
        # Ahat^(m+1) xh is not small against the right-hand side alone
        f = random_frame(RNG)
        ah = existing_dual(RNG, f)
        path, rhs = tmp_path / "a.json", tmp_path / "b.json"
        write_dual_matrix(path, DualMatrix(c * ah.std, c * ah.inf))
        write_vector(rhs, random_dual_vector(RNG, f.n))
        assert main(["solve", str(path), str(rhs),
                     "--spot-checks", "5"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert max(report["spot_check_residuals"]) <= 1e-10

    def test_output_file(self, existing_file, tmp_path, capsys):
        path, _ = existing_file
        out = tmp_path / "report.json"
        assert main(["inverse", "--kind", "dmpgi", path,
                     "--output", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert json.loads(out.read_text())["exists"] is True

    def test_tol_env_override(self, nonexisting_file, capsys, monkeypatch):
        path, _ = nonexisting_file
        # an absurdly loose tolerance turns nonexistence into existence
        monkeypatch.setenv("DUALGI_TOL", "1e6")
        assert main(["inverse", "--kind", "cep", path]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setenv("DUALGI_TOL", "not-a-number")
        assert main(["inverse", "--kind", "cep", path]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "invalid DUALGI_TOL value: 'not-a-number'" in captured.err
        assert captured.out == ""

    def test_tol_flag_beats_env(self, nonexisting_file, capsys, monkeypatch):
        path, _ = nonexisting_file
        monkeypatch.setenv("DUALGI_TOL", "1e6")
        assert main(["inverse", "--kind", "cep", path,
                     "--tol", "1e-10"]) == EXIT_NOT_EXIST
        capsys.readouterr()

    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf"])
    def test_invalid_tol_rejected(self, tol, existing_file, capsys,
                                  monkeypatch):
        # the input has the DCEPGI: nan, 0 and -1 would report it
        # missing and inf would accept any input, so each is a usage error
        path, _ = existing_file
        assert main(["inverse", "--kind", "cep", path,
                     "--tol", tol]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "tolerance must be a finite number > 0" in err
        monkeypatch.setenv("DUALGI_TOL", tol)
        assert main(["inverse", "--kind", "cep", path]) == EXIT_USAGE
        assert "invalid DUALGI_TOL value" in capsys.readouterr().err

    def test_parser_built_once(self, existing_file, capsys, monkeypatch):
        progs = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        path, _ = existing_file
        for _ in range(2):
            assert main(["inverse", "--kind", "mpdgi", path]) == EXIT_OK
        capsys.readouterr()
        assert progs.count("dualgi") <= 1

    def test_all_inverse_kinds_run(self, existing_file, capsys):
        path, ah = existing_file
        for kind in ("mpdgi", "dmpgi", "ddgi", "cep", "cep-compact"):
            code = main(["inverse", "--kind", kind, path])
            capsys.readouterr()
            assert code in (EXIT_OK, EXIT_NOT_EXIST)

    def test_negative_spot_checks_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        f = Frame(rng, 5, 2, 2)
        mat, rhs = tmp_path / "m.json", tmp_path / "b.json"
        write_dual_matrix(mat, existing_dual(rng, f))
        write_vector(rhs, random_dual_vector(rng, f.n))
        argv = ["solve", str(mat), str(rhs), "--spot-checks"]
        assert main(argv + ["-3"]) == EXIT_USAGE
        assert "count must be an integer >= 0" in capsys.readouterr().err
        assert main(argv + ["0"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)[
            "spot_check_residuals"] == []


class TestCLIReportForm:
    def test_report_is_one_line(self, existing_file, tmp_path, capsys):
        path, _ = existing_file
        out = tmp_path / "report.json"
        assert main(["inverse", "--kind", "cep", path,
                     "--output", str(out)]) == EXIT_OK
        text = capsys.readouterr().out
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text)["exists"] is True
        assert out.read_text() == text

    def test_error_report_is_one_line(self, nonexisting_file, tmp_path,
                                      capsys):
        # the solver's InverseNotExistError is reported by ``main``
        path, ah = nonexisting_file
        rhs = tmp_path / "b.json"
        write_vector(rhs, random_dual_vector(RNG, ah.shape[0]))
        assert main(["solve", path, str(rhs)]) == EXIT_NOT_EXIST
        text = capsys.readouterr().out
        assert text.count("\n") == 1
        assert json.loads(text)["exists"] is False


class TestNumericalFailure:
    @staticmethod
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    def test_svd_failure_is_typed(self, existing_file, monkeypatch):
        _, ah = existing_file
        monkeypatch.setattr(np.linalg, "svd", self.failing)
        with pytest.raises(NumericalError) as info:
            dcepgi(ah)
        assert isinstance(info.value, DualgiError)
        assert not isinstance(info.value, ValueError)

    def test_inverse_failure_is_typed(self, existing_file, monkeypatch):
        # the inverse of T1, which every witness and U3 read
        _, ah = existing_file
        monkeypatch.setattr(np.linalg, "inv", self.failing)
        for fn in (dcepgi, ddgi, dual_core_ep_decompose):
            with pytest.raises(NumericalError):
                fn(ah)

    def test_power_pinv_failure_is_typed(self, existing_file, monkeypatch):
        # (A^m)^+ of the compact formula, by QR and a triangular solve
        _, ah = existing_file
        for routine in ("qr", "solve"):
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, routine, self.failing)
                with pytest.raises(NumericalError):
                    dcepgi_compact(ah)

    @pytest.mark.parametrize("routine", ["svd", "inv"])
    def test_cli_exit_code(self, routine, existing_file, monkeypatch,
                           capsys):
        # a LAPACK failure arrives as NumericalError, exit status 4
        path, _ = existing_file
        monkeypatch.setattr(np.linalg, routine, self.failing)
        assert main(["inverse", "--kind", "cep", path]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_least_squares_failure_is_typed(self, existing_file, monkeypatch):
        # the oracle's vectorized system
        _, ah = existing_file
        monkeypatch.setattr(np.linalg, "lstsq", self.failing)
        with pytest.raises(NumericalError):
            dcepgi_bruteforce_oracle(ah)
