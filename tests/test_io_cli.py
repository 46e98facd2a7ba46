"""JSON file format and the command-line front end."""

import argparse
import hashlib
import json
import pathlib

import numpy as np
import pytest

import dualgi
from dualgi import (DualMatrix, DualVector, dcepgi, dcepgi_compact, ddgi,
                    dual_core_ep_decompose)
from dualgi.cli import (EXIT_HYPOTHESIS, EXIT_NOT_EXIST, EXIT_NUMERICAL,
                        EXIT_OK, EXIT_USAGE, main)
from dualgi.errors import DimensionError, DualgiError, NumericalError
from dualgi.io import (dual_vector_to_dict, read_dual_matrix,
                       read_dual_vector, write_dual_matrix)
from helpers import (Frame, existing_dual, existing_dual_b3, random_dual,
                     random_dual_vector, random_frame)

RNG = np.random.default_rng(20240823)

# the generator of each kind of input: the DCEPGI exists, does not, or
# exists without its first-order form (the hypothesis of unique-in-range)
GENERATORS = {"exists": existing_dual, "not-exist": random_dual,
              "hypothesis-fails": existing_dual_b3}


def write_vector(path, vh, name=""):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dual_vector_to_dict(vh, name), fh)


def write_input(tmp_path, kind):
    """The paths of a 5 x 5 index-2 matrix of ``kind`` (a key of
    ``GENERATORS``) and a right-hand side, drawn from seed 0."""
    rng = np.random.default_rng(0)
    mat, rhs = tmp_path / "m.json", tmp_path / "b.json"
    write_dual_matrix(mat, GENERATORS[kind](rng, Frame(rng, 5, 2, 2)))
    write_vector(rhs, random_dual_vector(rng, 5))
    return str(mat), str(rhs)


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

    def test_missing_rows_rejected(self, tmp_path, capsys):
        # named as a missing 'cols' is, not a bare KeyError
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"cols": 2, "standard": [1, 0, 0, 1],
                                    "infinitesimal": [0, 0, 0, 0]}))
        with pytest.raises(ValueError) as info:
            read_dual_matrix(path)
        assert str(info.value) == ("'rows' and 'cols' must be integers "
                                   ">= 0, got None")
        assert main(["inverse", "--kind", "cep", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {info.value}\n"

    @pytest.mark.parametrize("key", ["standard", "infinitesimal"])
    def test_flat_part_of_wrong_length_rejected(self, key, tmp_path,
                                                capsys):
        # as a 2-D part of the wrong shape is, not by NumPy's reshape
        doc = {"rows": 2, "cols": 2, "standard": [1, 0, 0, 1],
               "infinitesimal": [0, 0, 0, 0]}
        doc[key] = [1, 2, 3]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        message = f"'{key}' has shape (3,), declared (2, 2)"
        with pytest.raises(DimensionError) as info:
            read_dual_matrix(path)
        assert str(info.value) == message
        assert main(["inverse", "--kind", "cep", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("rows, cols", [
        (2.9, True), (2.0, 2), (True, 2), (2, "2"), (-1, -1)],
        ids=["float-bool", "float", "bool", "string", "negative"])
    def test_non_integer_shape_rejected(self, rows, cols, tmp_path, capsys):
        # int() would truncate each of these to a shape the arrays have;
        # a negative one would reach reshape, with NumPy's message
        shape = (max(int(rows), 0), max(int(cols), 0))
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
         "infinitesimal": [[0, 0], [0, 0]]},
        # an object entry; a null one reads as NaN ("must be finite")
        {"rows": 2, "cols": 2, "standard": [[1, {}], [0, 1]],
         "infinitesimal": [[0, 0], [0, 0]]}])
    def test_usage_error_on_malformed_json(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["inverse", "--kind", "cep", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        with pytest.raises(ValueError) as info:
            read_dual_matrix(path)
        assert captured.err == f"error: {info.value}\n"

    def test_core_inverse_needs_index_one(self, tmp_path, capsys):
        # an index-2 input has no dual core or group inverse and no
        # certificate: a well-formed input, so not a usage error
        rng = np.random.default_rng(11)
        path = tmp_path / "m.json"
        write_dual_matrix(path, existing_dual(rng, Frame(rng, 5, 2, 2)))
        for kind in ("core", "group"):
            assert main(["inverse", "--kind", kind, str(path)]) \
                == EXIT_NOT_EXIST
            report = json.loads(capsys.readouterr().out)
            assert report["exists"] is False
            assert report["certificate"] is None

    def test_rhs_needs_one_column(self, tmp_path, capsys):
        mat, rhs = tmp_path / "m.json", tmp_path / "b.json"
        write_dual_matrix(mat, DualMatrix.eye(2))
        rhs.write_text(json.dumps({"rows": 2, "cols": 2,
                                   "standard": np.eye(2).tolist(),
                                   "infinitesimal": np.eye(2).tolist()}))
        assert main(["solve", str(mat), str(rhs)]) == EXIT_USAGE
        assert "vector file must have cols = 1" in capsys.readouterr().err

    def test_seed_only_on_solve(self, existing_file, capsys):
        path, _ = existing_file
        assert main(["inverse", "--kind", "cep", "--seed", "1",
                     path]) == EXIT_USAGE
        assert main(["decompose", "--seed", "1", path]) == EXIT_USAGE

    def test_hypothesis_exit(self, tmp_path, capsys):
        # the DCEPGI exists, but its first-order form does not hold
        mat, rhs = write_input(tmp_path, "hypothesis-fails")
        assert main(["solve", mat, rhs, "--mode", "unique-in-range"]) \
            == EXIT_HYPOTHESIS
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["command", "inputs", "tolerance", "seed",
                                "message", "elapsed_seconds"]
        assert report["command"] == "solve unique-in-range"
        assert list(report["inputs"]) == [mat, rhs]
        assert report["message"].startswith("first-order form does not hold")


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
    @pytest.mark.parametrize("command, kind, code", [
        ("inverse cep", "exists", EXIT_OK),
        ("inverse cep", "not-exist", EXIT_NOT_EXIST),
        ("solve general", "exists", EXIT_OK),
        ("solve general", "not-exist", EXIT_NOT_EXIST),
        ("solve unique-in-range", "exists", EXIT_OK),
        ("solve unique-in-range", "not-exist", EXIT_NOT_EXIST),
        ("solve unique-in-range", "hypothesis-fails", EXIT_HYPOTHESIS)],
        ids=lambda v: v.replace(" ", "-") if isinstance(v, str) else None)
    def test_report_is_one_line(self, command, kind, code, tmp_path,
                                capsys):
        # every outcome about a valid input is the command's report, with
        # its header, on stdout and in the --output file
        mat, rhs = write_input(tmp_path, kind)
        verb, option = command.split()
        paths = [mat, rhs] if verb == "solve" else [mat]
        out = tmp_path / "report.json"
        argv = [verb, "--kind" if verb == "inverse" else "--mode", option,
                *paths, "--output", str(out)]
        assert main(argv) == code
        text = capsys.readouterr().out
        assert text.count("\n") == 1 and text.endswith("\n")
        assert out.read_text() == text
        report = json.loads(text)
        assert list(report)[:3] == ["command", "inputs", "tolerance"]
        assert list(report)[-1] == "elapsed_seconds"
        assert report["command"] == command
        assert list(report["inputs"]) == paths
        assert ("message" in report) == (code != EXIT_OK)
        if verb == "inverse" or code == EXIT_NOT_EXIST:
            assert report["exists"] is (code == EXIT_OK)

    @pytest.mark.parametrize("argv", [
        ["inverse", "--kind", "cep"], ["decompose"],
        ["solve", "--mode", "general"],
        ["solve", "--mode", "unique-in-range"]],
        ids=lambda argv: "-".join(argv[::2]))
    def test_each_input_is_read_once(self, argv, tmp_path, capsys,
                                     monkeypatch):
        # the report's digest is that of the bytes the command parsed: a
        # second read could see a file rewritten in between
        mat, rhs = write_input(tmp_path, "exists")
        paths = [mat, rhs] if argv[0] == "solve" else [mat]
        opened, builtin_open = [], open

        def counted(file, *args, **kwargs):
            opened.append(str(file))
            return builtin_open(file, *args, **kwargs)
        monkeypatch.setattr("builtins.open", counted)
        assert main(argv + paths) == EXIT_OK
        assert sorted(p for p in opened if p in paths) == sorted(paths)
        report = json.loads(capsys.readouterr().out)
        assert report["inputs"] == {
            path: hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()
            for path in paths}


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

    @pytest.mark.parametrize("routine", ["qr", "solve"])
    def test_compact_witness_failure_exit_code(self, routine, existing_file,
                                               monkeypatch, capsys):
        # the compact witness is formed when the report reads it, after
        # the certificate, and its failure still ends in status 4
        path, _ = existing_file
        monkeypatch.setattr(np.linalg, routine, self.failing)
        assert main(["inverse", "--kind", "cep-compact", path]) \
            == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    # a rank cut that underflows to 0 keeps the singular values 1e-320,
    # whose inverses overflow, while every certificate reads 0
    TINY = DualMatrix(np.diag([1e-320, 1e-320]), np.eye(2))

    @pytest.mark.parametrize("name", [
        "dcepgi", "ddgi", "dmpgi", "mpdgi", "dcepgi_compact", "dual_group",
        "dual_core_inverse"])
    def test_witness_that_is_not_finite(self, name):
        with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                      match="not finite"):
            getattr(dualgi, name)(self.TINY)

    def test_split_forms_no_witness(self, tmp_path, capsys):
        # the core-nilpotent split is the decomposition's block split and
        # forms no DCEPGI, whose entries overflow here: TINY, of rank 2,
        # is its own core, in the library and in the decompose report
        split = dualgi.dual_cn_split(self.TINY)
        assert (split.core - self.TINY).norm() == 0.0
        assert split.nilpotent.norm() == 0.0
        path = tmp_path / "tiny.json"
        write_dual_matrix(path, self.TINY)
        assert main(["decompose", str(path)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["core_part"]["standard"] == self.TINY.std.tolist()
        assert report["core_part"]["infinitesimal"] == [[1.0, 0.0],
                                                        [0.0, 1.0]]

    def test_decomposition_that_is_not_finite(self, tmp_path, capsys):
        # U3 = B3 T1^-1 overflows, so T2 U3 is 0 inf: exit 4, no report
        path = tmp_path / "tiny3.json"
        write_dual_matrix(path, DualMatrix(np.diag([1e-320, 1e-320, 0.0]),
                                           np.ones((3, 3))))
        with np.errstate(all="ignore"):
            assert main(["decompose", str(path)]) == EXIT_NUMERICAL
        assert capsys.readouterr().out == ""

    def test_solution_that_is_not_finite(self):
        bh = DualVector(np.ones(2), np.ones(2))
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            dualgi.solve_general(self.TINY, bh)

    @pytest.mark.parametrize("argv", [
        ["inverse", "--kind", kind] for kind in (
            "cep", "cep-compact", "core", "ddgi", "dmpgi", "group", "mpdgi")]
        + [["solve", "--mode", "general"]],
        ids=lambda argv: "-".join(a for a in argv if a[:2] != "--"))
    def test_cli_report_that_is_not_finite(self, argv, tmp_path, capsys):
        # exit 4 with nothing on standard output: JSON has no NaN or
        # Infinity token
        path = tmp_path / "tiny.json"
        write_dual_matrix(path, self.TINY)
        args = argv + [str(path)]
        if argv[0] == "solve":
            rhs = tmp_path / "b.json"
            write_vector(rhs, DualVector(np.ones(2), np.ones(2)))
            args.append(str(rhs))
        with np.errstate(all="ignore"):
            assert main(args) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: numerical failure: ")

    # the squares of 1e200 overflow, so a residual is inf / inf, NaN
    HUGE = DualMatrix(np.diag([1e200, 0.0]), np.full((2, 2), 1e200))

    @pytest.mark.parametrize("name", [
        "dcepgi_exists", "ddgi_exists", "dmpgi_exists"])
    def test_residual_that_is_not_finite(self, name):
        # a NaN residual is no verdict: not "does not exist"
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match="residual is not finite"):
            getattr(dualgi, name)(self.HUGE)

    # index 2, A^2 overflows, B = O: every verdict is finite
    POWER_OVERFLOWS = DualMatrix([[1e160, 0.0, 0.0], [0.0, 0.0, 1e150],
                                  [0.0, 0.0, 0.0]], np.zeros((3, 3)))

    @pytest.mark.parametrize("name", ["dcepgi_compact", "range_null_report"])
    def test_power_that_overflows(self, name):
        # Ahat^m is a ring result that holds inf, not a usage error
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            getattr(dualgi, name)(self.POWER_OVERFLOWS)

    def test_power_floor_that_overflows(self):
        with pytest.raises(NumericalError, match="overflows"):
            dualgi.dmpgi_exists(self.POWER_OVERFLOWS, m=2)

    def test_cli_power_that_overflows(self, tmp_path, capsys):
        path = tmp_path / "power.json"
        write_dual_matrix(path, self.POWER_OVERFLOWS)
        with np.errstate(all="ignore"):
            assert main(["inverse", "--kind", "cep-compact", str(path)]) \
                == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: numerical failure: ")

    @pytest.mark.parametrize("command", ["inverse", "solve"])
    def test_certificate_that_is_not_finite(self, command, tmp_path, capsys):
        # the certificate's residual is not finite: no report at all
        path, out = tmp_path / "huge.json", tmp_path / "report.json"
        write_dual_matrix(path, self.HUGE)
        rhs = tmp_path / "b.json"
        write_vector(rhs, DualVector(np.ones(2), np.ones(2)))
        argv = (["inverse", "--kind", "cep", str(path), "--output", str(out)]
                if command == "inverse" else ["solve", str(path), str(rhs)])
        with np.errstate(all="ignore"):
            assert main(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().out == ""
        assert not out.exists()
