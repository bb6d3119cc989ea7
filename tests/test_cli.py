import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from cbnorm import dnorm
from cbnorm.cli import main
from cbnorm.serialize import (
    ProblemFormatError,
    certificate_from_json,
    load_problem,
    matrix_from_json,
    matrix_to_json,
)

from conftest import random_channel, random_superop

DATA = Path(__file__).parent / "data"


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def kraus_problem(left, dim_in, dim_out, right=None):
    payload = {"left": [matrix_to_json(k) for k in left]}
    if right is not None:
        payload["right"] = [matrix_to_json(k) for k in right]
    return {
        "version": "1",
        "kind": "kraus",
        "dim_in": dim_in,
        "dim_out": dim_out,
        "payload": payload,
    }


def channel_pair_problem(k0, k1, dim):
    return {
        "version": "1",
        "kind": "channel_pair",
        "dim_in": dim,
        "dim_out": dim,
        "payload": {
            "channel0": {"kind": "kraus",
                         "payload": {"left": [matrix_to_json(k) for k in k0]}},
            "channel1": {"kind": "kraus",
                         "payload": {"left": [matrix_to_json(k) for k in k1]}},
        },
    }


def identity_problem(tmp_path, name="identity.json"):
    return write_json(tmp_path / name,
                      kraus_problem([np.eye(2)], 2, 2))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestCompute:
    def test_identity_diamond(self, tmp_path):
        out = tmp_path / "res.json"
        code = main(["compute", "--input", identity_problem(tmp_path),
                     "--norm", "diamond", "--output", str(out)])
        assert code == 0
        res = read_json(out)
        assert res["value"] == pytest.approx(1.0, abs=1e-6)
        assert res["status"] == "optimal"
        assert res["lower_bound"] <= res["value"] <= res["upper_bound"]

    def test_identical_channel_pair(self, tmp_path, rng):
        c = random_channel(rng, 2, 2)
        prob = write_json(tmp_path / "pair.json",
                          channel_pair_problem(c.rep.left, c.rep.left, 2))
        out = tmp_path / "res.json"
        assert main(["compute", "--input", prob, "--output", str(out)]) == 0
        res = read_json(out)
        assert res["value"] <= 1e-6
        assert res["method"] == "general_sdp"
        assert res["certificate"]["version"] == "2"

    def test_unitary_pair(self, tmp_path):
        v = np.diag([1.0, np.exp(1j * np.pi / 2)])
        prob = write_json(tmp_path / "pair.json",
                          channel_pair_problem([np.eye(2)], [v], 2))
        out = tmp_path / "res.json"
        assert main(["compute", "--input", prob, "--output", str(out)]) == 0
        assert read_json(out)["value"] == pytest.approx(np.sqrt(2), abs=1e-5)

    def test_numerical_failure_exits_2(self, tmp_path, monkeypatch):
        # A solve that ends numerical_failure with a finite last iterate
        # still reports its repaired bounds.  Stopped after 3 iterations, the
        # bracket is wider than gap_tol, so the solver's status stands (the
        # identity's would be certified exactly).  Rank-2 maps take the
        # ascent: pin the solve route.
        phi = random_superop(np.random.default_rng(0), 3, 3)
        ref = dnorm.diamond_norm(phi)
        prob = write_json(tmp_path / "map.json", kraus_problem(
            phi.rep.left, 3, 3, phi.rep.right))
        monkeypatch.setattr(dnorm, "_ascent_general",
                            lambda pair, options: None)
        real = dnorm.solve
        monkeypatch.setattr(dnorm, "solve", lambda problem, options:
                            dataclasses.replace(real(problem, dataclasses.replace(
                                options, max_iter=3)), status="numerical_failure"))
        out = tmp_path / "res.json"
        assert main(["compute", "--input", prob, "--output", str(out)]) == 2
        res = read_json(out)
        assert res["status"] == "numerical_failure"
        assert res["lower_bound"] <= res["value"] <= res["upper_bound"]
        assert res["upper_bound"] - res["lower_bound"] > \
            1e-8 * res["upper_bound"]
        assert res["lower_bound"] <= ref.upper_bound
        assert ref.lower_bound <= res["upper_bound"]
        assert res["warnings"] == [
            "solver status numerical_failure; bounds widened"]

    @pytest.mark.parametrize("n,m,r", [(2, 2, 4), (3, 3, 4), (2, 3, 6),
                                       (3, 3, 9)])
    def test_tight_tol_certified_exits_0(self, tmp_path, n, m, r):
        """At ``--tol 1e-11`` these solves stall above the gap test and end
        ``numerical_failure``, but the bracket is certified to the
        tolerance: the result is ``optimal`` and the exit code 0."""
        phi = random_superop(np.random.default_rng(r), n, m, terms=r)
        prob = write_json(tmp_path / "map.json", kraus_problem(
            phi.rep.left, n, m, phi.rep.right))
        out = tmp_path / "res.json"
        assert main(["compute", "--input", prob, "--tol", "1e-11",
                     "--output", str(out)]) == 0
        res = read_json(out)
        assert res["status"] == "optimal" and res["warnings"] == []
        assert res["upper_bound"] - res["lower_bound"] <= \
            1e-11 * res["upper_bound"]

    def test_cb_spectral(self, tmp_path):
        out = tmp_path / "res.json"
        code = main(["compute", "--input", identity_problem(tmp_path),
                     "--norm", "cb-spectral", "--output", str(out)])
        assert code == 0
        res = read_json(out)
        assert res["value"] == pytest.approx(1.0, abs=1e-6)
        assert res["method"].endswith("_of_adjoint")

    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": "1", "kind": "kraus", "dim_in": 2, '
                       '"dim_out": 2}')
        assert main(["compute", "--input", str(bad)]) == 1
        assert "$.payload" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["compute", "--input", str(tmp_path / "nope.json")]) == 1

    def test_byte_stability(self, tmp_path, rng):
        c = random_channel(rng, 2, 2)
        prob = write_json(tmp_path / "chan.json",
                          kraus_problem(c.rep.left, 2, 2))
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert main(["compute", "--input", prob,
                         "--output", str(out)]) == 0
            res = read_json(out)
            res.pop("wall_time_seconds")
            outs.append(json.dumps(res, sort_keys=True))
        assert outs[0] == outs[1]


class TestCertify:
    def test_roundtrip(self, tmp_path, rng):
        c = random_channel(rng, 2, 2)
        prob = write_json(tmp_path / "chan.json",
                          kraus_problem(c.rep.left, 2, 2))
        cert = tmp_path / "cert.json"
        out = tmp_path / "res.json"
        assert main(["compute", "--input", prob, "--certificate", str(cert),
                     "--output", str(out)]) == 0
        cout = tmp_path / "check.json"
        assert main(["certify", "--input", prob, "--certificate", str(cert),
                     "--output", str(cout)]) == 0
        check = read_json(cout)
        assert check["valid"]
        assert check["upper_bound"] - check["lower_bound"] < 1e-5

    def test_channel_pair_on_general_route(self, tmp_path):
        # A channel pair (here two unitary channels, rank J = 2) takes the
        # general route and gets the one certificate kind, format "2".
        v = np.diag([1.0, np.exp(1j * np.pi / 3)])
        prob = write_json(tmp_path / "pair.json",
                          channel_pair_problem([np.eye(2)], [v], 2))
        cert = tmp_path / "cert.json"
        out = tmp_path / "res.json"
        assert main(["compute", "--input", prob, "--certificate", str(cert),
                     "--output", str(out)]) == 0
        res = read_json(out)
        assert res["method"] == "general_sdp"
        assert sorted(read_json(cert)) == ["norm", "rho", "sigma", "version",
                                           "y0", "y1"]
        cout = tmp_path / "check.json"
        assert main(["certify", "--input", prob, "--certificate", str(cert),
                     "--output", str(cout)]) == 0
        check = read_json(cout)
        assert check["valid"]
        for key in ("lower_bound", "upper_bound"):
            assert check[key] == pytest.approx(res[key], rel=1e-12, abs=0)

    def test_channel_diff_certificate_file(self, tmp_path):
        """A format-"1" ``channel_diff`` certificate, written by ``compute``
        when a full-rank channel pair took the channel-difference SDP, still
        certifies, in its Choi form, with the bounds it was written with;
        ``compute`` now writes a format-"2" certificate whose bracket
        overlaps them."""
        prob = str(DATA / "channel_pair_2x2.json")
        cert = str(DATA / "channel_diff_certificate_2x2.json")
        cout = tmp_path / "check.json"
        assert main(["certify", "--input", prob, "--certificate", cert,
                     "--output", str(cout)]) == 0
        check = read_json(cout)
        assert check["valid"] and not check["violations"]
        written = (1.1631822271763808, 1.1631822283909872)
        assert (check["lower_bound"], check["upper_bound"]) == \
            pytest.approx(written, rel=1e-12, abs=0)
        out = tmp_path / "res.json"
        assert main(["compute", "--input", prob, "--output", str(out)]) == 0
        res = read_json(out)
        assert res["method"] == "general_sdp"
        assert res["certificate"]["version"] == "2"
        assert res["lower_bound"] <= written[1]
        assert written[0] <= res["upper_bound"]

    def test_general_certificate_file(self, tmp_path):
        """A format-"1" ``general`` certificate, written by ``compute``
        before format "2" (an interior-point solve of a rank-3 2x3 map),
        certifies in its Choi form within the bounds it was written with."""
        cout = tmp_path / "check.json"
        assert main(["certify", "--input", str(DATA / "general_map_2x3.json"),
                     "--certificate", str(DATA / "general_certificate_2x3.json"),
                     "--output", str(cout)]) == 0
        check = read_json(cout)
        assert check["valid"] and not check["violations"]
        written = (24.502715089449165, 24.502715090664747)
        assert check["lower_bound"] >= written[0] * (1 - 1e-12)
        assert check["upper_bound"] <= written[1] * (1 + 1e-12)

    def test_full_rank_6x6_certificate_size(self, tmp_path):
        """A certificate holds two ``mn x mn`` and two ``n x n`` matrices,
        whatever the Choi rank: under 1 MB for a full-rank 6x6 map."""
        phi = random_superop(np.random.default_rng(6), 6, 6, terms=36)
        prob = write_json(tmp_path / "map.json", kraus_problem(
            phi.rep.left, 6, 6, right=phi.rep.right))
        cert = tmp_path / "cert.json"
        assert main(["compute", "--input", prob, "--certificate", str(cert),
                     "--output", str(tmp_path / "res.json")]) == 0
        assert cert.stat().st_size < 1e6
        assert main(["certify", "--input", prob,
                     "--certificate", str(cert)]) == 0

    @pytest.mark.parametrize("field,change,named", [
        ("rho", lambda x: -x, "rho"), ("sigma", lambda x: -x, "sigma"),
        ("y0", lambda x: x / 2, "[[Y0, -J], [-J^dag, Y1]]")])
    def test_tampered_certificate_exits_3(self, tmp_path, capsys, field,
                                          change, named):
        """A negated state, or a ``Y0`` halved (the block matrix is then
        indefinite), is a rejected certificate (exit 3) with a violation
        naming it, not an input error."""
        phi = random_superop(np.random.default_rng(3), 3, 3, terms=2)
        prob = write_json(tmp_path / "map.json", kraus_problem(
            phi.rep.left, 3, 3, right=phi.rep.right))
        cert = tmp_path / "cert.json"
        assert main(["compute", "--input", prob, "--certificate", str(cert),
                     "--output", str(tmp_path / "res.json")]) == 0
        obj = read_json(cert)
        obj[field] = matrix_to_json(change(matrix_from_json(obj[field], "$")))
        write_json(cert, obj)
        cout = tmp_path / "check.json"
        assert main(["certify", "--input", prob, "--certificate", str(cert),
                     "--output", str(cout)]) == 3
        check = read_json(cout)
        assert not check["valid"]
        assert any(named in v for v in check["violations"]), \
            check["violations"]
        assert not capsys.readouterr().err

    @pytest.mark.parametrize("version", ["7", None, 2])
    def test_certificate_version(self, tmp_path, capsys, version):
        """Only the versions "1" and "2" are read; any other, or none, is an
        input error at ``$.version``."""
        prob = identity_problem(tmp_path)
        cert = tmp_path / "cert.json"
        assert main(["compute", "--input", prob, "--certificate", str(cert),
                     "--output", str(tmp_path / "res.json")]) == 0
        obj = read_json(cert)
        if version is None:
            del obj["version"]
        else:
            obj["version"] = version
        write_json(cert, obj)
        assert main(["certify", "--input", prob,
                     "--certificate", str(cert)]) == 1
        assert "$.version" in capsys.readouterr().err

    def test_embedded_certificate_reverifies(self, tmp_path):
        prob = identity_problem(tmp_path)
        out = tmp_path / "res.json"
        assert main(["compute", "--input", prob, "--output", str(out)]) == 0
        cert = tmp_path / "cert.json"
        write_json(cert, read_json(out)["certificate"])
        assert main(["certify", "--input", prob,
                     "--certificate", str(cert)]) == 0

    def test_corrupted_certificate(self, tmp_path, capsys):
        prob = identity_problem(tmp_path)
        cert = tmp_path / "cert.json"
        out = tmp_path / "res.json"
        assert main(["compute", "--input", prob, "--certificate", str(cert),
                     "--output", str(out)]) == 0
        obj = read_json(cert)
        obj["rho"][0][0] = [-0.5, 0.0]
        write_json(cert, obj)
        cout = tmp_path / "check.json"
        assert main(["certify", "--input", prob, "--certificate", str(cert),
                     "--output", str(cout)]) == 3
        check = read_json(cout)
        assert not check["valid"] and check["violations"]

    def test_dimension_mismatch(self, tmp_path, rng):
        prob2 = identity_problem(tmp_path)
        cert = tmp_path / "cert.json"
        out = tmp_path / "res.json"
        assert main(["compute", "--input", prob2, "--certificate", str(cert),
                     "--output", str(out)]) == 0
        prob3 = write_json(tmp_path / "id3.json",
                           kraus_problem([np.eye(3)], 3, 3))
        assert main(["certify", "--input", prob3,
                     "--certificate", str(cert)]) == 1

    def test_cb_spectral_certificate(self, tmp_path):
        prob = identity_problem(tmp_path)
        cert = tmp_path / "cert.json"
        out = tmp_path / "res.json"
        assert main(["compute", "--input", prob, "--norm", "cb-spectral",
                     "--certificate", str(cert), "--output", str(out)]) == 0
        assert main(["certify", "--input", prob,
                     "--certificate", str(cert)]) == 0


class TestConvert:
    def test_kraus_choi_kraus_roundtrip(self, tmp_path):
        prob = identity_problem(tmp_path)
        choi = tmp_path / "choi.json"
        assert main(["convert", "--input", prob, "--to", "choi",
                     "--output", str(choi)]) == 0
        back = tmp_path / "kraus.json"
        assert main(["convert", "--input", str(choi), "--to", "kraus",
                     "--output", str(back)]) == 0
        out = tmp_path / "res.json"
        assert main(["compute", "--input", str(back),
                     "--output", str(out)]) == 0
        assert read_json(out)["value"] == pytest.approx(1.0, abs=1e-6)

    def test_rank_three_stinespring(self, tmp_path, rng):
        c = random_channel(rng, 2, 2, env=3)
        prob = write_json(tmp_path / "chan.json",
                          kraus_problem(c.rep.left, 2, 2))
        out = tmp_path / "pair.json"
        assert main(["convert", "--input", prob, "--to", "stinespring",
                     "--output", str(out)]) == 0
        converted = read_json(out)
        assert converted["kind"] == "stinespring_pair"
        assert converted["payload"]["dim_env"] == 3

    def test_zero_map(self, tmp_path):
        prob = write_json(tmp_path / "zero.json",
                          kraus_problem([np.zeros((2, 2))], 2, 2))
        out = tmp_path / "choi.json"
        assert main(["convert", "--input", prob, "--to", "choi",
                     "--output", str(out)]) == 0
        choi = read_json(out)["payload"]["choi"]
        assert all(cell == [0.0, 0.0] for row in choi for cell in row)


class TestFidelityCommand:
    def fidelity_problem(self, tmp_path, p, q):
        return write_json(tmp_path / "fid.json", {
            "version": "1",
            "kind": "fidelity",
            "dim_in": p.shape[0],
            "payload": {"p": matrix_to_json(p), "q": matrix_to_json(q)},
        })

    def test_equal_densities(self, tmp_path, rng):
        p = np.eye(2) / 2
        prob = self.fidelity_problem(tmp_path, p, p)
        out = tmp_path / "res.json"
        assert main(["fidelity", "--input", prob, "--output", str(out)]) == 0
        res = read_json(out)
        assert res["fidelity"] == pytest.approx(1.0, abs=1e-6)
        assert res["closed_form"] == pytest.approx(1.0, abs=1e-10)

    def test_pure_vs_mixed(self, tmp_path):
        prob = self.fidelity_problem(tmp_path, np.diag([1.0, 0.0]),
                                     np.eye(2) / 2)
        out = tmp_path / "res.json"
        assert main(["fidelity", "--input", prob, "--output", str(out)]) == 0
        assert read_json(out)["fidelity_squared"] == pytest.approx(
            0.5, abs=1e-6
        )

    def test_wrong_kind(self, tmp_path):
        assert main(["fidelity", "--input",
                     identity_problem(tmp_path)]) == 1


class TestCheckChannel:
    def test_identity(self, tmp_path):
        out = tmp_path / "res.json"
        assert main(["check-channel", "--input", identity_problem(tmp_path),
                     "--output", str(out)]) == 0
        res = read_json(out)
        assert res["is_cp"] and res["is_tp"]

    def test_non_tp_reported_not_error(self, tmp_path):
        prob = write_json(tmp_path / "scaled.json",
                          kraus_problem([2.0 * np.eye(2)], 2, 2))
        out = tmp_path / "res.json"
        assert main(["check-channel", "--input", prob,
                     "--output", str(out)]) == 0
        res = read_json(out)
        assert res["is_cp"] and not res["is_tp"]


class TestUsage:
    """A malformed command line is an input error (exit 1); exit 2 is kept
    for a solve that stops short of optimality."""

    @pytest.mark.parametrize("argv", [
        ["compute"],
        ["certify", "--input", "problem.json"],
        ["compute", "--input", "problem.json", "--bogus"],
        ["compute", "--input", "problem.json", "--method", "general"],
        ["compute", "--input", "problem.json", "--norm", "trace"],
        [],
    ], ids=["missing-input", "missing-certificate", "unknown-flag",
            "removed-method-flag", "bad-choice", "no-command"])
    def test_exit_1(self, capsys, argv):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                      ["compute", "--help"]],
                             ids=["help", "version", "compute-help"])
    def test_help_and_version_exit_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out


class TestRejectedInput:
    @pytest.mark.parametrize("tol", ["inf", "0", "-1e-8", "nan"])
    def test_compute_tolerance(self, tmp_path, capsys, tol):
        assert main(["compute", "--input", identity_problem(tmp_path),
                     f"--tol={tol}"]) == 1
        assert "gap_tol must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "-1e-6", "nan"])
    def test_certify_tolerance(self, tmp_path, capsys, tol):
        prob = identity_problem(tmp_path)
        cert = tmp_path / "cert.json"
        assert main(["compute", "--input", prob, "--certificate", str(cert),
                     "--output", str(tmp_path / "res.json")]) == 0
        assert main(["certify", "--input", prob, "--certificate", str(cert),
                     f"--tol={tol}"]) == 1
        assert "tol must be finite and non-negative" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("cell", [[True, False], [1.0, False]])
    def test_boolean_matrix_entry(self, cell):
        with pytest.raises(ProblemFormatError, match=r"\$\.m\[0\]\[0\]"):
            matrix_from_json([[cell]], "$.m")

    def test_boolean_entry_in_problem_file(self, tmp_path, capsys):
        obj = kraus_problem([np.eye(2)], 2, 2)
        obj["payload"]["left"][0][1][1] = [True, 0.0]
        prob = write_json(tmp_path / "bool.json", obj)
        assert main(["compute", "--input", prob]) == 1
        assert "$.payload.left[0][1][1]" in capsys.readouterr().err

    def _certificate(self, tmp_path):
        prob = identity_problem(tmp_path)
        cert = tmp_path / "cert.json"
        assert main(["compute", "--input", prob, "--certificate", str(cert),
                     "--output", str(tmp_path / "res.json")]) == 0
        return prob, cert, read_json(cert)

    def test_boolean_certificate_entry(self, tmp_path):
        prob, _, obj = self._certificate(tmp_path)
        obj["y0"][0][0] = [True, 0.0]
        with pytest.raises(ProblemFormatError, match=r"\$\.y0\[0\]\[0\]"):
            certificate_from_json(obj, load_problem(prob)["superop"])

    @pytest.mark.parametrize("norm", ["cb_spectral", "trace", 1])
    def test_unknown_norm(self, tmp_path, capsys, norm):
        prob, cert, obj = self._certificate(tmp_path)
        obj["norm"] = norm
        write_json(cert, obj)
        with pytest.raises(ProblemFormatError, match=r"\$\.norm"):
            certificate_from_json(obj, load_problem(prob)["superop"])
        assert main(["certify", "--input", prob,
                     "--certificate", str(cert)]) == 1
        assert "$.norm" in capsys.readouterr().err
