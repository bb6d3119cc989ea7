import dataclasses
import json

import numpy as np
import pytest

from cbnorm import dnorm
from cbnorm.cli import main
from cbnorm.serialize import (
    ProblemFormatError,
    certificate_from_json,
    matrix_from_json,
    matrix_to_json,
)

from conftest import random_channel


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
        assert res["method"] == "channel_diff_sdp"

    def test_unitary_pair(self, tmp_path):
        v = np.diag([1.0, np.exp(1j * np.pi / 2)])
        prob = write_json(tmp_path / "pair.json",
                          channel_pair_problem([np.eye(2)], [v], 2))
        out = tmp_path / "res.json"
        assert main(["compute", "--input", prob, "--output", str(out)]) == 0
        assert read_json(out)["value"] == pytest.approx(np.sqrt(2), abs=1e-5)

    def test_numerical_failure_exits_2(self, tmp_path, monkeypatch):
        # A solve that ends numerical_failure with a finite last iterate
        # still reports its repaired bounds.  The identity has Choi rank 1,
        # which the ascent would take: pin the solve route.
        monkeypatch.setattr(dnorm, "_ascent_general",
                            lambda pair, options: None)
        real = dnorm.solve
        monkeypatch.setattr(dnorm, "solve", lambda problem, options=None:
                            dataclasses.replace(real(problem, options),
                                                status="numerical_failure"))
        out = tmp_path / "res.json"
        assert main(["compute", "--input", identity_problem(tmp_path),
                     "--output", str(out)]) == 2
        res = read_json(out)
        assert res["status"] == "numerical_failure"
        assert res["lower_bound"] <= res["value"] <= res["upper_bound"]
        assert res["value"] == pytest.approx(1.0, abs=1e-6)
        assert res["warnings"] == [
            "solver status numerical_failure; bounds widened"]

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
        # Two unitary channels: rank J = 2 < 4, so auto takes the general
        # route and writes a general certificate for the pair.
        v = np.diag([1.0, np.exp(1j * np.pi / 3)])
        prob = write_json(tmp_path / "pair.json",
                          channel_pair_problem([np.eye(2)], [v], 2))
        cert = tmp_path / "cert.json"
        out = tmp_path / "res.json"
        assert main(["compute", "--input", prob, "--certificate", str(cert),
                     "--output", str(out)]) == 0
        res = read_json(out)
        assert res["method"] == "general_sdp"
        assert read_json(cert)["kind"] == "general"
        cout = tmp_path / "check.json"
        assert main(["certify", "--input", prob, "--certificate", str(cert),
                     "--output", str(cout)]) == 0
        check = read_json(cout)
        assert check["valid"]
        for key in ("lower_bound", "upper_bound"):
            assert check[key] == pytest.approx(res[key], rel=1e-12, abs=0)

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

    def test_boolean_lambda(self, tmp_path):
        obj = self._certificate(tmp_path)[2]
        assert obj["kind"] == "general"
        obj["lambda"] = True
        with pytest.raises(ProblemFormatError, match=r"\$\.lambda"):
            certificate_from_json(obj)

    @pytest.mark.parametrize("norm", ["cb_spectral", "trace", 1])
    def test_unknown_norm(self, tmp_path, capsys, norm):
        prob, cert, obj = self._certificate(tmp_path)
        obj["norm"] = norm
        write_json(cert, obj)
        with pytest.raises(ProblemFormatError, match=r"\$\.norm"):
            certificate_from_json(obj)
        assert main(["certify", "--input", prob,
                     "--certificate", str(cert)]) == 1
        assert "$.norm" in capsys.readouterr().err
