"""Command-line driver: outputs, exit codes, sweep format."""

import gc
import json
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qso3.cli import emit, main, parse_complex, parse_family_spec, parse_signs
from qso3.qscalar import HalfInt, ctx_from_json, generic_ctx
from qso3.repcore import matrix_from_json
from qso3.structure import casimir
from qso3.uqso3 import r1_l, r_split_n

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParsers:
    def test_complex(self):
        assert parse_complex("2+0i") == 2
        assert parse_complex("0.7+0.1i") == 0.7 + 0.1j
        assert parse_complex("-1.5i") == -1.5j
        assert parse_complex("3") == 3

    def test_signs(self):
        assert parse_signs("(+,-)") == (1, -1)
        assert parse_signs("+,+") == (1, 1)

    def test_family_spec(self):
        ctx = generic_ctx(q=4)
        rep = parse_family_spec(ctx, "Rsplit_n,n=2,(+,+)")
        assert rep.dim == 2
        rep = parse_family_spec(ctx, "T_l,l=3/2,omega=i")
        assert rep.dim == 4


class TestConstruct:
    def test_weight_family_json(self, capsys):
        code, out = run(capsys, "construct", "--family", "R1_l", "--l", "3/2",
                        "--q", "1.3")
        assert code == 0
        data = json.loads(out)
        assert data["family"] == "R1_l"
        assert data["matrices"]["I1"]["dim"] == 4
        assert np.array_equal(matrix_from_json(data["matrices"]["I2"]),
                              r1_l(generic_ctx(q=1.3), HalfInt(3)).I2)

    def test_cyclic_family(self, capsys):
        code, out = run(capsys, "construct", "--family", "R_ab_lambda",
                        "--p", "5", "--k", "1", "--a", "1", "--b", "1",
                        "--lambda", "2+0i")
        assert code == 0
        assert json.loads(out)["matrices"]["I1"]["dim"] == 5

    def test_dimension_200_payload_is_small(self, capsys):
        # K and Kinv are diagonal and E and F one band each: 798 nonzero
        # entries of 160000 (the dense dump was 8.0 MB)
        code, out = run(capsys, "construct", "--family", "T_l", "--l", "199/2",
                        "--omega", "1", "--q", "1.3")
        assert code == 0
        assert len(out) < 100_000
        for entry in json.loads(out)["matrices"].values():
            assert matrix_from_json(entry).shape == (200, 200)
            assert len(entry["offsets"]) <= 3

    def test_range_guard_exit_2(self, capsys):
        code = main(["construct", "--family", "R1_l", "--l", "3",
                     "--p", "5", "--k", "1"])
        assert code == 2

    def test_banded_window_dump(self, capsys):
        code, out = run(capsys, "construct", "--family", "Q_lambda",
                        "--lambda", "0.7+0.1i", "--sign", "+", "--q", "1.3",
                        "--window", "5")
        assert code == 0
        data = json.loads(out)
        assert data["truncated"] is True
        assert len(data["labels"]) == 11
        assert ctx_from_json(data["ctx"]) == generic_ctx(q=1.3)


class TestVerify:
    def test_ok_exit_zero(self, capsys):
        code, out = run(capsys, "verify", "--family", "T_ab_lambda",
                        "--p", "5", "--k", "1", "--a", "1", "--b", "2",
                        "--lambda", "3")
        assert code == 0
        data = json.loads(out)
        assert data["max_residual"] <= 1e-9
        assert "psi_residuals" in data["reports"][0]

    def test_not_extendable_has_no_psi_residuals(self, capsys):
        # an i-twisted integer-l weight family has no localization image
        code, out = run(capsys, "verify", "--family", "T_l", "--l", "1",
                        "--omega=i", "--q", "1.3")
        assert code == 0
        report = json.loads(out)["reports"][0]
        assert "psi_residuals" not in report
        assert report["max_residual"] <= 1e-9

    def test_tight_tol_exit_one(self, capsys):
        code, _ = run(capsys, "verify", "--family", "R1_l", "--l", "2",
                      "--q", "1.3", "--tol", "1e-30")
        assert code == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_nan_residual_exit_one(self, capsys):
        # q^n overflows near n = 2000, so the cubic_2 defect is NaN
        code, out = run(capsys, "verify", "--family", "R_a_eps", "--a", "0.3+0.2i",
                        "--eps", "0.4+0.2i", "--q", "1.3", "--window", "2000")
        assert code == 1
        data = json.loads(out)
        assert np.isnan(data["reports"][0]["residuals"]["cubic_2"])
        assert np.isnan(data["reports"][0]["max_residual"]) and np.isnan(data["max_residual"])


class TestDecompose:
    def test_twisted_split(self, capsys):
        code, out = run(capsys, "decompose", "--family", "Ri_l", "--l", "5/2",
                        "--q", "1.3", "--sign", "+")
        assert code == 0
        data = json.loads(out)
        assert data["component_dims"] == [3, 3]
        assert data["is_direct_sum"] is True

    def test_casimir_values(self, capsys):
        # one value per component, in component_dims order; the halves of
        # R_{+-i} share the value of the split families they are
        code, out = run(capsys, "decompose", "--family", "Ri_l", "--l", "5/2",
                        "--q", "1.3", "--sign", "+")
        assert code == 0
        want = casimir(r_split_n(generic_ctx(q=1.3), 3, (1, 1)))[0, 0]
        values = json.loads(out)["casimir_values"]
        assert len(values) == 2
        for re, im in values:
            assert abs(complex(re, im) - want) <= 1e-9 * abs(want)

    def test_indecomposable_chain(self, capsys):
        # lambda = q^{3/2} at p = 10: an invariant line and no direct sum,
        # so no algebra dimension is implied
        code, out = run(capsys, "decompose", "--family", "R_ab_lambda", "--p", "10",
                        "--k", "1", "--a", "0", "--b", "0",
                        "--lambda", "0.5877852522924731+0.8090169943749472i")
        assert code == 0
        data = json.loads(out)
        assert data["is_direct_sum"] is False and data["component_dims"] == []
        assert data["burnside_dim"] is None
        assert data["lattice_dims"] == [1]
        assert data["casimir_values"] == []


class TestEquiv:
    def test_split_signs_not_equivalent(self, capsys):
        code, out = run(capsys, "equiv", "--q", "4",
                        "--a-spec", "Rsplit_n,n=2,(+,+)",
                        "--b-spec", "Rsplit_n,n=2,(+,-)")
        assert code == 0
        data = json.loads(out)
        assert data["equivalent"] is False
        assert data["intertwiner_dim"] == 0
        assert "trace_i2" in data["fingerprint_diff"]

    def test_sl2_families(self, capsys):
        code, out = run(capsys, "equiv", "--q", "1.3",
                        "--a-spec", "T_l,l=1/2,omega=1",
                        "--b-spec", "T_l,l=1/2,omega=-1")
        assert code == 0
        data = json.loads(out)
        assert data["equivalent"] is False
        assert data["fingerprint_diff"] == ["k_spectrum"]


class TestTensor:
    def test_cg_table(self, capsys):
        code, out = run(capsys, "tensor", "--q", "1.3",
                        "--a-spec", "T_l,l=1/2,omega=1",
                        "--b-spec", "T_l,l=1/2,omega=1")
        assert code == 0
        data = json.loads(out)
        assert data["multiplicities"] == {"R1_l[l=0]": 1, "R1_l[l=1]": 1}

    def test_sl2_side(self, capsys):
        code, out = run(capsys, "tensor", "--q", "1.3", "--sl2",
                        "--a-spec", "T_l,l=1/2,omega=i",
                        "--b-spec", "T_l,l=1/2,omega=i")
        assert code == 0
        data = json.loads(out)
        assert data["multiplicities"] == {"T_l[l=0,omega=-1]": 1,
                                          "T_l[l=1,omega=-1]": 1}

    @pytest.mark.parametrize("side", [[], ["--sl2"]])
    def test_product_not_a_direct_sum(self, side, capsys):
        # dimension 25 at p = 7: named whole, out of range of every family
        code, out = run(capsys, "tensor", "--p", "7", *side,
                        "--a-spec", "T_l,l=2,omega=1", "--b-spec", "T_l,l=2,omega=1")
        assert code == 0
        assert json.loads(out) == {"multiplicities": {}, "unmatched_dims": [25]}

    def test_no_solution_exit_1(self, capsys):
        # valid input on which the spin has no simple eigenvalue to start
        # from: a failed computation, not a usage error
        code = main(["tensor", "--p", "7", "--a-spec", "T_l,l=3/2,omega=1",
                     "--b-spec", "T_l,l=5/2,omega=1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: no simple eigenvalue to spin from\n"


class TestSpectrum:
    def test_csv(self, capsys):
        code, out = run(capsys, "spectrum", "--family", "Ri_l", "--l", "1/2",
                        "--sign", "+", "--q", "4", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "re,im,multiplicity"
        assert lines[1].endswith(",2")


    def test_wide_window_pairs(self, capsys):
        # labels k and -k share a weight, and the weights reach 5e11 at
        # window 100; each is clustered at the separation level of its own
        # size, so no outer pair splits
        code, out = run(capsys, "spectrum", "--family", "Q_lambda", "--lambda", "1",
                        "--q", "1.3", "--window", "100")
        assert code == 0
        mults = [m for _, m in json.loads(out)["spectrum"]]
        assert mults.count(2) == 100 and mults.count(1) == 1 and len(mults) == 101

    def test_sl2_finite_family(self, capsys):
        code, out = run(capsys, "spectrum", "--q", "1.3", "--family", "T_l",
                        "--l", "1", "--omega", "1")
        assert code == 0
        spec = json.loads(out)["spectrum"]
        assert [m for _, m in spec] == [1, 1, 1]
        assert spec[1][0] == pytest.approx([1.0, 0.0])

    def test_csv_out_closes_file(self, tmp_path):
        out_file = tmp_path / "spectrum.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = main(["spectrum", "--family", "Ri_l", "--l", "1/2", "--sign", "+",
                         "--q", "4", "--format", "csv", "--out", str(out_file)])
            gc.collect()
        assert code == 0
        assert out_file.read_text().startswith("re,im,multiplicity\n")
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestCentral:
    def test_degree_four(self, capsys):
        code, out = run(capsys, "central", "--p", "4", "--k", "1")
        assert code == 0
        assert json.loads(out)["coeffs"] == [1, 0, 1, 0, 0]


class TestSweep:
    def test_jsonl_lines(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        code = main(["sweep", "spectrum", "--family", "Qp_lambda", "--p", "5",
                     "--k", "1", "--lambda-grid", "2,0.5+0.5i", "--out",
                     str(out_file)])
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            rec = json.loads(line)
            assert rec["ok"] is True
            assert "lambda" in rec["point"]

    def test_out_closes_file(self, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code = main(["sweep", "central", "--k", "1", "--p-grid", "3,4",
                         "--out", str(out_file)])
            gc.collect()
        assert code == 0
        assert len(out_file.read_text().strip().splitlines()) == 2
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_per_point_errors_recorded(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        # lambda = q^2 is an excluded point for the cyclic family
        code = main(["sweep", "construct", "--family", "R_ab_lambda",
                     "--p", "4", "--k", "1", "--a", "1", "--b", "1",
                     "--lambda-grid", "3,0+1i", "--out", str(out_file)])
        assert code == 1
        recs = [json.loads(x) for x in out_file.read_text().strip().splitlines()]
        assert sum(1 for r in recs if not r["ok"]) == 1
        assert any("error" in r for r in recs)


class TestEmit:
    def test_numpy_scalars_keep_their_json_type(self, capsys):
        emit({"n": np.int64(3), "b": np.bool_(True), "x": np.float32(0.5),
              "z": np.complex128(1 - 2j)}, "json", None)
        assert capsys.readouterr().out == '{"n": 3, "b": true, "x": 0.5, "z": [1.0, -2.0]}\n'


class TestErrors:
    def test_malformed_value_exit_2(self, capsys):
        code = main(["construct", "--family", "R1_l", "--l", "3/4", "--q", "1.3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "3/4" in captured.err

    def test_missing_family_parameter_exit_2(self, capsys):
        code = main(["construct", "--family", "R1_l", "--q", "1.3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ") and "'l'" in captured.err

    def test_classical_point_exit_2(self, capsys):
        code = main(["verify", "--family", "R1_l", "--l", "3/2", "--q", "1"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: q = 1 is excluded")
        assert "p=1" not in captured.err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_exit_2(self, tol, capsys):
        code = main(["verify", "--family", "R1_l", "--l", "1", "--q", "1.3", "--tol", tol])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: tol must be finite and >= 0")

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["central", "--p", "4", "--bogus", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_sweep_records_missing_parameter_per_point(self, capsys):
        code = main(["sweep", "construct", "--family", "R1_l",
                     "--q-grid", "1.3,1.5"])
        recs = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
        assert code == 1
        assert [r["point"]["q"] for r in recs] == ["1.3", "1.5"]
        assert all(not r["ok"] and "'l'" in r["error"] for r in recs)

    @pytest.mark.parametrize("argv", [
        ["construct", "--family", "R1_l", "--l", "1/2", "--q", "1.3", "--seed", "3"],
        ["verify", "--family", "R1_l", "--l", "1/2", "--q", "1.3", "--format", "json"],
        ["decompose", "--family", "R1_l", "--l", "1/2", "--q", "1.3", "--window", "4"],
        ["equiv", "--q", "4", "--a-spec", "R1_l,l=1", "--b-spec", "R1_l,l=1",
         "--seed", "3"],
        ["decompose", "--family", "R1_l", "--l", "1/2", "--q", "1.3", "--seed", "3"],
        ["tensor", "--q", "1.3", "--a-spec", "T_l,l=1/2,omega=1",
         "--b-spec", "T_l,l=1/2,omega=1", "--seed", "3"],
    ])
    def test_ignored_options_removed(self, argv, capsys):
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_tolerance_env_var_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("QSO3_TOL", "1e-30")
        code, out = run(capsys, "verify", "--family", "R1_l", "--l", "2",
                        "--q", "1.3")
        assert code == 0
        assert json.loads(out)["tol"] == 1e-9


# one direct command line per command, and the flag a one-point sweep grids
SINGLE_RUNS = {
    "construct": (["--family", "R1_l", "--l", "3/2"], "--q", "1.3"),
    "verify": (["--family", "T_ab_lambda", "--p", "5", "--a", "1", "--b", "2"],
               "--lambda", "3"),
    "decompose": (["--family", "Ri_l", "--l", "5/2", "--sign", "+"], "--q", "1.3"),
    "equiv": (["--a-spec", "Rsplit_n,n=2,(+,+)", "--b-spec", "Rsplit_n,n=2,(+,-)"],
              "--q", "4"),
    "tensor": (["--a-spec", "T_l,l=1/2,omega=1", "--b-spec", "T_l,l=1,omega=i"],
               "--q", "1.3"),
    "spectrum": (["--family", "Qp_lambda", "--p", "5"], "--lambda", "2"),
    "central": (["--k", "1"], "--p", "4"),
}


class TestDashAndCommaValues:
    @pytest.mark.parametrize("omega", ["-i", "-1"])
    def test_value_with_leading_dash(self, omega, capsys):
        code, out = run(capsys, "construct", "--family", "T_l", "--l", "1/2",
                        "--q", "1.3", "--omega", omega)
        assert code == 0
        assert json.loads(out)["params"]["omega"] == omega

    def test_complex_value_with_leading_dash(self, capsys):
        code, out = run(capsys, "construct", "--family", "R_ab_lambda", "--p", "5",
                        "--a", "-1.5i", "--b", "1", "--lambda", "2")
        assert code == 0
        assert json.loads(out)["params"]["a"] == [0.0, -1.5]

    def test_sign_pair_grid(self, capsys):
        code, out = run(capsys, "sweep", "spectrum", "--family", "Rsplit_n",
                        "--n", "2", "--q", "4", "--signs-grid", "(+,+),(+,-)")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["point"] for r in recs] == [{"signs": "(+,+)"}, {"signs": "(+,-)"}]
        assert all(r["ok"] for r in recs)

    def test_sign_pair_grid_csv_quotes(self, capsys):
        code, out = run(capsys, "sweep", "spectrum", "--family", "Rsplit_n",
                        "--n", "2", "--q", "4", "--signs-grid", "(+,+),(+,-)",
                        "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "signs,re,im,multiplicity"
        assert len(lines) == 5 and lines[1].startswith('"(+,+)",')

    def test_dash_grid_values(self, capsys):
        code, out = run(capsys, "sweep", "spectrum", "--family", "T_l", "--l", "1/2",
                        "--q", "1.3", "--omega-grid", "-i,i")
        assert code == 0
        recs = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["point"]["omega"] for r in recs] == ["-i", "i"]
        assert all(r["ok"] for r in recs)


class TestSweepMatchesSingleRun:
    @pytest.mark.parametrize("command", sorted(SINGLE_RUNS))
    def test_result_equals_direct_output(self, command, capsys):
        base, flag, value = SINGLE_RUNS[command]
        code, out = run(capsys, command, *base, flag, value)
        assert code == 0
        code, line = run(capsys, "sweep", command, *base, f"{flag}-grid", value)
        assert code == 0
        rec = json.loads(line)
        assert rec["ok"] is True
        assert rec["point"] == {flag[2:]: value}
        assert rec["result"] == json.loads(out)

    @pytest.mark.parametrize("command", sorted(SINGLE_RUNS))
    def test_direct_output_is_one_compact_line(self, command, capsys):
        base, flag, value = SINGLE_RUNS[command]
        _, out = run(capsys, command, *base, flag, value)
        assert out == json.dumps(json.loads(out)) + "\n"


class TestCsvSweep:
    def test_header_and_rows_for_every_point(self, capsys):
        code, out = run(capsys, "sweep", "spectrum", "--family", "Qp_lambda",
                        "--p", "5", "--k", "1", "--lambda-grid", "0.5,2",
                        "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,re,im,multiplicity"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["0.5"] * 5 + ["2"] * 5
        assert all(len(r) == 4 and r[3] == "1" for r in rows)

    def test_rows_match_single_run_csv(self, capsys):
        _, single = run(capsys, "spectrum", "--family", "Qp_lambda", "--p", "5",
                        "--lambda", "2", "--format", "csv")
        _, swept = run(capsys, "sweep", "spectrum", "--family", "Qp_lambda",
                       "--p", "5", "--lambda-grid", "2", "--format", "csv")
        want = single.strip().splitlines()
        got = swept.strip().splitlines()
        assert got[0] == "lambda," + want[0]
        assert got[1:] == ["2," + row for row in want[1:]]

    def test_failed_point_to_stderr_exit_1(self, capsys):
        code = main(["sweep", "spectrum", "--family", "Qp_lambda", "--p", "5",
                     "--lambda-grid", "2,1+", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: " in captured.err and "1+" in captured.err
        lines = captured.out.strip().splitlines()
        assert lines[0] == "lambda,re,im,multiplicity"
        assert lines[1:] and all(x.startswith("2,") for x in lines[1:])

    def test_csv_only_for_spectrum(self, capsys):
        code = main(["sweep", "central", "--p-grid", "4", "--format", "csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestReadmeExamples:
    def test_every_example_exits_zero(self, capsys, monkeypatch, tmp_path):
        text = README.read_text()
        block = text.split("## Command line", 1)[1].split("```bash", 1)[1]
        block = block.split("```", 1)[0]
        examples = [shlex.split(x)[1:] for x in block.splitlines()
                    if x.startswith("qso3 ")]
        assert len(examples) >= 8
        monkeypatch.chdir(tmp_path)
        for argv in examples:
            code = main(argv)
            assert code == 0, (argv, capsys.readouterr().err)

    def test_library_quick_start(self, capsys):
        block = README.read_text().split("## Library quick start", 1)[1]
        block = block.split("```python", 1)[1].split("```", 1)[0]
        scope = {}
        exec(block, scope)
        assert capsys.readouterr().out.splitlines()[1] == "[3, 3]"
        rctx = scope["rctx"]
        coeffs = scope["central_poly"](rctx).coeffs
        powers = np.flatnonzero(np.abs(coeffs) > rctx.floor())
        assert rctx.p == 8 and list(powers) == [0, 2, 4, 6]  # I^8, I^6, I^4, I^2
        assert np.all(np.abs(coeffs[powers].real - [1, 4, 5, 2]) <= rctx.threshold(5))
        assert np.all(np.abs(coeffs.imag) < rctx.floor())


class TestEntryPoint:
    def test_console_script(self):
        proc = subprocess.run([sys.executable, "-m", "qso3.cli", "central",
                               "--p", "3", "--k", "1"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["coeffs"] == [1, 0, 1, 0]
