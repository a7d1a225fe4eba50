import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import quivercount
from quivercount import cli, closedforms, kacpoly, verify
from quivercount.cli import main
from quivercount.quiver import cyclic_quiver, kronecker_quiver

# the directory the tests import quivercount from, handed to the CLI
# subprocesses so that they run the same package without an install
SRC = str(Path(quivercount.__file__).resolve().parents[1])


@pytest.fixture
def c3_file(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(json.dumps({
        "vertices": ["1", "2", "3"],
        "arrows": [{"src": 0, "dst": 1}, {"src": 1, "dst": 2}, {"src": 2, "dst": 0}],
    }))
    return str(path)


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps({
        "vertices": ["1", "2"],
        "arrows": [{"src": 0, "dst": 1}],
    }))
    return str(path)


@pytest.fixture
def gloop2_file(tmp_path):
    path = tmp_path / "gloop2.json"
    path.write_text(json.dumps({
        "vertices": ["v"],
        "arrows": [{"src": 0, "dst": 0}, {"src": 0, "dst": 0}],
    }))
    return str(path)


def run_cli(args, timeout=None):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "quivercount.cli"] + args,
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


class TestCommands:
    def test_kac(self, c3_file):
        code, out, _ = run_cli(["kac", "--quiver", c3_file, "--alpha", "1"])
        assert code == 0 and out.strip() == "q + 2"
        code, out, _ = run_cli(["kac", "--quiver", c3_file, "--alpha", "1",
                                "--method", "tree"])
        assert code == 0 and out.strip() == "q + 2"

    def test_kac_ignores_multiplicities(self, tmp_path):
        # counts take --alpha; a "multiplicities" key in the file is ignored
        a2 = {"vertices": ["1", "2"], "arrows": [{"src": 0, "dst": 1}]}
        runs = []
        for name, data in (("plain", a2), ("mult", {**a2, "multiplicities": [2, 3]})):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            runs.append(run_cli(["kac", "--quiver", str(path), "--alpha", "2"]))
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1].strip() == "2"

    def test_kac_gloop(self):
        code, out, _ = run_cli(["kac-gloop", "--g", "1", "--alpha", "3", "--rank", "3"])
        assert code == 0
        assert out.strip() == "q^7 + q^6 + 3q^5 + 2q^4 + 2q^3"

    def test_limits(self, c3_file):
        code, out, _ = run_cli(["limits", "--quiver", c3_file])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "A: (q^2 + 4q + 1) / (q^2 - 2q + 1)"
        assert lines[1] == "B: (q^2 + 4q + 1) / (q^2)"

    def test_limits_past_ten_arrows(self, tmp_path):
        # the 12-Kronecker quiver has 91 lattice state pairs; the 11-cycle
        # needs 3^11, past the cap, and the 40-cycle 3^40
        kronecker = tmp_path / "k12.json"
        kronecker_quiver(12).save(kronecker)
        code, out, _ = run_cli(["limits", "--quiver", str(kronecker)])
        A, B = kacpoly.limits(kronecker_quiver(12))
        assert code == 0 and out.strip().splitlines() == [f"A: {A.to_string()}",
                                                          f"B: {B.to_string()}"]
        cycle = tmp_path / "c11.json"
        cyclic_quiver(11).save(cycle)
        code, out, err = run_cli(["limits", "--quiver", str(cycle)])
        assert code == 3 and out == "" and "needs 177147" in err
        # the 40-cycle is refused from its class sizes, as fast as the 11-cycle
        cycle = tmp_path / "c40.json"
        cyclic_quiver(40).save(cycle)
        for command in ("limits", "hilbert"):
            code, out, err = run_cli([command, "--quiver", str(cycle)])
            assert code == 3 and out == "" and f"needs {3 ** 40}" in err

    def test_kronecker_with_pipeline(self):
        code, out, _ = run_cli(["kac-kronecker", "--r", "3", "--alpha", "1",
                                "--via-zeta"])
        # exit 4 means the zeta-pipeline cross-check disagreed
        assert code == 0
        # A(q) in rank (1,2) is |Gr(2,3)(F_q)|: rank-2 2x3 matrices modulo
        # GL_1 x GL_2; test_kronecker_A_matches_census checks it by brute force
        assert out.strip() == "q^2 + q + 1"

    def test_kronecker_for_every_alpha(self):
        code, out, _ = run_cli(["kac-kronecker", "--r", "5", "--alpha", "7", "--via-zeta"])
        assert code == 0
        assert out.strip() == closedforms.kronecker_A(5, 7).to_string()
        code, out, _ = run_cli(["kac-kronecker", "--help"])
        assert code == 0 and "any alpha >= 1" in out

    def test_jet_series_json(self, c3_file, tmp_path):
        out_file = tmp_path / "jets.json"
        code, _, _ = run_cli(["--format", "json", "--out", str(out_file),
                              "jet-series", "--quiver", c3_file, "--q", "2",
                              "--n-max", "2"])
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["counts"] == [28, 592]

    def test_fiber_count_symbolic(self, a2_file):
        code, out, _ = run_cli(["fiber-count", "--quiver", a2_file,
                                "--alpha", "1", "--symbolic"])
        assert code == 0 and out.strip() == "2q - 1"

    def test_fiber_count_deformed(self, a2_file):
        code, out, _ = run_cli(["fiber-count", "--quiver", a2_file,
                                "--alpha", "1", "--rank", "1,1", "--q", "3",
                                "--lam", "1,-1"])
        assert code == 0 and out.strip() == "2"

    def test_ask(self, tmp_path):
        theta = tmp_path / "theta.json"
        theta.write_text("[[[1]]]")
        code, out, _ = run_cli(["ask", "--theta", str(theta), "--q", "2",
                                "--n-max", "2"])
        assert code == 0 and out.strip() == "3/2 2"

    def test_hilbert(self, c3_file):
        code, out, _ = run_cli(["hilbert", "--quiver", c3_file])
        assert code == 0
        assert out.strip() == "(q^2 + 4q + 1) / (q^2 - 2q + 1)"

    def test_hall(self):
        code, out, _ = run_cli(["hall", "--alpha", "1", "--q", "2",
                                "--rank1", "1,0", "--rank2", "0,1"])
        assert code == 0
        data = json.loads(out)
        assert data == {"[0]*[0]": {"[0]": "1", "[1]": "1"}}

    def test_hall_text_is_its_json(self):
        # the text form is the JSON form: both formats print the same bytes
        argv = ["hall", "--alpha", "1", "--q", "2", "--rank1", "1,1", "--rank2", "1,0"]
        text, as_json = run_cli(argv), run_cli(["--format", "json"] + argv)
        assert text == as_json and text[0] == 0
        assert text[1] == json.dumps(json.loads(text[1]), indent=2, sort_keys=True) + "\n"


class TestDeterminism:
    def test_jobs_do_not_change_output(self, c3_file):
        # --jobs is accepted for compatibility and has no effect
        runs = []
        for jobs in ("1", "2"):
            code, out, _ = run_cli(["--jobs", jobs, "jet-series", "--quiver",
                                    c3_file, "--rank", "1,1,1", "--q", "2",
                                    "--n-max", "2"])
            assert code == 0 and out.strip() == "28 592"
            runs.append(out)
        assert runs[0] == runs[1]

    def test_jobs_do_not_change_sharded_output(self, gloop2_file):
        # rank 2 is not all ones; this is the benchmark's argv form
        for jobs in ("1", "2"):
            code, out, _ = run_cli(["--jobs", jobs, "fiber-count", "--quiver",
                                    gloop2_file, "--alpha", "1", "--rank", "2",
                                    "--q", "2"])
            assert code == 0 and out.strip() == "11776"

    def test_jobs_do_not_change_deformed_output(self, c3_file):
        # 5^6 points in chunks of at most 2^15 / (3 * 4 * 2) = 1365, so the
        # serial walk crosses several chunks; 600000 = |GL_r| A_r / (1 - 1/q)
        # with |GL_r| = 20^3 and A_r = 60 (here <r,r> = 0)
        from quivercount.bruteforce import _chunk_size
        assert 5 ** 6 > 2 * _chunk_size(3 * 4 * 2)
        for jobs in ("1", "2"):
            code, out, _ = run_cli(["--jobs", jobs, "fiber-count", "--quiver", c3_file,
                                    "--alpha", "2", "--q", "5", "--lam=1,1,-2"])
            assert code == 0 and out.strip() == "600000"

    def test_repeat_runs_identical(self, c3_file):
        outs = {run_cli(["kac", "--quiver", c3_file, "--alpha", "2"])[1]
                for _ in range(2)}
        assert len(outs) == 1


class TestErrorPaths:
    def test_bad_quiver_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["kac", "--quiver", str(bad), "--alpha", "1"])
        assert code == 2 and "cannot read quiver" in err

    @pytest.mark.parametrize("data,message", [
        ({"vertices": ["1", "2"], "arrows": [{"src": 0.5, "dst": 1}]}, "arrow 0 (0.5, 1)"),
        ({"vertices": ["1", "2"], "arrows": [{"src": 0, "dst": 1}, {"src": "0", "dst": 1}]},
         "arrow 1 ('0', 1)"),
        ({"vertices": ["1", "2"], "arrows": [{"src": 0, "dst": True}]}, "arrow 0 (0, True)"),
        ({"vertices": "12", "arrows": [{"src": 0, "dst": 1}]}, "vertices must be a list"),
    ], ids=["float", "string", "bool", "vertices"])
    def test_quiver_file_types(self, tmp_path, data, message):
        # int() would read 0.5 and "0" as vertex 0, and true as vertex 1
        path = tmp_path / "q.json"
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["kac", "--quiver", str(path), "--alpha", "2"])
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert "cannot read quiver file" in err and message in err

    def test_disconnected_kac(self, tmp_path):
        path = tmp_path / "disc.json"
        path.write_text(json.dumps({"vertices": ["1", "2"], "arrows": []}))
        code, _, err = run_cli(["kac", "--quiver", str(path), "--alpha", "1"])
        assert code == 2 and "connected" in err

    def test_not_two_connected_limits(self, a2_file):
        code, _, err = run_cli(["limits", "--quiver", a2_file])
        assert code == 2 and "2-connected" in err

    def test_cap_exceeded(self, c3_file):
        code, _, err = run_cli(["--max-space-log2", "2", "jet-series",
                                "--quiver", c3_file, "--q", "2", "--n-max", "2"])
        assert code == 3 and "cap" in err.lower()

    def test_hall_summand_cap(self):
        # every rank is within its cap, but the flag table would need all
        # 9^8 [4 choose 2]_9 rank-2 summands of O_3^4
        code, out, err = run_cli(["hall", "--alpha", "3", "--q", "9",
                                  "--rank1", "2,0", "--rank2", "2,0"])
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        assert "200000 summand pairs" in err and "needs 321214632102 summand pairs" in err

    @pytest.mark.parametrize("argv", [
        ["hall", "--alpha", "1", "--rank1", "1,0", "--rank2", "0,1", "--q", "0"],
        ["ask", "--theta", "THETA", "--n-max", "2", "--q", "0"],
        ["fiber-count", "--quiver", "QUIVER", "--alpha", "1", "--q", "0"],
        ["fiber-count", "--quiver", "QUIVER", "--alpha", "1", "--q", "-3"],
        ["jet-series", "--quiver", "QUIVER", "--n-max", "2", "--q", "0"],
    ])
    def test_field_size_below_two(self, gloop2_file, tmp_path, argv):
        # q = 0 once sent the prime-power factorisation into an endless loop,
        # and q <= 0 reached log2(q) in the space cap
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps([[[1, 0], [0, 1]]]))
        files = {"THETA": str(theta), "QUIVER": gloop2_file}
        code, out, err = run_cli([files.get(a, a) for a in argv], timeout=60)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert f"field size must be >= 2, got {argv[-1]}" in err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one(self, gloop2_file, jobs):
        code, out, err = run_cli(["--jobs", jobs, "fiber-count", "--quiver",
                                  gloop2_file, "--alpha", "1", "--rank", "2",
                                  "--q", "2"])
        assert code == 2 and out == "" and "--jobs" in err

    @pytest.mark.parametrize("args,message", [
        (["--alpha", "1", "--q", "5", "--rank", "1,1,1"], "2 entries"),
        (["--alpha", "1", "--q", "5", "--rank", "1"], "2 entries"),
        (["--alpha", "1", "--q", "5", "--lam=1,-1,7"], "2 entries"),
        (["--alpha", "0", "--q", "5"], "alpha"),
        (["--alpha", "1", "--q", "6"], "field size"),
        (["--alpha", "1", "--symbolic", "--rank", "1,1,1"], "2 entries"),
        (["--alpha", "1", "--symbolic", "--rank", "1"], "2 entries"),
        (["--alpha", "1", "--q", "5", "--rank", "1,a"], "comma-separated list of integers"),
        (["--alpha", "1", "--q", "5", "--rank=-1,1"], "rank entries must be >= 0"),
        (["--alpha", "1", "--q", "2", "--rank", ""], "comma-separated list of integers"),
        # an empty --lam is a malformed deformation, not the zero fiber
        (["--alpha", "1", "--q", "2", "--lam="], "comma-separated list of integers"),
    ])
    def test_malformed_fiber_input(self, a2_file, args, message):
        code, out, err = run_cli(["fiber-count", "--quiver", a2_file] + args)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and message in err

    def test_empty_jet_rank(self, a2_file):
        # an empty --rank is a malformed rank vector, not a missing one
        code, out, err = run_cli(["jet-series", "--quiver", a2_file, "--q", "2",
                                  "--n-max", "1", "--rank", ""])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "comma-separated list of integers" in err

    @pytest.mark.parametrize("basis", [
        [[[1, 0], [0]], [[1, 1], [0, 1]]],
        [[[1, 0], [0, 1]], [[1, 1]]],
        [[[1, 0], [0, 1]], [[1, 1, 0], [0, 1, 0]]],
    ])
    def test_ragged_theta(self, tmp_path, basis):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(basis))
        code, out, err = run_cli(["ask", "--theta", str(path), "--q", "2", "--n-max", "1"])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "2 x 2" in err

    @pytest.mark.parametrize("family,message", [
        ([], "non-empty list of matrices"),
        ({"a": 1}, "non-empty list of matrices"),
        ([1, 2], "non-empty list of matrices"),
        ([[["x"]]], "entries must be integers"),
    ], ids=["empty", "object", "not-matrices", "not-integers"])
    def test_malformed_theta(self, tmp_path, family, message):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(family))
        code, out, err = run_cli(["ask", "--theta", str(path), "--q", "2", "--n-max", "1"])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and message in err

    @pytest.mark.parametrize("args,message", [
        pytest.param(["kac", "--quiver", "{gloop2}", "--alpha", "-1"], "alpha", id="kac-alpha"),
        pytest.param(["kac", "--quiver", "{gloop2}", "--alpha", "-1", "--method", "tree"], "alpha",
                     id="kac-tree-alpha"),
        pytest.param(["kac-gloop", "--g", "2", "--alpha", "-1", "--rank", "2"], "alpha",
                     id="kac-gloop-alpha"),
        pytest.param(["kac-gloop", "--g", "-1", "--alpha", "1", "--rank", "2"], "g must be",
                     id="kac-gloop-g-rank2"),
        pytest.param(["kac-gloop", "--g", "-2", "--alpha", "2", "--rank", "3"], "g must be",
                     id="kac-gloop-g-rank3"),
        pytest.param(["kac-kronecker", "--r", "3", "--alpha", "-1"], "alpha",
                     id="kac-kronecker-alpha"),
        pytest.param(["kac-kronecker", "--r", "3", "--alpha", "0"], "alpha",
                     id="kac-kronecker-alpha-zero"),
        pytest.param(["fiber-count", "--quiver", "{a2}", "--symbolic", "--alpha", "-1"], "alpha",
                     id="fiber-count-alpha"),
        pytest.param(["jet-series", "--quiver", "{a2}", "--q", "2", "--n-max", "-1"], "n_max",
                     id="jet-series-n_max"),
        pytest.param(["hall", "--alpha", "-1", "--q", "2", "--rank1", "1,0", "--rank2", "0,1"],
                     "alpha", id="hall-alpha"),
        pytest.param(["jet-series", "--quiver", "{a2}", "--q", "2", "--n-max", "1", "--rank=-1,1"],
                     "rank entries must be >= 0", id="jet-series-rank entries must be >= 0"),
        pytest.param(["hall", "--alpha", "1", "--q", "2", "--rank1=-1,0", "--rank2", "0,1"],
                     "degrees must be >= 0", id="hall-degrees must be >= 0"),
        pytest.param(["hall", "--alpha", "1", "--q", "2", "--rank1", "1", "--rank2", "0,1"],
                     "2 entries", id="hall-2 entries"),
    ])
    def test_out_of_range_parameter(self, gloop2_file, a2_file, args, message):
        argv = [arg.format(gloop2=gloop2_file, a2=a2_file) for arg in args]
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and message in err

    @pytest.mark.parametrize("args,message", [
        (["ask", "--theta", "{missing}", "--q", "2", "--n-max", "1"],
         "cannot read matrix family file"),
        (["ask", "--theta", "{bad}", "--q", "2", "--n-max", "1"],
         "cannot read matrix family file"),
        (["--out", "{missing}/out.txt", "kac-gloop", "--g", "1", "--alpha", "1", "--rank", "2"],
         "cannot write output file"),
    ], ids=["theta-missing", "theta-not-json", "out-dir-missing"])
    def test_unreadable_file(self, tmp_path, args, message):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        argv = [arg.format(missing=tmp_path / "missing", bad=bad) for arg in args]
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and message in err

    def test_alpha_zero_toric_count(self, gloop2_file):
        code, out, _ = run_cli(["kac", "--quiver", gloop2_file, "--alpha", "0"])
        assert code == 0 and out.strip() == "1"

    def test_no_loops_gloop_count(self):
        # without arrows no representation of rank >= 2 is indecomposable
        code, out, _ = run_cli(["kac-gloop", "--g", "0", "--alpha", "2", "--rank", "3"])
        assert code == 0 and out.strip() == "0"

    def test_usage_error(self):
        code, _, _ = run_cli(["kac"])
        assert code == 2


def test_package_runs_as_a_module():
    # python -m quivercount runs cli.main and exits with its return code
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    for argv, code in ((["--help"], 0), (["kac-gloop", "--g", "2", "--alpha", "0", "--rank", "2"], 2)):
        proc = subprocess.run([sys.executable, "-m", "quivercount"] + argv, capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == code
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(argv)


def test_package_import_leaves_libcrypto_unloaded():
    # hashlib maps libcrypto into every process that imports it, through
    # _hashlib; nothing the package imports needs it
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    code = "import sys, quivercount; print('_hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_cli_import_leaves_verify_unloaded():
    # only the verify command imports the verification suite
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    code = "import sys, quivercount.cli; print('quivercount.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_suite_choices_are_the_criteria_suites():
    assert cli.SUITES == ("all", *dict.fromkeys(suite for _, suite, _ in verify.CRITERIA))


def test_unknown_suite_is_a_usage_error():
    code, out, err = run_cli(["verify", "--suite", "bogus"])
    assert (code, out) == (2, "")
    assert err.endswith("quivercount verify: error: argument --suite: invalid choice: 'bogus' "
                        "(choose from 'all', 'symbolic', 'brute', 'cross', 'hall')\n")


def test_one_parser_per_process(gloop2_file, capsys):
    """main reuses one parser; a failed parse, a good call and another
    subcommand, run in one process, match separate fresh processes."""
    calls = [["--jobs", "0", "kac-gloop", "--g", "2", "--alpha", "1", "--rank", "2"],
             ["kac-gloop", "--g", "2", "--alpha", "1", "--rank", "2"],
             ["--format", "json", "kac", "--quiver", gloop2_file, "--alpha", "2"]]
    codes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == run_cli(argv)
        codes.append(code)
    assert codes == [2, 0, 0]


class TestVerifyOutput:
    """verify honours --format and --out; run here on two cheap criteria,
    one passing and one failing."""

    @pytest.fixture(autouse=True)
    def fake_criteria(self, monkeypatch):
        @verify.criterion("fake identity")
        def holds():
            return "1 instance"

        @verify.criterion("fake counterexample")
        def fails():
            verify.expect(False, "at q=2")

        monkeypatch.setattr(verify, "CRITERIA", [("1", "symbolic", holds), ("2", "brute", fails)])

    def test_json_to_out_file(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        assert main(["--format", "json", "--out", str(path), "verify"]) == 4
        assert capsys.readouterr().out == ""
        record = json.loads(path.read_text())
        assert record["passed"] is False
        assert [(c["criterion"], c["name"], c["passed"], c["detail"])
                for c in record["criteria"]] == [("1", "fake identity", True, "1 instance"),
                                                 ("2", "fake counterexample", False, "at q=2")]
        assert all(c["seconds"] >= 0 for c in record["criteria"])

    def test_text_to_out_file(self, tmp_path, capsys):
        path = tmp_path / "v.txt"
        assert main(["--out", str(path), "verify"]) == 4
        assert capsys.readouterr().out == ""
        assert [re.sub(r" \(\d+\.\ds\)", "", line) for line in path.read_text().splitlines()] == [
            "PASS  fake identity : 1 instance", "FAIL  fake counterexample : at q=2"]

    def test_suite_runs_its_rows(self, capsys):
        assert main(["--format", "json", "verify", "--suite", "symbolic"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["passed"] is True
        assert [c["criterion"] for c in record["criteria"]] == ["1"]
