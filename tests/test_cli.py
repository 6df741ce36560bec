import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ytwo
from ytwo import cli, clifford, spectool
from ytwo.cli import build_parser, run
from ytwo.errors import NotCliffordGroupError, NotScalarError, NotUnitError


def run_json(capsys, argv):
    code = run(argv)
    data = json.loads(capsys.readouterr().out)
    return code, data


class TestExitCodes:
    def test_pass(self, capsys):
        assert run(["verify", "powers", "--kmax", "3"]) == 0
        assert "0 failed" in capsys.readouterr().out

    def test_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["verify", "nonsense"])
        assert err.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as err:
            run(["decompose"])
        assert err.value.code == 2

    def test_cap_exit(self, capsys):
        code = run(
            ["specialize", "--m", "3", "--n", "5", "--enumerate", "--cap", "50"]
        )
        assert code == 3
        assert "skip" in capsys.readouterr().out


class TestModuleEntry:
    """``python -m ytwo`` runs the command line, and importing it loads
    neither ``dataclasses`` nor ``inspect`` (they cost most of its
    start-up)."""

    def python(self, *args):
        path = [str(Path(ytwo.__file__).parent.parent), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
        )

    def test_python_m_ytwo(self):
        proc = self.python("-m", "ytwo", "verify", "powers", "--kmax", "3", "--json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == "verify powers"
        probe = (
            "import sys; before = set(sys.modules); import ytwo.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
        )
        proc = self.python("-c", probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestJsonReports:
    def test_schema(self, capsys):
        code, data = run_json(
            capsys, ["verify", "relations", "--m", "3", "--kmax", "2", "--json"]
        )
        assert code == 0
        assert set(data) == {"command", "params", "checks", "elapsed_ms"}
        assert data["command"] == "verify relations"
        for check in data["checks"]:
            assert set(check) == {"name", "status", "expected", "actual", "detail"}
            assert check["status"] in ("pass", "fail", "skip")

    def test_byte_deterministic_modulo_elapsed(self, capsys):
        argv = ["verify", "lifting", "--m", "3", "--words", "5", "--json"]
        _, first = run_json(capsys, argv)
        _, second = run_json(capsys, argv)
        first["elapsed_ms"] = second["elapsed_ms"] = 0
        assert json.dumps(first) == json.dumps(second)

    def test_seed_changes_sampling(self, capsys):
        base = ["verify", "lifting", "--m", "3", "--words", "5", "--json"]
        _, with_default = run_json(capsys, base)
        _, with_seed = run_json(capsys, base + ["--seed", "7"])
        names = lambda d: [c["name"] for c in d["checks"]]
        assert names(with_default) == names(with_seed)  # schema is stable
        assert with_seed["params"]["seed"] == "7"

    def test_specialize_json(self, capsys):
        code, data = run_json(
            capsys,
            ["specialize", "--m", "3", "--n", "5", "--enumerate", "--json"],
        )
        assert code == 0
        by_name = {c["name"]: c for c in data["checks"]}
        assert by_name["group_order_phi"]["actual"] == "4080"
        assert by_name["group_order_eta"]["actual"] == "4080"
        assert by_name["a_order_phi"]["status"] == "pass"

    def test_specialize_large_n_orders(self, capsys):
        # the order of a is read off the factors of n = 2**17 - 1, a prime,
        # with no search up to n
        code, data = run_json(
            capsys, ["specialize", "--m", "3", "--n", "131071", "--json"]
        )
        assert code == 0
        by_name = {c["name"]: c for c in data["checks"]}
        for label in ("phi", "eta"):
            check = by_name[f"a_order_{label}"]
            assert (check["status"], check["actual"]) == ("pass", "131071")


class TestSpecializeOrders:
    @pytest.mark.parametrize(
        "eta_order, code, phi_detail, eta_detail",
        [(4080, 0, None, None), (4081, 1, "eta order 4081", "phi order 4080")],
    )
    def test_orders_compared_without_expected_order(
        self, capsys, monkeypatch, eta_order, code, phi_detail, eta_detail
    ):
        real = cli.small_cases_check

        def unexpected(*args, **kwargs):
            g = real(*args, **kwargs)
            g.expected_order = None
            if g.order_eta != eta_order:
                g.order_eta = eta_order
            return g

        monkeypatch.setattr(cli, "small_cases_check", unexpected)
        got, data = run_json(
            capsys, ["specialize", "--m", "3", "--n", "5", "--enumerate", "--json"]
        )
        assert got == code
        by_name = {c["name"]: c for c in data["checks"]}
        status = "pass" if code == 0 else "fail"
        for label, actual, detail in (
            ("phi", "4080", phi_detail), ("eta", str(eta_order), eta_detail)
        ):
            check = by_name[f"group_order_{label}"]
            assert (check["status"], check["actual"], check["detail"]) == (
                status, actual, detail
            )

    def test_cap_hit_below_expected_order_fails(self, capsys, monkeypatch):
        # passing a cap at or above the expected order disproves that order;
        # under --enumerate the cap is hit too, and the failure wins (1, not 3)
        monkeypatch.setitem(spectool.EXPECTED_ORDERS, (3, 5), 1000)
        argv = ["specialize", "--m", "3", "--n", "5", "--cap", "2000", "--json"]
        for extra in ([], ["--enumerate"]):
            code, data = run_json(capsys, argv + extra)
            assert code == 1
            assert data["checks"][-1] == {
                "name": "group_order",
                "status": "fail",
                "expected": "1000",
                "actual": "> 2000",
                "detail": "cap 2000 exceeded",
            }

    def test_failed_specialization_is_a_failed_check(self, capsys, monkeypatch):
        monkeypatch.setattr(spectool, "relator_failures", lambda *args: ["comm_k1"])
        code, data = run_json(capsys, ["specialize", "--m", "3", "--n", "5", "--json"])
        assert code == 1
        assert data["checks"] == [
            {
                "name": "relators_specialized/m=3/n=5",
                "status": "fail",
                "expected": None,
                "actual": None,
                "detail": "specialized relators failed: ['comm_k1']",
            }
        ]
        assert spectool.small_cases_check(3, 5).status == "fail"

    def test_unknown_order_not_enumerated(self, capsys):
        code, data = run_json(capsys, ["specialize", "--m", "3", "--n", "9", "--json"])
        assert code == 0
        assert data["checks"][-1] == {
            "name": "group_order",
            "status": "skip",
            "expected": None,
            "actual": None,
            "detail": "expected order unknown; enumeration not requested",
        }


class TestTextReport:
    def test_lines_character_for_character(self):
        report = cli.RunReport(command="specialize", params={}, elapsed_ms=12)
        report.add("a_order_phi", True, "5", "5")
        report.add("group_order", False, "1000", "> 2000", "cap 2000 exceeded")
        report.checks.append(("group_order_eta", None, None, None, "not requested"))
        assert report.render_text() == (
            "[pass] a_order_phi\n"
            "[fail] group_order (expected 1000, got > 2000)  -- cap 2000 exceeded\n"
            "[skip] group_order_eta  -- not requested\n"
            "specialize: 1 passed, 1 failed, 1 skipped (12 ms)"
        )


class TestGuardedDomainErrors:
    """A domain error inside a guarded check is a structured fail, not a
    traceback."""

    @pytest.mark.parametrize(
        "error", [NotUnitError, NotScalarError, NotCliffordGroupError]
    )
    def test_error_becomes_fail_check(self, capsys, monkeypatch, error):
        def broken(k):
            raise error(f"broken at k={k}")

        monkeypatch.setattr(cli, "check_power_identities", broken)
        code, data = run_json(capsys, ["verify", "powers", "--kmax", "1", "--json"])
        assert code == 1
        assert [(c["name"], c["status"], c["detail"]) for c in data["checks"]] == [
            ("power_identities/k=0", "fail", "broken at k=0"),
            ("power_identities/k=1", "fail", "broken at k=1"),
        ]

    def test_lifting_error_becomes_fail_check(self, capsys, monkeypatch):
        # Generators and words are judged alike by clifford.lifts: with
        # its intertwining check raising, every generator's lifting check
        # and the words check fail with the error as detail, and the
        # generators' norm checks, which do not intertwine, still pass.
        def broken(c, mat):
            raise NotScalarError("planted error in the lifting judgment")

        monkeypatch.setattr(clifford, "intertwines", broken)
        argv = ["verify", "lifting", "--m", "4", "--words", "5", "--json"]
        code, data = run_json(capsys, argv)
        assert code == 1
        failed = {c["name"]: c["detail"] for c in data["checks"] if c["status"] == "fail"}
        words = failed.pop("lifting/m=4/random_words(count=5,maxlen=30)")
        assert words.startswith("first failing word ")
        assert words.endswith(": planted error in the lifting judgment")
        assert len(failed) == 9 and "lifting/m=4/generator_a" in failed
        assert all(name.startswith("lifting/m=4/generator_") for name in failed)
        assert set(failed.values()) == {"planted error in the lifting judgment"}


class TestSuites:
    def test_relations_all_reps(self, capsys):
        assert (
            run(["verify", "relations", "--m", "3", "--kmax", "2", "--rep", "all"])
            == 0
        )
        out = capsys.readouterr().out
        assert "phi/m=3" in out and "psi/m=3" in out and "eta/m=3" in out

    def test_lifting(self, capsys):
        # generators and words alike by clifford.lifts: the spinor norm,
        # then intertwining
        for m in ("3", "6"):
            assert run(["verify", "lifting", "--m", m, "--words", "30"]) == 0

    def test_closed_form(self, capsys):
        assert run(["verify", "closed-form", "--m", "3", "--kmax", "4"]) == 0

    def test_basis(self, capsys):
        assert run(["verify", "basis", "--m", "3"]) == 0

    def test_center(self, capsys):
        assert run(["verify", "center", "--m", "3"]) == 0
        assert run(["verify", "center", "--m", "4"]) == 0

    def test_center_ignores_n(self, capsys):
        # --n stays accepted, but the centre is computed over GF(2) and
        # reads it nowhere: only the echoed parameter differs
        reports = []
        for n in ("5", "7"):
            code, data = run_json(capsys, ["verify", "center", "--n", n, "--json"])
            assert code == 0 and data["params"].pop("n") == n
            data.pop("elapsed_ms")
            reports.append(data)
        assert reports[0] == reports[1]

    def test_extended(self, capsys):
        assert run(["verify", "extended", "--m", "3"]) == 0

    def test_decompose(self, capsys):
        assert run(["decompose", "--rank", "9"]) == 0
        out = capsys.readouterr().out
        assert "pair_3" in out and "residual_rank" in out

    def test_augmentation(self, capsys):
        assert run(["augmentation", "--n", "7"]) == 0
        assert "[3, 3]" in capsys.readouterr().out

    def test_augmentation_past_degree_20(self, capsys):
        # n = 29 needs GF(2**28), built without tables
        assert run(["augmentation", "--n", "29"]) == 0
        assert "[28]" in capsys.readouterr().out

    def test_skip_over_cap(self, capsys):
        code = run(["specialize", "--m", "6", "--n", "5"])
        assert code == 0  # skip without --enumerate is not a cap failure
        assert "skip" in capsys.readouterr().out


class TestParser:
    def test_prog_name(self):
        assert build_parser().prog == "ytwo"

    def test_seed_everywhere(self):
        parser = build_parser()
        for argv in (
            ["verify", "relations"],
            ["verify", "powers"],
            ["decompose", "--rank", "5"],
            ["specialize", "--m", "3", "--n", "5"],
            ["augmentation", "--n", "5"],
        ):
            assert parser.parse_args(argv).seed == 42


    def test_run_builds_the_parser_once(self, monkeypatch, capsys):
        # one tree per process, and reading arguments leaves nothing in it:
        # the second call reports its own parameters, and the help of the
        # reused tree is a fresh tree's
        built = []

        def counted():
            built.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        for kmax in (2, 3):
            code, data = run_json(capsys, ["verify", "powers", "--kmax", str(kmax), "--json"])
            assert code == 0 and data["params"]["kmax"] == str(kmax)
        with pytest.raises(SystemExit) as err:
            run(["--help"])
        assert err.value.code == 0
        assert len(built) == 1
        assert capsys.readouterr().out == build_parser().format_help()

    def test_lifting_m_bound(self):
        parser = build_parser()
        assert parser.parse_args(["verify", "lifting", "--m", "12"]).m == 12
        with pytest.raises(SystemExit) as err:
            parser.parse_args(["verify", "lifting", "--m", "13"])
        assert err.value.code == 2


class TestArgumentValidation:
    """Out-of-range arguments are usage errors: exit 2 before any work,
    with no traceback and no report."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "relations", "--m", "2"],
            ["verify", "relations", "--kmax", "0"],
            ["verify", "relations", "--m", "11"],
            ["verify", "lifting", "--m", "13"],
            ["verify", "closed-form", "--m", "101"],
            ["verify", "closed-form", "--kmax", "-1"],
            ["specialize", "--m", "3", "--n", "4"],
            ["specialize", "--m", "2", "--n", "5"],
            ["specialize", "--m", "11", "--n", "5"],
            ["specialize", "--m", "3", "--n", "5", "--cap", "0"],
            ["verify", "center", "--n", "4"],
            ["verify", "lifting", "--words", "-5"],
            ["verify", "lifting", "--maxlen", "-1"],
            ["verify", "basis", "--m", "9"],
            ["decompose", "--rank", "3"],
            ["augmentation", "--n", "67"],
            ["verify", "center", "--m", "3", "--n", "67"],
            ["verify", "relations", "--kmax", "31"],
            ["verify", "closed-form", "--kmax", "51"],
            ["verify", "powers", "--kmax", "1001"],
            ["verify", "lifting", "--words", "2501"],
            ["verify", "lifting", "--maxlen", "101"],
            ["decompose", "--rank", "151"],
            ["specialize", "--m", "3", "--n", "5", "--cap", "2000001"],
            ["augmentation", "--n", "1048577"],
        ],
    )
    def test_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            run(argv + ["--json"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument" in captured.err
