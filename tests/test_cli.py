import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

import raysearch
from raysearch import (
    CoverParams,
    InfeasibleRegime,
    InstanceParams,
    RoundPlan,
    TurnSequence,
    dumps_strategies,
    growth_factor_delta,
    make_exponential_strategy,
    make_geometric_line_strategy,
    optimal_alpha,
    ratio_lower_bound,
    refute,
    TrivialRegime,
    save_strategies,
    sweep_rows,
    worst_ratio,
)
from raysearch import cli, simulator
from raysearch.cli import BROKEN_PIPE_EXIT, build_parser, main
from raysearch.potential import AuditError, InvalidAssignmentError

from conftest import slow_supremum


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """json.loads that rejects Infinity, -Infinity and NaN, which are not JSON."""

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def call(*argv):
    """main(argv) with stdout and stderr of its own: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _child_env() -> dict:
    """The environment of a child Python that imports raysearch from this checkout."""
    src = str(Path(raysearch.__file__).resolve().parents[1])
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }


class TestBound:
    def test_doubling_text(self, capsys):
        code, out, _ = run(capsys, "bound", "-m", "2", "-k", "1", "-f", "0")
        assert code == 0
        assert "lambda0 = 9" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "bound", "-m", "2", "-k", "3", "-f", "1", "--json")
        doc = json.loads(out)
        assert code == 0
        assert doc["q"] == 4 and doc["s"] == 1
        assert doc["lambda0"] == pytest.approx((8 / 3) * 4 ** (1 / 3) + 1)
        assert doc["alpha"] == pytest.approx(4 ** (1 / 3))

    def test_delta_row(self, capsys):
        code, out, _ = run(
            capsys, "bound", "-m", "2", "-k", "1", "-f", "0", "--lam", "8.0", "--json"
        )
        doc = json.loads(out)
        assert doc["delta"] > 1.0

    def test_delta_text_row(self, capsys):
        code, out, _ = run(capsys, "bound", "-m", "2", "-k", "1", "-f", "0", "--lam", "8.0")
        assert code == 0
        p = InstanceParams(2, 1, 0)
        delta = growth_factor_delta(p.s, p.k, CoverParams(8.0).mu)
        assert out.splitlines()[-1] == f"delta(8.0) = {delta:.10g}"

    def test_eta_mode(self, capsys):
        code, out, _ = run(capsys, "bound", "--eta", "2.0", "--json")
        assert code == 0
        assert json.loads(out)["ratio"] == pytest.approx(9.0)

    # C(1e308) and delta at lambda just above 1 overflow to inf
    _NON_FINITE = [
        (("--eta", "1e308"), "ratio", "C(eta=1e+308) = inf"),
        (
            ("-m", "2", "-k", "200", "-f", "150", "--lam", "1.0000001"),
            "delta",
            "delta(1.0000001) = inf",
        ),
    ]

    @pytest.mark.parametrize("argv, key, _", _NON_FINITE, ids=["eta", "delta"])
    def test_non_finite_json_is_null(self, capsys, argv, key, _):
        code, out, _ = run(capsys, "bound", *argv, "--json")
        assert code == 0
        assert strict_json(out)[key] is None

    @pytest.mark.parametrize("argv, _, line", _NON_FINITE, ids=["eta", "delta"])
    def test_non_finite_text_is_inf(self, capsys, argv, _, line):
        code, out, _ = run(capsys, "bound", *argv)
        assert code == 0
        assert out.splitlines()[-1] == line

    def test_infeasible_exits_one(self, capsys):
        code, _, err = run(capsys, "bound", "-m", "2", "-k", "1", "-f", "1")
        assert code == 1
        assert "infeasible" in err

    def test_trivial_exits_one(self, capsys):
        code, _, err = run(capsys, "bound", "-m", "2", "-k", "4", "-f", "1")
        assert code == 1
        assert "trivial" in err


class TestSimulate:
    def test_summary_and_csv(self, capsys, tmp_path):
        csv = tmp_path / "sweep.csv"
        summary = tmp_path / "summary.json"
        code, out, _ = run(
            capsys,
            "simulate", "-m", "2", "-k", "1", "-f", "0", "-N", "1e3",
            "--csv", str(csv), "--summary", str(summary),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["covered"] is True
        assert doc["sup_ratio"] == pytest.approx(9.0, abs=0.01)
        assert json.loads(summary.read_text()) == doc
        lines = csv.read_text().splitlines()
        assert lines[0] == "# raysearch sweep v1"
        assert lines[1] == "ray,x,just_above,tau,ratio,robot_order"
        assert len(lines) > 3

    def test_deterministic_output(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            run(capsys, "simulate", "-m", "3", "-k", "2", "-f", "0",
                "-N", "1e3", "--csv", str(p))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_uncovered_exits_two(self, capsys, tmp_path):
        strat = tmp_path / "short.txt"
        strat.write_text("1:1.0 2:1.0\n")
        code, out, _ = run(
            capsys,
            "simulate", "-m", "2", "-k", "1", "-f", "0", "-N", "1e3",
            "--strategy", str(strat),
        )
        assert code == 2
        doc = strict_json(out)
        assert doc["covered"] is False and doc["sup_ratio"] is None

    def test_trivial_regime_has_no_lambda0(self, capsys, tmp_path):
        # k = q = 2 robots, one per ray: the sweep answers, but the closed
        # form has no lambda0, so the summary's lambda0 and gap are null
        strat = tmp_path / "straight.txt"
        strat.write_text("1:1e4\n2:1e4\n")
        code, out, _ = run(
            capsys,
            "simulate", "-m", "2", "-k", "2", "-f", "0", "-N", "1e3",
            "--strategy", str(strat),
        )
        assert code == 0
        doc = strict_json(out)
        assert doc["sup_ratio"] == 1.0 and doc["covered"] is True
        assert doc["lambda0"] is None and doc["gap"] is None

    @pytest.mark.parametrize("csv", [False, True])
    def test_mixed_strategy_file_is_rejected(self, capsys, tmp_path, csv):
        # one round plan and one line robot: no ratio is meaningful
        strat = tmp_path / "mixed.txt"
        strat.write_text("1:2.0 2:4.0\n1.0 -2.0 4.0\n")
        extra = ["--csv", str(tmp_path / "sweep.csv")] if csv else []
        code, out, err = run(
            capsys,
            "simulate", "-m", "2", "-k", "2", "-f", "0", "-N", "10",
            "--strategy", str(strat), *extra,
        )
        assert code == 1
        assert out == ""
        assert err == (
            "raysearch: error: strategies mix RoundPlan and TurnSequence: give one kind\n"
        )

    @pytest.mark.parametrize("rows", [None, "breakpoints", "dense"])
    def test_line_file_needs_two_rays(self, capsys, tmp_path, rows):
        # a line set read on three rays printed a two-ray sup beside the
        # three-ray lambda0, and exited 0
        strat = tmp_path / "line.txt"
        strat.write_text("1 -2 4 -8 16 -32 64 -128 256 -512 1024 -2048\n")
        csv = tmp_path / "sweep.csv"
        extra = {None: [], "breakpoints": ["--csv", str(csv)],
                 "dense": ["--csv", str(csv), "--dense"]}[rows]
        code, out, err = run(
            capsys,
            "simulate", "-m", "3", "-k", "1", "-f", "0", "-N", "100",
            "--strategy", str(strat), *extra,
        )
        assert (code, out) == (1, "")
        assert err == "raysearch: error: line strategies need m=2, got m=3\n"
        assert not csv.exists()

    @pytest.mark.parametrize("rows", [None, "breakpoints", "dense"])
    def test_round_past_m_is_rejected(self, capsys, tmp_path, rows):
        # a round on ray 3 of two: no witness there can be meaningful
        strat = tmp_path / "past.txt"
        strat.write_text("1:2.0 2:2.0 3:40.0 1:8.0 2:8.0 1:32 2:32 1:128 2:128\n")
        csv = tmp_path / "sweep.csv"
        extra = {None: [], "breakpoints": ["--csv", str(csv)],
                 "dense": ["--csv", str(csv), "--dense"]}[rows]
        code, out, err = run(
            capsys,
            "simulate", "-m", "2", "-k", "1", "-f", "0", "-N", "100",
            "--strategy", str(strat), *extra,
        )
        assert (code, out) == (1, "")
        assert err == "raysearch: error: robot 0 visits ray 3, past m = 2\n"
        assert not csv.exists()

    @pytest.mark.parametrize("strategy", [None, "1:1.0 2:1.0 1:2.0\n"])
    def test_csv_leaves_the_summary_unchanged(self, capsys, tmp_path, strategy):
        # with --csv the summary comes from the breakpoint rows instead of
        # a second sweep; covered or not, it must read the same
        args = ["simulate", "-m", "2", "-k", "1", "-f", "0", "-N", "1e3"]
        if strategy is not None:
            path = tmp_path / "strategy.txt"
            path.write_text(strategy)
            args += ["--strategy", str(path)]
        plain = run(capsys, *args)
        with_csv = run(capsys, *args, "--csv", str(tmp_path / "sweep.csv"))
        assert with_csv == plain

    def test_answers_past_1e7(self, capsys):
        # the strategy is generated up to N itself, so the sweep covers all
        # of [1, 1e10] and stays below the tight bound
        p = InstanceParams(2, 3, 1)
        code, out, _ = run(capsys, "simulate", "-m", "2", "-k", "3", "-f", "1", "-N", "1e10")
        assert code == 0
        doc = json.loads(out)
        assert doc["covered"] is True
        strat = make_exponential_strategy(p, optimal_alpha(p), 1e10)
        sup, witness = worst_ratio(strat, p, 1e10)
        assert doc["sup_ratio"] == sup < ratio_lower_bound(p)
        assert doc["witness"] == {"ray": witness.ray, "x": witness.x}

    def test_an_underflowing_first_turn_is_usage_error(self, capsys):
        code, out, err = run(capsys, "simulate", "-m", "80", "-k", "159", "-f", "1", "-N", "1")
        assert (code, out) == (1, "")
        alpha = optimal_alpha(InstanceParams(80, 159, 1))
        assert err == (
            f"raysearch: error: InstanceParams(m=80, k=159, f=1), alpha={alpha!r}: "
            "the first turn alpha^-25201 underflows to 0\n"
        )

    @pytest.mark.parametrize("command", ["simulate", "refute"])
    def test_overflowing_horizon_is_usage_error(self, capsys, command):
        extra = ["--lam", "5.3"] if command == "refute" else []
        code, out, err = run(
            capsys, command, "-m", "2", "-k", "3", "-f", "1", "-N", "1e307", *extra
        )
        assert code == 1
        assert out == ""
        # the generator's own ValueError, which names the instance, alpha and N
        alpha = optimal_alpha(InstanceParams(2, 3, 1))
        assert err == (
            f"raysearch: error: InstanceParams(m=2, k=3, f=1), alpha={alpha!r}, N=1e+307: "
            "the largest turn alpha^1542 overflows binary64\n"
        )


class TestRefute:
    def test_certificate_exits_zero(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys,
            "refute", "-m", "2", "-k", "1", "-f", "0", "--lam", "9.5",
            "-N", "1e3", "--trace", str(trace),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "certificate"
        lines = trace.read_text().splitlines()
        assert lines[0] == "# raysearch trace v1"
        assert len(lines) > 2
        # the step column numbers the audited steps 0..n-1, n as in the verdict
        steps = [int(line.split(",")[0]) for line in lines[2:]]
        assert steps == list(range(doc["audit"]["steps"]))

    @pytest.mark.parametrize(
        "mode, mkf, lam, N", [("orc", (2, 3, 1), 5.5, 1e4), ("line", (2, 1, 0), 9.5, 1e3)]
    )
    def test_trace_rows_are_the_library_steps(self, capsys, tmp_path, mode, mkf, lam, N):
        # a row is a step's index and then its tuple, each field by repr
        p = InstanceParams(*mkf)
        make = make_geometric_line_strategy if mode == "line" else make_exponential_strategy
        steps = refute(make(p, optimal_alpha(p), N), lam, p, N, mode).trace.steps
        trace = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys, "refute", *_instance_flags(*mkf), "--lam", repr(lam), "-N", repr(N),
            "--mode", mode, "--trace", str(trace),
        )
        assert code == 0 and steps
        assert trace.read_text().splitlines()[2:] == [
            ",".join(map(repr, (i, *step))) for i, step in enumerate(steps)
        ]

    def test_round_past_m_is_rejected(self, capsys, tmp_path):
        # refute certified this plan, whose sixth round is on ray 5 of two,
        # while simulate rejected it
        strat = tmp_path / "past.txt"
        strat.write_text("1:1 2:2 1:4 2:8 1:16 5:32 1:64 2:128 1:256 2:512 1:1024 2:2048\n")
        outs = {flag: tmp_path / f"{flag}.out" for flag in ("--trace", "--assignment", "--json")}
        for cmd in ("simulate", "refute"):
            argv = [cmd, "-m", "2", "-k", "1", "-f", "0", "-N", "1e3", "--strategy", str(strat)]
            if cmd == "refute":
                argv += ["--lam", "9.5"] + [str(a) for item in outs.items() for a in item]
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == "raysearch: error: robot 0 visits ray 5, past m = 2\n"
        assert not any(path.exists() for path in outs.values())

    def test_failure_exits_two(self, capsys):
        code, out, _ = run(
            capsys,
            "refute", "-m", "2", "-k", "1", "-f", "0", "--lam", "8.0", "-N", "1e3",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["kind"] == "coverage_failure"
        assert 1.0 <= doc["witness"]["point"] <= 1e3

    def test_auto_horizon(self, capsys):
        code, out, _ = run(
            capsys,
            "refute", "-m", "2", "-k", "1", "-f", "0", "--lam", "8.0",
            "--auto-horizon", "-C", "16",
        )
        assert code == 2
        assert json.loads(out)["kind"] == "coverage_failure"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the default C, alpha^(2mk), overflows: it was an OverflowError traceback
            (
                ("-m", "100", "-k", "199", "-f", "1", "--lam", "1.5"),
                "--auto-horizon: C = alpha^(2mk) overflows; give -C",
            ),
            # the estimated N is inf, with the default C or a given one: the
            # generator's message named neither flag
            *[
                (
                    ("-m", "2", "-k", "3", "-f", "1", "--lam", "5.0", *C),
                    "--auto-horizon estimates N = inf: no strategy is generated that far",
                )
                for C in ((), ("-C", "1e300"))
            ],
        ],
        ids=["default-C", "N-inf", "N-inf-given-C"],
    )
    def test_auto_horizon_past_binary64_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, "refute", *argv, "--auto-horizon")
        assert (code, out) == (1, "")
        assert err == f"raysearch: error: {message}\n"

    def test_auto_horizon_of_inf_reads_a_strategy_file(self, capsys, tmp_path):
        p = InstanceParams(2, 3, 1)
        path = tmp_path / "strategy.txt"
        save_strategies(make_exponential_strategy(p, optimal_alpha(p), 1e4), str(path))
        code, out, _ = run(
            capsys, "refute", "-m", "2", "-k", "3", "-f", "1", "--lam", "5.0",
            "--auto-horizon", "--strategy", str(path),
        )
        # a finite strategy cannot cover [1, inf)
        assert code == 2
        assert json.loads(out)["kind"] == "coverage_failure"

    def test_an_infinite_horizon_is_null_in_the_verdict(self, capsys, tmp_path):
        # JSON has no inf: the estimated N = inf is null, printed and in --json
        p = InstanceParams(2, 3, 1)
        strat, verdict = tmp_path / "strategy.txt", tmp_path / "verdict.json"
        save_strategies(make_exponential_strategy(p, optimal_alpha(p), 1e4), str(strat))
        code, out, _ = run(
            capsys, "refute", "-m", "2", "-k", "3", "-f", "1", "--lam", "5.0",
            "--auto-horizon", "--strategy", str(strat), "--json", str(verdict),
        )
        assert code == 2
        assert out == verdict.read_text()
        assert strict_json(out)["params"]["N"] is None

    # a first turn far below 1 makes the first step ratio pass the largest float
    _TINY_FIRST_TURN = "2:1.5 1:3 2:6 1:12 2:24 1:48 2:96 1:192 2:384"

    @pytest.mark.parametrize("k, f, tiny", [(1, 0, "1e-320"), (2, 1, "1e-300")])
    def test_a_step_ratio_past_the_largest_float_certifies(self, tmp_path, k, f, tiny):
        strat = tmp_path / "strategy.txt"
        strat.write_text(f"1:{tiny} {self._TINY_FIRST_TURN}\n" * k)
        code, out, err = call(
            "refute", "-m", "2", "-k", str(k), "-f", str(f), "--lam", "9.5", "-N", "100",
            "--strategy", str(strat),
        )
        assert (code, err) == (0, "")
        doc = strict_json(out)
        assert doc["kind"] == "certificate" and doc["audit"]["steps"] == 8 * k

    def test_an_infinite_step_ratio_is_null_in_the_verdict(self, tmp_path):
        # one step, whose ratio is inf: the audit's min_step_ratio is null
        strat, verdict = tmp_path / "strategy.txt", tmp_path / "verdict.json"
        strat.write_text("1:1e-320 2:1.5 1:3.0\n")
        code, out, err = call(
            "refute", "-m", "2", "-k", "1", "-f", "0", "--lam", "6", "-N", "1",
            "--strategy", str(strat), "--json", str(verdict),
        )
        assert (code, err) == (0, "")
        assert out == verdict.read_text()
        audit = strict_json(out)["audit"]
        assert audit["steps"] == 1 and audit["min_step_ratio"] is None

    def test_a_robot_without_a_next_interval_has_no_audit(self, capsys, tmp_path):
        # robot 1's one interval ends the stream, so no robot has one past
        # the base prefix: a certificate with nothing to audit, and a trace
        # file with its header lines only
        p = InstanceParams(3, 2, 0)
        first = make_exponential_strategy(p, optimal_alpha(p), 1e3)[0]
        strat, trace = tmp_path / "strategy.txt", tmp_path / "trace.csv"
        strat.write_text(dumps_strategies([first]) + "1:5000.0 2:5000.0 3:5000.0\n")
        code, out, _ = run(
            capsys,
            "refute", "-m", "3", "-k", "2", "-f", "0", "--lam", "40", "-N", "1e3",
            "--strategy", str(strat), "--trace", str(trace),
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "certificate" and "audit" not in doc
        assert trace.read_text().splitlines() == [
            "# raysearch trace v1",
            "step,robot,mu_star,x,step_ratio,log_potential",
        ]

    def test_assignment_csv(self, capsys, tmp_path):
        path = tmp_path / "assigned.csv"
        code, _, _ = run(
            capsys,
            "refute", "-m", "2", "-k", "1", "-f", "0", "--lam", "9.5",
            "-N", "1e3", "--assignment", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "# raysearch assignment v1"
        assert lines[1] == "robot,round,t_prime,t"

    def test_gap_detector(self, capsys):
        code, out, _ = run(
            capsys,
            "refute", "-m", "2", "-k", "1", "-f", "0", "--lam", "9.5",
            "-N", "1e3", "--gap-constant", "100.0",
        )
        assert code == 0
        assert json.loads(out)["gap"]["case"] == 1

    def test_gap_is_null_on_a_coverage_failure(self, capsys):
        code, out, _ = run(
            capsys,
            "refute", "-m", "2", "-k", "1", "-f", "0", "--lam", "8.0",
            "-N", "1e3", "--gap-constant", "5.0",
        )
        assert code == 2
        doc = json.loads(out)
        assert doc["kind"] == "coverage_failure" and doc["gap"] is None

    def test_gap_is_null_at_multiplicity_zero(self, capsys, tmp_path):
        # k = 2(f+1) in line mode: s = 0 folds, a certificate with an empty
        # assignment and so, as on a coverage failure, no stream to scan
        strat = tmp_path / "line.txt"
        strat.write_text("100.0\n-100.0\n")
        code, out, _ = run(
            capsys,
            "refute", "--mode", "line", "-m", "2", "-k", "2", "-f", "0",
            "--strategy", str(strat), "--lam", "5", "-N", "10", "--gap-constant", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "certificate" and doc["params"]["multiplicity"] == 0
        assert doc["gap"] is None

    @pytest.mark.parametrize("lam", ["8.0", "9.5"])  # a failure and a certificate
    def test_json_file_is_what_stdout_prints(self, capsys, tmp_path, lam):
        path = tmp_path / "verdict.json"
        code, out, _ = run(
            capsys,
            "refute", "-m", "2", "-k", "1", "-f", "0", "--lam", lam,
            "-N", "1e3", "--json", str(path),
        )
        assert code == (2 if lam == "8.0" else 0)
        assert path.read_text() == out

    @pytest.mark.parametrize("lam", ["8.0", "9.5"])  # a failure and a certificate
    @pytest.mark.parametrize("gap_c", ["0.5", "1.0"])
    def test_gap_constant_at_most_one_exits_one(self, capsys, lam, gap_c):
        code, out, err = run(
            capsys,
            "refute", "-m", "2", "-k", "1", "-f", "0", "--lam", lam,
            "-N", "1e3", "--gap-constant", gap_c,
        )
        assert code == 1
        assert out == ""
        assert err == f"raysearch: error: gap constant C must be > 1, got {float(gap_c)}\n"

    def test_assignment_csv_spans_the_whole_horizon(self, capsys, tmp_path):
        # A strategy file reaching past 1e7 is audited up to N; the CSV
        # holds that same assignment, not one rebuilt on a shorter range.
        p = InstanceParams(2, 3, 1)
        strat = make_exponential_strategy(p, optimal_alpha(p), 1e9)
        strat_path = tmp_path / "strategy.txt"
        save_strategies(strat, str(strat_path))
        path = tmp_path / "assigned.csv"
        code, _, _ = run(
            capsys,
            "refute", "-m", "2", "-k", "3", "-f", "1", "--lam", "5.3", "-N", "1e9",
            "--strategy", str(strat_path), "--assignment", str(path),
        )
        assert code == 0
        rows = path.read_text().splitlines()[2:]
        assert len(rows) == 55
        assigned = refute(strat, 5.3, p, 1e9).assignment
        assert rows == [
            f"{robot},{rnd},{left!r},{right!r}" for robot, rnd, left, right in assigned
        ]

    def test_optimal_strategy_is_certified_past_1e7(self, capsys):
        # 5.3 lies above lambda0 = 5.233..., so no coverage hole may appear
        code, out, _ = run(
            capsys, "refute", "-m", "2", "-k", "3", "-f", "1", "--lam", "5.3", "-N", "1e10"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "certificate"
        assert doc["params"]["N"] == 1e10

    @pytest.mark.parametrize(
        "make, mode, lam, message",
        [
            (make_exponential_strategy, "line", "5.1", "line mode needs TurnSequence"),
            (make_geometric_line_strategy, "orc", "5.4", "orc mode needs RoundPlan"),
        ],
    )
    def test_strategy_file_must_match_the_mode(
        self, capsys, tmp_path, make, mode, lam, message
    ):
        p = InstanceParams(2, 3, 1)
        path = tmp_path / "strategy.txt"
        save_strategies(make(p, optimal_alpha(p), 1e4), str(path))
        code, out, err = run(
            capsys, "refute", "-m", "2", "-k", "3", "-f", "1", "--lam", lam,
            "-N", "1e4", "--mode", mode, "--strategy", str(path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("raysearch: error: ") and message in err

    def test_line_mode_generates_line_strategies(self, capsys):
        # without --strategy, --mode line audits the geometric line strategy
        p = InstanceParams(2, 3, 1)
        lam = ratio_lower_bound(p) * 1.01
        strat = make_geometric_line_strategy(p, optimal_alpha(p), 1e4)
        expected = refute(strat, lam, p, 1e4, mode="line").to_dict()
        code, out, err = run(
            capsys, "refute", "--mode", "line", "-m", "2", "-k", "3", "-f", "1",
            "--lam", repr(lam), "-N", "1e4",
        )
        assert (code, err) == (0, "")
        assert expected["kind"] == "certificate" and expected["audit"]["line_cap_log"] is not None
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_strategy_file_must_hold_k_robots(self, capsys, tmp_path):
        p = InstanceParams(2, 2, 1)
        path = tmp_path / "strategy.txt"
        save_strategies(make_exponential_strategy(p, optimal_alpha(p), 1e4), str(path))
        code, out, err = run(
            capsys, "refute", "-m", "2", "-k", "3", "-f", "1", "--lam", "5.4",
            "-N", "1e4", "--strategy", str(path),
        )
        assert code == 1
        assert out == ""
        assert err == "raysearch: error: expected 3 strategies, got 2\n"

    def test_missing_horizon_is_usage_error(self, capsys):
        code, _, err = run(capsys, "refute", "-m", "2", "-k", "1", "-f", "0", "--lam", "9.5")
        assert code == 1
        assert "auto-horizon" in err


class TestUsage:
    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_bad_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--no-such-flag"])
        assert exc.value.code == 1


class TestInputChecks:
    DOUBLING = ("-m", "2", "-k", "1", "-f", "0")

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("refute", *DOUBLING, "--lam", "inf", "-N", "1e3"), "--lam"),
            (("refute", *DOUBLING, "--lam", "nan", "-N", "1e3"), "--lam"),
            (("bound", "--eta", "inf"), "--eta"),
            (("bound", *DOUBLING, "--lam=-inf"), "--lam"),
            (("refute", *DOUBLING, "--lam", "9.5", "--auto-horizon", "-C", "inf"), "-C"),
            (("simulate", *DOUBLING, "--alpha", "inf"), "--alpha"),
            (("refute", *DOUBLING, "--lam", "9.5", "-N", "1e3", "--alpha", "nan"), "--alpha"),
            (("simulate", *DOUBLING, "-N", "nan"), "-N"),
            (("refute", *DOUBLING, "--lam", "9.5", "-N", "inf"), "-N"),
            (("simulate", *DOUBLING, "--dense", "--rel-step", "inf"), "--rel-step"),
            (
                ("refute", *DOUBLING, "--lam", "9.5", "-N", "1e3", "--gap-constant", "nan"),
                "--gap-constant",
            ),
        ],
    )
    def test_non_finite_flag_is_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: argument {flag}: must be finite, got " in err

    @pytest.mark.parametrize(
        "command",
        [
            ("simulate",),
            ("simulate", "--csv", "CSV"),
            ("simulate", "--csv", "CSV", "--dense"),
            ("refute", "--lam", "9.5"),
        ],
        ids=["simulate", "simulate_csv", "simulate_dense", "refute"],
    )
    def test_horizon_below_one_is_usage_error(self, capsys, tmp_path, command):
        # a strategy file skips the generator's horizon check; the sweep and
        # the refuter check N themselves (unchecked, they answered at x = 1)
        strat = tmp_path / "strategy.txt"
        strat.write_text("1:2.0 2:2.0 1:8.0 2:8.0 1:32 2:32 1:128 2:128\n")
        csv = tmp_path / "rows.csv"
        name, *flags = (str(csv) if a == "CSV" else a for a in command)
        code, out, err = run(
            capsys, name, *self.DOUBLING, *flags, "-N", "0.5", "--strategy", str(strat)
        )
        assert (code, out) == (1, "")
        assert err == "raysearch: error: horizon N must be >= 1, got 0.5\n"
        assert not csv.exists()

    def test_unparsable_number_keeps_the_argparse_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--eta", "abc"])
        assert exc.value.code == 1
        assert "error: argument --eta: invalid float value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("rel_step", ["0", "-1"])
    def test_dense_step_must_be_positive(self, capsys, tmp_path, rel_step):
        csv = tmp_path / "dense.csv"
        code, out, err = run(
            capsys, "simulate", *self.DOUBLING, "-N", "1e3", "--dense",
            "--rel-step", rel_step, "--csv", str(csv),
        )
        assert code == 1
        assert out == ""
        assert err == f"raysearch: error: rel_step must be positive, got {float(rel_step)}\n"
        assert not csv.exists()

    def test_dense_step_too_small_for_the_horizon(self, capsys, tmp_path):
        # log(1e3) / 1e-320 overflows: no finite grid has that step
        csv = tmp_path / "dense.csv"
        code, out, err = run(
            capsys, "simulate", *self.DOUBLING, "-N", "1e3", "--dense",
            "--rel-step", "1e-320", "--csv", str(csv),
        )
        assert code == 1
        assert out == ""
        assert err == (
            "raysearch: error: rel_step=1e-320 too small for N=1000.0: "
            "the dense grid's point count log(N)/rel_step is not finite\n"
        )
        assert not csv.exists()

    @pytest.mark.parametrize(
        "limit, N, rel_step, count",
        [
            # about 1.8e301 points: counted, not built
            (None, "1e8", "1e-300", "1.842068e+301"),
            # log(1e3)/0.01 = 690.8: 691 points, one past a limit of 690
            (690, "1e3", "0.01", "691"),
        ],
    )
    def test_dense_grid_past_the_limit(
        self, capsys, monkeypatch, tmp_path, limit, N, rel_step, count
    ):
        if limit is not None:
            monkeypatch.setattr(simulator, "MAX_GRID_POINTS", limit)
        csv = tmp_path / "dense.csv"
        code, out, err = run(
            capsys, "simulate", *self.DOUBLING, "-N", N, "--dense",
            "--rel-step", rel_step, "--csv", str(csv),
        )
        assert code == 1
        assert out == ""
        assert err == (
            f"raysearch: error: rel_step={float(rel_step)!r} too small for N={float(N)!r}: "
            f"the dense grid's {count} points exceed the limit of {simulator.MAX_GRID_POINTS}\n"
        )
        assert not csv.exists()

    @pytest.mark.parametrize(
        "command, extra", [("simulate", ()), ("refute", ("--lam", "9.5"))]
    )
    def test_alpha_with_strategy_is_usage_error(self, capsys, tmp_path, command, extra):
        path = tmp_path / "strategy.txt"
        p = InstanceParams(2, 1, 0)
        save_strategies(make_exponential_strategy(p, 2.0, 1e3), str(path))
        code, out, err = run(
            capsys, command, *self.DOUBLING, "-N", "1e3", *extra,
            "--strategy", str(path), "--alpha", "3.0",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("raysearch: error: --alpha and --strategy are exclusive")

    def test_malformed_strategy_file_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "strategy.txt"
        path.write_text("1:1.0 2:2.0 1:4.0\n0:1.0\n")
        code, out, err = run(
            capsys, "simulate", "-m", "2", "-k", "2", "-f", "0", "-N", "1e3",
            "--strategy", str(path),
        )
        assert code == 1
        assert out == ""
        assert err == "raysearch: error: line 2: ray index must be >= 1, got 0\n"

    NEED_CSV = "--dense and --rel-step choose the --csv rows: give --csv"
    NEED_DENSE = "--rel-step is the step of the --dense grid: give --dense"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--dense",), NEED_CSV),
            (("--rel-step", "0.01"), NEED_CSV),
            (("--dense", "--rel-step", "0"), NEED_CSV),
            (("--rel-step", "0.01", "--csv", "CSV"), NEED_DENSE),
        ],
    )
    def test_dense_flags_are_not_ignored(self, capsys, tmp_path, flags, message):
        csv = tmp_path / "sweep.csv"
        flags = [str(csv) if flag == "CSV" else flag for flag in flags]
        code, out, err = run(capsys, "simulate", *self.DOUBLING, "-N", "10", *flags)
        assert code == 1
        assert out == ""
        assert err == f"raysearch: error: {message}\n"
        assert not csv.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("refute", *DOUBLING, "--lam", "8.0", "--auto-horizon", "-C", "16", "-N", "10"),
                "-N and --auto-horizon are exclusive: --auto-horizon sets N",
            ),
            (
                ("refute", *DOUBLING, "--lam", "8.0", "-N", "1e3", "-C", "5"),
                "-C is the constant of --auto-horizon: give --auto-horizon",
            ),
            (
                ("bound", "--eta", "2", "--lam", "5"),
                "--eta and --lam are exclusive: C(eta) has no delta row",
            ),
            *(
                (
                    ("bound", "--eta", "2", *flags),
                    "--eta and -m/-k/-f are exclusive: C(eta) depends on eta alone",
                )
                for flags in (("-m", "3", "-k", "2", "-f", "1"), ("-m", "2"), ("-f", "0"))
            ),
        ],
    )
    def test_ignored_flag_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"raysearch: error: {message}\n"

    def test_dense_grid_step_defaults_with_csv(self, capsys, tmp_path):
        csv = tmp_path / "dense.csv"
        code, _, _ = run(
            capsys, "simulate", *self.DOUBLING, "-N", "10", "--dense", "--csv", str(csv)
        )
        assert code == 0
        # the default step 1e-3: int(ln 10 / 1e-3) + 1 points on each of 2 rays
        rows = csv.read_text().splitlines()[2:]
        assert len(rows) == 2 * (int(math.log(10) / 1e-3) + 1)


class TestInvariantErrors:
    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (AuditError("step ratio 1.0 below growth factor 1.5"), 3, "audit failed"),
            (InvalidAssignmentError("interval is not next"), 3, "invalid assignment"),
        ],
    )
    def test_error_maps_to_its_exit_code(self, capsys, monkeypatch, error, code, prefix):
        def broken_refute(*args, **kwargs):
            raise error

        monkeypatch.setattr("raysearch.cli.refute", broken_refute)
        got, out, err = run(
            capsys, "refute", "-m", "2", "-k", "1", "-f", "0", "--lam", "9.5", "-N", "1e3"
        )
        assert got == code
        assert out == ""
        assert err == f"raysearch: {prefix}: {error}\n"


DOUBLING_REFUTE = ("refute", "-m", "2", "-k", "1", "-f", "0", "--lam", "9.5", "-N", "1e3")


class TestPrintJson:
    def test_a_non_finite_float_two_dicts_deep_is_null(self, capsys, tmp_path):
        doc = {"n": 3, "top": -math.inf, "a": {"b": {"inf": math.inf, "nan": math.nan, "x": 1.5}}}
        nulled = {"n": 3, "top": None, "a": {"b": {"inf": None, "nan": None, "x": 1.5}}}
        path = tmp_path / "doc.json"
        cli._print_json(doc, str(path))
        text = json.dumps(nulled, sort_keys=True, indent=2) + "\n"
        assert capsys.readouterr().out == path.read_text() == text
        cli._print_json(doc, indent=None)
        assert capsys.readouterr().out == json.dumps(nulled, sort_keys=True) + "\n"
        assert doc["top"] == -math.inf  # the caller's document is left as it was

    def test_an_inf_in_a_list_is_a_value_error(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError):
            cli._print_json({"a": {"b": [1.0, math.inf]}}, str(path))
        assert capsys.readouterr().out == "" and not path.exists()


class TestSharedParser:
    """main builds one parser per process; no call sees what another parsed."""

    @pytest.mark.parametrize(
        "first, second, key",
        [
            (("bound", "--json", "--lam", "8.0"), ("bound", "--json"), "delta"),
            ((*DOUBLING_REFUTE, "--gap-constant", "5.0"), DOUBLING_REFUTE, "gap"),
        ],
    )
    def test_a_flag_does_not_leak_into_the_next_call(self, first, second, key):
        cli._parser.cache_clear()
        alone = call(*second)
        code, out, _ = call(*first)
        assert code == 0 and key in json.loads(out)
        assert call(*second) == alone
        assert key not in json.loads(alone[1])

    @pytest.mark.parametrize(
        "bad",
        [
            ("frobnicate",),
            ("bound", "--no-such-flag"),
            ("bound", "--eta", "abc"),
            ("simulate", "-N", "nan"),
            ("refute", "-m", "2", "-k", "1"),  # --lam is required
        ],
    )
    @pytest.mark.parametrize("good", [("bound", "-m", "2", "-k", "3", "-f", "1"), DOUBLING_REFUTE])
    def test_a_usage_error_leaves_nothing_behind(self, bad, good):
        cli._parser.cache_clear()
        alone = call(*good)
        code, out, err = call(*bad)
        assert (code, out) == (1, "")
        assert "raysearch" in err and "error: " in err
        assert call(*good) == alone

    @pytest.mark.parametrize("argv", [("--help",), ("refute", "--help")])
    def test_help_goes_to_each_calls_stdout(self, capsys, argv):
        first, second = call(*argv), call(*argv)
        assert first == second
        code, out, err = first
        assert (code, err) == (0, "")
        assert out.startswith("usage: raysearch")
        assert capsys.readouterr() == ("", "")

    def test_twenty_calls_build_one_parser(self, monkeypatch):
        builds = []

        def counted_build():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted_build)
        cli._parser.cache_clear()
        for lam in range(20):
            code, out, _ = call("bound", "--json", "--lam", f"{8 + lam / 10}")
            assert code == 0 and "delta" in json.loads(out)
        assert len(builds) == 1

    def test_no_parser_is_built_at_import(self):
        probe = "import raysearch.cli as c; print(c._parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env()
        )
        assert (done.returncode, done.stdout) == (0, "0\n")


class TestBrokenPipe:
    # buffered, the closed pipe shows when main flushes; unbuffered, at the print
    @staticmethod
    def _run_into_closed_stdout(argv, unbuffered):
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with subprocess.Popen(
            [sys.executable, "-m", "raysearch.cli", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            proc.stdout.close()  # the child is still importing: it has written nothing
            err = proc.stderr.read()
            code = proc.wait()
        assert err == b""
        assert code == BROKEN_PIPE_EXIT == 141

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_closed_stdout_exits_quietly(self, unbuffered):
        argv = ["refute", "-m", "2", "-k", "1", "--lam", "9.5", "-N", "1e4"]
        self._run_into_closed_stdout(argv, unbuffered)

    # --help writes from inside the parser, before main's own flush
    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_help_into_a_closed_stdout_exits_quietly(self, unbuffered):
        self._run_into_closed_stdout(["--help"], unbuffered)


# small nontrivial instances, f < k < m(f+1)
_INSTANCES = [(m, k, f) for m in (2, 3) for f in (0, 1) for k in range(f + 1, m * (f + 1))]
_HORIZON = st.floats(2.0, 300.0).map(lambda e: 10.0**e)  # N log-uniform in [1e2, 1e300]


def _instance_flags(m, k, f):
    return "-m", str(m), "-k", str(k), "-f", str(f)


class TestLibraryAgreement:
    """The CLI answers as the library does; every example goes through one parser."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(_INSTANCES), _HORIZON)
    def test_simulate_reports_worst_ratio(self, mkf, N):
        p = InstanceParams(*mkf)
        sup, witness = worst_ratio(make_exponential_strategy(p, optimal_alpha(p), N), p, N)
        code, out, err = call("simulate", *_instance_flags(*mkf), "-N", repr(N))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["sup_ratio"] == sup
        assert doc["witness"] == {"ray": witness.ray, "x": witness.x}

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(_INSTANCES), _HORIZON, st.sampled_from([1 - 1e-2, 1 + 1e-2]))
    def test_refute_gives_the_library_verdict(self, mkf, N, scale):
        p = InstanceParams(*mkf)
        lam = ratio_lower_bound(p) * scale
        verdict = refute(make_exponential_strategy(p, optimal_alpha(p), N), lam, p, N)
        code, out, err = call("refute", *_instance_flags(*mkf), "--lam", repr(lam), "-N", repr(N))
        assert err == ""
        assert code == (0 if verdict.kind == "certificate" else 2)
        doc, expected = json.loads(out), verdict.to_dict()
        assert doc["kind"] == expected["kind"]
        assert doc.get("audit", {}).get("steps") == expected.get("audit", {}).get("steps")


def _slow_sweep_csv(strategies, p, N, dense=False, rel_step=1e-3):
    """The sweep CSV and the summary's (sup, witness) as `simulate --csv`
    made them before it formatted the sweep's plain answers: one Target and
    one DetectionReport per row of sweep_rows, taken apart again."""
    rows = sweep_rows(strategies, p, N, dense=dense, rel_step=rel_step)

    def cell(value):
        return "" if value is None else repr(value)

    lines = (
        f"{t.ray},{t.x!r},{int(above)},{cell(report.tau)},{cell(report.ratio)},"
        + "|".join(str(r) for r, _ in report.visitors)
        for t, above, report in rows
    )
    text = "# raysearch sweep v1\nray,x,just_above,tau,ratio,robot_order\n"
    text += "".join(f"{line}\n" for line in lines)
    if dense:
        sup, witness = worst_ratio(strategies, p, N)
    else:
        sup, witness = slow_supremum((target, report.ratio) for target, _, report in rows)
    return text, sup, witness


# small integers give repeated turns and ties across robots
_SWEEP_TURN = st.one_of(
    st.integers(1, 6).map(float), st.sampled_from([0.5, 1.5, 2.5]), st.floats(0.1, 40.0)
)


@st.composite
def _sweep_sets(draw):
    """A strategy set as a file holds it, its instance and a horizon: drawn
    round plans (now and then on a ray past m) or line sequences, or a
    generated set."""
    line = draw(st.booleans())
    m = 2 if line else draw(st.integers(2, 4))
    if draw(st.booleans()):
        f = draw(st.integers(0, 1))
        k = draw(st.integers(f + 1, m * (f + 1) - 1))
        p = InstanceParams(m, k, f)
        N = draw(st.sampled_from([10.0, 1e3, 1e8]))
        make = make_geometric_line_strategy if line else make_exponential_strategy
        return make(p, optimal_alpha(p), N), p, N
    k = draw(st.integers(1, 4))
    f = draw(st.integers(0, k - 1))
    if line:
        turns = st.lists(_SWEEP_TURN, min_size=1, max_size=10).map(tuple)
        robot = st.builds(TurnSequence, turns, st.booleans())
    else:
        rays = st.integers(1, m + 1) if draw(st.integers(0, 9)) == 0 else st.integers(1, m)
        rounds = st.lists(st.tuples(rays, _SWEEP_TURN), min_size=1, max_size=10)
        robot = rounds.map(lambda rs: RoundPlan(tuple(rs)))
    strategies = draw(st.lists(robot, min_size=k, max_size=k))
    N = draw(st.sampled_from([1.0, 2.0, 4.5, 50.0, 1e4]))
    return strategies, InstanceParams(m, k, f), N


# at x = 1e20 the offsets of robots 0 and 1 vanish in rounding: the
# rows list the tied times by robot
_TIED = (
    [RoundPlan(((2, 2.0), (1, 1e21))), RoundPlan(((2, 1.0), (1, 1e21))), RoundPlan(((1, 1e20),))],
    InstanceParams(2, 3, 1),
    1e21,
)
# one excursion per ray: every target past 1 is undetected, exit 2
_UNCOVERED = ([RoundPlan(((1, 1.0), (2, 1.0)))], InstanceParams(2, 1, 0), 1e3)


class TestSweepCsvMatchesTheSlowPath:
    """`simulate --csv` writes the bytes the slow path over sweep_rows wrote."""

    @settings(max_examples=150, deadline=None)
    @given(_sweep_sets(), st.sampled_from([None, 0.05, 0.3]))
    @example(_TIED, None)
    @example(_TIED, 0.3)
    @example(_UNCOVERED, None)
    @example(_UNCOVERED, 0.3)
    def test_csv_bytes_and_summary(self, tmp_path_factory, case, rel_step):
        strategies, p, N = case
        folder = tmp_path_factory.mktemp("sweep")
        save_strategies(strategies, str(folder / "set.txt"))
        csv = folder / "sweep.csv"
        dense = rel_step is not None
        extra = ["--dense", "--rel-step", repr(rel_step)] if dense else []
        code, out, err = call(
            "simulate", *_instance_flags(p.m, p.k, p.f), "-N", repr(N),
            "--strategy", str(folder / "set.txt"), "--csv", str(csv), *extra,
        )
        try:
            text, sup, witness = _slow_sweep_csv(strategies, p, N, dense, rel_step or 1e-3)
        except ValueError as exc:
            assert (code, out, err) == (1, "", f"raysearch: error: {exc}\n")
            assert not csv.exists()
            return
        assert err == ""
        assert code == (0 if math.isfinite(sup) else 2)
        assert csv.read_text() == text
        doc = strict_json(out)
        assert doc["sup_ratio"] == (sup if math.isfinite(sup) else None)
        assert doc["witness"] == {"ray": witness.ray, "x": witness.x}

    def test_the_examples_reach_their_cases(self):
        # just past 1e20 the tie lists robot 0 before robot 1, and the
        # uncovered rows have empty tau and ratio cells
        text, _, _ = _slow_sweep_csv(*_TIED)
        assert "\n1,1e+20,1,1e+20,1.0,0|1\n" in text
        text, sup, _ = _slow_sweep_csv(*_UNCOVERED)
        assert sup == math.inf and "\n1,1.0,1,,,\n2,1.0,1,,,\n" in text


# --- the command line's contract over a grammar of argv ----------------------
#
# One seeded property test: every drawn command line exits with a code the
# cli docstring lists, writes one `raysearch: <kind>: ...` line to stderr on
# a command error and nothing on 0 or 2, prints strict JSON that each --json
# or --summary file repeats, and writes the documented files.

_DOCUMENTED_EXITS = {
    int(code) for code in re.findall(r"(?:Exit status:|;)\s+(\d+)\s", cli.__doc__)
}
_FAILURE_LINE = re.compile(
    r"raysearch: (%s): .+" % "|".join(re.escape(label) for _, label, _ in cli._FAILURES)
)
_USAGE_LINE = re.compile(r"raysearch(?: \w+)?: error: .+")


def _pick(draw, good, bad):
    """One of good, or now and then one of bad."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 0 else good))


@st.composite
def _strategy_files(draw, m, k):
    """The text of a --strategy file: a generated set, drawn round plans
    (some on a ray past m, most leaving targets uncovered) or line
    sequences, sometimes one robot short or over, or a malformed or empty
    file; None for no file."""
    kind = draw(st.sampled_from(["none"] * 4 + ["generated"] * 2 + ["plans", "line", "bad"]))
    if kind == "none":
        return None
    if kind == "bad":
        return draw(st.sampled_from(["", "1:abc\n", "1.0 2.0\n", "1:2.0 -3.0\n"]))
    count = max(1, k + draw(st.sampled_from([0, 0, 0, -1, 1])))
    if kind == "generated":
        # an instance of count robots, on m rays if they fit
        if draw(st.booleans()):
            p, make = InstanceParams(2, count, count // 2), make_geometric_line_strategy
        else:
            p, make = InstanceParams(max(m, count + 1), count, 0), make_exponential_strategy
        return dumps_strategies(make(p, optimal_alpha(p), 1e4))
    if kind == "plans":
        rays = st.integers(1, m + draw(st.sampled_from([0, 0, 1])))
        robot = st.lists(st.tuples(rays, _SWEEP_TURN), min_size=1, max_size=8)
        return dumps_strategies(
            RoundPlan(tuple(rs)) for rs in draw(st.lists(robot, min_size=count, max_size=count))
        )
    turns = st.lists(_SWEEP_TURN, min_size=1, max_size=8).map(tuple)
    robot = st.builds(TurnSequence, turns, st.booleans())
    return dumps_strategies(draw(st.lists(robot, min_size=count, max_size=count)))


_ODD = ["nan", "inf", "1e400"]


@st.composite
def _command_lines(draw):
    """(argv with {name} in place of each output path, strategy file text):
    mostly valid command lines on small instances, now and then a value or
    a flag that the command must refuse."""
    command = draw(st.sampled_from(["bound", "simulate", "refute"]))
    m, k, f = _pick(draw, _INSTANCES, [(1, 1, 0), (2, 0, 0), (2, 2, 2), (2, 4, 1), (2, 1, -1)])
    argv = [command]
    if command != "bound" or draw(st.booleans()):
        argv += ["-m", str(m), "-k", str(k), "-f", str(f)]
    if command == "bound":
        if draw(st.booleans()):
            argv += ["--lam", _pick(draw, ["1.5", "5", "9.5", "20"], ["0.5", *_ODD])]
        if draw(st.integers(0, 3)) == 0:
            argv += ["--eta", _pick(draw, ["1.5", "3", "1e308"], ["1", "nan"])]
        if draw(st.booleans()):
            argv.append("--json")
        return argv, None
    text = draw(_strategy_files(max(m, 2), max(k, 1)))
    if text is not None:
        argv += ["--strategy", "{strategy}"]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--alpha", _pick(draw, ["1.5", "2", "3"], ["0.5", "1.0000000000000002"])]
    horizons = (["10", "1e3", "1e4", "1e8"], ["0.5", *_ODD])
    if command == "simulate":
        if draw(st.integers(0, 3)) > 0:
            argv += ["-N", _pick(draw, *horizons)]
        for flag in ("--csv", "--summary"):
            if draw(st.booleans()):
                argv += [flag, "{%s}" % flag[2:]]
        # --dense and --rel-step mostly only where they apply
        if _pick(draw, ["--csv" in argv], [True, False]):
            if draw(st.booleans()):
                argv.append("--dense")
            if _pick(draw, ["--dense" in argv and draw(st.booleans())], [True]):
                steps = (["0.05", "0.3"], ["0", "-0.5", "nan", "1e-300", "1e-320"])
                argv += ["--rel-step", _pick(draw, *steps)]
        return argv, text
    try:
        scale = draw(st.sampled_from([0.97, 1.03, 1.5]))
        lam = repr(ratio_lower_bound(InstanceParams(m, k, f)) * scale)
    except (ValueError, TrivialRegime, InfeasibleRegime):
        lam = "9.5"
    argv += ["--lam", _pick(draw, [lam], ["1", "0.5", "nan"])]
    auto = draw(st.integers(0, 4)) == 0
    if auto:
        argv.append("--auto-horizon")
        if draw(st.booleans()):
            argv += ["-C", _pick(draw, ["2", "5"], ["0.5", "inf"])]
    elif draw(st.integers(0, 15)) == 0:
        argv += ["-C", "5"]
    if _pick(draw, [not auto], [auto]):  # -N mostly only without --auto-horizon
        argv += ["-N", _pick(draw, *horizons)]
    argv += ["--mode", draw(st.sampled_from(["orc", "orc", "line"]))]
    for flag in ("--json", "--trace", "--assignment"):
        if draw(st.booleans()):
            argv += [flag, "{%s}" % flag[2:]]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--gap-constant", _pick(draw, ["2", "10"], ["0.5", "1"])]
    return argv, text


_OUTPUT_FLAGS = ("--csv", "--summary", "--json", "--trace", "--assignment")


def _written(argv):
    """The output flags of argv, each with its file's text or None if absent."""
    paths = {flag: argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in _OUTPUT_FLAGS}
    return {
        flag: (Path(path).read_text() if Path(path).exists() else None)
        for flag, path in paths.items()
    }


# a dense grid of about 1.8e301 points: refused before its first point
_HUGE_GRID = ["simulate", "-m", "2", "-k", "1", "-f", "0", "-N", "1e8",
              "--csv", "{csv}", "--dense", "--rel-step", "1e-300"]


class TestContract:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_command_lines())
    @example((_HUGE_GRID, None))
    def test_every_command_line_keeps_the_contract(self, tmp_path_factory, drawn):
        template, text = drawn
        folder = tmp_path_factory.mktemp("contract")
        if text is not None:
            (folder / "strategy").write_text(text)
        argv = [a.format(**{n: str(folder / n) for n in
                            ("strategy", "csv", "summary", "json", "trace", "assignment")})
                for a in template]
        code, out, err = call(*argv)
        event(f"{argv[0]} exits {code}")
        assert code in _DOCUMENTED_EXITS - {BROKEN_PIPE_EXIT}, (argv, err)
        written = _written(argv)
        if code not in (0, 2):
            assert out == ""
            lines = err.splitlines()
            if lines and lines[0].startswith("usage: "):
                # argparse's own message: usage, then one error line
                assert code == 1 and _USAGE_LINE.fullmatch(lines[-1]), err
                assert all(value is None for value in written.values())
            else:
                [line] = lines
                match = _FAILURE_LINE.fullmatch(line)
                assert match, err
                assert (match[1], code) in {(lb, c) for _, lb, c in cli._FAILURES}
            return
        assert err == ""
        command = argv[0]
        if command == "bound" and "--json" not in argv:
            return
        doc = strict_json(out)
        for flag in ("--json", "--summary"):
            if flag in written:
                assert written[flag] == out
        if command == "simulate":
            assert code == (0 if doc["covered"] else 2)
            assert (doc["sup_ratio"] is None) == (code == 2)
            if "--csv" in written:
                assert written["--csv"].startswith(cli.SWEEP_HEADER + "\n")
                # the summary is the same without the rows
                plain = [a for a in argv if a != "--dense"]
                for flag in ("--csv", "--rel-step"):
                    if flag in plain:
                        i = plain.index(flag)
                        del plain[i:i + 2]
                if "--summary" in plain:
                    plain[plain.index("--summary") + 1] = str(folder / "plain-summary")
                assert call(*plain) == (code, out, "")
                if "--summary" in written:
                    assert (folder / "plain-summary").read_text() == written["--summary"]
        elif command == "refute":
            assert code == (0 if doc["kind"] == "certificate" else 2)
            if doc["kind"] == "coverage_failure":
                # no audit: --trace writes its header lines only, and
                # --assignment writes no file
                columns = "step,robot,mu_star,x,step_ratio,log_potential"
                assert written.get("--trace", "") in ("", f"{cli.TRACE_HEADER}\n{columns}\n")
                assert written.get("--assignment") is None
            else:
                assert all(value is not None for value in written.values())
