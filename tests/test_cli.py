"""The floodgate-experiment CLI."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestList:
    def test_list_prints_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in EXPERIMENTS:
            assert key in out

    def test_every_experiment_module_imports(self):
        import importlib

        for module_name, _ in EXPERIMENTS.values():
            module = importlib.import_module(
                f"repro.experiments.figures.{module_name}"
            )
            assert hasattr(module, "run") or module_name == "fig17_params"

    def test_fig17_has_sweeps(self):
        from repro.experiments.figures import fig17_params

        assert callable(fig17_params.run_credit_timer)
        assert callable(fig17_params.run_delay_credit)


class TestRun:
    def test_run_fig07(self, capsys):
        assert main(["run", "fig07"]) == 0
        out = capsys.readouterr().out
        assert "memcached" in out
        assert "frac_below_1kb" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("stalls, status", [(0, 0), (1, 1)])
    def test_run_faults_exits_1_on_an_undetected_stall(
        self, monkeypatch, capsys, stalls, status
    ):
        """The fault sweep's acceptance criterion gates the exit status."""
        from repro.experiments.figures import fault_sweep

        def sweep(quick=True):
            return {"summary": {}, "undetected_stalls": stalls}

        monkeypatch.setattr(fault_sweep, "run", sweep)
        assert main(["run", "faults"]) == status
        assert '"undetected_stalls": %d' % stalls in capsys.readouterr().out


def _subparsers():
    import argparse

    from repro.cli import build_parser

    (subparsers,) = [
        a
        for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return subparsers


class TestSubcommands:
    def test_the_subcommands_are_exactly_these(self):
        assert list(_subparsers().choices) == [
            "list",
            "run",
            "validate-flowsim",
            "validate-hybrid",
            "report",
            "scenarios",
            "check",
        ]

    def test_faults_is_run_faults(self, capsys):
        """One path to the fault sweep: ``run faults [--full]``."""
        with pytest.raises(SystemExit) as exc:
            main(["faults"])
        assert exc.value.code == 2
        assert "invalid choice: 'faults'" in capsys.readouterr().err

    def test_bench_is_an_argparse_error_not_an_alias(self, capsys):
        """Simulator speed has one instrument, ``python3 -m
        benchmarks.e2e``; the CLI keeps no second one."""
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestGeneratedChoices:
    """Every ``choices`` list that mirrors a table is built from it."""

    @staticmethod
    def _choices(command: str, flag: str):
        (action,) = [
            a
            for a in _subparsers().choices[command]._actions
            if flag in a.option_strings
        ]
        return list(action.choices)

    def test_report_scheme_accepts_every_flow_control(self):
        from repro.experiments.scenario import FLOW_CONTROLS, ScenarioConfig

        assert self._choices("report", "--scheme") == list(FLOW_CONTROLS)
        assert "pfc-tag" in FLOW_CONTROLS
        for fc in self._choices("report", "--scheme"):
            assert ScenarioConfig(flow_control=fc).flow_control == fc

    def test_check_schemes_mirror_the_determinism_suites(self):
        from repro.simcheck.determinism import SCHEMES, SHARDED_SCHEMES

        choices = self._choices("check", "--schemes")
        assert set(choices) == {n for n, _ in SCHEMES + SHARDED_SCHEMES}
        assert len(choices) == len(set(choices))

    def test_parser_rejects_a_scheme_outside_the_table(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["report", "--scheme", "pfc-tag"])
        assert args.scheme == "pfc-tag"
        with pytest.raises(SystemExit):
            parser.parse_args(["check", "--schemes", "pfc-tag"])
