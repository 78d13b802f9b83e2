import json

import pytest

from frobkern.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestExamples:
    def test_model_hilbert_u3(self, capsys):
        code, doc = invoke(
            capsys, "model", "hilbert", "--family", "A", "--rank", "2",
            "--r", "2", "--p", "3", "--degree", "8",
        )
        assert code == 0
        dims = doc["payload"]["by_degree"]
        assert dims["2"] == 5 and dims["8"] == 74

    def test_variety_count_u3(self, capsys):
        code, doc = invoke(
            capsys, "variety", "count", "--group", "U3", "--r", "2", "--q", "3"
        )
        assert code == 0
        assert doc["payload"]["count"] == 297
        assert doc["payload"]["y_count"] == 33

    def test_rootsys_info(self, capsys):
        code, doc = invoke(
            capsys, "rootsys", "info", "--family", "A", "--rank", "3", "--J", ""
        )
        assert code == 0
        assert len(doc["payload"]["positive_roots"]) == 6
        assert doc["payload"]["level_histogram"] == {"1": 3, "2": 2, "3": 1}

    def test_model_build_sbar(self, capsys):
        code, doc = invoke(
            capsys, "model", "build", "--family", "A", "--rank", "2",
            "--r", "2", "--p", "3", "--what", "sbar",
        )
        assert code == 0
        assert len(doc["payload"]["generators"]) == 6
        assert len(doc["payload"]["relations"]) == 1

    def test_theta_check(self, capsys):
        code, doc = invoke(
            capsys, "model", "theta-check", "--family", "A", "--rank", "2",
            "--r", "2", "--p", "3",
        )
        assert code == 0
        assert doc["payload"]["well_defined"] is True
        assert doc["payload"]["power_identities"][0]["power_exponent"] == 0

    def test_bracket_check(self, capsys):
        code, doc = invoke(
            capsys, "model", "bracket-check", "--family", "A", "--rank", "2",
            "--r", "2", "--p", "3", "--pairs", "20",
        )
        assert code == 0
        assert doc["payload"]["random_pairs_checked"] == 20
        assert all(not e["in_image"] for e in doc["payload"]["collapse_probes"])

    def test_specseq_d2(self, capsys):
        code, doc = invoke(
            capsys, "specseq", "d2", "--family", "A", "--rank", "2", "--v", "3",
            "--r", "2", "--p", "3", "--beta", "a1+a2", "--l", "0",
        )
        assert code == 0
        terms = doc["payload"]["value"]["terms"]
        assert terms == [{"c": 1, "e": {"y[a1](0)": 1, "y[a2](0)": 1}}]

    def test_specseq_transgression_zero(self, capsys):
        code, doc = invoke(
            capsys, "specseq", "transgression", "--family", "A", "--rank", "2",
            "--v", "3", "--r", "2", "--p", "3", "--beta", "1,1", "--l", "1", "--j", "0",
        )
        assert code == 0
        assert doc["payload"]["zero"] is True
        assert doc["payload"]["page"] == 3

    def test_specseq_steenrod(self, capsys):
        code, doc = invoke(
            capsys, "specseq", "steenrod", "--family", "A", "--rank", "2", "--v", "3",
            "--r", "2", "--p", "3", "--beta", "a1+a2", "--l", "0", "--op", "P3",
            "--kind", "x", "--exponent", "3",
        )
        assert code == 0
        assert doc["payload"]["value"]["terms"] == [{"c": 1, "e": {"x[a1+a2](0)": 9}}]

    def test_specseq_uniqueness(self, capsys):
        code, doc = invoke(
            capsys, "specseq", "uniqueness", "--family", "A", "--rank", "2",
            "--v", "3", "--r", "2", "--p", "3", "--beta", "a1+a2",
        )
        assert code == 0
        assert doc["payload"]["surviving_count"] == 1

    def test_conjecture_subdiagrams(self, capsys):
        code, doc = invoke(
            capsys, "conjecture", "subdiagrams", "--N", "5", "--r", "2",
            "--count", "--q", "3",
        )
        assert code == 0
        assert len(doc["payload"]["members"]) == 3
        assert doc["payload"]["evidence"]["residuals"] == {"3": 0}

    def test_variety_components(self, capsys):
        code, doc = invoke(
            capsys, "variety", "components", "--N", "4", "--r", "2", "--q", "3,5"
        )
        assert code == 0
        assert doc["payload"]["counts"]["3"]["residual"] == 0
        assert doc["payload"]["counts"]["5"]["Y"] == 1225


class TestReportContract:
    def test_payload_determinism(self, capsys):
        args = (
            "conjecture", "subdiagrams", "--N", "4", "--r", "2", "--count", "--q", "3",
        )
        _, doc1 = invoke(capsys, *args)
        _, doc2 = invoke(capsys, *args)
        assert json.dumps(doc1["payload"], sort_keys=True) == json.dumps(
            doc2["payload"], sort_keys=True
        )
        assert doc1["config"] == doc2["config"]

    def test_report_envelope(self, capsys):
        _, doc = invoke(capsys, "rootsys", "info", "--family", "A", "--rank", "2")
        assert doc["schema_version"] == 1
        assert doc["command"] == "rootsys info"
        assert "wall_time_s" in doc and "budget" in doc
        assert doc["config"]["rank"] == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, doc = invoke(
            capsys, "rootsys", "info", "--family", "A", "--rank", "2",
            "--output", str(target),
        )
        assert code == 0
        on_disk = json.loads(target.read_text())
        assert on_disk["payload"] == doc["payload"]

    def test_golden_rootsys_a2(self, capsys):
        import pathlib

        _, doc = invoke(capsys, "rootsys", "info", "--family", "A", "--rank", "2")
        golden = json.loads(
            (pathlib.Path(__file__).parent / "golden" / "rootsys_info_a2.json").read_text()
        )
        assert doc["payload"] == golden

    def test_golden_model_build_u3(self, capsys):
        import pathlib

        _, doc = invoke(
            capsys, "model", "build", "--family", "A", "--rank", "2",
            "--r", "2", "--p", "3", "--what", "sbar",
        )
        golden = json.loads(
            (pathlib.Path(__file__).parent / "golden" / "model_sbar_u3_r2_p3.json").read_text()
        )
        assert doc["payload"] == golden


class TestExitCodes:
    def test_config_error(self, capsys):
        code = run(["rootsys", "info", "--family", "E", "--rank", "6"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["error"]["code"] == "config"

    @pytest.mark.parametrize(
        "argv",
        [
            ["model", "hilbert", "--family", "A", "--rank", "2", "--degree", "4",
             "--weight", "1,x"],
            ["specseq", "aj-enumerate", "--family", "A", "--rank", "2", "--r", "2",
             "--degree", "12", "--weight", "9"],
        ],
        ids=["non-integer", "wrong-length"],
    )
    def test_bad_weight_is_config_error(self, capsys, argv):
        code = run(argv)
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["error"]["code"] == "config"
        assert "--weight" in doc["error"]["message"]

    @pytest.mark.parametrize(
        "env, argv",
        [
            ("abc", ["variety", "count", "--group", "U3", "--r", "2", "--q", "3"]),
            (None, ["variety", "count", "--group", "U3", "--r", "2", "--q", "3",
                    "--budget", "-5"]),
            (None, ["variety", "components", "--q", "3,x"]),
            (None, ["variety", "count", "--group", "Ux", "--q", "3"]),
            (None, ["rootsys", "info", "--J", "x"]),
            (None, ["model", "hilbert", "--family", "A", "--rank", "2", "--r", "2",
                    "--degree", "-1"]),
            (None, ["specseq", "aj-enumerate", "--family", "A", "--rank", "2",
                    "--r", "2", "--degree", "-2", "--weight", "27,27"]),
            (None, ["model", "bracket-check", "--r", "2", "--pairs", "-1"]),
        ],
        ids=["env-budget", "negative-budget", "q-list", "group", "J",
             "negative-hilbert-degree", "negative-aj-degree", "negative-pairs"],
    )
    def test_malformed_value_is_config_error(self, capsys, monkeypatch, env, argv):
        if env is None:
            monkeypatch.delenv("FROBKERN_BUDGET", raising=False)
        else:
            monkeypatch.setenv("FROBKERN_BUDGET", env)
        code = run(argv)
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["error"]["code"] == "config"

    @pytest.mark.parametrize(
        "argv",
        [
            ["variety", "count", "--group", "U3", "--q", "3", "--budget", "abc"],
            ["variety", "count", "--group", "U3", "--q", "3", "--r", "x"],
            ["variety", "count", "--group", "U3"],
        ],
        ids=["budget", "r", "missing-q"],
    )
    def test_unparsable_option_is_config_error(self, capsys, argv):
        code = run(argv)
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["error"]["code"] == "config"
        assert doc["command"] == "variety count"

    @pytest.mark.parametrize(
        "action, option, value, error",
        [
            ("d2", "--beta", "1,x", "domain"),
            ("d2", "--beta", "xa1", "domain"),
            ("steenrod", "--op", "P", "unsupported"),
            ("steenrod", "--op", "Px", "unsupported"),
        ],
        ids=["1,x", "xa1", "op-P", "op-Px"],
    )
    def test_malformed_root_is_reported(self, capsys, action, option, value, error):
        # a root or an operation that does not parse is named in the error
        argv = ["specseq", action, "--family", "A", "--rank", "2", "--v", "3",
                "--r", "2", "--p", "3", "--beta", "a1+a2", "--l", "0"]
        code = run([*argv, option, value])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["error"]["code"] == error
        assert value in doc["error"]["message"]

    def test_budget_exhaustion(self, capsys):
        code = run(
            ["variety", "count", "--group", "U5", "--r", "3", "--q", "5",
             "--budget", "1000"]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 3
        assert doc["error"]["code"] == "budget"

    def test_over_bound_degree_is_refused_as_asked(self, capsys):
        code = run(["model", "hilbert", "--family", "A", "--rank", "2", "--r", "2",
                    "--p", "3", "--degree", "30"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 3
        assert doc["error"]["code"] == "budget"
        assert "30" in doc["error"]["message"]
        assert "degree_bound" not in doc["error"]["message"]

    def test_parser_serves_a_run_after_a_malformed_one(self, capsys):
        # the parser is built once per process; a failed parse must not mark it
        code, doc = invoke(capsys, "variety", "count", "--group", "U3", "--q", "x")
        assert code == 2 and doc["error"]["code"] == "config"
        assert doc["command"] == "variety count"
        code, doc = invoke(capsys, "variety", "count", "--group", "U3", "--r", "2",
                           "--q", "3")
        assert code == 0 and doc["payload"]["count"] == 297
        assert doc["config"]["r"] == 2

    def test_unsupported_theta_configuration(self, capsys):
        # full U5 at p=3: the p-th power map does not vanish
        code = run(["model", "theta-check", "--family", "A", "--rank", "4", "--p", "3",
                    "--r", "2"])
        assert code == 2

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("FROBKERN_BUDGET", "10")
        code = run(["variety", "count", "--group", "U3", "--r", "2", "--q", "3"])
        assert code == 3

    def test_domain_error(self, capsys):
        code = run(
            ["specseq", "d2", "--family", "A", "--rank", "2", "--v", "3", "--r", "2",
             "--p", "3", "--beta", "a1", "--l", "0"]
        )
        assert code == 2

    def test_bad_subcommand(self, capsys):
        assert run(["no-such-command"]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["code"] == "config"

    def test_verify_all_reports_known_discrepancies(self, capsys):
        # two recorded acceptance values are documented discrepancies, so
        # the aggregate run exits 1 and names them
        code = run(["verify-all"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 1
        assert doc["payload"]["passed"] == 10
        assert doc["payload"]["known_discrepancies"] == ["10b", "7b"]
        assert "[PASS] criterion 1:" in captured.err
