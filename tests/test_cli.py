import argparse
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frobkern import commvar
from frobkern.cli import EXIT_STATUS, build_parser, run
from frobkern.errors import ConfigError


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

    @pytest.mark.parametrize(
        "budget, method, assignments",
        [(3**10, "direct", 3**10), (3**10 - 1, "product", 3**6)],
    )
    def test_variety_count_method_follows_the_budget(self, capsys, budget, method, assignments):
        # X of U4 at r = 2 has 10 coordinates and Y 6: the budget on X's 3^10
        # names the method, and Y's 3^6 is what the product reports
        code, doc = invoke(
            capsys, "variety", "count", "--group", "U4", "--r", "2", "--q", "3",
            "--budget", str(budget),
        )
        assert code == 0
        payload = doc["payload"]
        assert (payload["method"], payload["assignments_enumerated"]) == (method, assignments)
        assert payload["count"] == 153 * 3**4

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


#: runs the counting commands in one interpreter, then reports whether any
#: of them imported numpy
NUMPY_PROBE = """
import contextlib, io, json, sys
from frobkern import cli
codes = []
for argv in (
    "variety count --group U4 --r 2 --q 5",
    "variety components --N 4 --r 2 --q 3,5",
    "conjecture subdiagrams --N 5 --r 2 --count --q 3",
    "verify-all",
):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.run(argv.split()))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_no_command_imports_numpy():
    # numpy belongs to the brute-force oracle of the tests, not to the CLI
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env.pop("FROBKERN_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0, 0, 0, 1], "numpy": False}


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

    @pytest.mark.parametrize(
        "argv",
        [["rootsys", "info"], ["variety", "count", "--group", "U3", "--q", "x"]],
        ids=["report", "error"],
    )
    def test_a_report_is_one_line(self, capsys, argv):
        run(argv)
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and out.endswith("}\n")
        assert isinstance(json.loads(out), dict)

    def test_output_file_equals_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        assert run(["rootsys", "info", "--output", str(target)]) == 0
        assert target.read_text() == capsys.readouterr().out

    def test_output_into_a_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code = run(["rootsys", "info", "--family", "A", "--rank", "2",
                    "--output", str(target)])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # the error report is the only document
        assert code == 2 and doc["error"]["code"] == "config"
        assert str(target) in doc["error"]["message"]
        assert doc["config"]["output"] == str(target)
        assert "payload" not in doc and "Traceback" not in captured.err
        assert not target.parent.exists()

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


_ROOT = {"family", "rank", "J", "p", "budget", "output"}
_MODEL = _ROOT | {"r", "i", "v"}
_COUNT = {"r", "budget", "output"}
#: subcommand -> (its other arguments in one example, the dests its config echoes)
CONFIG_ECHO = {
    "rootsys info": ("", _ROOT),
    "model build": ("--r 2", _MODEL | {"what"}),
    "model hilbert": ("--r 2 --degree 4", _MODEL | {"degree", "weight"}),
    "model theta-check": ("--r 2", _MODEL),
    "model bracket-check": ("--r 2 --pairs 5", _MODEL | {"seed", "pairs"}),
    "variety count": ("--group U3 --q 3", _COUNT | {"group", "q"}),
    "variety components": ("--N 4", _COUNT | {"N", "q"}),
    "conjecture subdiagrams": ("--N 4", _COUNT | {"N", "count", "q"}),
    "specseq d2": ("--v 3 --r 2 --beta a1+a2", _MODEL | {"beta", "twist"}),
    "specseq transgression": ("--v 3 --r 2 --beta a1+a2", _MODEL | {"beta", "twist", "j"}),
    "specseq steenrod": ("--v 3 --r 2 --beta a1+a2 --op P0",
                         _MODEL | {"beta", "twist", "op", "kind", "exponent"}),
    "specseq aj-enumerate": ("--r 2 --degree 4 --weight 9,9",
                             _MODEL | {"degree", "weight"}),
    "specseq uniqueness": ("--v 3 --r 2 --beta a1+a2", _MODEL | {"beta"}),
    "verify-all": ("", {"seed", "output"}),
}


def _leaves(parser=None, words=()) -> dict:
    """command -> leaf parser, walked from build_parser() itself."""
    parser = parser or build_parser()
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                out.update(_leaves(child, (*words, name)))
    return out or {" ".join(words): parser}


def _options(command) -> list[str]:
    """The option strings a subcommand accepts, help excluded."""
    return [
        action.option_strings[0]
        for action in _leaves()[command]._actions
        if action.option_strings and action.dest != "help"
    ]


@pytest.mark.parametrize("command", sorted(CONFIG_ECHO))
def test_config_echoes_exactly_the_options_read(capsys, command):
    args, dests = CONFIG_ECHO[command]
    code, doc = invoke(capsys, *command.split(), *args.split())
    assert code in (0, 1)  # verify-all fails its two known criteria
    assert set(doc["config"]) == dests


_MODEL_DEFAULTS = {
    "--family": ("family", "A", False), "--rank": ("rank", 2, False),
    "--J": ("J", "", False), "--p": ("p", 3, False), "--budget": ("budget", None, False),
    "--r": ("r", 1, False), "--i": ("i", 1, False), "--v": ("v", None, False),
    "--output": ("output", None, False),
}
_AT_ROOT = {"--beta": ("beta", None, True), "--l": ("twist", 0, False)}
_ECHO = {"J": [], "budget": None, "family": "A", "i": 1, "output": None, "p": 3, "r": 2,
         "rank": 2, "v": 3}
#: specseq subcommand -> (option -> (dest, default, required), the config of its
#: CONFIG_ECHO example)
SPECSEQ = {
    "d2": ({**_MODEL_DEFAULTS, **_AT_ROOT},
           {**_ECHO, "beta": "a1+a2", "twist": 0}),
    "transgression": ({**_MODEL_DEFAULTS, **_AT_ROOT, "--j": ("j", 0, False)},
                      {**_ECHO, "beta": "a1+a2", "twist": 0, "j": 0}),
    "steenrod": ({**_MODEL_DEFAULTS, **_AT_ROOT, "--op": ("op", None, True),
                  "--kind": ("kind", "y", False), "--exponent": ("exponent", 1, False)},
                 {**_ECHO, "beta": "a1+a2", "twist": 0, "op": "P0", "kind": "y",
                  "exponent": 1}),
    "aj-enumerate": ({**_MODEL_DEFAULTS, "--degree": ("degree", None, True),
                      "--weight": ("weight", None, True)},
                     {**_ECHO, "v": None, "degree": 4, "weight": "9,9"}),
    "uniqueness": ({**_MODEL_DEFAULTS, "--beta": ("beta", None, True)},
                   {**_ECHO, "beta": "a1+a2"}),
}


@pytest.mark.parametrize("action", sorted(SPECSEQ))
def test_specseq_options_and_echo_are_unchanged(capsys, action):
    options, config = SPECSEQ[action]
    leaf = _leaves()[f"specseq {action}"]
    assert {
        option: (a.dest, a.default, a.required)
        for a in leaf._actions
        for option in a.option_strings
        if a.dest != "help"
    } == options
    args, _ = CONFIG_ECHO[f"specseq {action}"]
    code, doc = invoke(capsys, "specseq", action, *args.split())
    assert code == 0 and doc["config"] == config


#: (subcommand, option) pairs no payload reads, refused by the parser
REMOVED = [
    *(("rootsys info", o) for o in ("--r", "--seed")),
    *((c, "--seed") for c in ("model build", "model hilbert", "model theta-check",
                             "specseq d2", "specseq transgression", "specseq steenrod",
                             "specseq aj-enumerate", "specseq uniqueness")),
    *((c, o) for c in ("variety count", "variety components", "conjecture subdiagrams")
      for o in ("--family", "--rank", "--J", "--p", "--seed")),
]


def test_each_subcommand_has_exactly_the_options_it_reads():
    # one option per echoed dest (--l stores into twist): 123 in all
    assert set(_leaves()) == set(CONFIG_ECHO)
    for command, (_, dests) in CONFIG_ECHO.items():
        assert len(_options(command)) == len(dests)
    assert sum(len(_options(c)) for c in _leaves()) == 123
    for command, option in REMOVED:
        assert option not in _options(command)


@pytest.mark.parametrize("command, option", REMOVED)
def test_an_option_nothing_reads_is_refused(capsys, command, option):
    # the example of CONFIG_ECHO, valid but for the one option added
    args, _ = CONFIG_ECHO[command]
    value = {"--family": "A", "--J": "a1"}.get(option, "2")
    code, doc = invoke(capsys, *command.split(), *args.split(), option, value)
    assert code == 2 and doc["error"]["code"] == "config"
    assert doc["config"] is None and option in doc["error"]["message"]
    # the leaf parses alone, so its prog names the error
    assert doc["error"]["message"].startswith(f"frobkern {command}: unrecognized arguments")


#: the benchmark's command lines, each probe seed set to 7
BENCH_ARGV = [
    key.format(seed=7).split()
    for key in json.loads(
        (pathlib.Path(__file__).parents[1] / "perfbench" / "reference.json").read_text()
    )["jobs"]
]
#: every leaf's example, each refused option, the benchmark's jobs, and edge cases
PARSE_CORPUS = [
    *(f"{command} {args}".split() for command, (args, _) in CONFIG_ECHO.items()),
    *([*command.split(), *CONFIG_ECHO[command][0].split(), option, "2"]
      for command, option in REMOVED),
    *BENCH_ARGV,
    *(line.split() for line in (
        "variety count -h",
        "variety count --he",
        "variety count --h",
        "verify-all --help",
        "variety count --group=U3 --q=3 --r=2",
        "model hilbert --degree=4 --weight=1,1 --budget=9",
        "variety count --group U3 -- --q 3",
        "variety count -- --group U3 --q 3",
        "variety count --group U3 --q 3 --",
        "variety count --group U3 --q 3 stray",
        "variety count stray --group U3 --q 3",
        "variety count --group U3",
        "model hilbert --r 2",
        "specseq d2 --v 3",
        "no-such-command --q 3",
        "variety counts --group U3 --q 3",
        "model",
        "model --help",
        "--help",
        "-h",
        "",
    )),
]


def _parse(parser, argv, capsys):
    """How parsing argv ends: the namespace without the tree's group dests, the
    error with its prog prefix split off, or the exit code and printed text."""
    try:
        ns = parser.parse_args(argv)
    except ConfigError as exc:
        return "error", *str(exc).partition(": ")[::2]
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr().out
    return "parsed", {k: v for k, v in vars(ns).items() if k not in ("command", "action")}


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
def test_leaf_and_tree_parse_alike(capsys, argv):
    # run() parses a leaf's options with the leaf alone; the tree must agree
    tree = build_parser()
    words = list(itertools.takewhile(lambda t: not t.startswith("-"), argv))
    leaf = tree.leaves.get(" ".join(words))
    want = _parse(tree, argv, capsys)
    if leaf is None:  # run() hands these to the whole tree, message and all
        code = run(argv)
        out = capsys.readouterr().out
        if want[0] == "exit":
            assert code == 0 and out == want[2]
        else:
            assert want[0] == "error" and code == 2
            assert json.loads(out)["error"]["message"] == ": ".join(want[1:])
        return
    got = _parse(leaf, argv[len(words):], capsys)
    if got[0] == "error":
        # an error of the tree named its own prog; the leaf names the leaf's
        assert got[1] == leaf.prog and want[1] in ("frobkern", leaf.prog)
        got, want = got[::2], want[::2]
    assert got == want


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
            ["model", "hilbert", "--family", "A", "--rank", "2", "--r", "2", "--p", "3",
             "--degree", "8", "--weight", ""],
        ],
        ids=["non-integer", "wrong-length", "empty"],
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
            (None, ["variety", "components", "--N", "4", "--q", ""]),
            (None, ["conjecture", "subdiagrams", "--N", "4", "--count", "--q", ","]),
            # a repeated q subtracted every subset once per copy: residuals
            # -657 and -153 where the true residual is 0
            (None, ["conjecture", "subdiagrams", "--N", "5", "--r", "2", "--count",
                    "--q", "3,3"]),
            (None, ["variety", "components", "--N", "4", "--r", "2", "--q", "3,5,3"]),
            # Y's count checks q before the subset bound (2^21 - 1 subsets) refuses
            (None, ["conjecture", "subdiagrams", "--N", "9", "--r", "1", "--count",
                    "--q", "4"]),
            (None, ["variety", "count", "--group", "Ux", "--q", "3"]),
            (None, ["rootsys", "info", "--J", "x"]),
            (None, ["model", "hilbert", "--family", "A", "--rank", "2", "--r", "2",
                    "--degree", "-1"]),
            (None, ["specseq", "aj-enumerate", "--family", "A", "--rank", "2",
                    "--r", "2", "--degree", "-2", "--weight", "27,27"]),
            (None, ["model", "bracket-check", "--r", "2", "--pairs", "-1"]),
            (None, ["rootsys", "info", "--family", "A", "--rank", "4", "--J", "a2,a3",
                    "--p", "9"]),
        ],
        ids=["env-budget", "negative-budget", "q-list", "empty-q-list",
             "empty-q-list-subdiagrams", "repeated-q-subdiagrams", "repeated-q-components",
             "even-q-before-the-subset-bound", "group", "J",
             "negative-hilbert-degree", "negative-aj-degree", "negative-pairs",
             "composite-p"],
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

    @pytest.mark.parametrize(
        "q, code, message",
        [
            (10**24 + 7, 3, "exceed the enumeration budget"),
            ((10**9 + 7) * (10**9 + 9), 2, "is not a prime power"),
            ((10**9 + 7) ** 2, 3, "exceed the enumeration budget"),
            (2**40, 2, "p must be an odd prime, got 2"),
            (10**25 + 13, 3, "decides primality only below"),
            (2000000000003 * 2000000000123, 2, "is not a prime power"),
        ],
        ids=["prime", "two-primes", "prime-square", "power-of-two",
             "prime-above-the-bound", "two-primes-above-the-bound"],
    )
    def test_huge_q_is_decided_at_once(self, capsys, q, code, message):
        # no trial division up to sqrt(q): 10^24 + 7 took longer than 5 s
        start = time.perf_counter()
        got, doc = invoke(capsys, "variety", "count", "--group", "U3", "--r", "2",
                          "--q", str(q))
        assert time.perf_counter() - start < 1.0
        assert got == code
        assert message in doc["error"]["message"]

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

    @pytest.mark.parametrize("r", ["0", "-3"])
    def test_subdiagrams_need_a_positive_height(self, capsys, r):
        code, doc = invoke(capsys, "conjecture", "subdiagrams", "--N", "4", "--r", r)
        assert code == 2 and doc["error"]["code"] == "config"
        assert "r >= 1" in doc["error"]["message"]

    def test_uniqueness_needs_a_positive_root(self, capsys):
        # 3a1 - a2 has the top level 2 but is no root (it used to be searched)
        code, doc = invoke(capsys, "specseq", "uniqueness", "--family", "A", "--rank",
                           "2", "--r", "1", "--p", "3", "--beta", "3,-1")
        assert code == 2 and doc["error"]["code"] == "domain"
        assert "3a1+-1a2 is not a positive root" in doc["error"]["message"]

    @pytest.mark.parametrize("pairs, want", [("3", 2), ("0", 0)])
    def test_bracket_check_without_generators(self, capsys, pairs, want):
        # J holds every simple root, so the model has no generators to probe
        code, doc = invoke(capsys, "model", "bracket-check", "--family", "A", "--rank",
                           "2", "--J", "a1,a2", "--r", "2", "--v", "2", "--pairs", pairs)
        assert code == want
        if want:
            assert doc["error"]["code"] == "domain"
            assert "no generators" in doc["error"]["message"]

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


class TestScanBudget:
    def test_large_rank_is_refused_before_the_tables(self, capsys, monkeypatch):
        monkeypatch.delenv("FROBKERN_BUDGET", raising=False)
        start = time.perf_counter()
        code, doc = invoke(capsys, "rootsys", "info", "--family", "A", "--rank", "150")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and doc["error"]["code"] == "budget"
        message = doc["error"]["message"]
        assert "149 level-2 roots" in message and "budget 10000000" in message

    @pytest.mark.parametrize(
        "env, argv",
        [(None, ["--budget", "299"]), ("299", [])],
        ids=["option", "env"],
    )
    def test_budget_bounds_the_scan(self, capsys, monkeypatch, env, argv):
        # A5: 4 level-2 roots x 15 positive roots x rank 5 = 300 coefficients
        monkeypatch.delenv("FROBKERN_BUDGET", raising=False)
        if env is not None:
            monkeypatch.setenv("FROBKERN_BUDGET", env)
        base = ["rootsys", "info", "--family", "A", "--rank", "5"]
        code, doc = invoke(capsys, *base, *argv)
        assert code == 3 and "300" in doc["error"]["message"]
        code, doc = invoke(capsys, *base, "--budget", "300")
        assert code == 0 and doc["payload"]["pairing_hypothesis"]["ok"]

    def test_uniqueness_honours_the_budget(self, capsys, monkeypatch):
        # A40 with J all but a20, a21: the scan reads 400 level-2 roots x 32800
        # = 13.1 M coefficients, over the default budget and under --budget
        monkeypatch.delenv("FROBKERN_BUDGET", raising=False)
        J = ",".join(f"a{k}" for k in range(1, 41) if k not in (20, 21))
        code, doc = invoke(capsys, "specseq", "uniqueness", "--family", "A", "--rank",
                           "40", "--J", J, "--v", "3", "--r", "1", "--p", "3",
                           "--beta", "a20+a21", "--budget", "100000000")
        assert code == 0 and doc["payload"]["surviving_count"] == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["conjecture", "subdiagrams", "--N", "9", "--r", "1", "--count", "--q", "3"],
             "(2^21 - 1) subsets of the 21-member family times 2^8 zero patterns"
             " = 536870656 exceed the enumeration budget 10000000"),
            (["conjecture", "subdiagrams", "--N", "40", "--r", "1"],
             "F(39) = 63245986 sub-diagrams of N = 40 exceed"),
            (["conjecture", "subdiagrams", "--N", "6", "--r", "1", "--budget", "4"],
             "F(5) = 5 sub-diagrams of N = 6 exceed the enumeration budget 4"),
            # Y's 3^4 = 81 points fit, its 3 members' 7 subsets x 2^4 do not
            (["variety", "components", "--N", "5", "--r", "1", "--budget", "111"],
             "(2^3 - 1) subsets of the 3-member family times 2^4 zero patterns"
             " = 112 exceed the enumeration budget 111"),
        ],
        ids=["subsets", "family", "family-option", "components-option"],
    )
    def test_sub_diagram_work_is_bounded_before_it_starts(self, capsys, monkeypatch,
                                                          argv, message):
        # each bound is checked before its work: the 2^21 - 1 subsets at N = 9
        # (Y's 3^8 points at r = 1 fit), the F(39) members at N = 40
        monkeypatch.delenv("FROBKERN_BUDGET", raising=False)
        start = time.perf_counter()
        code, doc = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and doc["error"]["code"] == "budget"
        assert message in doc["error"]["message"]

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            ("--N 40 --r 1", 3, "F(39) = 63245986 sub-diagrams of N = 40 exceed"),
            ("--N 40 --r 1 --count", 3, "F(39) = 63245986 sub-diagrams of N = 40 exceed"),
            ("--N 9 --r 1 --count --q 4", 2, "p must be an odd prime, got 2"),
            ("--N 9 --r 2 --count --q 3", 3,
             "3^16 = 43046721 assignments exceed the enumeration budget 10000000"),
        ],
        ids=["family", "family-count", "even-q", "y-points"],
    )
    def test_a_family_built_once_keeps_its_errors(self, capsys, monkeypatch, argv, code,
                                                 message):
        monkeypatch.delenv("FROBKERN_BUDGET", raising=False)
        got, doc = invoke(capsys, "conjecture", "subdiagrams", *argv.split())
        assert got == code and message in doc["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        ["conjecture subdiagrams --N 5 --r 2", "conjecture subdiagrams --N 5 --r 2 --count",
         "variety components --N 4 --r 2 --q 3,5", "variety components --N 5 --r 2"],
    )
    def test_the_family_is_built_once_per_command(self, capsys, monkeypatch, argv):
        builds = []
        build = commvar.subdiagram_components
        monkeypatch.setattr(commvar, "subdiagram_components",
                            lambda *args: builds.append(args) or build(*args))
        code, _ = invoke(capsys, *argv.split())
        assert code == 0 and len(builds) == 1

    def test_a_model_over_a_large_table_is_refused(self, capsys, monkeypatch):
        monkeypatch.delenv("FROBKERN_BUDGET", raising=False)
        start = time.perf_counter()
        code, doc = invoke(capsys, "model", "build", "--family", "A", "--rank", "200",
                           "--what", "sstar")
        assert time.perf_counter() - start < 1.0
        assert code == 3 and "199 level-2 roots" in doc["error"]["message"]

    @pytest.mark.parametrize(
        "command",
        [["model", "build", "--what", "sstar"],
         ["specseq", "d2", "--v", "3", "--beta", "a1+a2"]],
        ids=["model", "specseq"],
    )
    @pytest.mark.parametrize(
        "env, argv",
        [(None, ["--budget", "35"]), ("35", [])],
        ids=["option", "env"],
    )
    def test_budget_bounds_a_model_table(self, capsys, monkeypatch, command, env, argv):
        # A3: 2 level-2 roots x 6 positive roots x rank 3 = 36 coefficients
        monkeypatch.delenv("FROBKERN_BUDGET", raising=False)
        if env is not None:
            monkeypatch.setenv("FROBKERN_BUDGET", env)
        base = [*command, "--family", "A", "--rank", "3", "--r", "2"]
        code, doc = invoke(capsys, *base, *argv)
        assert code == 3 and "36" in doc["error"]["message"]
        code, doc = invoke(capsys, *base, "--budget", "36")
        assert code == 0 and doc["config"]["budget"] == 36


#: 3^2000: its q^6 runs past the 4300 digits that str() writes out
HUGE_Q = str(3**2000)
STEENROD = ("specseq", "steenrod", "--family", "A", "--rank", "2", "--v", "3", "--r", "2",
            "--beta", "a1+a2", "--kind", "x")


def steenrod_oracle(p, e, n, twist):
    """The terms of P^n(x^e) = C(e, n) x^{pn} x'^{e-n}, with x' zero at the top twist."""
    c = math.comb(e, n) % p
    if not c or (e > n and twist == 1):  # r = 2
        return []
    exps = {f"x[a1+a2]({twist})": p * n, f"x[a1+a2]({twist + 1})": e - n}
    return [{"c": c, "e": {name: k for name, k in exps.items() if k}}]


class TestLargeNumbers:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["variety", "count", "--group", "U4", "--r", "2", "--q", HUGE_Q],
             f"{HUGE_Q}^6 assignments exceed the enumeration budget 10000000"),
            (["conjecture", "subdiagrams", "--N", "4", "--r", "2", "--count", "--q", HUGE_Q],
             f"{HUGE_Q}^6 assignments exceed the enumeration budget 10000000"),
            (["specseq", "transgression", "--family", "A", "--rank", "2", "--v", "3",
              "--r", "2", "--beta", "a1+a2", "--j", "10000"],
             "p^j = 3^10000 steps to page 2p^j + 1 exceed the enumeration budget 10000000"),
            # Y's 3^22 points fit; the subsets' (2^17711 - 1) x 2^22 run past 4300 digits
            (["conjecture", "subdiagrams", "--N", "23", "--r", "1", "--count",
              "--budget", "100000000000"],
             "(2^17711 - 1) subsets of the 17711-member family times 2^22 zero patterns"
             " exceed the enumeration budget 100000000000"),
        ],
        ids=["variety-count", "conjecture-count", "transgression", "subsets"],
    )
    def test_a_number_too_long_to_print_is_refused(self, capsys, monkeypatch, argv, message):
        # run() returns, so no traceback: the JSON error and exit 3
        monkeypatch.delenv("FROBKERN_BUDGET", raising=False)
        code, doc = invoke(capsys, *argv)
        assert code == 3 and doc["error"] == {"code": "budget", "message": message}

    @pytest.mark.parametrize("j, budget, code", [(14, None, 0), (15, None, 3), (2, "8", 3),
                                                 (2, "9", 0), (40, "100", 3)])
    def test_the_transgression_page_fits_the_budget(self, capsys, monkeypatch, j, budget,
                                                    code):
        monkeypatch.delenv("FROBKERN_BUDGET", raising=False)
        argv = ["specseq", "transgression", "--family", "A", "--rank", "2", "--v", "3",
                "--r", "2", "--beta", "a1+a2", "--j", str(j)]
        got, doc = invoke(capsys, *argv, *(["--budget", budget] if budget else []))
        assert got == code
        if code == 0:
            assert doc["payload"]["page"] == 2 * 3**j + 1
        else:
            assert doc["error"]["message"].startswith(f"p^j = 3^{j} steps to page")

    @pytest.mark.parametrize("p", [3, 5])
    def test_steenrod_powers_match_the_binomial_coefficients(self, capsys, p):
        # every supported n that can act on x^e for e <= 60, and one beyond
        ns = [0, *itertools.takewhile(lambda n: n < 60 * p, (p**j for j in range(9)))]
        for twist in (0, 1):
            for n in ns:
                for e in range(61):
                    code, doc = invoke(capsys, *STEENROD, "--p", str(p), "--op", f"P{n}",
                                       "--exponent", str(e), "--l", str(twist))
                    assert code == 0
                    assert doc["payload"]["value"]["terms"] == steenrod_oracle(p, e, n, twist)

    def test_a_large_steenrod_power_is_bounded(self, capsys, monkeypatch):
        monkeypatch.delenv("FROBKERN_BUDGET", raising=False)
        argv = (*STEENROD, "--p", "3", "--op", "P59049", "--exponent", "100000")
        start = time.perf_counter()
        code, doc = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert doc["payload"]["value"]["terms"] == steenrod_oracle(3, 100000, 59049, 0)
        code, doc = invoke(capsys, *argv, "--budget", "59049")
        assert code == 3 and doc["error"]["message"] == (
            "min(e, n) + 1 = 59050 grades of P^59049 on x^100000 exceed the enumeration "
            "budget 59049"
        )
        code, _ = invoke(capsys, *argv, "--budget", "59050")
        assert code == 0


def _pick(draw, good, bad=()):
    """Mostly a good value; one draw in ten a bad one."""
    if bad and draw(st.integers(0, 9)) == 5:
        return draw(st.sampled_from(bad))
    return draw(good if isinstance(good, st.SearchStrategy) else st.sampled_from(good))


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


@st.composite
def command_lines(draw):
    """argv for one subcommand, from small bounded values, some malformed."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    small = command in ("model hilbert", "model theta-check", "model bracket-check",
                        "specseq uniqueness")
    family = _pick(draw, ["A", "B", "C", "D"], ["a", "E", "x"])
    least = {"B": 2, "C": 2, "D": 3}.get(family, 1)
    top = 8 if command == "rootsys info" else 2 if small else 3
    rank = draw(st.integers(least, max(least, top)))
    labels = [f"a{k}" for k in range(1, rank + 1)] + [str(rank)]
    shared = {
        "--family": family,
        "--rank": _pick(draw, [str(rank)], ["0", "-1", "x"]),
        "--J": _pick(draw, st.lists(st.sampled_from(labels), max_size=2).map(",".join),
                     ["x", "a0", f"a{rank + 1}"]),
        "--p": _pick(draw, ["3", "5", "7"], ["-3", "1", "2", "9"]),
        "--r": _pick(draw, _ints(1, 2 if small else 3), ["0", "x"]),
        "--budget": False,
        "--i": False,
        "--v": False,
        "--seed": False,
        "--output": False,  # the fuzz writes no files
    }
    if draw(st.booleans()):
        shared["--i"] = _pick(draw, _ints(1, 2), ["0", "3"])
        shared["--v"] = _pick(draw, _ints(2, 4), ["0", "9"])
    if draw(st.booleans()) or command.split()[0] in ("variety", "conjecture"):
        shared["--budget"] = _pick(draw, _ints(0, 10**5), ["-2", "abc"])
    if draw(st.booleans()):
        shared["--seed"] = _pick(draw, _ints(0, 99), ["x"])
    own = {
        option: _pick(draw, good(rank) if callable(good) else good, bad)
        for option, good, bad in SUBCOMMANDS[command]
    }
    # the options come from the parser, so a value missing here is a KeyError
    options = _options(command)
    assert set(own) <= set(options)
    argv = command.split()
    for option in options:
        value = own[option] if option in own else shared[option]
        if value is not False:
            argv += [option] if value is None else [option, value]
    return argv


def _weights(rank):
    return st.lists(st.integers(0, 60), min_size=rank, max_size=rank).map(
        lambda w: ",".join(map(str, w))
    )


_BETA = (["a1", "a2", "a1+a2", "a2+a3", "1,1", "0,1,1", "a1+2a2"],
         ["2,2", "1,-1", "0,0", "a9", "x"])
#: command -> (option, good values or a strategy (of the rank), bad values)
SUBCOMMANDS = {
    "rootsys info": [],
    "model build": [("--what", ["sstar", "sbar", "q", "coord"], ["zz"])],
    "model hilbert": [("--degree", _ints(0, 12), ["-1"]),
                      ("--weight", _weights, ["", "1,x", "1,2,3,4,5"])],
    "model theta-check": [],
    "model bracket-check": [("--pairs", _ints(0, 20), ["-1"])],
    "variety count": [("--group", ["U2", "U3", "U4", "U5", "U6"], ["V3", "Ux", "U0"]),
                      ("--q", ["2", "3", "4", "5", "9", "27"], ["0", "1", "6", "x"])],
    "variety components": [("--N", _ints(3, 6), ["-1", "2"]),
                           ("--q", ["3", "5", "3,5", "4,9"], ["1", "6", "x", "3,,5"])],
    "conjecture subdiagrams": [("--N", _ints(3, 6), ["-1", "2"]),
                               ("--q", ["3", "5", "9"], ["1", "x"]),
                               ("--count", [None, False], ())],
    "specseq d2": [("--beta", *_BETA), ("--l", _ints(0, 2), ["-1", "5"])],
    "specseq transgression": [("--beta", *_BETA), ("--l", _ints(0, 2), ["-1"]),
                              ("--j", _ints(0, 2), ["-1", "9"])],
    "specseq steenrod": [("--beta", *_BETA), ("--l", _ints(0, 2), ["-1"]),
                         ("--op", ["P0", "bP0", "P1", "P3", "bP3", "P9", "P27"],
                          ["P-1", "bP", "Q0", "P03"]),
                         ("--kind", ["x", "y"], ["z"]),
                         ("--exponent", _ints(0, 3), ["-1"])],
    "specseq aj-enumerate": [("--degree", _ints(0, 12), ["-1"]),
                             ("--weight", _weights, ["", "1,x", "-3"])],
    "specseq uniqueness": [("--beta", *_BETA)],
}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command_lines())
def test_any_command_line_ends_in_a_report_or_a_json_error(capsys, monkeypatch, argv):
    # a traceback escapes run() as an exception and fails the test with it
    monkeypatch.delenv("FROBKERN_BUDGET", raising=False)
    code = run(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert "Traceback" not in captured.err
    if code == 0:
        assert "payload" in doc
    else:
        assert code in (1, 2, 3)
        assert EXIT_STATUS.get(doc["error"]["code"], 2) == code
