"""Command-line front end: reproducible runs emitting JSON reports.

Every subcommand builds a payload that is a pure function of its options
(and the seed, where randomness is involved), and takes no option that its
payload does not read.  The report wraps the payload with a command echo,
those options as parsed (the ``config``), wall time and budget counters.
Human-readable lines, where printed, are rendered from the same payload.
Exit codes: 0 success, 1 check failure, 2 configuration error, 3 budget
exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from collections import Counter

from . import commvar, grmodel, polyalg, rootsys, specseq, verify
from .errors import ConfigError, FrobkernError

ENV_BUDGET = "FROBKERN_BUDGET"
#: exit status per error code; every other library error is a configuration error
EXIT_STATUS = {"check": 1, "budget": 3}


def _parse_J(text: str) -> tuple[str, ...]:
    """A --J value: simple roots as labels or indices, sorted and deduplicated."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if token.startswith("a"):
            out.append(token)
        elif token.isdigit():
            out.append(f"a{int(token)}")
        elif token:
            raise argparse.ArgumentTypeError(
                f"needs simple roots like a2,a3 or 2,3, got {text!r}"
            )
    return tuple(sorted(set(out)))


def _parse_q_list(text: str) -> tuple[int, ...]:
    """The list form of --q: one or more distinct comma-separated integers."""
    try:
        q_list = tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"needs comma-separated integers, got {text!r}"
        ) from None
    if not q_list:
        raise argparse.ArgumentTypeError(f"needs at least one q, got {text!r}")
    if len(set(q_list)) < len(q_list):
        raise argparse.ArgumentTypeError(f"names a q more than once, got {text!r}")
    return q_list


def _parse_weight(text: str, rank: int) -> tuple[int, ...]:
    """A --weight value: comma-separated integers, one per simple root."""
    try:
        weight = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ConfigError(
            f"--weight needs comma-separated integers, got {text!r}"
        ) from None
    if len(weight) != rank:
        raise ConfigError(
            f"--weight needs {rank} entries, one per simple root, got {len(weight)}"
        )
    return weight


def _non_negative(text: str) -> int:
    """A --degree or --pairs value: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"needs an integer >= 0, got {text!r}")
    return int(text)


def _budget(ns) -> int | None:
    """--budget, else $FROBKERN_BUDGET, else None (each library default)."""
    budget = getattr(ns, "budget", None)  # verify-all takes no --budget
    if budget is None:
        env = os.environ.get(ENV_BUDGET)
        if not env:
            return None
        try:
            budget = int(env)
        except ValueError:
            raise ConfigError(f"{ENV_BUDGET} must be an integer, got {env!r}") from None
    if budget < 0:
        raise ConfigError(f"the enumeration budget must be >= 0, got {budget}")
    return budget


def _model_ctx(ns) -> grmodel.ModelContext:
    """The model of the options, once its root table is known to fit the budget."""
    rootsys.check_scan_budget(ns.family, ns.rank, ns.J, _budget(ns))
    return grmodel.model_context(
        ns.family, ns.rank, J=ns.J, i=ns.i, stage=ns.v, r=ns.r, p=ns.p
    )


# -- payload builders -------------------------------------------------------------


def payload_rootsys_info(ns) -> dict:
    rootsys.check_scan_budget(ns.family, ns.rank, ns.J, _budget(ns))
    ctx = rootsys.context(ns.family, ns.rank, ns.J)
    pairing = rootsys.check_pairing_hypothesis(ctx, ns.p)
    radical = ctx.radical_roots()
    return {
        "family": ns.family,
        "rank": ns.rank,
        "J": sorted(ns.J),
        "positive_roots": [b.label() for b in ctx.system.positive_roots],
        "radical_roots": [
            {
                "root": b.label(),
                "height": b.height,
                "level": ctx.level(b),
                "shape": ctx.shape(b).label(),
            }
            for b in radical
        ],
        "level_histogram": dict(Counter(str(ctx.level(b)) for b in radical)),
        "pairing_hypothesis": pairing.to_json_dict(),
    }


def payload_model_build(ns) -> dict:
    build = {
        "sstar": grmodel.build_S_star,
        "sbar": grmodel.build_Sbar,
        "q": grmodel.build_Q,
        "coord": grmodel.vr_coordinate_algebra,
    }[ns.what]
    return build(_model_ctx(ns)).to_json_dict()


def payload_model_hilbert(ns) -> dict:
    ctx = _model_ctx(ns)
    sbar = grmodel.build_Sbar(ctx)
    w = None if ns.weight is None else _parse_weight(ns.weight, ns.rank)
    dims = polyalg.hilbert_series(sbar.ideal(), ns.degree, weight=w)
    return {
        "context": ctx.label(),
        "weight": None if w is None else list(w),
        "by_degree": {str(d): n for d, n in enumerate(dims)},
    }


def payload_model_theta_check(ns) -> dict:
    ctx = _model_ctx(ns)
    theta = grmodel.theta_substitution(ctx)  # raises CheckFailure on failure
    identities = grmodel.theta_power_identities(theta)
    return {
        "context": ctx.label(),
        "well_defined": True,
        "relations_checked": len(theta.source.relations),
        "power_identities": [
            {
                "beta": ident.beta.label(),
                "twists": [ident.twist, ident.twist2],
                "power_exponent": ident.power,
                "sign": ident.sign,
            }
            for ident in identities
        ],
    }


def payload_model_bracket_check(ns) -> dict:
    ctx = _model_ctx(ns)
    misses = grmodel.bracket_probe(grmodel.build_Sbar(ctx), ns.pairs, ns.seed)
    return {
        "context": ctx.label(),
        "relation_images_in_target_ideal": True,
        "random_pairs_checked": ns.pairs,
        "collapse_probes": [
            {"generator": name, "degree": degree, "s": s, "in_image": False}
            for name, degree, s in misses
        ],
    }


def payload_variety_count(ns) -> dict:
    group, q = ns.group.upper().strip(), ns.q
    if not (group.startswith("U") and group[1:].isdigit()):
        raise ConfigError(f"expected a group of the form U<N>, got {ns.group!r}")
    N = int(group[1:])
    budget = _budget(ns)
    x_system = commvar.x_variety_system(N, ns.r)
    y_system = commvar.y_variety_system(N, ns.r)
    y_count = y_system.count(q, budget)
    # X's extra coordinates are no nodes, so X has Y's strata and is counted
    # through Y; the budget on X's q^n only names the method
    count = y_count * q**x_system.free_rank
    x_assignments = q ** len(x_system.variables)
    if x_assignments <= (polyalg.DEFAULT_POINT_BUDGET if budget is None else budget):
        method, assignments = "direct", x_assignments
    else:
        method, assignments = "product", q ** len(y_system.variables)
    return {
        "group": group,
        "quotient_stage": 3,
        "r": ns.r,
        "q": q,
        "y_count": y_count,
        "free_rank": x_system.free_rank,
        "count": count,
        "method": method,
        "assignments_enumerated": assignments,
        "dim_estimate": round(commvar.dim_estimate(count, q), 4),
    }


def payload_variety_components(ns) -> dict:
    N = ns.N
    budget = _budget(ns)
    out: dict = {"N": N, "r": ns.r, "q_list": list(ns.q)}
    if N == 4:
        counts = commvar.u4_component_counts(ns.r, ns.q, budget)
        out["counts"] = {str(q): c for q, c in counts.items()}
        dims = commvar.subdiagram_components(4, ns.r, budget).predicted_dims()
        out["claimed_dims"] = {
            v: dims[label] for v, label in commvar.U4_COMPONENTS.items()
        }
    else:
        report = commvar.conjecture_check(N, ns.r, ns.q, budget)
        out["report"] = report.to_json_dict()
    return out


def payload_specseq_d2(ns) -> dict:
    page = specseq.ExtensionPage(_model_ctx(ns))
    beta = rootsys.parse_root(ns.beta, ns.rank)
    value = specseq.d2_on_y(page, beta, ns.twist)
    return {
        "class": rootsys.generator_name("y", beta.label(), ns.twist),
        "page": 2,
        "value": value.to_json_dict(),
    }


def payload_specseq_transgression(ns) -> dict:
    page = specseq.ExtensionPage(_model_ctx(ns))
    beta = rootsys.parse_root(ns.beta, ns.rank)
    value = specseq.transgression_power(page, beta, ns.twist, ns.j)
    x = rootsys.generator_name("x", beta.label(), ns.twist)
    return {
        "class": f"({x})^{ns.p}^{ns.j}",
        "page": 2 * ns.p**ns.j + 1,
        "value": value.to_json_dict(),
        "zero": value.is_zero(),
    }


def payload_specseq_steenrod(ns) -> dict:
    page = specseq.ExtensionPage(_model_ctx(ns))
    beta = rootsys.parse_root(ns.beta, ns.rank)
    target = page.var(ns.kind, beta, ns.twist) ** (ns.exponent if ns.kind == "x" else 1)
    value = specseq.steenrod_apply(page, ns.op, target)
    return {
        "operation": ns.op,
        "argument": target.to_json_dict(),
        "value": value.to_json_dict(),
    }


def payload_specseq_aj_enumerate(ns) -> dict:
    roots = _model_ctx(ns).roots()
    weight = _parse_weight(ns.weight, ns.rank)
    monomials = specseq.aj_E1_enumerate(roots, ns.r, ns.p, ns.degree, weight)
    return {
        "degree": ns.degree,
        "weight": list(weight),
        "dimension": len(monomials),
        "monomials": [m.to_json_dict() for m in monomials],
    }


def payload_specseq_uniqueness(ns) -> dict:
    ctx = _model_ctx(ns)
    return specseq.uniqueness_witness(ctx, rootsys.parse_root(ns.beta, ns.rank)).to_json_dict()


def payload_conjecture(ns) -> dict:
    N, budget = ns.N, _budget(ns)
    family = commvar.subdiagram_components(N, ns.r, budget)
    payload = {"N": N, "r": ns.r, "members": family.members_json()}
    if ns.count:
        report = commvar.conjecture_check(N, ns.r, ns.q, budget)
        payload["evidence"] = report.to_json_dict()
    return payload


def payload_verify_all(ns) -> dict:
    results = verify.verify_all(seed=ns.seed)
    for res in results:
        print(res.line(), file=sys.stderr)
    return {
        "criteria": [r.to_json_dict() for r in results],
        "passed": sum(r.passed for r in results),
        "failed": sum(not r.passed for r in results),
        "known_discrepancies": sorted(
            r.key
            for r in results
            if not r.passed and r.key in verify.KNOWN_DISCREPANCIES
        ),
    }


# -- argument parsing ---------------------------------------------------------------

#: options that several subcommands read, each declared once
_SHARED = {
    "--family": {"default": "A"},
    "--rank": {"type": int, "default": 2},
    "--J": {"type": _parse_J, "default": "", "help": "comma list of simple roots (a2,a3)"},
    "--p": {"type": int, "default": 3},
    "--r": {"type": int, "default": 1},
    "--i": {"type": int, "default": 1, "help": "central-series start"},
    "--v": {
        "type": int,
        "default": None,
        "help": "quotient stage m (model Gamma_i/Gamma_m); default: full group",
    },
    "--budget": {"type": int, "default": None},
    "--seed": {"type": int, "default": 0},
    "--q": {"type": _parse_q_list, "default": "3", "help": "comma list of prime powers"},
    "--degree": {"type": _non_negative, "required": True},
    "--beta": {"required": True, "help": "root label or coeff list"},
    "--l": {"dest": "twist", "type": int, "default": 0},
}
#: what a root table, and a model over it, is built from
_ROOT_OPTIONS = ("--family", "--rank", "--J", "--p", "--budget")
_MODEL_OPTIONS = (*_ROOT_OPTIONS, "--r", "--i", "--v")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a configuration error."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _leaf(subparsers, name: str, payload, *shared: str, **kwargs):
    """A subcommand that reads the named shared options and --output.

    Options match only in full, so an option the subcommand does not take
    is refused even where it is a prefix of one it does (--r of --rank).
    """
    parser = subparsers.add_parser(name, allow_abbrev=False, **kwargs)
    for option in shared:
        parser.add_argument(option, **_SHARED[option])
    parser.add_argument("--output", default=None, help="also write the report here")
    parser.set_defaults(payload=payload)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The subcommand tree, built once per process: parsing leaves it as it is."""
    parser = _Parser(
        prog="frobkern",
        description="models, varieties and spectral data for unipotent Frobenius kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_root = sub.add_parser("rootsys", help="root-system information")
    root_sub = p_root.add_subparsers(dest="action", required=True)
    _leaf(root_sub, "info", payload_rootsys_info, *_ROOT_OPTIONS)

    p_model = sub.add_parser("model", help="model algebras and their maps")
    model_sub = p_model.add_subparsers(dest="action", required=True)
    p_build = _leaf(model_sub, "build", payload_model_build, *_MODEL_OPTIONS)
    p_build.add_argument("--what", default="sbar", choices=["sstar", "sbar", "q", "coord"])
    p_hilb = _leaf(model_sub, "hilbert", payload_model_hilbert, *_MODEL_OPTIONS, "--degree")
    p_hilb.add_argument("--weight", default=None)
    _leaf(model_sub, "theta-check", payload_model_theta_check, *_MODEL_OPTIONS)
    p_brk = _leaf(
        model_sub, "bracket-check", payload_model_bracket_check, *_MODEL_OPTIONS, "--seed"
    )
    p_brk.add_argument("--pairs", type=_non_negative, default=100)

    p_var = sub.add_parser("variety", help="point counts of the quotient varieties")
    var_sub = p_var.add_subparsers(dest="action", required=True)
    p_count = _leaf(var_sub, "count", payload_variety_count, "--r", "--budget")
    p_count.add_argument("--group", required=True, help="U3, U4, ...")
    p_count.add_argument("--q", type=int, required=True)
    p_comp = _leaf(var_sub, "components", payload_variety_components, "--r", "--budget", "--q")
    p_comp.add_argument("--N", type=int, default=4)

    p_ss = sub.add_parser("specseq", help="differentials, Steenrod fragment, enumerators")
    ss_sub = p_ss.add_subparsers(dest="action", required=True)
    at_root = (*_MODEL_OPTIONS, "--beta")
    _leaf(ss_sub, "d2", payload_specseq_d2, *at_root, "--l")
    p_tr = _leaf(ss_sub, "transgression", payload_specseq_transgression, *at_root, "--l")
    p_tr.add_argument("--j", type=int, default=0)
    p_st = _leaf(ss_sub, "steenrod", payload_specseq_steenrod, *at_root, "--l")
    p_st.add_argument("--op", required=True, help="P0, bP0, P3, bP9, ...")
    p_st.add_argument("--kind", choices=["y", "x"], default="y")
    p_st.add_argument("--exponent", type=int, default=1)
    p_aj = _leaf(
        ss_sub, "aj-enumerate", payload_specseq_aj_enumerate, *_MODEL_OPTIONS, "--degree"
    )
    p_aj.add_argument("--weight", required=True)
    _leaf(ss_sub, "uniqueness", payload_specseq_uniqueness, *at_root)

    p_conj = sub.add_parser("conjecture", help="sub-diagram component combinatorics")
    conj_sub = p_conj.add_subparsers(dest="action", required=True)
    p_sd = _leaf(conj_sub, "subdiagrams", payload_conjecture, "--r", "--budget", "--q")
    p_sd.add_argument("--N", type=int, required=True)
    p_sd.add_argument("--count", action="store_true", help="also run the point counts")

    _leaf(sub, "verify-all", payload_verify_all, "--seed", help="run the acceptance criteria")

    return parser


def _echo(ns) -> dict:
    """The report's config: every option of the subcommand, as parsed."""
    return {
        dest: list(value) if isinstance(value, tuple) else value
        for dest, value in vars(ns).items()
        if dest not in ("command", "action", "payload")
    }


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the words before the first option, known even when parsing fails
    command = " ".join(itertools.takewhile(lambda t: not t.startswith("-"), argv))
    start = time.perf_counter()
    config = None  # echoed as null when the options themselves are malformed
    try:
        ns = build_parser().parse_args(argv)
        config = _echo(ns)
        budget = _budget(ns)
        payload = ns.payload(ns)
        report = {
            "schema_version": 1,
            "command": command,
            "config": config,
            "payload": payload,
            "wall_time_s": round(time.perf_counter() - start, 4),
            "budget": {
                "enumeration_budget": budget,
                "env_override": os.environ.get(ENV_BUDGET),
            },
        }
        text = json.dumps(report, sort_keys=True, indent=2)
        if ns.output:  # written before printing, so a failed write prints one document
            try:
                with open(ns.output, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise ConfigError(
                    f"cannot write --output {ns.output!r}: {exc.strerror}"
                ) from None
    except SystemExit:  # --help printed its text
        return 0
    except FrobkernError as exc:
        _emit_error(command, config, exc)
        return EXIT_STATUS.get(exc.code, 2)
    print(text)
    # verify-all counts its failed criteria; any failure is a check failure
    return 1 if payload.get("failed") else 0


def _emit_error(command: str, config: dict | None, exc: FrobkernError) -> None:
    report = {
        "schema_version": 1,
        "command": command,
        "config": config,
        "error": {"code": exc.code, "message": str(exc)},
    }
    print(json.dumps(report, sort_keys=True, indent=2))


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
