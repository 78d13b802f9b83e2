"""Command-line front end: reproducible runs emitting JSON reports.

Every subcommand builds a payload that is a pure function of its options
(and the seed, where randomness is involved); the report wraps the payload
with a command echo, the parsed configuration, wall time and budget
counters.  Human-readable lines, where printed, are rendered from the same
payload.  Exit codes: 0 success, 1 check failure, 2 configuration error,
3 budget exhaustion.
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
from dataclasses import asdict, dataclass

from . import commvar, grmodel, polyalg, rootsys, specseq, verify
from .errors import BudgetError, CheckFailure, ConfigError, FrobkernError

ENV_BUDGET = "FROBKERN_BUDGET"
#: exit status per error code; every other library error is a configuration error
EXIT_STATUS = {"check": 1, "budget": 3}


@dataclass
class RunConfig:
    family: str = "A"
    rank: int = 2
    J: tuple[str, ...] = ()
    i: int = 1
    v: int | None = None  # quotient stage; None means the full group
    r: int = 1
    p: int = 3
    q_list: tuple[int, ...] = ()
    enumeration_budget: int | None = None
    output: str | None = None
    seed: int = 0

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        doc["J"] = sorted(self.J)
        doc["q_list"] = list(self.q_list)
        return doc


def _parse_J(text: str) -> tuple[str, ...]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if token.startswith("a"):
            out.append(token)
        elif token.isdigit():
            out.append(f"a{int(token)}")
        elif token:
            raise ConfigError(f"--J needs simple roots like a2,a3 or 2,3, got {text!r}")
    return tuple(sorted(set(out)))


def _parse_q_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ConfigError(f"--q needs comma-separated integers, got {text!r}") from None


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


def _budget(config: RunConfig) -> int | None:
    """--budget, else $FROBKERN_BUDGET, else None (each library default)."""
    budget = config.enumeration_budget
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


def _model_ctx(config: RunConfig) -> grmodel.ModelContext:
    return grmodel.model_context(
        config.family,
        config.rank,
        J=config.J,
        i=config.i,
        stage=config.v,
        r=config.r,
        p=config.p,
    )


def _root(config: RunConfig, text: str) -> rootsys.Root:
    return rootsys.parse_root(text, config.rank)


# -- payload builders -------------------------------------------------------------


def payload_rootsys_info(config: RunConfig, ns) -> dict:
    budget = _budget(config)
    rootsys.check_scan_budget(config.family, config.rank, config.J, budget)
    ctx = rootsys.context(config.family, config.rank, config.J)
    pairing = rootsys.check_pairing_hypothesis(ctx, config.p, budget)
    radical = ctx.radical_roots()
    return {
        "family": config.family,
        "rank": config.rank,
        "J": sorted(config.J),
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


def payload_model_build(config: RunConfig, ns) -> dict:
    build = {
        "sstar": grmodel.build_S_star,
        "sbar": grmodel.build_Sbar,
        "q": grmodel.build_Q,
        "coord": grmodel.vr_coordinate_algebra,
    }[ns.what]
    return build(_model_ctx(config)).to_json_dict()


def payload_model_hilbert(config: RunConfig, ns) -> dict:
    ctx = _model_ctx(config)
    sbar = grmodel.build_Sbar(ctx)
    w = _parse_weight(ns.weight, config.rank) if ns.weight else None
    dims = polyalg.hilbert_series(sbar.ideal(), ns.degree, weight=w)
    return {
        "context": ctx.label(),
        "weight": list(w) if w else None,
        "by_degree": {str(d): n for d, n in enumerate(dims)},
    }


def payload_model_theta_check(config: RunConfig, ns) -> dict:
    ctx = _model_ctx(config)
    theta = grmodel.theta_substitution(ctx)  # raises CheckFailure on failure
    identities = grmodel.theta_power_identities(ctx, theta)
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


def payload_model_bracket_check(config: RunConfig, ns) -> dict:
    ctx = _model_ctx(config)
    misses = grmodel.bracket_probe(grmodel.build_Sbar(ctx), ns.pairs, config.seed)
    return {
        "context": ctx.label(),
        "relation_images_in_target_ideal": True,
        "random_pairs_checked": ns.pairs,
        "collapse_probes": [
            {"generator": name, "degree": degree, "s": s, "in_image": False}
            for name, degree, s in misses
        ],
    }


def payload_variety_count(config: RunConfig, ns) -> dict:
    group, q = ns.group.upper().strip(), ns.q
    if not (group.startswith("U") and group[1:].isdigit()):
        raise ConfigError(f"expected a group of the form U<N>, got {ns.group!r}")
    N = int(group[1:])
    budget = _budget(config)
    x_system = commvar.x_variety_system(N, config.r)
    y_system = commvar.y_variety_system(N, config.r)
    y_count = y_system.count(q, budget)
    product = y_count * q**x_system.free_rank
    total_space = q ** len(x_system.variables)
    method = "direct"
    try:
        direct = x_system.count(q, budget)
    except BudgetError:
        direct = None
        method = "product"
    if direct is not None and direct != product:
        raise CheckFailure("direct count disagrees with the product law")
    count = direct if direct is not None else product
    assignments = total_space if method == "direct" else q ** len(y_system.variables)
    return {
        "group": group,
        "quotient_stage": 3,
        "r": config.r,
        "q": q,
        "y_count": y_count,
        "free_rank": x_system.free_rank,
        "count": count,
        "method": method,
        "assignments_enumerated": assignments,
        "dim_estimate": round(commvar.dim_estimate(count, q), 4),
    }


def payload_variety_components(config: RunConfig, ns) -> dict:
    N = ns.N
    budget = _budget(config)
    q_list = config.q_list or (3,)
    out: dict = {"N": N, "r": config.r, "q_list": list(q_list)}
    if N == 4:
        counts = commvar.u4_component_counts(config.r, q_list, budget)
        out["counts"] = {str(q): c for q, c in counts.items()}
        dims = commvar.subdiagram_components(4, config.r).predicted_dims()
        out["claimed_dims"] = {
            v: dims[label] for v, label in commvar.U4_COMPONENTS.items()
        }
    else:
        report = commvar.conjecture_check(N, config.r, q_list, budget)
        out["report"] = report.to_json_dict()
    return out


def payload_specseq_d2(config: RunConfig, ns) -> dict:
    page = specseq.ExtensionPage(_model_ctx(config))
    beta = _root(config, ns.beta)
    value = specseq.d2_on_y(page, beta, ns.twist)
    return {
        "class": rootsys.generator_name("y", beta.label(), ns.twist),
        "page": 2,
        "value": value.to_json_dict(),
    }


def payload_specseq_transgression(config: RunConfig, ns) -> dict:
    page = specseq.ExtensionPage(_model_ctx(config))
    beta = _root(config, ns.beta)
    value = specseq.transgression_power(page, beta, ns.twist, ns.j)
    return {
        "class": f"(x[{beta.label()}]({ns.twist}))^{config.p}^{ns.j}",
        "page": 2 * config.p**ns.j + 1,
        "value": value.to_json_dict(),
        "zero": value.is_zero(),
    }


def payload_specseq_steenrod(config: RunConfig, ns) -> dict:
    page = specseq.ExtensionPage(_model_ctx(config))
    beta = _root(config, ns.beta)
    if ns.kind == "y":
        target = page.y(beta, ns.twist)
    else:
        target = page.x(beta, ns.twist) ** ns.exponent
    value = specseq.steenrod_apply(page, ns.op, target)
    return {
        "operation": ns.op,
        "argument": target.to_json_dict(),
        "value": value.to_json_dict(),
    }


def payload_specseq_aj_enumerate(config: RunConfig, ns) -> dict:
    ctx = _model_ctx(config)
    roots = tuple(root for v in ctx.levels() for root in ctx.roots_of_level(v))
    weight = _parse_weight(ns.weight, config.rank)
    monomials = specseq.aj_E1_enumerate(roots, config.r, config.p, ns.degree, weight)
    return {
        "degree": ns.degree,
        "weight": list(weight),
        "dimension": len(monomials),
        "monomials": [
            {"name": m.name, **specseq.aj_summand_index(m)} for m in monomials
        ],
    }


def payload_specseq_uniqueness(config: RunConfig, ns) -> dict:
    ctx = _model_ctx(config)
    return specseq.uniqueness_witness(ctx, _root(config, ns.beta)).to_json_dict()


def payload_conjecture(config: RunConfig, ns) -> dict:
    N = ns.N
    family = commvar.subdiagram_components(N, config.r)
    payload = {"N": N, "r": config.r, "members": family.members_json()}
    if ns.count:
        q_list = config.q_list or (3,)
        report = commvar.conjecture_check(N, config.r, q_list, _budget(config))
        payload["evidence"] = report.to_json_dict()
    return payload


def payload_verify_all(config: RunConfig, ns) -> dict:
    results = verify.verify_all(seed=config.seed)
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


def _add_common(parser, model=False):
    parser.add_argument("--family", default="A")
    parser.add_argument("--rank", type=int, default=2)
    parser.add_argument("--J", default="", help="comma list of simple roots (a2,a3)")
    parser.add_argument("--p", type=int, default=3)
    parser.add_argument("--r", type=int, default=1)
    if model:
        parser.add_argument("--i", type=int, default=1, help="central-series start")
        parser.add_argument(
            "--v",
            type=int,
            default=None,
            help="quotient stage m (model Gamma_i/Gamma_m); default: full group",
        )
    parser.add_argument("--output", default=None, help="also write the report here")
    parser.add_argument("--budget", type=int, default=None, dest="budget")
    parser.add_argument("--seed", type=int, default=0)


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a configuration error."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


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
    p_info = root_sub.add_parser("info")
    _add_common(p_info)
    p_info.set_defaults(payload=payload_rootsys_info)

    p_model = sub.add_parser("model", help="model algebras and their maps")
    model_sub = p_model.add_subparsers(dest="action", required=True)
    p_build = model_sub.add_parser("build")
    _add_common(p_build, model=True)
    p_build.add_argument("--what", default="sbar", choices=["sstar", "sbar", "q", "coord"])
    p_build.set_defaults(payload=payload_model_build)
    p_hilb = model_sub.add_parser("hilbert")
    _add_common(p_hilb, model=True)
    p_hilb.set_defaults(payload=payload_model_hilbert)
    p_hilb.add_argument("--degree", type=_non_negative, required=True)
    p_hilb.add_argument("--weight", default=None)
    p_theta = model_sub.add_parser("theta-check")
    _add_common(p_theta, model=True)
    p_theta.set_defaults(payload=payload_model_theta_check)
    p_brk = model_sub.add_parser("bracket-check")
    _add_common(p_brk, model=True)
    p_brk.set_defaults(payload=payload_model_bracket_check)
    p_brk.add_argument("--pairs", type=_non_negative, default=100)

    p_var = sub.add_parser("variety", help="point counts of the quotient varieties")
    var_sub = p_var.add_subparsers(dest="action", required=True)
    p_count = var_sub.add_parser("count")
    _add_common(p_count)
    p_count.set_defaults(payload=payload_variety_count)
    p_count.add_argument("--group", required=True, help="U3, U4, ...")
    p_count.add_argument("--q", type=int, required=True)
    p_comp = var_sub.add_parser("components")
    _add_common(p_comp)
    p_comp.set_defaults(payload=payload_variety_components)
    p_comp.add_argument("--N", type=int, default=4)
    p_comp.add_argument("--q", default="3", help="comma list of prime powers")

    p_ss = sub.add_parser("specseq", help="differentials, Steenrod fragment, enumerators")
    ss_sub = p_ss.add_subparsers(dest="action", required=True)
    for name, payload in (
        ("d2", payload_specseq_d2),
        ("transgression", payload_specseq_transgression),
        ("steenrod", payload_specseq_steenrod),
        ("aj-enumerate", payload_specseq_aj_enumerate),
        ("uniqueness", payload_specseq_uniqueness),
    ):
        p_act = ss_sub.add_parser(name)
        _add_common(p_act, model=True)
        p_act.set_defaults(payload=payload)
        if name in ("d2", "transgression", "steenrod", "uniqueness"):
            p_act.add_argument("--beta", required=True, help="root label or coeff list")
        if name in ("d2", "transgression", "steenrod"):
            p_act.add_argument("--l", dest="twist", type=int, default=0)
        if name == "transgression":
            p_act.add_argument("--j", type=int, default=0)
        if name == "steenrod":
            p_act.add_argument("--op", required=True, help="P0, bP0, P3, bP9, ...")
            p_act.add_argument("--kind", choices=["y", "x"], default="y")
            p_act.add_argument("--exponent", type=int, default=1)
        if name == "aj-enumerate":
            p_act.add_argument("--degree", type=_non_negative, required=True)
            p_act.add_argument("--weight", required=True)

    p_conj = sub.add_parser("conjecture", help="sub-diagram component combinatorics")
    conj_sub = p_conj.add_subparsers(dest="action", required=True)
    p_sd = conj_sub.add_parser("subdiagrams")
    _add_common(p_sd)
    p_sd.set_defaults(payload=payload_conjecture)
    p_sd.add_argument("--N", type=int, required=True)
    p_sd.add_argument("--count", action="store_true", help="also run the point counts")
    p_sd.add_argument("--q", default="3")

    p_verify = sub.add_parser("verify-all", help="run the acceptance criteria")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(payload=payload_verify_all)

    return parser


def _config_from(ns) -> RunConfig:
    q_list: tuple[int, ...] = ()
    if getattr(ns, "q", None) is not None and isinstance(ns.q, str):
        q_list = _parse_q_list(ns.q)
    return RunConfig(
        family=getattr(ns, "family", "A"),
        rank=getattr(ns, "rank", 2),
        J=_parse_J(getattr(ns, "J", "")),
        i=getattr(ns, "i", 1),
        v=getattr(ns, "v", None),
        r=getattr(ns, "r", 1),
        p=getattr(ns, "p", 3),
        q_list=q_list,
        enumeration_budget=getattr(ns, "budget", None),
        output=getattr(ns, "output", None),
        seed=getattr(ns, "seed", 0),
    )


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the words before the first option, known even when parsing fails
    command = " ".join(itertools.takewhile(lambda t: not t.startswith("-"), argv))
    start = time.perf_counter()
    config = None  # echoed as null when the options themselves are malformed
    try:
        ns = build_parser().parse_args(argv)
        config = _config_from(ns)
        budget = _budget(config)
        payload = ns.payload(config, ns)
    except SystemExit:  # --help printed its text
        return 0
    except FrobkernError as exc:
        _emit_error(command, config, exc)
        return EXIT_STATUS.get(exc.code, 2)
    report = {
        "schema_version": 1,
        "command": command,
        "config": config.to_json_dict(),
        "payload": payload,
        "wall_time_s": round(time.perf_counter() - start, 4),
        "budget": {
            "enumeration_budget": budget,
            "env_override": os.environ.get(ENV_BUDGET),
        },
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if config.output:
        with open(config.output, "w") as fh:
            fh.write(text + "\n")
    # verify-all counts its failed criteria; any failure is a check failure
    return 1 if payload.get("failed") else 0


def _emit_error(command: str, config: RunConfig | None, exc: FrobkernError) -> None:
    report = {
        "schema_version": 1,
        "command": command,
        "config": config.to_json_dict() if config is not None else None,
        "error": {"code": exc.code, "message": str(exc)},
    }
    print(json.dumps(report, sort_keys=True, indent=2))


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
