"""Configuration-driven experiment runner.

Every module is exposed as a subcommand; a JSON config file can supply any
parameter, and command-line flags override it.  All randomness flows from the
single ``seed`` through sha256-derived sub-seeds, so runs with the same
config and seed produce byte-identical artifacts.

Exit codes: 0 success, 1 property failure or runtime guard, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import circuits, game, language, martingale, strategy, zoo
from .core import BoundFamily, cantor_pair, rank_to_string, string_to_rank
from .errors import BairekitError, ConfigError
from .language import LanguageOracle
from .strategy import meets_check, meter_extension
from .zoo import StrategySpec

LANGUAGE_NAMES = ("empty", "full", "parity", "sparse", "explicit", "generic")
COMMANDS = (
    "chi",
    "strategy",
    "check",
    "game",
    "diag",
    "circuit-diag",
    "martingale",
    "verify",
    "validate",
)
VERIFY_SUITES = ("roundtrip", "halving", "fairness", "union", "queryset", "all")


def parse_spec(text: str) -> tuple[str, dict[str, str]]:
    """Parse 'name:key=value:key=value' spec strings."""
    head, *rest = text.split(":")
    params: dict[str, str] = {}
    for item in rest:
        if "=" not in item:
            raise ConfigError(f"malformed parameter {item!r} in spec {text!r}")
        key, value = item.split("=", 1)
        params[key] = value
    return head, params


def base_languages(seed: int) -> dict[str, LanguageOracle]:
    return {
        "empty": language.empty_language(),
        "full": language.full_language(),
        "parity": language.parity_language(),
    }


def build_language(spec_text: str, seed: int) -> LanguageOracle:
    name, params = parse_spec(spec_text)
    stock = base_languages(seed)
    if name in stock:
        return stock[name]
    if name == "sparse":
        coeffs = [int(c) for c in str(params.get("coeffs", "1,1")).split(",")]
        return language.make_sparse(coeffs, int(params.get("seed", seed)))
    if name == "explicit":
        if "file" in params:
            return language.language_from_file(str(params["file"]))
        return language.explicit_language(str(params.get("bits", "")))
    if name == "generic":
        return zoo.build_strategy(StrategySpec("generic", params), stock)
    raise ConfigError(f"unknown language {name!r}")


def build_strategy(spec_text: str, seed: int):
    name, params = parse_spec(spec_text)
    if name not in zoo.STRATEGY_NAMES:
        raise ConfigError(f"unknown strategy {name!r}")
    stock = base_languages(seed)
    try:
        return zoo.build_strategy(StrategySpec(name, params), stock)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc


def parse_bound(text: str) -> BoundFamily:
    kind, _, param = text.partition(":")
    try:
        return BoundFamily(kind, Fraction(param or "1"))
    except ValueError as exc:
        raise ConfigError(f"bad bound spec {text!r}: {exc}") from exc


def emit_jsonl(path: Path, records: Sequence[dict]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def emit_csv(path: Path, rows: Sequence[Sequence[object]]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def cmd_chi(args) -> int:
    lang = build_language(args.language, args.seed)
    print(language.chi_prefix(lang, args.bits))
    return 0


def cmd_strategy(args) -> int:
    built = build_strategy(args.strategy, args.seed)
    if isinstance(built, LanguageOracle):
        raise ConfigError(f"{args.strategy!r} builds a language; use chi")
    ext, report = meter_extension(
        built, args.prefix, parse_bound(args.bound), index=args.index, cap=args.cap
    )
    print(f"extension {ext or '(empty)'}")
    print(f"meter {report}")
    return 0


def cmd_check(args) -> int:
    built = build_strategy(args.strategy, args.seed)
    if isinstance(built, LanguageOracle):
        raise ConfigError(f"{args.strategy!r} builds a language; use chi")
    lang = build_language(args.language, args.seed)
    verdict = meets_check(built, lang, args.horizon, index=args.index, cap=args.cap)
    print(verdict)
    return 0


def cmd_game(args) -> int:
    families = zoo.indexed_families()
    if args.family not in families:
        raise ConfigError(f"unknown indexed family {args.family!r}")
    adversaries = {a.name.split("[")[0]: a for a in game.adversary_suite(args.seed)}
    if args.adversary not in adversaries:
        raise ConfigError(f"unknown adversary {args.adversary!r}")
    player2 = game.indexed_to_winning(families[args.family])
    transcript = game.run_game(
        adversaries[args.adversary], player2, args.rounds, args.horizon
    )
    records = [
        {
            "move_index": r.move_index,
            "player": r.player,
            "state_length": r.state_length,
            "extension_length": r.extension_length,
        }
        for r in transcript.records
    ]
    print(f"rounds {transcript.rounds} result_bits {len(transcript.result_prefix)}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        emit_jsonl(out / "transcript.jsonl", records)
        (out / "result_prefix.txt").write_text(transcript.result_prefix + "\n", encoding="ascii")
    return 0


def cmd_diag(args) -> int:
    families = zoo.indexed_families()
    locals_ = zoo.local_families()
    ok = True
    if args.mode == "global":
        if args.family not in families:
            raise ConfigError(f"unknown indexed family {args.family!r}")
        fam = families[args.family]
        # the meets suite needs blocks 1..meets materialized in full
        need = max(args.bits, 2 ** (args.meets + 1) - 1)
        full = game.diag_prefix_global(fam, need)
        prefix = full[: args.bits]
        lang = game.diag_language_global(fam)
        agree = language.chi_prefix(lang, args.bits) == prefix
        print(prefix)
        print(f"per-string-agrees {agree}")
        ok &= agree
        for i in range(1, args.meets + 1):
            tau = full[: 2**i - 1]
            hit = strategy.meets_at(fam, lang, tau, index=i)
            print(f"meets h_{i} {bool(hit)}")
            ok &= hit
    else:
        if args.family not in locals_:
            raise ConfigError(f"unknown local family {args.family!r}")
        fam = locals_[args.family]
        table = strategy.bound_extension_sizes(fam, args.meets)
        prefix = game.diag_prefix_local(fam, table)
        lang = game.diag_language_local(fam, table)
        agree = language.chi_prefix(lang, len(prefix)) == prefix
        print(prefix)
        print(f"per-string-agrees {agree}")
        ok &= agree
        for i in range(1, args.meets + 1):
            tau = prefix[: sum(table[:i])]
            hit = strategy.meets_at(fam, lang, tau, index=i)
            print(f"meets h_{i} {bool(hit)}")
            ok &= hit
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "diag_prefix.txt").write_text(prefix + "\n", encoding="ascii")
    return 0 if ok else 1


def _halving(args) -> tuple[list[circuits.FlipStep], bool]:
    """Majority-flip steps over the (n, size) family for ``bits`` queries
    cycling through the n-bit strings, and whether every step halved."""
    family = list(circuits.enumerate_circuits(args.n, args.size))
    cycle = [rank_to_string(2**args.n - 1 + (i % 2**args.n)) for i in range(args.bits)]
    steps, _ = circuits.diagonal_steps(family, cycle, args.sigma)
    return steps, all(step.after <= step.before // 2 for step in steps)


def cmd_circuit_diag(args) -> int:
    steps, ok = _halving(args)
    for step in steps:
        print(f"z={step.z} bit={step.bit} before={step.before} after={step.after}")
    print("halving PASS" if ok else "halving FAIL")
    return 0 if ok else 1


def cmd_martingale(args) -> int:
    lang = build_language(args.language, args.seed)
    bettor = martingale.density_bettor()
    trace = martingale.capital_trace(bettor, lang, args.horizon)
    rows = []
    for p, capital in enumerate(trace):
        s = rank_to_string(p - 1) if p else ""
        bit = lang.member(s) if p else ""
        rows.append((p, s, bit, capital.numerator, capital.denominator))
    print(f"final {trace[-1]}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        emit_csv(out / "capital_trace.csv", rows)
    return 0


def _verify_roundtrip(limit: int) -> bool:
    return all(string_to_rank(rank_to_string(i)) == i for i in range(limit))


def _verify_union(trials: int, seed: int) -> bool:
    import random as _random

    from .core import derive_seed

    rng = _random.Random(derive_seed("verify-union", seed))
    combined = strategy.union_combine(lambda i, j, view: "1" * (i + j))
    for _ in range(trials):
        i, j = rng.randrange(8), rng.randrange(8)
        sigma = "".join(str(rng.randrange(2)) for _ in range(rng.randrange(6)))
        if strategy.ext_of(combined, cantor_pair(i, j), sigma) != "1" * (i + j):
            return False
    return True


def _verify_queryset(seed: int) -> bool:
    import random as _random

    from .core import derive_seed

    rng = _random.Random(derive_seed("verify-queryset", seed))
    trials = []
    for _ in range(10):
        sigma = "".join(str(rng.randrange(2)) for _ in range(rng.randrange(8)))
        trials.append((max(len(sigma).bit_length(), 1), rng.randrange(3), rng.randrange(1, 4), sigma))
    locals_ = list(zoo.local_families().values())
    locals_.append(zoo.sigma2_avoider(zoo.finite_class_predicate(), language.full_language()))
    return all(strategy.enforce_query_set(h, trials).ok for h in locals_)


def cmd_verify(args) -> int:
    suites = VERIFY_SUITES[:-1] if args.suite == "all" else (args.suite,)
    ok = True
    for suite in suites:
        if suite == "roundtrip":
            good = _verify_roundtrip(args.trials or 2**12)
        elif suite == "halving":
            _, good = _halving(args)
        elif suite == "fairness":
            if args.fixture == "broken":
                # deliberately unfair martingale: exercises the FAIL path
                bad = martingale.ValueMartingale(
                    "broken", lambda w: Fraction(1 + len(w))
                )
                good = fairness_ok(bad, args.depth)
            else:
                good = fairness_ok(martingale.density_bettor(), args.depth) and fairness_ok(
                    martingale.constant_martingale(), args.depth
                )
        elif suite == "union":
            good = _verify_union(args.trials or 50, args.seed)
        elif suite == "queryset":
            good = _verify_queryset(args.seed)
        else:
            raise ConfigError(f"unknown suite {suite!r}")
        print(f"{suite} {'PASS' if good else 'FAIL'}")
        ok &= good
    return 0 if ok else 1


def fairness_ok(d, depth: int) -> bool:
    return martingale.fairness_check(d, depth).ok


def validate_config(cfg: dict) -> list[str]:
    """Diagnostics for a config mapping; empty means a run would start."""
    diags: list[str] = []
    command = cfg.get("command")
    if command not in COMMANDS:
        diags.append(f"unknown or missing command {command!r}")
        return diags
    seed = cfg.get("seed", 0)
    if not isinstance(seed, int):
        diags.append(f"seed must be an integer, got {seed!r}")
    if "language" in cfg:
        try:
            build_language(str(cfg["language"]), seed if isinstance(seed, int) else 0)
        except (ConfigError, ValueError) as exc:
            diags.append(f"language: {exc}")
    if "strategy" in cfg:
        try:
            build_strategy(str(cfg["strategy"]), seed if isinstance(seed, int) else 0)
        except (ConfigError, ValueError) as exc:
            diags.append(f"strategy: {exc}")
    for key in ("bits", "horizon", "rounds", "trials"):
        if key in cfg and (not isinstance(cfg[key], int) or cfg[key] < 1):
            diags.append(f"{key} must be a positive integer")
    if command in ("circuit-diag",) or cfg.get("suite") == "halving":
        n, size = cfg.get("n", 2), cfg.get("size", 2)
        if not (isinstance(n, int) and 0 <= n <= circuits.MAX_INPUTS):
            diags.append(f"n={n!r} outside circuit cap 0..{circuits.MAX_INPUTS}")
        if not (isinstance(size, int) and 0 <= size <= circuits.MAX_SIZE):
            diags.append(f"size={size!r} outside circuit cap 0..{circuits.MAX_SIZE}")
    if command == "verify" and cfg.get("suite", "all") not in VERIFY_SUITES:
        diags.append(f"unknown suite {cfg.get('suite')!r}")
    if command == "game" and cfg.get("family", "singletons") not in zoo.indexed_families():
        diags.append(f"unknown family {cfg.get('family')!r}")
    return diags


def cmd_validate(args, cfg: dict) -> int:
    merged = dict(cfg)
    diags = validate_config(merged)
    if diags:
        for d in diags:
            print(d)
        return 2
    print("ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bairekit",
        description="experiment runner for finite extension strategies, games, and martingales",
    )
    parser.add_argument("--config", help="JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command")

    def add(name: str, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        return p

    p = add("chi", help="dump a characteristic prefix")
    p.add_argument("--language", default=None)
    p.add_argument("--bits", type=int, default=None)

    p = add("strategy", help="apply a strategy and print its extension and meter report")
    p.add_argument("--strategy", default=None)
    p.add_argument("--prefix", default=None)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--bound", default=None)

    p = add("check", help="meets/avoids verdict of a strategy against a language")
    p.add_argument("--strategy", default=None)
    p.add_argument("--language", default=None)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)

    p = add("game", help="run a Banach-Mazur play and emit its transcript")
    p.add_argument("--family", default=None)
    p.add_argument("--adversary", default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--horizon", type=int, default=None)

    p = add("diag", help="build a diagonal language and run its meets suite")
    p.add_argument("--family", default=None)
    p.add_argument("--mode", choices=("global", "local"), default=None)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--meets", type=int, default=None)

    p = add("circuit-diag", help="per-bit consistent-set sizes of the majority flip")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--sigma", default=None)
    p.add_argument("--bits", type=int, default=None)

    p = add("martingale", help="capital trace of the density bettor")
    p.add_argument("--language", default=None)
    p.add_argument("--horizon", type=int, default=None)

    p = add("verify", help="run a named invariant suite")
    p.add_argument("--suite", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--sigma", default=None)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--fixture", default=None)

    add("validate", help="check a config file without running it")
    return parser


DEFAULTS = {
    "seed": 0,
    "out": None,
    "language": "empty",
    "strategy": "sparse",
    "bits": 16,
    "horizon": 16,
    "rounds": 2048,
    "prefix": "",
    "index": 0,
    "cap": 4096,
    "bound": "poly:2",
    "family": "singletons",
    "adversary": "identity",
    "mode": "global",
    "meets": 4,
    "n": 2,
    "size": 2,
    "sigma": "0000",
    "depth": 10,
    "trials": None,
    "suite": "all",
    "fixture": None,
}


def _merge(args: argparse.Namespace, cfg: dict) -> argparse.Namespace:
    for key, hard in DEFAULTS.items():
        if not hasattr(args, key):
            continue
        if getattr(args, key) is None:
            setattr(args, key, cfg.get(key, hard))
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        # the re-parse below must see the same arguments, --config included
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg: dict = {}
        if args.config:
            try:
                cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
            if not isinstance(cfg, dict):
                raise ConfigError("config must be a JSON object")
        command = args.command or cfg.get("command")
        if command is None:
            parser.print_usage(sys.stderr)
            return 2
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        if args.command is None:
            args = parser.parse_args([*argv, command])
        args = _merge(args, cfg)
        if command == "validate":
            merged_cfg = dict(cfg)
            merged_cfg.setdefault("command", cfg.get("command", "chi"))
            return cmd_validate(args, merged_cfg)
        diags = validate_config({**cfg, "command": command})
        if args.config and diags:
            for d in diags:
                print(d, file=sys.stderr)
            return 2
        handler = {
            "chi": cmd_chi,
            "strategy": cmd_strategy,
            "check": cmd_check,
            "game": cmd_game,
            "diag": cmd_diag,
            "circuit-diag": cmd_circuit_diag,
            "martingale": cmd_martingale,
            "verify": cmd_verify,
        }[command]
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BairekitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
