"""Command-line front end: fit models, score CSVs, run benchmark protocols.

Every command is deterministic given its inputs and seed; CSV outputs echo
the resolved configuration as comment lines so a run can be reproduced from
its own artifacts. Flags may also be supplied through a plain key=value
config file (flags win on conflict).

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical fit failure.
"""

import argparse
import os
import sys

import numpy as np

from . import __version__
from .data import (UNKNOWN, DistanceMetric, Standardizer, check_level,
                   load_dataset_csv, load_points_csv)
from .errors import OpenEvtError, UsageError
from .evt import tail_count, tail_stats
from .serialize import (fit_model, fit_parameters, load_model, model_kinds,
                        save_model)


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = _apply_config_file(parser, commands, args, argv)
        return args.func(args)
    except OpenEvtError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> tuple:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="openevt",
        description="Open-set classification with extreme value statistics.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags override it")
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    layout = argparse.ArgumentParser(add_help=False)  # the CSV layout flags
    layout.add_argument("--delimiter", default=",")
    layout.add_argument("--header", default="auto", choices=["auto", "yes", "no"])

    p_fit = sub.add_parser("fit", parents=[common, layout],
                           help="fit a model on a training CSV")
    p_fit.add_argument("--method", required=True, choices=list(model_kinds()))
    p_fit.add_argument("--train", required=True, help="training CSV path")
    p_fit.add_argument("--out", required=True, help="model file to write")
    p_fit.add_argument("--k", type=int, default=None,
                       help="exceedance count (default: 0.25%% tail rule)")
    p_fit.add_argument("--tail-fraction", type=float, default=None,
                       help="set k as a fraction of n instead of --k")
    p_fit.add_argument("--alpha", type=float, default=None,
                       help="target type-I error for gpdc/gevc (default 0.05)")
    p_fit.add_argument("--gamma", type=float, default=None,
                       help="tail quantile level for gpdc (default 1/n)")
    p_fit.add_argument("--delta", type=float, default=None,
                       help="probability threshold for evm decisions")
    p_fit.add_argument("--metric", default="euclidean",
                       help="euclidean | manhattan | minkowski:Q")
    p_fit.add_argument("--label-column", default="last", choices=["first", "last"])
    p_fit.add_argument("--standardize", action="store_true",
                       help="standardize features (stored in the model file)")
    p_fit.add_argument("--free-endpoint", action="store_true",
                       help="gevc: estimate the Weibull endpoint too")
    p_fit.set_defaults(func=cmd_fit)

    p_score = sub.add_parser("score", parents=[common, layout],
                             help="score a test CSV against a model file")
    p_score.add_argument("--model", required=True, help="model file from fit")
    p_score.add_argument("--test", required=True, help="test CSV path")
    p_score.add_argument("--out", required=True, help="output CSV path")
    p_score.add_argument("--label-column", default="none",
                         choices=["none", "first", "last"],
                         help="ignore this column of the test CSV")
    p_score.add_argument("--delta", type=float, default=None,
                         help="override the evm probability threshold")
    p_score.add_argument("--hill-plot-out", default=None,
                         help="gpdc: write a per-row k vs xi_hat CSV here")
    p_score.set_defaults(func=cmd_score)

    p_bench = sub.add_parser("benchmark", parents=[common],
                             help="run an evaluation protocol")
    p_bench.add_argument("--protocol", required=True, choices=list(PROTOCOLS))
    p_bench.add_argument("--out", default=None, help="metrics CSV path")
    # Each protocol's flags default to None here; PROTOCOLS holds their defaults.
    p_bench.add_argument("--data", help="dataset file (letter/thyroid protocols)")
    p_bench.add_argument("--k", type=int, help="toy protocol exceedance count")
    p_bench.add_argument("--alpha", type=float)
    p_bench.add_argument("--reps", type=int,
                         help="oletter repetitions (the full protocol has 20)")
    p_bench.add_argument("--jobs", type=int,
                         help="worker pool size for protocol repetitions")
    p_bench.add_argument("--alphas", help="comma list of alpha thresholds (oletter)")
    p_bench.add_argument("--deltas", help="comma list of evm thresholds (oletter)")
    p_bench.add_argument("--emit-xi", help="toy: write per-test-point xi_hat CSV here")
    p_bench.add_argument("--roc-out", help="prefix for per-method ROC curve CSVs")
    p_bench.add_argument("--gpdc-tail-fractions",
                         help="comma list of tail fractions (thyroid sweep)")
    p_bench.add_argument("--test-known", type=int,
                         help="thyroid: known rows sampled into the test set")
    p_bench.set_defaults(func=cmd_benchmark)
    return parser, sub.choices


def _apply_config_file(parser, commands, args, argv):
    """Reparse with the file's values as the command's first flags, so that
    argparse checks each value against the flag's type and choices and a
    flag given on the command line wins. Keys of other commands are ignored;
    switches take true or false."""
    path = args.config
    _require_file(path)
    overrides = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{path}: line {lineno}: expected key=value")
            key, value = line.split("=", 1)
            overrides[key.strip().replace("-", "_")] = value.strip()
    flags = {name: {a.dest: a for a in sub._actions if a.option_strings}
             for name, sub in commands.items()}
    bad = set(overrides) - set().union(*flags.values())
    if bad:
        raise UsageError(f"{path}: unknown config keys: {', '.join(sorted(bad))}")
    tokens = []
    for key, value in overrides.items():
        action = flags[args.command].get(key)
        if action is None:
            continue
        option = action.option_strings[0]
        if action.nargs != 0:
            tokens.append(f"{option}={value}")
        elif value.lower() in ("true", "false"):
            tokens += [option] if value.lower() == "true" else []
        else:
            raise UsageError(f"{path}: {key} takes true or false, got {value!r}")
    argv = sys.argv[1:] if argv is None else list(argv)
    at = argv.index(args.command) + 1
    return parser.parse_args(argv[:at] + tokens + argv[at:])


# ---------------------------------------------------------------------------
# shared output helpers


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, comments, columns, rows):
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _config_comments(args, keys) -> list:
    out = [f"openevt {__version__}", f"command={args.command}"]
    for key in keys:  # an option left unset is not echoed
        if getattr(args, key) is not None:
            out.append(f"{key.replace('_', '-')}={_fmt(getattr(args, key))}")
    return out


def _require_file(path):
    if path is None or not os.path.exists(path):
        raise UsageError(f"file not found: {path}")


def _header_flag(text: str) -> bool | None:
    return {"auto": None, "yes": True, "no": False}[text]


def _float_list(text: str | None, flag: str, default: tuple) -> tuple:
    """The levels of a comma list, each in (0, 1]; ``default`` if unset."""
    if not text:
        return default
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise UsageError(f"{flag}: expected a comma-separated list of numbers") from None
    if not values:
        raise UsageError(f"{flag}: empty list")
    for value in values:
        check_level(value, flag)
    return values


# ---------------------------------------------------------------------------
# fit


def cmd_fit(args) -> int:
    _require_file(args.train)
    # The fit options given as flags or config values; each must be a
    # parameter of the kind's fit (--tail-fraction sets k).
    options = {"k": args.k, "tail_fraction": args.tail_fraction,
               "alpha": args.alpha, "gamma": args.gamma, "delta": args.delta,
               "free_endpoint": args.free_endpoint or None}
    options = {name: value for name, value in options.items() if value is not None}
    _, accepted = fit_parameters(args.method)
    for name in options:
        if ("k" if name == "tail_fraction" else name) not in accepted:
            raise UsageError(f"--{name.replace('_', '-')} does not apply to "
                             f"{args.method} models")
    if "k" in options and "tail_fraction" in options:
        raise UsageError("pass either --k or --tail-fraction, not both")
    check_level(args.tail_fraction, "--tail-fraction")
    metric = DistanceMetric.parse(args.metric)
    data = load_dataset_csv(args.train, label_column=args.label_column,
                            delimiter=args.delimiter,
                            header=_header_flag(args.header))
    standardizer = None
    if args.standardize:
        standardizer = Standardizer.fit(data.points)
        data = type(data)(standardizer.apply(data.points), data.labels)
    if "tail_fraction" in options:
        options["k"] = tail_count(options.pop("tail_fraction"), data.n)
    model = fit_model(args.method, data, metric=metric, **options)
    save_model(model, args.out, standardizer=standardizer)

    summary = {
        "method": args.method,
        "n": data.n,
        "p": data.p,
        "classes": data.n_classes,
        "metric": metric.name,
        "standardize": args.standardize,
        "out": args.out,
        **model.summary(),
    }
    for key, value in summary.items():
        print(f"{key}={_fmt(value)}")
    return 0


# ---------------------------------------------------------------------------
# score


def cmd_score(args) -> int:
    _require_file(args.model)
    _require_file(args.test)
    loaded = load_model(args.model)
    model = loaded.model
    if args.delta is not None:
        if model.KIND != "evm":
            raise UsageError("--delta only applies to evm models")
        check_level(args.delta, "delta")
        model.delta = args.delta
    if args.hill_plot_out and model.KIND != "gpdc":
        raise UsageError("--hill-plot-out only applies to gpdc models")
    points = load_points_csv(args.test, delimiter=args.delimiter,
                             header=_header_flag(args.header),
                             label_column=args.label_column)
    comments = _config_comments(args, ["model", "test", "label_column",
                                       "delimiter", "header", "seed", "delta"])
    comments.append(f"model-kind={model.KIND}")
    if points.shape[0] == 0:
        points = np.empty((0, model.p))
    elif points.shape[1] != model.p:
        raise UsageError(
            f"dimension mismatch: test rows have {points.shape[1]} features, "
            f"model expects {model.p}")
    if loaded.standardizer is not None:
        points = loaded.standardizer.apply(points)

    evidence = model.evidence(points)
    m = points.shape[0]
    _write_csv(args.out, comments, ("row", *evidence),
               zip(range(m), *(values.tolist() for values in evidence.values())))
    if args.hill_plot_out:
        _write_hill_plot(args, model, points, comments)
    print(f"rows={m}")
    if m:
        print(f"unknown={int((evidence['verdict'] == UNKNOWN).sum())}")
    return 0


def _write_hill_plot(args, model, points, comments):
    """Per-row tail-shape estimates over a ladder of exceedance counts."""
    kmax = min(max(model.k * 4, 50), model.n - 1)
    ladder = sorted({int(k) for k in np.geomspace(min(5, kmax), kmax, num=10)})
    d = model.index.batch_k_smallest(points, kmax + 1)
    xi = np.column_stack([
        tail_stats(d[:, :k + 1], k, model.p, model.gamma, model.n)[1] / model.p
        for k in ladder])
    rows = [(i, k, x) for i in np.flatnonzero(d[:, 0] != 0.0).tolist()
            for k, x in zip(ladder, xi[i].tolist())]
    _write_csv(args.hill_plot_out, comments, ("row", "k", "xi_hat"), rows)


# ---------------------------------------------------------------------------
# benchmark


def cmd_benchmark(args) -> int:
    run, echoed, unechoed = PROTOCOLS[args.protocol]
    reads = {"command", "func", "protocol",  # set by the parser
             "config", "seed", "out", *echoed, *unechoed}
    for key, value in vars(args).items():  # in parser order
        if value is not None and key not in reads:
            raise UsageError(f"--{key.replace('_', '-')} does not apply to the "
                             f"{args.protocol} protocol")
    for key, default in echoed.items():
        if getattr(args, key) is None:
            setattr(args, key, default)
    # The protocols are imported here only: fit and score do not need them.
    from . import harness

    return run(args, harness, _config_comments(args, ["protocol", "seed", *echoed]))


def _report_curves(args, comments, curves):
    """Print each method's AUC ("unsupported" without a curve) and write one
    ``<roc-out>.<method>.csv`` per curve."""
    for method in sorted(curves):
        curve = curves[method]
        print(f"auc.{method}={'unsupported' if curve is None else _fmt(curve.auc)}")
        if args.roc_out and curve is not None:
            _write_csv(f"{args.roc_out}.{method}.csv", comments,
                       ("fpr", "tpr"), curve.points)


def _benchmark_toy(args, harness, comments) -> int:
    result = harness.run_toy_protocol(args.seed, k=args.k, alpha=args.alpha)
    if args.out:
        _write_csv(args.out, comments, ("method", "metric", "value"),
                   [(m, "auc", result.curves[m].auc) for m in sorted(result.curves)])
    _report_curves(args, comments, result.curves)
    if args.emit_xi:
        xi_rows = [(i, result.xi_hat[i], bool(result.test.is_known[i]))
                   for i in range(result.test.points.shape[0])]
        _write_csv(args.emit_xi, comments, ("row", "xi_hat", "is_known"), xi_rows)
    return 0


def _benchmark_oletter(args, harness, comments) -> int:
    if args.data is not None:
        _require_file(args.data)
        data = harness.load_letter(args.data)
        train_count = 15000 if data.n >= 20000 else None
    else:
        data, train_count = harness.synthetic_openset_surrogate(seed=args.seed)
    alphas = _float_list(args.alphas, "--alphas", harness.DEFAULT_ALPHA_GRID)
    deltas = _float_list(args.deltas, "--deltas", harness.DEFAULT_DELTA_GRID)
    steps = harness.run_oletter(data, reps=args.reps, seed=args.seed,
                                train_count=train_count, alphas=alphas,
                                deltas=deltas, jobs=args.jobs)
    comments.append(f"data={args.data or 'synthetic-surrogate'}")
    rows = [(step.rep, step.n_unknown_classes, method, threshold, f)
            for step in steps for method, curve in sorted(step.f_measures.items())
            for threshold, f in curve]
    if args.out:
        _write_csv(args.out, comments,
                   ("rep", "unknown_classes", "method", "threshold", "f_measure"),
                   rows)
    # Stdout summary: mean best-threshold F at the widest openness step.
    last = max(s.n_unknown_classes for s in steps)
    for method in sorted(steps[0].f_measures):
        best = [max(f for _, f in s.f_measures[method]) for s in steps
                if s.n_unknown_classes == last]
        print(f"f.best.{method}={_fmt(float(np.mean(best)))}")
    print(f"steps={len(steps)}")
    return 0


def _benchmark_thyroid(args, harness, comments) -> int:
    _require_file(args.data)
    points, is_unknown = harness.load_thyroid(args.data)
    train, test = harness.thyroid_split(points, is_unknown, seed=args.seed,
                                        test_known=args.test_known)
    fractions = _float_list(args.gpdc_tail_fractions, "--gpdc-tail-fractions",
                            harness.THYROID_TAIL_FRACTIONS)
    curves, sweep = harness.run_thyroid_protocol(train, test, fractions,
                                                 args.alpha)
    rows = [(method, "auc", None, None, None if curve is None else curve.auc)
            for method, curve in sorted(curves.items())]
    rows += [("gpdc", "auc_vs_k", frac, k, auc) for frac, k, auc in sweep]
    if args.out:
        _write_csv(args.out, comments,
                   ("method", "metric", "tail_fraction", "k", "value"), rows)
    _report_curves(args, comments, curves)
    best = max(sweep, key=lambda t: t[2])
    print(f"gpdc.best.tail_fraction={_fmt(best[0])}")
    print(f"gpdc.best.k={best[1]}")
    print(f"gpdc.best.auc={_fmt(best[2])}")
    return 0


# Each protocol's runner, the flags its CSV comments echo after protocol and
# seed (in echo order, with their defaults), and the flags it reads unechoed.
# Every protocol also reads --seed, --out and --config.
PROTOCOLS = {
    "toy": (_benchmark_toy, {"k": 20, "alpha": 0.05}, ("emit_xi", "roc_out")),
    "oletter": (_benchmark_oletter, {"reps": 5, "jobs": os.cpu_count() or 1},
                ("data", "alphas", "deltas")),
    "thyroid": (_benchmark_thyroid, {"data": None, "alpha": 0.05, "test_known": 250},
                ("gpdc_tail_fractions", "roc_out")),
}


if __name__ == "__main__":
    sys.exit(main())
