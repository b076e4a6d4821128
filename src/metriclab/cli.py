"""Command-line front end: reproducible runs over files and zoo families.

Every report is JSON with a schema marker and the full config embedded, so
identical invocations produce byte-identical output. Exit codes: 0 success,
1 domain or input errors, 2 verification failures (certificate, packing, or
bound violations on a constructed object).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

from . import __version__
from ._util import dumps, per_distinct
from .embedding import (
    embed_chain,
    estimate_metric_dimension,
    image_ratio_report,
    min_embedding_dimension,
    select_embeddable_subchain,
    verify_embedding_distortion,
)
from .errors import MetricLabError, MetricViolation, VerificationFailure
from .logratio import (_brute_minimum, _enumerated_stats, _require_radius, _threshold_minimum,
                       gap_bounds, profile, r_estimate)
from .partitions import dendrogram_chain, with_singleton_terminal
from .spaces import (
    FiniteMetricSpace,
    from_csv,
    from_json,
    hausdorff_hyperspace,
    sup_product,
    to_csv,
)
from .ultrametrize import certificate
from .zoo import KINDS, formula_table, make_family, sample

SCHEMA = 1
_SOURCE = ("input", "zoo", "depth")  # the config keys of a space source


def _add_common(sub):
    sub.add_argument("--out", type=Path, default=None, help="directory for report files")
    sub.add_argument("--rescale", action="store_true",
                     help="divide input matrices by their diameter when above 1")


def _add_source(sub):
    sub.add_argument("--input", help="space file (.csv or .json)")
    sub.add_argument("--zoo", choices=KINDS, help="analytic family instead of a file")
    sub.add_argument("--s", type=float, default=None, help="family exponent parameter")
    sub.add_argument("--t", type=float, default=None, help="product family parameter")
    sub.add_argument("--r", type=float, default=None, help="cantor family parameter")
    sub.add_argument("--r1", type=float, default=None, help="product first scale")
    sub.add_argument("--depth", type=int, default=12, help="sampling depth")
    sub.add_argument("--exact", action="store_true",
                     help="exact rational sampling for dyadic families")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any input error; 2 is for verification failures."""

    def error(self, message):
        raise MetricLabError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first call.

    Parsing reads the parser and returns a fresh namespace, so every
    `main` call can share it; callers must not add to it.
    """
    ap = _Parser(
        prog="metriclab",
        description="log-ratio analysis, compatible ultrametrics, and box-norm embeddings",
    )
    ap.add_argument("--version", action="version", version=f"metriclab {__version__}")
    subs = ap.add_subparsers(dest="command", required=True)

    p = subs.add_parser("profile", help="per-level log-ratio profile of a chain")
    _add_source(p)
    _add_common(p)
    p.add_argument("--burn-epsilon", type=float, default=0.05,
                   help="tolerance defining the profile burn-in level")

    p = subs.add_parser("ultrametrize", help="compatible ultrametric with certificate")
    _add_source(p)
    _add_common(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--rho-out", type=Path, default=None, help="write rho as CSV")

    p = subs.add_parser("embed", help="box-norm embedding into R^N")
    _add_source(p)
    _add_common(p)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--D", type=float, default=None,
                   help="dimension estimate used to size N when --N is absent")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--no-thin", action="store_true",
                   help="embed the chain as given instead of the feasible subsequence")
    p.add_argument("--coords-out", type=Path, default=None)

    p = subs.add_parser("dimension", help="metric (Assouad-type) dimension estimate")
    _add_source(p)
    _add_common(p)
    p.add_argument("--window-r", type=float, required=True)
    p.add_argument("--ratio-floor", type=float, required=True)

    p = subs.add_parser("zoo", help="emit a sampled family: space CSV, chain, formulas")
    _add_source(p)
    _add_common(p)

    p = subs.add_parser("product", help="sup-metric product of space files")
    p.add_argument("inputs", nargs="+", help="space files (.csv or .json)")
    _add_common(p)

    p = subs.add_parser("hyperspace", help="Hausdorff hyperspace of a space")
    _add_source(p)
    _add_common(p)
    p.add_argument("--max-subset-size", type=int, default=None)

    p = subs.add_parser("gap-bounds", help="G and g gap bounds with ratio estimates")
    _add_source(p)
    _add_common(p)
    p.add_argument("--radii", required=True,
                   help="comma-separated radii, e.g. 0.5,0.25,0.125")
    p.add_argument("--heuristic", action="store_true",
                   help="report G as not exact regardless of size (same values)")

    p = subs.add_parser("oracle", help="brute-force minimum R over all partitions")
    _add_source(p)
    _add_common(p)
    p.add_argument("--radius", dest="oracle_r", type=float, required=True)
    return ap


def _load_space(args, chain=True):
    """Resolve (space, chain, meta, family) from --input or --zoo; family is
    None for --input, and chain is None when chain=False."""
    if args.input and args.zoo:
        raise MetricLabError("give either --input or --zoo, not both")
    if args.input:
        if args.exact:  # files are read as floats; exact mode never falls back to float
            raise MetricLabError("--exact samples zoo families only; --input files are "
                                 "read in float")
        space = _read_space(args.input, args.rescale)
        built = dendrogram_chain(space) if chain else None
        return space, built, {"input": str(Path(args.input)), "rescaled": space.rescaled}, None
    if not args.zoo:
        raise MetricLabError("a space source is required: --input or --zoo")
    params = {}
    for key in ("s", "t", "r", "r1"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    family = make_family(args.zoo, **params)
    space, built = sample(family, args.depth, exact=args.exact, chain=chain)
    meta = {
        "zoo": args.zoo,
        "params": dict(family.params),
        "depth": args.depth,
        "exact": args.exact,
        "exact_R": family.exact_R,
        "standing_hypothesis_ok": family.standing_hypothesis_ok,
    }
    return space, built, meta, family


def _read_space(raw: str, rescale: bool) -> FiniteMetricSpace:
    """A space file: JSON by its .json suffix, CSV otherwise. Files are
    UTF-8, a leading byte-order mark dropped, read in universal newline
    mode; text that is not UTF-8 is a parse violation."""
    path = Path(raw)
    loader = from_json if path.suffix.lower() == ".json" else from_csv
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MetricViolation("parse", None, f"{path} is not UTF-8: {exc}") from exc
    return loader(text, rescale=rescale)


def _emit(args, name: str, body: dict, meta: dict, keys=()) -> None:
    """Write one report to stdout and to --out/name: the schema, the config
    (command, the args named in keys, the source meta), then the body."""
    config = {k: getattr(args, k) for k in keys if hasattr(args, k)}
    report = {"schema": SCHEMA, "config": {"command": args.command, **config, **meta},
              **body}
    text = dumps(report)
    sys.stdout.write(text + "\n")
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        (args.out / name).write_text(text + "\n")


def _cmd_profile(args) -> int:
    space, chain, meta, family = _load_space(args)
    prof = profile(chain, epsilon=args.burn_epsilon, space=space)
    body = {"profile": prof.to_report()}
    if family is not None:
        body["exact_limit"] = family.exact_R
    _emit(args, "profile.json", body, meta, (*_SOURCE, "burn_epsilon"))
    return 0


def _cmd_ultrametrize(args) -> int:
    space, chain, meta, family = _load_space(args)
    chain = with_singleton_terminal(space, chain)
    cert = certificate(space, chain, args.p, args.epsilon)
    _emit(args, "certificate.json", {"certificate": cert.to_report()}, meta,
          (*_SOURCE, "p", "epsilon"))
    if args.rho_out:
        if space.exact:
            sys.stderr.write("note: exact-mode rho does not serialize to CSV; skipped\n")
        else:
            rho_space = FiniteMetricSpace(space.labels, cert.rho, _trusted=True)
            args.rho_out.write_text(to_csv(rho_space))
    return 0


def _cmd_embed(args) -> int:
    space, chain, meta, family = _load_space(args)
    chain = with_singleton_terminal(space, chain)
    N = args.N
    if N is None:
        if args.D is None:
            raise MetricLabError("embed needs --N or --D")
        r_est = r_estimate(chain)
        N = min_embedding_dimension(args.D, r_est, r_est - 1.0)
    work = chain if args.no_thin else select_embeddable_subchain(space, chain, N)
    result = embed_chain(space, work, N, args.p, args.epsilon)
    verify = verify_embedding_distortion(space, result, args.p, args.epsilon)
    body = {
        "N": N,
        "thinned_level_ids": [int(i) for i in work.level_ids],
        "audit": result.to_report(),
        "distortion": verify.to_report(),
        "image": image_ratio_report(space, result),
    }
    _emit(args, "embedding.json", body, meta, (*_SOURCE, "N", "D", "p", "epsilon", "no_thin"))
    if args.coords_out:
        lines = [",".join(["label"] + [f"x{k+1}" for k in range(result.N)])]
        texts = per_distinct(repr, result.coords, object).tolist()
        for label, row in zip(space.labels, texts):
            lines.append(",".join([label, *row]))
        args.coords_out.write_text("\n".join(lines) + "\n")
    return 0


def _cmd_dimension(args) -> int:
    space, _chain, meta, family = _load_space(args, chain=False)
    est = estimate_metric_dimension(space, args.window_r, args.ratio_floor)
    _emit(args, "dimension.json", {"dimension": est.to_report()}, meta,
          (*_SOURCE, "window_r", "ratio_floor"))
    return 0


def _cmd_zoo(args) -> int:
    if not args.zoo:  # before --input is read, validated and chained
        raise MetricLabError("the zoo command needs --zoo")
    space, chain, meta, family = _load_space(args)
    first = family.first_index
    table = formula_table(family, first + 1, first + args.depth - 1)
    _emit(args, "zoo.json", {"chain": chain.to_report(), "formulas": table}, meta)
    if args.out and not space.exact:
        (args.out / "space.csv").write_text(to_csv(space))
    return 0


def _cmd_product(args) -> int:
    prod = sup_product([_read_space(raw, args.rescale) for raw in args.inputs])
    _emit(args, "product.json", {"points": prod.n, "diameter": float(prod.diameter)}, {},
          ("inputs",))
    if args.out:
        (args.out / "product.csv").write_text(to_csv(prod))
    return 0


def _cmd_hyperspace(args) -> int:
    space, _chain, meta, _family = _load_space(args, chain=False)
    hyper = hausdorff_hyperspace(space, args.max_subset_size)
    _emit(args, "hyperspace.json", {"points": hyper.n, "diameter": float(hyper.diameter)},
          meta, (*_SOURCE, "max_subset_size"))
    if args.out and not hyper.exact:
        (args.out / "hyperspace.csv").write_text(to_csv(hyper))
    return 0


def _cmd_gap_bounds(args) -> int:
    space, _chain, meta, _family = _load_space(args, chain=False)
    radii = [float(x) for x in args.radii.split(",") if x.strip()]
    bounds = gap_bounds(space, radii, exact=False if args.heuristic else None)
    _emit(args, "gap_bounds.json", {"gap_bounds": bounds.to_report()}, meta,
          (*_SOURCE, "radii", "heuristic"))
    return 0


def _cmd_oracle(args) -> int:
    _require_radius(args.oracle_r)
    space, _chain, meta, _family = _load_space(args, chain=False)
    enumerated = _enumerated_stats(space)
    brute, brute_pos = (_brute_minimum(enumerated, args.oracle_r, pos) for pos in (False, True))
    chain = dendrogram_chain(space)
    thresh, thresh_pos = (_threshold_minimum(chain, args.oracle_r, pos)
                          for pos in (False, True))
    body = {
        "minimum": {"R": brute.value, "delta": brute.delta, "gamma": brute.gamma,
                    "witness": [list(b) for b in brute.witness.blocks]},
        "minimum_positive_delta": {"R": brute_pos.value, "delta": brute_pos.delta,
                                   "gamma": brute_pos.gamma,
                                   "witness": [list(b) for b in brute_pos.witness.blocks]},
        "threshold_minimum": {"R": thresh.value},
        "threshold_minimum_positive_delta": {"R": thresh_pos.value},
        "agree": bool(brute.value == thresh.value),
    }
    # "threads" is kept from the removed --threads: reports stay byte-identical
    _emit(args, "oracle.json", body, {"threads": 1, **meta}, (*_SOURCE, "oracle_r"))
    return 0


_HANDLERS = {
    "profile": _cmd_profile,
    "ultrametrize": _cmd_ultrametrize,
    "embed": _cmd_embed,
    "dimension": _cmd_dimension,
    "zoo": _cmd_zoo,
    "product": _cmd_product,
    "hyperspace": _cmd_hyperspace,
    "gap-bounds": _cmd_gap_bounds,
    "oracle": _cmd_oracle,
}


def _require_finite(args) -> None:
    """Reject a nan or infinite float option before any command runs."""
    for dest, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--radius" if dest == "oracle_r" else "--" + dest.replace("_", "-")
            raise MetricLabError(f"{flag} must be finite, got {value}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _require_finite(args)
        return _HANDLERS[args.command](args)
    except VerificationFailure as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 2
    except (MetricLabError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
