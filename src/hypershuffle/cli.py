"""Command-line front end.

Subcommands: ``sample`` (run chains, emit hypergraphs and a JSON report),
``enumerate`` (list a space with counts), ``chain-verify`` (exact chain
checks), ``reproduce`` (named end-to-end verification targets) and
``check`` (validate a file against a space).  Exit codes: 0 pass, 1 verdict
failure, 2 usage error.  Output is byte-deterministic under fixed seed and
flags; the default seed comes from ``HYPERSHUFFLE_SEED`` when set.
``sample`` picks the scalar kernel or the replica engine from its own input
(:func:`_use_replicas`).  Output paths are opened before any work starts.

Loading rule: at module level this file imports only the standard library,
``__version__`` and :mod:`.hypergraph`.  :func:`build_parser` imports the
size limits and the ``reproduce`` targets, and each command imports the
layers it runs, so ``check`` and a scalar ``sample`` never load
:mod:`.chains` or :mod:`.validation`, and numpy loads only where an engine
or test needs it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from contextlib import ExitStack

from . import __version__
from .hypergraph import (
    DirectedHypergraph,
    HypergraphError,
    SpaceSpec,
    canonical_form,
    classify_features,
    degree_sequence,
)

DEFAULT_SEED_ENV = "HYPERSHUFFLE_SEED"

# Bounds of the route from ``sample`` to the replica engine, measured (see
# ``_use_replicas`` and the crossover tables in README "Performance").  On
# the 3-arc worked example the engine wins from about 32 samples.
_MIN_REPLICAS = 64
# Importing numpy takes 0.08-0.11 s, as long as 10,000-13,000 scalar steps
# on a small instance; in fresh interpreters the engines break even at
# 10,000-15,000 steps in all.  With --report numpy loads anyway.
_MIN_STEPS_WITHOUT_REPORT = 15_000


def _default_seed(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get(DEFAULT_SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        parser.error(f"{DEFAULT_SEED_ENV} must be an integer, got {raw!r}")


def _count(text: str) -> int:
    """argparse type for counts and limits: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _features(text: str) -> str:
    """argparse type for --space: a subset of 'sdm'."""
    try:
        SpaceSpec.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return text


def _spec(args, labeling=None) -> SpaceSpec:
    return SpaceSpec.from_string(args.space, labeling or args.labeling)


def _load(path: str) -> DirectedHypergraph:
    from .dhg import parse_dhg

    with open(path, "r", encoding="utf-8") as fh:
        return parse_dhg(fh.read())


def _open_file(stack: ExitStack, path: str):
    """``path`` opened for writing, to be closed with ``stack``."""
    return stack.enter_context(open(path, "w", encoding="utf-8"))


def _open_out(stack: ExitStack, path: str | None):
    """``--out`` as an open text stream: stdout when absent or ``-``."""
    return sys.stdout if path is None or path == "-" else _open_file(stack, path)


def _use_replicas(
    H0: DirectedHypergraph, samples: int, steps: int, report: str | None
) -> bool:
    """Whether ``sample`` runs its samples as replicas of one engine run.

    The replica engine decides each distinct outcome once, and on a small
    outcome space looks the repeats up in one gather over a packed-code
    table; ``sample`` then writes and canonicalizes each distinct final row
    once.  So it wins only where outcomes repeat: the route needs at least
    as many samples as one step from ``H0`` can draw outcomes
    (``replicas._outcome_count``), and ``_MIN_REPLICAS``.  Without
    ``report`` the run must also be long enough to repay importing numpy.
    Alpha denominators are at most twice that outcome count, so a routed
    run stays inside the engine's ``2**53`` range.
    """
    from .replicas import _outcome_count

    if samples < max(_MIN_REPLICAS, _outcome_count(H0)):
        return False
    return report is not None or samples * steps >= _MIN_STEPS_WITHOUT_REPORT


def cmd_sample(args) -> int:
    from .dhg import serialize_dhg
    from .shuffle import ChainConfig, run_chain, spawn_seed

    H0 = _load(args.input)
    spec = _spec(args)
    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        report = _open_file(stack, args.report) if args.report else None
        # finals[which[r]] is sample r; the replica route builds, writes
        # and canonicalizes each distinct final row once.
        if _use_replicas(H0, args.samples, args.steps, args.report):
            import numpy as np

            from .replicas import _run_replicas

            engine = "replicas"
            # numpy takes only nonnegative seeds; -1 is no scalar sample's index.
            ids, arcs = _run_replicas(
                H0, spec, args.steps, args.samples, spawn_seed(args.seed, -1)
            )
            rows, which = np.unique(ids, axis=0, return_inverse=True)
            finals = [H0.replace_arcs([arcs[k] for k in row]) for row in rows.tolist()]
            which = which.reshape(-1).tolist()
        else:
            engine = "scalar"
            finals = []
            for r in range(args.samples):
                config = ChainConfig(
                    steps=args.steps, seed=spawn_seed(args.seed, r), spec=spec
                )
                finals.append(run_chain(H0, config).final)
            which = range(args.samples)
        texts = [serialize_dhg(H) for H in finals]
        out.write("\n".join(f"# sample {r}\n" + texts[k] for r, k in enumerate(which)))
        if report is not None:
            forms = [canonical_form(H) for H in finals]
            counts = Counter(forms[k] for k in which)
            report.write(_report(args, H0, spec, counts, engine) + "\n")
    return 0


def _report(
    args, H0: DirectedHypergraph, spec: SpaceSpec, counts, engine: str
) -> str:
    """The JSON uniformity report; its verdict names why a test could not run."""
    from .enumeration import EnumerationLimitError, enumerate_vertex_space
    from .validation import stub_pushforward_weights, uniformity_test

    context = {
        "version": __version__,
        "engine": engine,
        "instance": args.input,
        "spec": spec.feature_string,
        "labeling": spec.labeling,
        "k": args.steps,
        "replicas": args.samples,
        "seed": args.seed,
    }
    d = degree_sequence(H0)
    try:
        if spec.labeling == "stub":
            keys, weights = stub_pushforward_weights(d, spec)
        else:
            keys = [canonical_form(H) for H in enumerate_vertex_space(d, spec)]
            weights = None
    except EnumerationLimitError:
        verdict = "space too large for the enumeration oracle"
    else:
        try:
            return uniformity_test(counts, keys, weights).to_json(**context)
        except ValueError as exc:  # fewer than two cells to compare
            verdict = f"no chi-square test: {exc}"
    return json.dumps({**context, "verdict": verdict}, indent=2, sort_keys=True)


def cmd_enumerate(args) -> int:
    from .dhg import serialize_dhg
    from .enumeration import (
        VERTEX_STUB_LIMIT,
        count_stub_realizations,
        enumerate_vertex_space,
    )

    H = _load(args.input)
    d = degree_sequence(H)
    spec = _spec(args)
    limit = VERTEX_STUB_LIMIT if args.limit is None else args.limit
    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        states = enumerate_vertex_space(d, spec, limit=limit)
        lines = [f"{len(states)}"]
        if args.verbose:
            for H_k in states:
                lines.append(
                    f"# {count_stub_realizations(H_k)} stub realization(s)"
                )
                # The classes are unlabeled; print them with the input's names.
                lines.append(serialize_dhg(H.replace_arcs(H_k.arcs)).rstrip("\n"))
        out.write("\n".join(lines) + "\n")
    return 0


def cmd_chain_verify(args) -> int:
    from .chains import (
        build_stub_chain,
        build_vertex_chain,
        chain_edge_list,
        check_aperiodic,
        check_doubly_stochastic,
        check_regular,
        check_strongly_connected,
        is_exactly_uniform_stationary,
        tv_curve,
        tv_curve_csv,
    )
    from .enumeration import STATE_LIMIT

    H = _load(args.input)
    d = degree_sequence(H)
    spec = _spec(args)
    limit = STATE_LIMIT if args.limit is None else args.limit
    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        export_chain = export_tv = None
        if args.export_chain:
            export_chain = _open_file(stack, args.export_chain)
        if args.export_tv is not None:
            export_tv = _open_file(stack, args.export_tv)
        if spec.labeling == "stub":
            g = build_stub_chain(d, spec, limit=limit)
            symmetric, witness = check_regular(g)
        else:
            g = build_vertex_chain(d, spec, limit=limit)
            symmetric, witness = check_doubly_stochastic(g)
        aperiodic = check_aperiodic(g)
        connected, components = check_strongly_connected(g)
        uniform = is_exactly_uniform_stationary(g)
        lines = [
            f"states {g.n_states}",
            f"regular {str(symmetric).lower()}"
            + (f" (witness {witness})" if witness else ""),
            f"aperiodic {str(aperiodic).lower()}",
            f"strongly-connected {str(connected).lower()} ({len(components)} components)",
            f"uniform-stationary {str(uniform).lower()}",
        ]
        out.write("\n".join(lines) + "\n")
        if export_chain is not None:
            export_chain.write(chain_edge_list(g))
        if export_tv is not None:
            if not g.n_states:
                raise ValueError(
                    f"space {spec} has no states, so no TV curve to export"
                )
            curve = tv_curve(g, 0, 64 if args.steps is None else args.steps)
            export_tv.write(tv_curve_csv(curve))
    verdict = symmetric and aperiodic and connected and uniform
    return 0 if verdict else 1


def cmd_reproduce(args) -> int:
    from .reproduce import TARGETS

    target = TARGETS[args.target]
    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        passed, lines = target()
        out.write("\n".join(lines) + ("\n" if lines else ""))
    return 0 if passed else 1


def cmd_check(args) -> int:
    from .dhg import DhgParseError

    try:
        H = _load(args.input)
    except (DhgParseError, HypergraphError) as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return 1
    spec = _spec(args)
    with ExitStack() as stack:
        out = _open_out(stack, args.out)
        report = classify_features(H)
        ok = not report.forbidden_by(spec)
        lines = [
            f"vertices {H.n_vertices}",
            f"arcs {H.n_arcs}",
            f"self-loops {len(report.self_loops)}",
            f"degenerate {len(report.degenerate)}",
            f"multi-groups {len(report.multi_groups)}",
            f"in-space {str(ok).lower()}",
        ]
        out.write("\n".join(lines) + "\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    from .enumeration import STATE_LIMIT, STUB_STATE_LIMIT, VERTEX_STUB_LIMIT
    from .reproduce import TARGETS

    parser = argparse.ArgumentParser(
        prog="hypershuffle",
        description="Degree-preserving double hyperarc shuffles on directed "
        "hypergraphs: sampling, enumeration and exact chain verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, labeling_default="stub"):
        p.add_argument("--input", required=True, help=".dhg input file")
        p.add_argument("--space", type=_features, default="sdm",
                       help="allowed features, a subset of 'sdm' (default sdm)")
        p.add_argument("--labeling", choices=("stub", "vertex"),
                       default=labeling_default)
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_sample = sub.add_parser("sample", help="run shuffle chains")
    common(p_sample)
    p_sample.add_argument("--steps", type=_count, default=1000)
    p_sample.add_argument("--samples", type=_count, default=1)
    p_sample.add_argument("--seed", type=int, default=None)
    p_sample.add_argument("--report", default=None,
                          help="write a JSON uniformity report here")
    p_sample.set_defaults(func=cmd_sample)

    p_enum = sub.add_parser("enumerate", help="enumerate a space")
    common(p_enum)
    p_enum.add_argument("--limit", type=_count, default=None,
                        help="largest total stub count (in + out) the "
                        f"enumeration accepts (default {VERTEX_STUB_LIMIT})")
    p_enum.add_argument("--verbose", action="store_true",
                        help="list every hypergraph, not just the count")
    p_enum.set_defaults(func=cmd_enumerate)

    p_chain = sub.add_parser("chain-verify", help="exact chain checks")
    common(p_chain)
    p_chain.add_argument("--limit", type=_count, default=None,
                         help="largest number of chain states "
                         f"(default {STATE_LIMIT}); does not lift the "
                         f"enumeration guard of {STUB_STATE_LIMIT} stubs "
                         f"(stub labeling) or {VERTEX_STUB_LIMIT} (vertex)")
    p_chain.add_argument("--steps", type=_count, default=None,
                         help="length of the exported TV curve")
    p_chain.add_argument("--export-chain", default=None,
                         help="write the chain edge list here")
    p_chain.add_argument("--export-tv", default=None,
                         help="write the TV-to-uniform curve as CSV here")
    p_chain.set_defaults(func=cmd_chain_verify)

    p_rep = sub.add_parser("reproduce", help="run a named verification target")
    p_rep.add_argument("target", choices=sorted(TARGETS))
    p_rep.add_argument("--out", default=None)
    p_rep.set_defaults(func=cmd_reproduce)

    p_check = sub.add_parser("check", help="validate a file against a space")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = _default_seed(parser)
    try:
        return args.func(args)
    # Bad input raises ValueError (parse, space, limits, engine range,
    # chain start) or OSError; either ends as a message and exit 1.
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
