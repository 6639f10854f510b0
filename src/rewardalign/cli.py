"""Command-line interface: alignment runs, normalizer estimation, prox
queries, the validation battery, and the bimodal-base demonstration
pipeline.

Every run writes a samples CSV plus a JSON manifest (config hash, derived
parameters, diagnostics, versions, wall clock), atomically.  Exit codes:
0 success, 2 validation error, 3 budget error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import (BudgetError, NumericalError, RewardAlignError,
                     ValidationError)
from .kl_align import sample_kl_aligned
from .metrics import QuadratureTilt1D
from .models import (GaussianMixtureModel, SampleBatch, load_model, norms,
                     sample_exact)
from .rewards import (LinearReward, LowRankReward, QuadraticReward,
                      load_reward, make_max_affine)
from .tilts import estimate_normalizer
from .validate import (run_all_suites, run_envelope_suite, run_lemma_suite,
                       run_oracle_suite)
from .w2_align import prox_map, sample_w2_aligned


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_manifest(out_dir: str, name: str, config: dict, derived: dict,
                    diagnostics: dict, wall_clock: float) -> dict:
    import scipy  # here, so that importing the CLI loads no scipy
    manifest = {
        "config": config,
        "config_hash": _config_hash(config),
        "derived_parameters": derived,
        "diagnostics": diagnostics,
        "versions": {"rewardalign": __version__,
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "wall_clock_seconds": wall_clock,
    }
    _write_atomic(os.path.join(out_dir, name),
                  json.dumps(manifest, indent=2, sort_keys=True, default=str))
    return manifest


def _write_csv(path: str, **blocks: np.ndarray) -> None:
    """Blocks (n, d) side by side, columns named by keyword and index
    (``y=ys, x=xs``: y0..y{d-1}, x0..x{d-1}), as %.17e, written atomically."""
    header = ",".join(f"{name}{i}" for name, block in blocks.items()
                      for i in range(block.shape[1]))
    tmp = path + ".tmp"
    np.savetxt(tmp, np.hstack(list(blocks.values())), delimiter=",",
               header=header, comments="", fmt="%.17e")
    os.replace(tmp, path)


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(t) for t in text.split(",") if t.strip()])
    except ValueError as exc:
        raise ValidationError(f"{text!r} is not a comma-separated list of "
                              f"numbers") from exc


def _as_lowrank(reward) -> LowRankReward:
    if isinstance(reward, LowRankReward):
        return reward
    if isinstance(reward, LinearReward):
        norm = float(norms(reward.theta)[0])  # 0: A = 0, f = 0
        return LowRankReward(reward.theta[None, :] / (norm or 1.0),
                             make_max_affine([(np.array([norm]), 0.0)]))
    raise ValidationError(
        "KL alignment needs a low-rank convex reward (lowrank_maxaffine, "
        "logsumexp, or linear); quadratic rewards are outside this sampler")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_align_kl(args) -> int:
    t0 = time.perf_counter()
    model = load_model(args.model)
    raw_reward = load_reward(args.reward)
    config = {"command": "align-kl", "model": model.to_dict(),
              "reward": raw_reward.to_dict(), "eps": args.eps,
              "delta": args.delta, "n": args.n, "seed": args.seed}
    reward = _as_lowrank(raw_reward)
    result = sample_kl_aligned(model, reward.A, reward.f, eps=args.eps,
                               delta=args.delta, seed=args.seed, n=args.n)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "samples.csv"), x=result.batch.points)
    _write_atomic(os.path.join(args.out, "envelope.json"),
                  json.dumps(result.envelope.to_dict(), indent=2))
    _write_manifest(args.out, "manifest.json", config,
                    asdict(result.params), result.report(),
                    time.perf_counter() - t0)
    print(json.dumps({"out": args.out, **result.report()}, indent=2))
    return 0


def cmd_align_w2(args) -> int:
    t0 = time.perf_counter()
    model = load_model(args.model)
    reward = load_reward(args.reward)
    config = {"command": "align-w2", "model": model.to_dict(),
              "reward": reward.to_dict(), "lambda": getattr(args, "lam"),
              "eps": args.eps, "n": args.n, "seed": args.seed}
    result = sample_w2_aligned(model, reward, lam=args.lam, n=args.n,
                               seed=args.seed, eps=args.eps)
    os.makedirs(args.out, exist_ok=True)
    _write_csv(os.path.join(args.out, "pairs.csv"), y=result.ys, x=result.xs)
    _write_manifest(args.out, "manifest.json", config,
                    asdict(result.params) if result.params else {},
                    result.report(), time.perf_counter() - t0)
    print(json.dumps({"out": args.out, **result.report()}, indent=2))
    return 0


def cmd_estimate_z(args) -> int:
    model = load_model(args.model)
    v = _parse_vector(args.v)
    est = estimate_normalizer(model, v, eta=args.eta, delta=args.delta,
                              seed=args.seed, backend=args.backend)
    with np.errstate(over="ignore"):  # JSON has no inf: Z > 1.8e308 is null
        value = float(est.value)
    print(json.dumps({"value": value if np.isfinite(value) else None,
                      "log_value": est.log_value, "eta": est.eta,
                      "delta": est.delta, "method": est.method,
                      "n_draws": est.n_draws}, indent=2))
    return 0


def cmd_prox_demo(args) -> int:
    reward = load_reward(args.reward)
    y = _parse_vector(args.y)
    T, producer, _ = prox_map(reward, args.lam, args.C)
    # y as a one-row batch, as align-w2 hands it; then the finite gate
    x = SampleBatch(points=T(y[None]), seed=-1, producer=producer,
                    d=len(y)).points[0]
    print(json.dumps({"y": y.tolist(), "T_lambda_y": x.tolist(),
                      "lambda": args.lam, "C": args.C,
                      "prox": producer.removeprefix("w2_align/")}, indent=2))
    return 0


def cmd_validate(args) -> int:
    suites = {"envelope": run_envelope_suite, "lemmas": run_lemma_suite,
              "oracles": run_oracle_suite}
    if args.suite == "all":
        report = run_all_suites(args.seed)
    else:
        report = suites[args.suite](args.seed)
    text = json.dumps(report, indent=2, default=float)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_atomic(os.path.join(args.out, "validate.json"), text)
    print(text)
    return 0 if report["passed"] else 1


def fig1_base() -> GaussianMixtureModel:
    """The two-mode demonstration base: equal mixture of N(-2, 0.7^2) and
    N(2, 0.7^2), support radius 8."""
    return GaussianMixtureModel([0.5, 0.5], [[-2.0], [2.0]],
                                [[[0.49]], [[0.49]]], 8.0)


def fig1_reward() -> QuadraticReward:
    """r(x) = -0.15 (x - 2)^2."""
    return QuadraticReward([[0.15]], [0.6], c=-0.6)


def reproduce_fig1(seed: int, n: int, out_dir: str) -> dict:
    """Both geometries on the two-mode base.

    The KL panel's reward is concave, outside the convex-reward sampler's
    gate, so its tilt is computed by 1D quadrature with inverse-CDF
    sampling (tagged "oracle"); the transport panel uses the closed-form
    quadratic prox with lambda = 0.15.
    """
    t0 = time.perf_counter()
    base = fig1_base()
    reward = fig1_reward()
    os.makedirs(out_dir, exist_ok=True)

    base_batch = sample_exact(base, n, np.random.default_rng(seed))
    _write_csv(os.path.join(out_dir, "base.csv"), x=base_batch.points)

    quad = QuadratureTilt1D(base, reward)
    kl_points = quad.sample(n, np.random.default_rng(seed + 1))[:, None]
    kl_batch = SampleBatch(points=kl_points, seed=seed + 1,
                           producer="fig1/kl_quadrature_oracle", d=1)
    _write_csv(os.path.join(out_dir, "kl.csv"), x=kl_batch.points)

    w2 = sample_w2_aligned(base, reward, lam=0.15, n=n, seed=seed + 2)
    _write_csv(os.path.join(out_dir, "w2_pairs.csv"), y=w2.ys, x=w2.xs)

    bins = np.linspace(-6.0, 6.0, 121)
    hist = {
        "bin_edges": bins.tolist(),
        "base": np.histogram(base_batch.points[:, 0], bins=bins)[0].tolist(),
        "kl": np.histogram(kl_points[:, 0], bins=bins)[0].tolist(),
        "w2": np.histogram(w2.xs[:, 0], bins=bins)[0].tolist(),
    }
    _write_atomic(os.path.join(out_dir, "histograms.json"),
                  json.dumps(hist, indent=2))

    tmap_dev = float(np.max(np.abs(w2.xs[:, 0] - (1.0 + w2.ys[:, 0] / 2.0))))
    summary = {
        "base_right_mode_mass": float(np.mean(base_batch.points[:, 0] > 0)),
        "kl_right_mode_mass": float(np.mean(kl_points[:, 0] > 0)),
        "kl_right_mode_mass_quadrature": quad.mass_above(0.0),
        # the map 1 + y/2 sends the modes to 0 and 2, centering mass at 1
        "w2_mean": float(np.mean(w2.xs[:, 0])),
        "transport_map_max_dev": tmap_dev,
        "kl_sampler": "oracle",
    }
    config = {"command": "reproduce-fig1", "seed": seed, "n": n,
              "lambda": 0.15}
    _write_manifest(out_dir, "manifest.json", config, {}, summary,
                    time.perf_counter() - t0)
    return summary


def cmd_reproduce_fig1(args) -> int:
    summary = reproduce_fig1(args.seed, args.n, args.out)
    print(json.dumps(summary, indent=2))
    return 0


# ---------------------------------------------------------------------------
# Parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rewardalign",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    kl = sub.add_parser("align-kl", help="KL alignment for convex low-rank rewards")
    kl.add_argument("--model", required=True)
    kl.add_argument("--reward", required=True)
    kl.add_argument("--eps", type=float, default=0.1)
    kl.add_argument("--delta", type=float, default=0.05)
    kl.add_argument("--n", type=int, default=1000)
    kl.add_argument("--seed", type=int, default=0)
    kl.add_argument("--out", required=True)
    kl.set_defaults(fn=cmd_align_kl)

    w2 = sub.add_parser("align-w2", help="Wasserstein alignment by proximal transport")
    w2.add_argument("--model", required=True)
    w2.add_argument("--reward", required=True)
    w2.add_argument("--lambda", dest="lam", type=float, required=True)
    w2.add_argument("--eps", type=float, default=0.1)
    w2.add_argument("--n", type=int, default=1000)
    w2.add_argument("--seed", type=int, default=0)
    w2.add_argument("--out", required=True)
    w2.set_defaults(fn=cmd_align_w2)

    ez = sub.add_parser("estimate-z", help="linear-tilt normalizer estimate")
    ez.add_argument("--model", required=True)
    ez.add_argument("--v", required=True, help="comma-separated tilt vector")
    ez.add_argument("--eta", type=float, default=0.1)
    ez.add_argument("--delta", type=float, default=0.05)
    ez.add_argument("--backend", choices=["exact", "mc"],
                    default="exact")
    ez.add_argument("--seed", type=int, default=0)
    ez.set_defaults(fn=cmd_estimate_z)

    pd = sub.add_parser("prox-demo", help="print a proximal transport point")
    pd.add_argument("--reward", required=True)
    pd.add_argument("--lambda", dest="lam", type=float, required=True)
    pd.add_argument("--y", required=True, help="comma-separated point")
    pd.add_argument("--C", type=float, default=10.0)
    pd.set_defaults(fn=cmd_prox_demo)

    va = sub.add_parser("validate", help="run the property battery")
    va.add_argument("--suite", choices=["all", "envelope", "lemmas", "oracles"],
                    default="all")
    va.add_argument("--seed", type=int, default=0)
    va.add_argument("--out", default=None)
    va.set_defaults(fn=cmd_validate)

    fg = sub.add_parser("reproduce-fig1",
                        help="two-geometry demo on the bimodal base")
    fg.add_argument("--seed", type=int, default=0)
    fg.add_argument("--n", type=int, default=100_000)
    fg.add_argument("--out", required=True)
    fg.set_defaults(fn=cmd_reproduce_fig1)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except (RewardAlignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
