"""Command-line entry point.

Subcommands: ``run`` (batch simulation), ``solve-wahba`` (single-frame
Davenport solve from an observations CSV), ``triad`` (two-pair attitude
matrix), ``gen-catalog`` (seeded star catalog CSV), and ``selfcheck``
(built-in verification suite).

Exit codes: 0 success, 1 usage error, 2 configuration, input-file or
output-path error, 3 numerical failure. Diagnostics go to stderr; results
go to files or stdout. Quaternions print scalar-first.
"""

import argparse
import logging
import math
import sys
from pathlib import Path

import numpy as np

from . import harness, numerics, startracker, wahba
from .attitude import error_angle, identity_quat, integrate_quat, quat_norm, quat_to_matrix
from .errors import AttsimError, ConfigError, InvalidInput
from .startracker import ObservationSet, row_norms


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems by default; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="attsim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run a batch simulation from a JSON config")
    p_run.add_argument("--config", required=True, help="path to a JSON SimConfig file")
    p_run.add_argument("--out", required=True, help="output directory for metrics.json and timeseries.csv")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument(
        "--no-timing",
        action="store_true",
        help="zero the timing fields in metrics.json so outputs are machine-independent",
    )

    p_wahba = sub.add_parser("solve-wahba", help="Davenport q-method on an observations CSV")
    p_wahba.add_argument("obs_csv", help="CSV with header bx,by,bz,rx,ry,rz[,weight]")

    p_triad = sub.add_parser("triad", help="attitude matrix from two vector pairs")
    p_triad.add_argument(
        "numbers",
        type=float,
        nargs=12,
        metavar="N",
        help="r1x r1y r1z r2x r2y r2z b1x b1y b1z b2x b2y b2z",
    )

    p_cat = sub.add_parser("gen-catalog", help="write a seeded star catalog CSV")
    p_cat.add_argument("--n", type=int, required=True, help="number of stars")
    p_cat.add_argument("--seed", type=int, required=True)
    p_cat.add_argument("--out", required=True, help="output CSV path")

    p_check = sub.add_parser("selfcheck", help="run built-in verification checks")
    p_check.add_argument(
        "--profile",
        choices=("default", "strict"),
        default="default",
        help="tolerance profile",
    )
    return parser


def _load_observations(path: str) -> ObservationSet:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln.strip() for ln in f if ln.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read observations file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"observations file is not UTF-8 text: {exc}") from exc
    if not lines:
        raise ConfigError("observations file is empty")
    header = [h.strip() for h in lines[0].split(",")]
    if header[:6] != ["bx", "by", "bz", "rx", "ry", "rz"]:
        raise ConfigError("observations header must start with bx,by,bz,rx,ry,rz")
    if len(header) > 6 and header[6:] != ["weight"]:
        raise ConfigError("seventh observations column, if present, must be 'weight'")
    widths = range(6, len(header) + 1)  # a row without a weight gets weight 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) not in widths:
            raise ConfigError(f"{path}:{lineno}: expected {' or '.join(map(str, widths))} fields")
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if not all(np.isfinite(vals)):
            raise ConfigError(f"{path}:{lineno}: values must be finite numbers")
        rows.append(vals if len(vals) == 7 else vals + [1.0])
    # the q-method's eigenvalue gap reaches twice the total weight, the loss four times it
    if not math.isfinite(4.0 * sum(row[6] for row in rows)):
        raise ConfigError("observation weights are too large: four times their sum overflows")
    table = np.array(rows, dtype=float).reshape(-1, 7)
    b, r = table[:, 0:3], table[:, 3:6]
    with np.errstate(over="ignore"):
        norms = np.concatenate([row_norms(b), row_norms(r)])
    if not np.all((norms >= 1e-12) & np.isfinite(norms)):
        raise ConfigError("observation vectors must be nonzero, with a finite norm")
    m = table.shape[0]
    return ObservationSet(b=b / norms[:m, None], r=r / norms[m:, None], weights=table[:, 6])


def _cmd_run(args) -> int:
    cfg = harness.SimConfig.from_json(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("seed must be nonnegative")
        cfg.seed = args.seed
    # a bad output path fails before the run; a run that raises leaves no directory
    out = Path(args.out)
    made = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = harness.run_simulation(cfg)
    except BaseException:
        for p in made:
            p.rmdir()
        raise
    harness.write_outputs(result, out, no_timing=args.no_timing)
    print(f"wrote {out / 'metrics.json'} and {out / 'timeseries.csv'}", file=sys.stderr)
    if result.skipped_epochs:
        print(f"skipped {result.skipped_epochs} underdetermined tracker epochs", file=sys.stderr)
    if result.aborted is not None:
        print(f"run aborted early: {result.aborted}", file=sys.stderr)
        return 3
    return 0


def _cmd_solve_wahba(args) -> int:
    obs = _load_observations(args.obs_csv)
    solution = wahba.davenport_solve(obs)
    q = solution.q
    print(f"{float(q[3])!r} {float(q[0])!r} {float(q[1])!r} {float(q[2])!r}")
    loss = wahba.wahba_loss(quat_to_matrix(q), obs)
    print(f"loss={loss!r} lambda_max={solution.lambda_max!r}", file=sys.stderr)
    return 0


def _cmd_triad(args) -> int:
    n = args.numbers
    a = wahba.triad(n[0:3], n[3:6], n[6:9], n[9:12])
    for row in a:
        print(" ".join(repr(float(x)) for x in row))
    return 0


def _cmd_gen_catalog(args) -> int:
    if args.n < 2:
        raise ConfigError("catalog needs at least 2 stars")
    if args.seed < 0:
        raise ConfigError("seed must be nonnegative")
    catalog = startracker.generate_catalog(args.n, numerics.RngStream(args.seed))
    startracker.save_catalog(catalog, args.out)
    print(f"wrote {args.n} stars to {args.out}", file=sys.stderr)
    return 0


def _selfcheck_cases(tol_scale: float):
    rng = numerics.RngStream(2024)

    def random_quat():
        while True:
            q = np.array([rng.gaussian(1.0) for _ in range(4)])
            n = quat_norm(q)
            if n > 1e-6:
                return q / n

    def check_jacobi():
        m = np.array([[rng.gaussian(1.0) for _ in range(6)] for _ in range(6)])
        m = 0.5 * (m + m.T)
        evals, evecs = numerics.jacobi_eigen_sym(m)
        worst = max(
            float(np.max(np.abs(m @ evecs[i] - evals[i] * evecs[i]))) for i in range(6)
        )
        return worst, 1e-10 * tol_scale

    def check_jacobi_stack():
        # each member of a stack must get bit for bit what it gets solved alone
        stack_rng = numerics.RngStream(6)
        stack = np.array([[stack_rng.gaussian_vec(1.0, 6) for _ in range(6)] for _ in range(8)])
        stack = 0.5 * (stack + stack.transpose(0, 2, 1))
        evals, evecs = numerics.jacobi_eigen_sym(stack)
        worst = 0.0
        for m, stack_evals, stack_evecs in zip(stack, evals, evecs):
            ev, vec = numerics.jacobi_eigen_sym(m)
            gap = max(float(np.max(np.abs(stack_evals - ev))), float(np.max(np.abs(stack_evecs - vec))))
            worst = max(worst, gap)
        return worst, 0.0

    def check_identity_cond():
        c = numerics.condition_number(np.eye(4))
        return abs(c - 1.0), 0.0

    def check_davenport():
        worst = 0.0
        for _ in range(20):
            q_true = random_quat()
            a = quat_to_matrix(q_true)
            r = np.array([rng.gaussian_vec(1.0, 3) for _ in range(5)])
            r /= row_norms(r)[:, None]
            sol = wahba.davenport_solve(ObservationSet(b=r @ a.T, r=r))
            worst = max(worst, error_angle(sol.q, q_true))
        return worst, 1e-6 * tol_scale

    def check_triad():
        q_true = random_quat()
        a = quat_to_matrix(q_true)
        r1 = np.array([1.0, 0.0, 0.0])
        r2 = np.array([0.0, 1.0, 0.0])
        a_hat = wahba.triad(r1, r2, a @ r1, a @ r2)
        return float(np.max(np.abs(a_hat @ r1 - a @ r1))), 1e-12 * tol_scale

    def check_integrate_drift():
        q = identity_quat()
        for _ in range(1000):
            w = np.array([rng.gaussian(0.5) for _ in range(3)])
            q = integrate_quat(q, w, 0.01)
        return abs(quat_norm(q) - 1.0), 1e-12 * tol_scale

    def check_rng_repeat():
        a = numerics.RngStream(7)
        b = numerics.RngStream(7)
        same = all(a.gaussian(1.0) == b.gaussian(1.0) for _ in range(100))
        return (0.0 if same else 1.0), 0.0

    def check_rng_block():
        # each block draw must return, and leave the stream as, that many
        # gaussian() calls would, bit for bit; counts the calls that differ
        a = numerics.RngStream(11)
        b = numerics.RngStream(11)
        differ = 0
        for i, n in enumerate((1, 2, 3, 7, 540, 12_288, 3, 540, 1)):
            sigma = (1.0, 1e-3)[i % 2]
            got = a.gaussian_vec(sigma, n)
            want = np.array([b.gaussian(sigma) for _ in range(n)])
            if got.tobytes() != want.tobytes() or (a._state, a._spare) != (b._state, b._spare):
                differ += 1
        return float(differ), 0.0

    return [
        ("jacobi_residual", check_jacobi),
        ("jacobi_stack_bitwise", check_jacobi_stack),
        ("condition_number_identity", check_identity_cond),
        ("davenport_recovery", check_davenport),
        ("triad_exactness", check_triad),
        ("integrate_norm_drift", check_integrate_drift),
        ("rng_reproducibility", check_rng_repeat),
        ("rng_block_bitwise", check_rng_block),
    ]


def _cmd_selfcheck(args) -> int:
    tol_scale = 0.1 if args.profile == "strict" else 1.0
    failures = 0
    for name, fn in _selfcheck_cases(tol_scale):
        measured, tol = fn()
        ok = measured <= tol
        status = "ok" if ok else "FAIL"
        print(f"{status}: {name} (measured {measured:.3e}, tolerance {tol:.3e})")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 3


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "solve-wahba":
            return _cmd_solve_wahba(args)
        if args.command == "triad":
            return _cmd_triad(args)
        if args.command == "gen-catalog":
            return _cmd_gen_catalog(args)
        if args.command == "selfcheck":
            return _cmd_selfcheck(args)
    except (ConfigError, InvalidInput, OSError) as exc:  # OSError: an output path
        print(f"attsim: config error: {exc}", file=sys.stderr)
        return 2
    except AttsimError as exc:
        print(f"attsim: numerical failure: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable: unknown command")


if __name__ == "__main__":
    raise SystemExit(main())
