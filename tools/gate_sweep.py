"""Pass fractions of the acceptance gates over fresh base seeds.

    python tools/gate_sweep.py --label after [--src src] [--gates criterion_06 ...]

Runs criteria 01 (coupling rate), 02 (uniform-in-time chaos), 03
(collision conservation), 04 (exact against Bird), 05 (Kac chaos decay),
06 (EKS posterior recovery), 07 (CBO consensus), 08 (Bossy-Talay CDF
rate), 09 (Kuramoto phase transition) and 10 (collective MH moments), as
the functions ``criterion_NN_gate(seed)`` of
``tests/test_acceptance.py``, at the 50 base seeds 10000-10049, which no
test uses; ``--gates`` runs only the named ones. The meanfield package is
imported from ``--src``, the ``src/`` directory of any checkout, so the
same gates can be run against another version of the program. Each family
of gates has its own file: ``tools/gates_boltzmann.json`` for 03 to 05,
``tools/gates_mckean.json`` for 01, 02 and 06 to 09 and
``tools/gates_jump.json`` for 10. For each gate its file gets, under
``--label``, the fraction of seeds that pass, quantiles of the gate's
statistic and the statistic at every seed. Other labels and gates already
in the file are kept, so runs on two versions sit side by side; after each
gate the sweep names the other labels whose statistics equal this run's,
float for float, so a claim of unchanged numbers can be read off the run.

The tier-1 suite runs each gate at one seed only; this sweep takes minutes
(criterion 05 runs 2048 exact simulations per seed, criterion 02 a
32-replica coupling over 1000 steps, criterion 10 2000 sweeps of 500
particles), so it is not part of it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10_000, 10_050)
# output file -> gate -> (its statistic, its pass condition)
FAMILIES = {
    "gates_boltzmann.json": {
        "criterion_03": ("larger relative drift of momentum and energy", "<= 1e-8"),
        "criterion_04": ("W1(exact, bird) / W1(exact, exact)", "<= 3"),
        "criterion_05": ("slope of log |pair covariance| against log N", "in [-1.4, -0.6]"),
    },
    "gates_mckean.json": {
        "criterion_01": ("slope of log sup-t coupling MSE against log N", "in [-1.3, -0.7], with r2 >= 0.9"),
        "criterion_02": ("mean MSE over t in [4, 6] / mean MSE over [8, 10] of the gradient-system "
                         "coupling, against the exact OU law",
                         "in [0.5, 2], with mse(5) and mse(10) <= 5 mse(1)"),
        "criterion_06": ("max(mean error / 0.1, cov error / 0.2, mode gap / 1e-8) of the EKS runs", "<= 1"),
        "criterion_07": ("quadratic CBO seeds, of 20, within 1e-2 of the minimizer", ">= 18"),
        "criterion_08": ("slope of log mean L1 CDF error against log N", "in [-0.7, -0.3]"),
        "criterion_09": ("min of the 20 runs with r >= 0.8 at K = 2 and the 20 with r <= 0.3 at K = 0.2",
                         ">= 18"),
    },
    "gates_jump.json": {
        "criterion_10": ("max(|pooled mean| / 0.05, |pooled variance - 1| / 0.1)", "<= 1"),
    },
}


def sweep(gate) -> dict:
    passed, stats = [], []
    for seed in SEEDS:
        ok, stat, _ = gate(seed)
        passed.append(bool(ok))
        stats.append(float(stat))
    q = np.quantile(stats, [0.05, 0.25, 0.5, 0.75, 0.95])
    return {
        "pass_fraction": sum(passed) / len(passed),
        "quantiles": dict(zip(("q05", "q25", "q50", "q75", "q95"), q.tolist())),
        "values": stats,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gate_sweep", description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding the meanfield package")
    every_gate = [name for gates in FAMILIES.values() for name in gates]
    parser.add_argument("--gates", nargs="+", choices=every_gate, default=every_gate, metavar="NAME",
                        help="run only these gates, e.g. criterion_06")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests")]
    import test_acceptance

    for filename, gates in FAMILIES.items():
        out = ROOT / "tools" / filename
        results = json.loads(out.read_text()) if out.exists() else {}
        for name, (statistic, condition) in gates.items():
            if name not in args.gates:
                continue
            start = time.perf_counter()
            entry = results.setdefault(name, {"statistic": statistic, "passes_if": condition})
            entry["seeds"] = [SEEDS[0], SEEDS[-1]]
            entry[args.label] = sweep(getattr(test_acceptance, f"{name}_gate"))
            print(f"{name} [{args.label}]: pass fraction {entry[args.label]['pass_fraction']:.2f}, "
                  f"median {entry[args.label]['quantiles']['q50']:.4g} "
                  f"({time.perf_counter() - start:.0f} s)", flush=True)
            out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
            values = json.dumps(entry[args.label]["values"])  # float reprs: NaN equals NaN, -0.0 differs from 0.0
            same = [label for label, run in sorted(entry.items())
                    if label != args.label and isinstance(run, dict) and json.dumps(run["values"]) == values]
            print(f"{name} [{args.label}]: values equal float for float to {', '.join(same) or 'no other label'}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
