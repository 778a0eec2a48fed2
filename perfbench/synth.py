"""Seeded synthetic effort dataset: a user CSV plus its schema sidecar.

The shape follows the few-hundred-row company datasets that users bring:
integer size and staffing counts, two-decimal cost-driver ratings, two
project factors and an integer effort response.  Two rows are planted so a
known pair of leave-one-out folds fails:

* ``interfaces`` is a strongly right-skewed count, so ``log`` is the
  transform chosen on every training split that lacks its single zero;
  holding that zero out raises ``E_DOMAIN``.
* ``platform`` has one level held by a single project; holding that
  project out raises ``E_UNSEEN_LEVEL``.

Every numeric column has many distinct values, so no two-valued column can
put the transform choice at the mercy of a floating-point tie.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_ROWS = 200
RESPONSE = "effort"
RATINGS = ("rely", "cplx", "stor", "time", "acap", "pcap", "tool", "sced")
COUNTS = ("size_fp", "team", "duration", "interfaces")
ZERO_COLUMN = "interfaces"
FACTORS = {
    "platform": ("mainframe", "pc", "web", "mobile"),
    "sector": ("finance", "public", "telecom"),
}
SINGLETON_FACTOR = "platform"
SINGLETON_LEVEL = "embedded"
#: fewest distinct values any numeric column may have
MIN_DISTINCT = 10

_COUNT_SHAPE = {  # (log-mean, log-sd, floor) of each count column
    "size_fp": (5.0, 0.9, 10),
    "team": (1.6, 0.6, 1),
    "duration": (2.3, 0.5, 1),
    "interfaces": (2.5, 0.9, 1),
}


@dataclass(frozen=True)
class Synthetic:
    csv_text: str
    schema_text: str
    n_rows: int
    #: leave-one-out fold (= row id) -> error code that fold must fail with
    expected_failures: dict


def generate(seed: int) -> Synthetic:
    rng = np.random.default_rng(seed)
    counts = {}
    for name in COUNTS:
        mu, sigma, floor = _COUNT_SHAPE[name]
        counts[name] = np.maximum(np.rint(rng.lognormal(mu, sigma, N_ROWS)), floor)
    # right-skewed like effort multipliers, so no rating keeps the identity
    # transform and every seed transforms the same set of columns
    ratings = {name: np.maximum(np.round(rng.lognormal(0.0, 0.25, N_ROWS), 2), 0.3)
               for name in RATINGS}
    factors = {name: rng.choice(levels, size=N_ROWS).tolist()
               for name, levels in FACTORS.items()}
    zero_row, singleton_row = (int(i) for i in rng.choice(N_ROWS, size=2, replace=False))
    counts[ZERO_COLUMN][zero_row] = 0.0
    factors[SINGLETON_FACTOR][singleton_row] = SINGLETON_LEVEL

    log_effort = (1.0 + 0.9 * np.log(counts["size_fp"]) + 0.3 * np.log(counts["team"])
                  + 0.2 * np.log1p(counts["interfaces"])
                  + sum(0.8 * np.log(ratings[name]) for name in RATINGS)
                  + np.array([0.2 * FACTORS["sector"].index(v) for v in factors["sector"]])
                  + rng.normal(0.0, 0.35, N_ROWS))
    effort = np.maximum(np.rint(np.exp(log_effort)), 1.0)

    numeric = {**counts, **ratings, RESPONSE: effort}
    for name, values in numeric.items():
        if np.unique(values).size < MIN_DISTINCT:
            raise ValueError(f"seed {seed}: column {name!r} has too few distinct values")

    header = [*COUNTS[:2], *RATINGS[:4], "platform", *COUNTS[2:], *RATINGS[4:],
              "sector", RESPONSE]
    lines = [",".join(header)]
    for i in range(N_ROWS):
        cells = []
        for name in header:
            if name in factors:
                cells.append(factors[name][i])
            elif name in RATINGS:
                cells.append(f"{ratings[name][i]:.2f}")
            else:
                cells.append(str(int(numeric[name][i])))
        lines.append(",".join(cells))
    schema = [f"{name} {'categorical' if name in factors else 'numeric'} "
              f"{'response' if name == RESPONSE else 'explanatory'}" for name in header]
    return Synthetic(
        csv_text="\n".join(lines) + "\n",
        schema_text="\n".join(schema) + "\n",
        n_rows=N_ROWS,
        expected_failures={zero_row: "E_DOMAIN", singleton_row: "E_UNSEEN_LEVEL"},
    )


def write(synthetic: Synthetic, directory: Path) -> tuple[Path, Path]:
    """Write the CSV and schema into ``directory``; return their paths."""
    csv_path = directory / "projects.csv"
    schema_path = directory / "projects.schema"
    csv_path.write_text(synthetic.csv_text, encoding="utf-8")
    schema_path.write_text(synthetic.schema_text, encoding="utf-8")
    return csv_path, schema_path
