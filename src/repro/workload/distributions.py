"""Attribute value distributions.

The evaluation (Section V) populates records with four families of
attribute distributions, all on [0, 1]:

* **uniform** — i.i.d. uniform over the unit interval;
* **range** — per *server*, uniform within a random sub-range of length
  0.5 (this is what makes servers' data distinguishable and summaries
  useful for pruning);
* **Gaussian** — scaled and truncated into [0, 1]; we give each server its
  own mean so data is heterogeneous across servers;
* **Pareto** — heavy-tailed, scaled and truncated into [0, 1], with a
  per-server scale parameter.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def uniform_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """i.i.d. uniform on [0, 1]."""
    return rng.random(n)


def range_values(
    rng: np.random.Generator, n: int, length: float = 0.5
) -> np.ndarray:
    """Uniform within one random sub-range of the given *length*.

    The sub-range location is drawn once per call (i.e. per server per
    attribute), uniform over feasible positions.
    """
    if not (0.0 < length <= 1.0):
        raise ValueError(f"range length must be in (0, 1], got {length}")
    start = rng.uniform(0.0, 1.0 - length)
    return start + rng.random(n) * length


def gaussian_values(
    rng: np.random.Generator,
    n: int,
    mean: float = None,
    sigma: float = 0.01,
) -> np.ndarray:
    """Truncated Gaussian on [0, 1].

    When *mean* is omitted it is drawn uniform per call (per server).
    Out-of-range draws are resampled (truncation, not clipping, to avoid
    artificial mass at the boundaries).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if mean is None:
        mean = float(rng.uniform(0.0, 1.0))
    out = rng.normal(mean, sigma, size=n)
    bad = (out < 0.0) | (out > 1.0)
    attempts = 0
    while bad.any() and attempts < 64:
        out[bad] = rng.normal(mean, sigma, size=int(bad.sum()))
        bad = (out < 0.0) | (out > 1.0)
        attempts += 1
    np.clip(out, 0.0, 1.0, out=out)  # pathological means: fall back to clip
    return out


def pareto_values(
    rng: np.random.Generator,
    n: int,
    shape: float = 2.0,
    scale: float = None,
    scale_range: Tuple[float, float] = (0.005, 0.04),
) -> np.ndarray:
    """Truncated Pareto on [0, 1] with per-call (per-server) scale x_m.

    Values follow ``x_m * (1 + Pareto(shape))`` truncated into [0, 1]:
    concentrated just above ``x_m`` with a heavy upper tail.
    """
    if shape <= 0:
        raise ValueError("shape must be positive")
    if scale is None:
        scale = float(rng.uniform(*scale_range))
    out = scale * (1.0 + rng.pareto(shape, size=n))
    return np.clip(out, 0.0, 1.0)


def overlap_values(
    rng: np.random.Generator, n: int, overlap_length: float
) -> np.ndarray:
    """Per-server values confined to a random range of *overlap_length*.

    Used by the data-distribution experiment (Figure 9): each server's
    data for the first eight attributes lies within a range of length
    ``Of / num_nodes`` randomly located in [0, 1]; a larger overlap factor
    ``Of`` makes different servers' data overlap more.
    """
    if not (0.0 < overlap_length <= 1.0):
        raise ValueError(
            f"overlap length must be in (0, 1], got {overlap_length}"
        )
    return range_values(rng, n, overlap_length)
