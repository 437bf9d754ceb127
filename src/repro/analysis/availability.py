"""Closed-form availability of the trapezoid protocol (paper section IV).

Implements, vectorized over node availability p:

* eq. (8)/(9)  — write availability (identical for TRAP-FR and TRAP-ERC),
* eq. (10)    — read availability of TRAP-FR,
* eq. (13)    — read availability of TRAP-ERC, with the paper's β_l / λ_l
  bookkeeping (eqs. 11-12) and its P1 (direct read) + P2 (decode) split.

The paper's eq. 13 embeds two modeling simplifications:
its level-0 correction term uses ``β_0 = max(0, r_0 - 2)`` which
overcounts failures when r_0 = 1, and its P2 term ignores both the
version-check requirement and the check/decode node overlap. The exact
snapshot-model availability is available in :mod:`repro.analysis.exact`;
this module reproduces the published formulas faithfully.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.phi import at_least, at_least_table, phi
from repro.errors import ConfigurationError
from repro.quorum.trapezoid import TrapezoidQuorum

__all__ = [
    "validate_erc_geometry",
    "write_availability",
    "write_availability_family",
    "read_availability_fr",
    "erc_betas_lambdas",
    "read_availability_erc",
    "read_availability_erc_terms",
]


def validate_erc_geometry(quorum: TrapezoidQuorum, n: int, k: int) -> None:
    """Check the paper's eq. (5): the trapezoid holds n - k + 1 nodes."""
    if k < 1 or n < k:
        raise ConfigurationError(f"invalid (n={n}, k={k})")
    expected = n - k + 1
    if quorum.shape.total_nodes != expected:
        raise ConfigurationError(
            f"trapezoid has {quorum.shape.total_nodes} nodes but (n={n}, "
            f"k={k}) requires Nbnode = n - k + 1 = {expected}"
        )


def write_availability(quorum: TrapezoidQuorum, p) -> np.ndarray:
    """Eq. (8)/(9): P_write = prod_l Φ_{s_l}(w_l, s_l).

    The write path is oblivious to whether blocks are replicas or parity
    deltas, which is why the paper finds identical write availability for
    TRAP-FR and TRAP-ERC.
    """
    p = np.asarray(p, dtype=np.float64)
    out = np.ones_like(p)
    for l in quorum.shape.levels:
        out = out * at_least(quorum.shape.level_size(l), quorum.w[l], p)
    return out


def write_availability_family(shape, vectors, p) -> np.ndarray:
    """Eq. (9) for a whole family of write vectors against shared Φ tables.

    ``vectors`` is a sequence of (h+1)-tuples over ``shape``; returns an
    array with one leading row per vector, each row bit-identical to
    ``write_availability(TrapezoidQuorum(shape, w), p)`` — the per-level
    ``Φ_{s_l}(w_l, s_l)`` factors are computed once per (level, p) and
    multiplied in the same level order as the per-quorum closed form.
    """
    p = np.asarray(p, dtype=np.float64)
    tables = [at_least_table(shape.level_size(l), p) for l in shape.levels]
    rows = []
    for w in vectors:
        if len(w) != shape.h + 1:
            raise ConfigurationError(
                f"w must have h+1 = {shape.h + 1} entries, got {len(w)}"
            )
        for l in shape.levels:
            if not 0 <= w[l] <= shape.level_size(l):
                raise ConfigurationError(
                    f"need 0 <= w_{l} <= s_{l} = {shape.level_size(l)}, "
                    f"got {w[l]}"
                )
        out = np.ones_like(p)
        for l in shape.levels:
            out = out * tables[l][w[l]]
        rows.append(out)
    return np.stack(rows)


def read_availability_fr(quorum: TrapezoidQuorum, p) -> np.ndarray:
    """Eq. (10): P_read = 1 - prod_l (1 - Φ_{s_l}(r_l, s_l)).

    With full replicas, finding r_l responsive nodes at any level yields
    both the latest version number and a readable copy. Levels are
    disjoint, so the product form is exact for the snapshot model.
    """
    p = np.asarray(p, dtype=np.float64)
    miss = np.ones_like(p)
    for l in quorum.shape.levels:
        miss = miss * (1.0 - at_least(quorum.shape.level_size(l), quorum.r(l), p))
    return 1.0 - miss


def erc_betas_lambdas(quorum: TrapezoidQuorum) -> tuple[list[int], list[int]]:
    """The paper's eqs. (11)-(12).

    β_0 = max(0, r_0 - 2), β_l = r_l - 1 (l >= 1);
    λ_0 = s_0 - 1,          λ_l = s_l     (l >= 1).

    Level 0 is special because N_i itself lives there: conditioned on N_i
    being alive, only s_0 - 1 level-0 nodes remain random and one response
    (N_i's own) is already counted.
    """
    betas: list[int] = []
    lambdas: list[int] = []
    for l in quorum.shape.levels:
        r_l = quorum.r(l)
        s_l = quorum.shape.level_size(l)
        if l == 0:
            betas.append(max(0, r_l - 2))
            lambdas.append(s_l - 1)
        else:
            betas.append(r_l - 1)
            lambdas.append(s_l)
    return betas, lambdas


def read_availability_erc_terms(
    quorum: TrapezoidQuorum, n: int, k: int, p
) -> tuple[np.ndarray, np.ndarray]:
    """The P1 (direct read) and P2 (decode) terms of eq. (13), separately.

    P1 = p * (1 - prod_l Φ_{λ_l}(0, β_l))   -- N_i alive, check quorum found
    P2 = (1 - p) * Φ_{n-1}(k, n-1)          -- N_i dead, k of n-1 alive
    """
    validate_erc_geometry(quorum, n, k)
    p = np.asarray(p, dtype=np.float64)
    betas, lambdas = erc_betas_lambdas(quorum)
    fail_all_levels = np.ones_like(p)
    for beta_l, lambda_l in zip(betas, lambdas):
        fail_all_levels = fail_all_levels * phi(lambda_l, 0, beta_l, p)
    p1 = p * (1.0 - fail_all_levels)
    p2 = (1.0 - p) * at_least(n - 1, k, p)
    return p1, p2


def read_availability_erc(quorum: TrapezoidQuorum, n: int, k: int, p) -> np.ndarray:
    """Eq. (13): P_read = P1 + P2 for TRAP-ERC."""
    p1, p2 = read_availability_erc_terms(quorum, n, k, p)
    return p1 + p2
