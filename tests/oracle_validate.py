"""The former, larger probe set of LndSystem validation, kept as an oracle.

LndSystem used to probe pairwise commutation and local nilpotence on the
carrier generators, the slices, and every pairwise slice product t_a * t_b
(a <= b).  The library now probes the generators only, which is exactly as
strong (a commutator of derivations is a derivation, and Leibniz carries
nilpotence from generators to products).  ``validate`` runs the old check
on a system built with ``check=False`` and raises what the old constructor
raised, so the tests can compare verdicts and error classes.
"""

from fractions import Fraction

from lndcalc import (
    CapExceededError,
    CombinationDerivation,
    CommPoly,
    FreeElement,
    LndError,
    WeylElement,
)


def _generators(one):
    if isinstance(one, CommPoly):
        return [CommPoly.variable(one.num_vars, i, one.laurent_mask)
                for i in range(one.num_vars)]
    if isinstance(one, WeylElement):
        return [WeylElement.generator(one.signature, i)
                for i in range(one.signature.s)]
    return [FreeElement.generator(one.num_gens, i) for i in range(one.num_gens)]


def _central(coeff, one) -> bool:
    if isinstance(coeff, (int, Fraction)) or isinstance(one, CommPoly):
        return True
    if isinstance(one, WeylElement):
        return coeff.is_central()
    return coeff.is_constant()


def validate(system) -> None:
    """The pre-reduction validation of an unchecked LndSystem."""
    s = system.s
    one = system.slice_monomial((0,) * s)
    zero = one - one
    for i in range(s):
        for j, t in enumerate(system.slices):
            got = system.derive(i, t)
            if got != (one if i == j else zero):
                raise LndError(f"derivation {i + 1} applied to slice {j + 1} gives {got}")
    if isinstance(one, CommPoly):
        for v in sorted(one.laurent_mask):
            unit = CommPoly.variable(one.num_vars, v, one.laurent_mask)
            for i in range(s):
                if not system.derive(i, unit).is_zero():
                    raise LndError(f"derivation {i + 1} does not kill the unit x{v + 1}")
    for deriv in system.derivations:
        if isinstance(deriv, CombinationDerivation):
            for coeff, _ in deriv.parts:
                if not _central(coeff, one):
                    raise LndError("combination coefficient is not central")
    probes = _generators(one) + list(system.slices)
    for a in range(s):
        for b in range(a, s):
            probes.append(system.slices[a] * system.slices[b])
    for i in range(s):
        for j in range(i + 1, s):
            for p in probes:
                if system.derive(i, system.derive(j, p)) != system.derive(j, system.derive(i, p)):
                    raise LndError(f"derivations {i + 1} and {j + 1} do not commute on {p}")
    for i in range(s):
        for p in probes:
            cur = p
            for _ in range(system.nilpotence_cap + 1):
                if cur.is_zero():
                    break
                cur = system.derive(i, cur)
            else:
                raise CapExceededError(f"derivation {i + 1} not nilpotent on {p}")
