"""Frozen generator of the benchmark's seeded instances.

A verbatim copy of ``jet_sqrt`` and ``random_certificate_instance`` from
``tests/conftest.py`` as of the commit that defined the benchmark, so that
later edits to the test helpers cannot change the workloads between two
commits being compared.  ``test_frozen_inputs.py`` checks the copy.
"""

from neron import ALGEBRA, BASE, Polynomial, VarTable, parse_poly
from neron.desing import DesingProblem, MorphismApprox
from neron.localring import LocalRingSpec, jet_invert, minimal_primes


def jet_sqrt(ring, p, n):
    """Jet square root with unit constant term, by Newton iteration."""
    from fractions import Fraction
    z = ring.jet(1, n)
    pj = ring.jet(p, n)
    for _ in range(10):
        if (z * z - pj).is_zero():
            break
        z = (z + pj * jet_invert(z)) * Fraction(1, 2)
    return z


def random_certificate_instance(seed, n_prec=9):
    """Seeded random valid instance for the certificate property suite.

    Base relation ideal drawn from {0, (x1*x2), (x1^2*x2)}, at most three
    algebra variables, relation degree at most two in them.  Instances mix
    exactly solvable systems with square-root series whose truncation error
    produces a nonzero Taylor constant b.
    """
    import random as _random
    rng = _random.Random(seed)
    jtxt = rng.choice([None, "x1*x2", "x1^2*x2"])
    n = rng.randint(1, 3)
    base = [("x1", BASE)] if jtxt is None else [("x1", BASE), ("x2", BASE)]
    pairs = base + [(f"Y{i + 1}", ALGEBRA) for i in range(n)]
    T = VarTable.make(*pairs)
    nb = len(base)
    J = [] if jtxt is None else [parse_poly(T, jtxt)]
    ring = LocalRingSpec(T, J, primes=minimal_primes(J, T))
    ynames = [f"Y{i + 1}" for i in range(n)]

    def rnd_base(maxdeg=2):
        p = Polynomial.zero(T)
        for _ in range(rng.randint(1, 3)):
            ds = [rng.randint(0, maxdeg) for _ in range(nb)]
            if sum(ds) > maxdeg:
                continue
            mon = tuple(ds + [0] * n)
            p = p + Polynomial.from_terms(T, [(mon, rng.randint(-2, 2))])
        return p

    rels = []
    jets = {}
    sqrt_slot = rng.randrange(n) if rng.random() < 0.5 else None
    y0 = {}
    for i, nm in enumerate(ynames):
        if i == sqrt_slot:
            u = 1 + rnd_base(1) * parse_poly(T, "x1")
            target = u * u * (1 + parse_poly(T, "x1"))
            yj = jet_sqrt(ring, target, n_prec)
            y0[nm] = yj.poly
            jets[nm] = yj
            rels.append(Polynomial.var(T, nm) ** 2 - target)
        else:
            y0[nm] = rnd_base()
            jets[nm] = ring.jet(y0[nm], n_prec)
    diffs = {nm: Polynomial.var(T, nm) - y0[nm] for nm in ynames}
    for i, nm in enumerate(ynames):
        if i == sqrt_slot:
            continue
        f = Polynomial.zero(T)
        for j, nm2 in enumerate(ynames):
            if j == sqrt_slot:
                continue
            c = rng.randint(-2, 2)
            if i == j and c == 0:
                c = 1
            q = Polynomial.const(T, c)
            if rng.random() < 0.4:
                q = q + rnd_base(1)
            f = f + q * diffs[nm2]
        others = [x for k, x in enumerate(ynames) if k != sqrt_slot]
        if rng.random() < 0.5 and others:
            a = rng.choice(others)
            b = rng.choice(others)
            f = f + rng.randint(-1, 1) * diffs[a] * diffs[b]
        if not f.is_zero():
            rels.append(f)
    if not rels:
        return None
    v = MorphismApprox(n_prec, jets)
    return DesingProblem(ring, tuple(rels), v, seed=seed, max_subset=3)
